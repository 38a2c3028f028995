"""Cross-module property-based tests (hypothesis).

These exercise invariants that hold across randomly generated corpora
and seeds — the guarantees downstream code relies on.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.claims.engine import TableQueryEngine
from repro.claims.generator import ClaimGenerator
from repro.claims.parser import ClaimParser
from repro.datalake.serialize import serialize_row
from repro.index.base import SearchHit, top_k
from repro.llm.model import SimulatedLLM
from repro.llm.profile import LLMProfile
from repro.llm.prompts import (
    parse_verification_response,
    verification_prompt,
)
from repro.workloads.tables import WebTableGenerator

slow = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

QUIET = LLMProfile(
    arithmetic_slip=0.0, lookup_slip=0.0, binding_slip=0.0,
    extraction_slip=0.0, relatedness_slip=0.0,
)


class TestTopK:
    @given(
        st.dictionaries(
            st.text(alphabet="abcdef", min_size=1, max_size=4),
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            max_size=20,
        ),
        st.integers(min_value=0, max_value=25),
    )
    def test_sorted_and_bounded(self, scores, k):
        hits = top_k(scores, k)
        assert len(hits) <= min(k, len(scores))
        values = [h.score for h in hits]
        assert values == sorted(values, reverse=True)

    @given(
        st.dictionaries(
            st.text(alphabet="abcdef", min_size=1, max_size=4),
            st.just(1.0),
            min_size=2, max_size=10,
        )
    )
    def test_ties_break_by_id(self, scores):
        hits = top_k(scores, len(scores))
        ids = [h.instance_id for h in hits]
        assert ids == sorted(ids)


class TestGeneratedCorpusInvariants:
    @slow
    @given(st.integers(min_value=0, max_value=10_000))
    def test_every_generated_claim_is_engine_consistent(self, seed):
        generator = WebTableGenerator(seed=seed)
        tables = generator.generate(4)
        claim_gen = ClaimGenerator(seed=seed, variation_rate=0.3)
        engine = TableQueryEngine()
        parser = ClaimParser()
        for table in tables:
            for generated in claim_gen.generate_for_table(table, 3):
                # label consistency by spec
                assert engine.execute(
                    generated.claim.spec, table
                ).verdict == generated.label
                # and by parsed surface text
                spec = parser.parse(generated.claim.text)
                assert spec is not None
                assert engine.execute(spec, table).verdict == generated.label

    @slow
    @given(st.integers(min_value=0, max_value=10_000))
    def test_tables_are_well_formed(self, seed):
        tables = WebTableGenerator(seed=seed).generate(6)
        for table in tables:
            assert table.num_rows > 0
            assert table.key_column in table.columns
            keys = table.column_values(table.key_column)
            assert len(set(keys)) == len(keys)
            for row in table.rows:
                assert all(cell for cell in row)


class TestVerifierSoundness:
    """With a quiet profile, verification against the *original* tuple is
    an oracle: VERIFIED iff the generated value matches the truth."""

    @slow
    @given(
        st.integers(min_value=0, max_value=5_000),
        st.booleans(),
    )
    def test_tuple_tuple_oracle(self, seed, corrupt):
        tables = WebTableGenerator(seed=seed).generate(2)
        table = tables[0]
        rng = random.Random(seed)
        row = table.row(rng.randrange(table.num_rows))
        columns = [c for c in table.columns if c != table.key_column]
        column = rng.choice(columns)
        true_value = row.get(column)
        value = true_value
        if corrupt:
            value = true_value + "x" if true_value else "corrupted"
        llm = SimulatedLLM(knowledge=None, profile=QUIET, seed=7)
        prompt = verification_prompt(
            serialize_row(row),
            serialize_row(row.replace_value(column, value)),
            attribute=column,
        )
        verdict, _ = parse_verification_response(llm.chat(prompt))
        assert verdict == ("refuted" if corrupt else "verified")

    @slow
    @given(st.integers(min_value=0, max_value=5_000))
    def test_determinism_across_instances(self, seed):
        tables = WebTableGenerator(seed=seed).generate(1)
        row = tables[0].row(0)
        prompt = verification_prompt(
            serialize_row(row), serialize_row(row),
            attribute=tables[0].columns[-1],
        )
        a = SimulatedLLM(knowledge=None, seed=5).chat(prompt)
        b = SimulatedLLM(knowledge=None, seed=5).chat(prompt)
        assert a == b


class TestSerializationInverses:
    @slow
    @given(st.integers(min_value=0, max_value=10_000))
    def test_row_serialization_parses_back(self, seed):
        from repro.datalake.serialize import parse_row

        tables = WebTableGenerator(seed=seed).generate(2)
        for table in tables:
            for row in table.iter_rows():
                parsed = parse_row(serialize_row(row))
                assert parsed == row.as_dict()

    @slow
    @given(st.integers(min_value=0, max_value=10_000))
    def test_lake_persistence_round_trip(self, tmp_path_factory, seed):
        from repro.datalake.lake import DataLake
        from repro.datalake.persistence import load_lake, save_lake

        lake = DataLake("prop")
        for table in WebTableGenerator(seed=seed).generate(3):
            lake.add_table(table)
        path = tmp_path_factory.mktemp("prop") / f"lake-{seed}.json"
        save_lake(lake, path)
        loaded = load_lake(path)
        assert loaded.stats() == lake.stats()
        for table in lake.tables():
            assert loaded.table(table.table_id).rows == table.rows
