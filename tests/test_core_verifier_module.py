"""VerifierModule: agent + trust-weighted evidence pooling, and the
outcome cache: one 16-byte digest a pair, that a write to the lake
changes, shared by worker threads (``make sanitize`` runs this file)."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import verifier as core_verifier
from repro.core.verifier import VerifierModule
from repro.datalake.serialize import serialize_instance, serialize_row
from repro.llm.model import SimulatedLLM
from repro.verify.agent import VerifierAgent
from repro.verify.llm_verifier import LLMVerifier
from repro.verify.objects import ClaimObject, TupleObject
from repro.verify.verdict import Verdict
from tests.test_llm_readings import hammer


@pytest.fixture()
def module(tiny_lake, quiet_profile):
    llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=20)
    agent = VerifierAgent([], fallback=LLMVerifier(llm))
    return VerifierModule(agent, tiny_lake)


class TestSourceOf:
    def test_row_source_from_parent_table(self, module, election_table):
        assert module.source_of(election_table.row(0)) == "tabfact"

    def test_document_source(self, module, tiny_lake):
        assert module.source_of(tiny_lake.document("page-jenkins")) == "wikipages"

    def test_kg_entity_source(self, module, tiny_lake):
        tiny_lake.kg.add("some entity", "p", "o")
        entity = tiny_lake.kg.entity("some entity")
        assert module.source_of(entity) == "knowledge-graph"


class TestVerifyPool:
    def test_pool_aggregates_majority(self, module, election_table, tiny_lake):
        obj = TupleObject("p1", election_table.row(0), attribute="party")
        evidence = [
            election_table.row(0),                 # verifies
            tiny_lake.document("page-jenkins"),    # verifies (page says republican)
            election_table.row(3),                 # unrelated entity
        ]
        outcomes, final, margin = module.verify_pool(obj, evidence)
        assert len(outcomes) == 3
        assert final is Verdict.VERIFIED
        assert margin == 1.0  # the unrelated outcome abstains

    def test_trust_weights_change_decision(self, tiny_lake, election_table,
                                           quiet_profile):
        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=21)
        agent = VerifierAgent([], fallback=LLMVerifier(llm))
        # distrust the tabfact source entirely, trust wikipages
        module = VerifierModule(
            agent, tiny_lake,
            source_trust={"tabfact": 0.0, "wikipages": 1.0},
        )
        wrong = election_table.row(0).replace_value("votes", "55,000")
        obj = TupleObject("p2", wrong, attribute="votes")
        outcomes, final, margin = module.verify_pool(
            obj, [election_table.row(0), tiny_lake.document("page-jenkins")]
        )
        # both refute, but only the trusted source carries weight
        assert final is Verdict.REFUTED
        assert margin == 1.0

    def test_all_unrelated_gives_not_related(self, module, election_table,
                                             medal_table):
        obj = TupleObject("p3", election_table.row(0), attribute="party")
        outcomes, final, margin = module.verify_pool(
            obj, [medal_table.row(0), medal_table.row(1)]
        )
        assert final is Verdict.NOT_RELATED
        assert margin == 0.0

    def test_empty_evidence(self, module, election_table):
        obj = TupleObject("p4", election_table.row(0), attribute="party")
        outcomes, final, margin = module.verify_pool(obj, [])
        assert outcomes == []
        assert final is Verdict.NOT_RELATED


class TestCache:
    def test_repeated_pairs_hit_cache(self, module, election_table):
        obj = TupleObject("c1", election_table.row(0), attribute="party")
        evidence = election_table.row(0)
        before = module.cache_hits
        first = module.verify_one(obj, evidence)
        second = module.verify_one(obj, evidence)
        assert module.cache_hits == before + 1
        assert first == second

    def test_same_content_different_object_id_hits(self, module,
                                                   election_table):
        evidence = election_table.row(1)
        a = TupleObject("idA", election_table.row(1), attribute="party")
        b = TupleObject("idB", election_table.row(1), attribute="party")
        module.verify_one(a, evidence)
        before = module.cache_hits
        module.verify_one(b, evidence)
        assert module.cache_hits == before + 1

    def test_different_attribute_misses(self, module, election_table):
        evidence = election_table.row(2)
        a = TupleObject("x", election_table.row(2), attribute="party")
        b = TupleObject("x", election_table.row(2), attribute="votes")
        module.verify_one(a, evidence)
        before = module.cache_hits
        module.verify_one(b, evidence)
        assert module.cache_hits == before

    def test_cache_disabled(self, tiny_lake, quiet_profile, election_table):
        from repro.llm.model import SimulatedLLM
        from repro.verify.agent import VerifierAgent
        from repro.verify.llm_verifier import LLMVerifier

        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=22)
        module = VerifierModule(
            VerifierAgent([], fallback=LLMVerifier(llm)), tiny_lake,
            cache=False,
        )
        obj = TupleObject("c2", election_table.row(0), attribute="party")
        module.verify_one(obj, election_table.row(0))
        module.verify_one(obj, election_table.row(0))
        assert module.cache_hits == 0


class TestCacheBound:
    def make_module(self, tiny_lake, quiet_profile, cache_size):
        from repro.llm.model import SimulatedLLM
        from repro.verify.agent import VerifierAgent
        from repro.verify.llm_verifier import LLMVerifier

        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=23)
        return VerifierModule(
            VerifierAgent([], fallback=LLMVerifier(llm)), tiny_lake,
            cache_size=cache_size,
        )

    def test_cache_never_exceeds_bound(self, tiny_lake, quiet_profile,
                                       election_table):
        module = self.make_module(tiny_lake, quiet_profile, cache_size=2)
        for i in range(4):
            obj = TupleObject("b", election_table.row(i), attribute="party")
            module.verify_one(obj, election_table.row(i))
        assert len(module) == 2

    def test_lru_evicts_oldest_first(self, tiny_lake, quiet_profile,
                                     election_table):
        module = self.make_module(tiny_lake, quiet_profile, cache_size=2)
        objs = [
            TupleObject("b", election_table.row(i), attribute="party")
            for i in range(3)
        ]
        module.verify_one(objs[0], election_table.row(0))
        module.verify_one(objs[1], election_table.row(1))
        # touch 0 so 1 becomes the eviction victim
        module.verify_one(objs[0], election_table.row(0))
        module.verify_one(objs[2], election_table.row(2))  # evicts 1
        before = module.cache_hits
        module.verify_one(objs[0], election_table.row(0))
        assert module.cache_hits == before + 1
        module.verify_one(objs[1], election_table.row(1))  # was evicted
        assert module.cache_hits == before + 1

    def test_invalid_cache_size_rejected(self, tiny_lake, quiet_profile):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            self.make_module(tiny_lake, quiet_profile, cache_size=0)


class TestCacheFollowsContent:
    """Regression: outcomes were keyed on the evidence's instance id, so
    a claim re-verified after its table changed got the old verdict."""

    @staticmethod
    def claim_and_rewrite(table):
        """A true LOOKUP claim over ``table`` and the table with that
        one cell changed."""
        from repro.datalake.types import Table
        from repro.verify.objects import ClaimObject

        column = table.columns.index("votes")
        subject, old = table.rows[1][0], table.rows[1][column]
        claim = ClaimObject(
            "stale", f"the votes of {subject} is {old}", context=table.caption
        )
        rows = list(table.rows)
        rows[1] = rows[1][:column] + ("91,919",) + rows[1][column + 1:]
        rewritten = Table(
            table_id=table.table_id, caption=table.caption,
            columns=table.columns, rows=rows, source=table.source,
            entity_columns=table.entity_columns, key_column=table.key_column,
        )
        return claim, rewritten

    def test_same_id_new_content_is_verified_afresh(self, module,
                                                    election_table):
        claim, rewritten = self.claim_and_rewrite(election_table)
        assert module.verify_one(claim, election_table).verdict is Verdict.VERIFIED
        hits = module.cache_hits
        assert module.verify_one(claim, rewritten).verdict is Verdict.REFUTED
        assert module.cache_hits == hits
        # each version of the table keeps its own verdict
        assert module.verify_one(claim, election_table).verdict is Verdict.VERIFIED
        assert module.verify_one(claim, rewritten).verdict is Verdict.REFUTED
        assert module.cache_hits == hits + 2

    @pytest.mark.parametrize("how", ["update", "remove_add"])
    def test_reverify_after_a_write_sees_the_write(self, election_table,
                                                   medal_table, quiet_profile,
                                                   how):
        from repro.core.pipeline import VerifAI
        from repro.datalake.lake import DataLake

        lake = DataLake(name="coherence")
        lake.add_table(election_table)
        lake.add_table(medal_table)
        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=24)
        system = VerifAI(lake, llm=llm).build_indexes()
        claim, rewritten = self.claim_and_rewrite(election_table)
        assert system.verify(claim).final_verdict is Verdict.VERIFIED
        if how == "update":
            system.update_instance(rewritten)
        else:
            system.remove_instance(election_table.table_id)
            lake.add_table(rewritten)
            system.add_instance(rewritten)
        assert system.verify(claim).final_verdict is Verdict.REFUTED

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_campaign_after_update_instance_sees_the_write(
        self, election_table, medal_table, quiet_profile, workers
    ):
        """Stale verdicts, campaign-wide: the same claims re-verified
        after a write, on one worker and on four."""
        from repro.core.pipeline import VerifAI
        from repro.datalake.lake import DataLake
        from repro.datalake.types import Table

        lake = DataLake(name="coherence")
        lake.add_table(election_table)
        lake.add_table(medal_table)
        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=24)
        system = VerifAI(lake, llm=llm).build_indexes()
        votes = election_table.columns.index("votes")
        claims = [
            ClaimObject(
                f"stale-{i}", f"the votes of {row[0]} is {row[votes]}",
                context=election_table.caption,
            )
            for i, row in enumerate(election_table.rows)
        ] * 2
        rows = [
            row[:votes] + ("91,919",) + row[votes + 1:] if i % 2 else row
            for i, row in enumerate(election_table.rows)
        ]
        rewritten = Table(
            table_id=election_table.table_id, caption=election_table.caption,
            columns=election_table.columns, rows=rows,
            source=election_table.source,
            entity_columns=election_table.entity_columns,
            key_column=election_table.key_column,
        )

        def verdicts():
            batch = system.verify_batch(claims, max_workers=workers)
            return [report.final_verdict for report in batch.reports]

        assert verdicts() == [Verdict.VERIFIED] * len(claims)
        system.update_instance(rewritten)
        changed = [
            Verdict.REFUTED if i % 2 else Verdict.VERIFIED
            for i in range(len(election_table.rows))
        ]
        assert verdicts() == changed * 2


# ----------------------------------------------------------------------
# the key: one digest over six length-framed fields
# ----------------------------------------------------------------------
def digest_of(fields):
    """The cache key of a pair with these six fields, fed in one go."""
    digest = hashlib.blake2b(digest_size=16)
    return core_verifier._feed(digest, *fields).digest()


#: field values built to collide under a naive join: separators, the
#: framing's own ``-`` and ``<length>:``, ``None`` and its spelling, the
#: empty string
FIELD = st.one_of(
    st.none(),
    st.sampled_from([
        "None", "none", "", " ", "|", " ; ", "\n", "\x00", "\x01",
        "\x01\x00", "-", "0:", "1:a", "1:-", "ClaimObject", "a", "ab", "b",
        "t#r0", "\ud800",
    ]),
    st.text(alphabet="ab;|:-01\n\x00 ", max_size=6),
)


@st.composite
def field_lists_and_a_neighbour(draw):
    """Six fields, and six more that are equal to them, or differ in
    one field, or move a boundary between two, or swap ``None`` for
    ``"None"``."""
    first = draw(st.lists(FIELD, min_size=6, max_size=6))
    second = list(first)
    how = draw(st.sampled_from(["same", "replace", "shift", "none"]))
    i = draw(st.integers(0, 5))
    if how == "replace":
        second[i] = draw(FIELD)
    elif how == "shift" and i < 5:
        left, right = second[i] or "", second[i + 1] or ""
        joined = left + right
        cut = draw(st.integers(0, len(joined)))
        second[i], second[i + 1] = joined[:cut], joined[cut:]
    elif how == "none":
        second[i] = "None" if second[i] is None else None
    return first, second


class TestOneDigestKey:
    @settings(max_examples=600, deadline=None)
    @given(field_lists_and_a_neighbour())
    def test_two_pairs_share_a_key_only_if_all_six_fields_do(self, pair):
        first, second = pair
        assert (digest_of(first) == digest_of(second)) == (first == second)

    @pytest.mark.parametrize("first,second", [
        (["a ; b", "c"], ["a", "b ; c"]),
        (["ab", ""], ["a", "b"]),
        ([None, "x"], ["None", "x"]),
        ([None, ""], ["", None]),
        (["\x00", "a"], [None, "a"]),
        ([None, "1:a"], ["-", "a"]),
        (["1:", "a"], ["", "1:a"]),
    ])
    def test_named_neighbours_differ(self, first, second):
        pad = ["TupleObject", "q", "attr", None]
        assert digest_of(pad + first) != digest_of(pad + second)

    def test_a_pair_key_digests_its_six_fields(self, election_table):
        evidence = election_table.row(1)
        text = serialize_instance(evidence)
        cases = [
            (TupleObject("k", election_table.row(0), attribute="party"),
             ["TupleObject", serialize_row(election_table.row(0)),
              "party", None]),
            (ClaimObject("k", "tom jenkins is in ohio 1", context="None"),
             ["ClaimObject", "tom jenkins is in ohio 1 (None)", None,
              "None"]),
        ]
        for obj, fields in cases:
            key = core_verifier._pair_key(
                core_verifier._object_key(obj), evidence, text
            )
            assert type(key) is bytes and len(key) == 16
            assert key == digest_of(fields + [evidence.instance_id, text])

    def test_the_cache_holds_digests(self, module, election_table):
        obj = TupleObject("d", election_table.row(0), attribute="votes")
        module.verify_pool(obj, [election_table.row(i) for i in range(4)])
        keys = list(module._cache)
        assert keys and all(type(k) is bytes and len(k) == 16 for k in keys)


class TestCacheHammer:
    """Eight threads verify overlapping pools through one module whose
    cache holds fewer keys than there are pairs, so every insert races
    an eviction; each outcome must be the uncached one."""

    def test_eight_threads_on_a_small_cache(self, tiny_lake, election_table,
                                            medal_table, quiet_profile):
        def fresh(**kwargs):
            llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=25)
            agent = VerifierAgent([], fallback=LLMVerifier(llm))
            return VerifierModule(agent, tiny_lake, **kwargs)

        evidence = (
            [election_table.row(i) for i in range(4)]
            + [medal_table.row(0), election_table, medal_table,
               tiny_lake.document("page-jenkins")]
        )
        objects = [
            TupleObject(f"h{i}-{column}", election_table.row(i),
                        attribute=column)
            for i in range(4) for column in ("party", "votes")
        ] + [
            ClaimObject("h-claim", "the gold of valoria is 10",
                        context=medal_table.caption),
        ]
        expected = {
            obj.object_id: fresh(cache=False).verify_pool(obj, evidence)
            for obj in objects
        }
        module = fresh(cache_size=8)
        results = {}
        errors = []

        def worker(thread_number):
            order = list(objects) * 3
            random.Random(thread_number).shuffle(order)
            try:
                results[thread_number] = [
                    (obj.object_id, module.verify_pool(obj, evidence))
                    for obj in order
                ]
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        hammer(worker)
        assert not errors
        for thread_number in range(8):
            assert len(results[thread_number]) == 3 * len(objects)
            for object_id, pooled in results[thread_number]:
                assert pooled == expected[object_id]
        assert len(module) <= 8


class TestPoolCounters:
    def test_a_pool_reports_its_pairs_once_with_the_per_pair_totals(
        self, module, election_table
    ):
        from repro.obs.metrics import get_registry

        def counts():
            snapshot = get_registry().snapshot()
            return [
                snapshot.get(name, 0.0) for name in (
                    "verifier.verifications", "verifier.cache.hits",
                    "verifier.cache.misses",
                )
            ]

        obj = TupleObject("n1", election_table.row(0), attribute="party")
        evidence = [election_table.row(i) for i in range(3)]
        before = counts()
        module.verify_pool(obj, evidence)
        module.verify_pool(obj, evidence + [election_table.row(3)])
        delta = [after - b for after, b in zip(counts(), before)]
        assert delta == [7.0, 3.0, 4.0]
        assert get_registry().snapshot()["verifier.cache.entries"] == len(module)

    def test_a_pair_that_raises_is_still_counted(self, tiny_lake,
                                                 election_table):
        from repro.obs.metrics import get_registry

        class Exploding(LLMVerifier):
            def verify(self, obj, evidence):
                raise RuntimeError("boom")

        module = VerifierModule(
            VerifierAgent([], fallback=Exploding(None)), tiny_lake
        )
        obj = TupleObject("n2", election_table.row(0), attribute="party")
        before = get_registry().snapshot()
        with pytest.raises(RuntimeError):
            module.verify_pool(obj, [election_table.row(0)])
        after = get_registry().snapshot()
        for name in ("verifier.verifications", "verifier.cache.misses"):
            assert after[name] - before.get(name, 0.0) == 1.0
