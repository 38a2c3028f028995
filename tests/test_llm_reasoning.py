"""Noisy claim reasoning: exact when quiet, degrading with slips."""

import random

import pytest

from repro.claims.engine import TableQueryEngine
from repro.claims.model import Aggregate, ClaimOp, ClaimSpec, Comparison
from repro.datalake.types import Table
from repro.llm.profile import LLMProfile
from repro.llm.reasoning import NoisyClaimReasoner


def rng():
    return random.Random(42)


class TestQuietReasonerMatchesEngine:
    """With all slips at zero, the reasoner must agree with the exact
    engine on every executable spec."""

    def specs(self):
        return [
            ClaimSpec(op=ClaimOp.LOOKUP, column="gold", subject="valoria",
                      value="10"),
            ClaimSpec(op=ClaimOp.LOOKUP, column="gold", subject="valoria",
                      value="99"),
            ClaimSpec(op=ClaimOp.COMPARE, column="gold", subject="valoria",
                      subject_b="norwind", comparison=Comparison.HIGHER),
            ClaimSpec(op=ClaimOp.AGGREGATE, column="gold",
                      aggregate=Aggregate.SUM, value="19"),
            ClaimSpec(op=ClaimOp.AGGREGATE, column="gold",
                      aggregate=Aggregate.SUM, value="77"),
            ClaimSpec(op=ClaimOp.SUPERLATIVE, column="gold", subject="valoria",
                      comparison=Comparison.HIGHER),
            ClaimSpec(op=ClaimOp.COUNT, column="gold", value="10", count=1),
        ]

    def test_agreement(self, medal_table, quiet_profile):
        reasoner = NoisyClaimReasoner(quiet_profile)
        engine = TableQueryEngine()
        for spec in self.specs():
            exact = engine.execute(spec, medal_table)
            noisy = reasoner.execute(spec, medal_table, rng())
            assert noisy.verdict == exact.verdict, spec

    def test_not_executable_passthrough(self, medal_table, quiet_profile):
        reasoner = NoisyClaimReasoner(quiet_profile)
        spec = ClaimSpec(op=ClaimOp.LOOKUP, column="population",
                         subject="valoria", value="1")
        assert reasoner.execute(spec, medal_table, rng()).verdict is None


class TestNoiseDegradesTrueClaims:
    def test_arithmetic_slips_break_true_aggregates(self, medal_table):
        profile = LLMProfile(arithmetic_slip=1.0)
        reasoner = NoisyClaimReasoner(profile)
        spec = ClaimSpec(op=ClaimOp.AGGREGATE, column="gold",
                         aggregate=Aggregate.SUM, value="19")
        result = reasoner.execute(spec, medal_table, rng())
        assert result.verdict is False  # every number misread

    def test_false_aggregates_stay_false(self, medal_table):
        profile = LLMProfile(arithmetic_slip=1.0)
        reasoner = NoisyClaimReasoner(profile)
        spec = ClaimSpec(op=ClaimOp.AGGREGATE, column="gold",
                         aggregate=Aggregate.SUM, value="500")
        result = reasoner.execute(spec, medal_table, rng())
        assert result.verdict is False  # asymmetry: noise rarely helps

    def test_lookup_slip_flips(self, medal_table):
        profile = LLMProfile(lookup_slip=1.0, binding_slip=0.0)
        reasoner = NoisyClaimReasoner(profile)
        spec = ClaimSpec(op=ClaimOp.LOOKUP, column="gold", subject="valoria",
                         value="10")
        assert reasoner.execute(spec, medal_table, rng()).verdict is False

    def test_binding_slip_changes_row(self, medal_table):
        profile = LLMProfile(binding_slip=1.0, lookup_slip=0.0)
        reasoner = NoisyClaimReasoner(profile)
        spec = ClaimSpec(op=ClaimOp.LOOKUP, column="gold", subject="valoria",
                         value="10")
        # bound to a wrong row, the read value cannot be valoria's 10
        assert reasoner.execute(spec, medal_table, rng()).verdict is False


class TestUnknownCells:
    def table_with_unknown(self):
        return Table(
            "t-unk", "medal table with gaps",
            ("nation", "gold"),
            [("valoria", "10"), ("norwind", "unknown")],
            key_column="nation",
        )

    def test_lookup_on_unknown_cell_not_grounded(self, quiet_profile):
        reasoner = NoisyClaimReasoner(quiet_profile)
        spec = ClaimSpec(op=ClaimOp.LOOKUP, column="gold", subject="norwind",
                         value="7")
        result = reasoner.execute(spec, self.table_with_unknown(), rng())
        assert result.verdict is None

    def test_aggregate_over_unknown_column_not_grounded(self, quiet_profile):
        reasoner = NoisyClaimReasoner(quiet_profile)
        spec = ClaimSpec(op=ClaimOp.AGGREGATE, column="gold",
                         aggregate=Aggregate.SUM, value="17")
        result = reasoner.execute(spec, self.table_with_unknown(), rng())
        assert result.verdict is None

    def test_known_cell_still_grounded(self, quiet_profile):
        reasoner = NoisyClaimReasoner(quiet_profile)
        spec = ClaimSpec(op=ClaimOp.LOOKUP, column="gold", subject="valoria",
                         value="10")
        result = reasoner.execute(spec, self.table_with_unknown(), rng())
        assert result.verdict is True


class TestNotExecutable:
    """A spec the table cannot ground comes back with no verdict and
    the reason it could not be executed."""

    def table(self):
        return Table(
            "t-mixed", "medal table with a text column",
            ("nation", "gold", "host city"),
            [("valoria", "10", "port east"), ("norwind", "7", "mill ford")],
            key_column="nation",
        )

    @pytest.mark.parametrize("spec,reason", [
        (ClaimSpec(op=ClaimOp.LOOKUP, column="gold", subject="atlantis",
                   value="1"), "no row mentioning 'atlantis'"),
        (ClaimSpec(op=ClaimOp.COMPARE, column="population", subject="valoria",
                   subject_b="norwind", comparison=Comparison.HIGHER),
         "no column matching 'population'"),
        (ClaimSpec(op=ClaimOp.COMPARE, column="gold", subject="valoria",
                   subject_b="atlantis", comparison=Comparison.LOWER),
         "no row mentioning 'atlantis'"),
        (ClaimSpec(op=ClaimOp.COMPARE, column="host city", subject="valoria",
                   subject_b="norwind", comparison=Comparison.HIGHER),
         "column 'host city' is not numeric"),
        (ClaimSpec(op=ClaimOp.AGGREGATE, column="population",
                   aggregate=Aggregate.SUM, value="17"),
         "no column matching 'population'"),
        (ClaimSpec(op=ClaimOp.AGGREGATE, column="host city",
                   aggregate=Aggregate.MAX, value="17"),
         "column 'host city' is not numeric"),
        (ClaimSpec(op=ClaimOp.AGGREGATE, column="gold",
                   aggregate=Aggregate.SUM, value="seventeen"),
         "claimed value 'seventeen' is not numeric"),
        (ClaimSpec(op=ClaimOp.SUPERLATIVE, column="population",
                   subject="valoria", comparison=Comparison.HIGHER),
         "no column matching 'population'"),
        (ClaimSpec(op=ClaimOp.SUPERLATIVE, column="gold", subject="atlantis",
                   comparison=Comparison.HIGHER),
         "no row mentioning 'atlantis'"),
        (ClaimSpec(op=ClaimOp.SUPERLATIVE, column="host city",
                   subject="valoria", comparison=Comparison.LOWER),
         "'host city' is not numeric"),
        (ClaimSpec(op=ClaimOp.COUNT, column="population", value="1",
                   count=1), "no column matching 'population'"),
    ], ids=[
        "lookup-row", "compare-column", "compare-row", "compare-text",
        "aggregate-column", "aggregate-text", "aggregate-claimed-text",
        "superlative-column", "superlative-row", "superlative-text",
        "count-column",
    ])
    def test_no_verdict_and_the_reason(self, quiet_profile, spec, reason):
        result = NoisyClaimReasoner(quiet_profile).execute(
            spec, self.table(), rng()
        )
        assert result.verdict is None
        assert any(reason in step for step in result.trace), result.trace

    def test_the_exact_engine_agrees_it_cannot_execute(self, quiet_profile):
        engine = TableQueryEngine()
        spec = ClaimSpec(op=ClaimOp.COMPARE, column="host city",
                         subject="valoria", subject_b="norwind",
                         comparison=Comparison.HIGHER)
        assert engine.execute(spec, self.table()).verdict is None
