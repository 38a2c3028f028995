"""Verify-and-repair loop."""

from types import SimpleNamespace

import pytest

from repro.core.pipeline import VerifAI
from repro.llm.model import SimulatedLLM
from repro.repair import RepairAction, Repairer, strongest_refuter
from repro.verify.base import VerificationOutcome
from repro.verify.verdict import Verdict


@pytest.fixture(scope="module")
def repairer(tiny_lake, quiet_profile):
    llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=30)
    return Repairer(VerifAI(tiny_lake, llm=llm).build_indexes())


class TestRepairValue:
    def test_correct_value_accepted(self, repairer, election_table):
        row = election_table.row(0)
        result = repairer.repair_value("r1", row, "party")
        assert result.action is RepairAction.ACCEPTED
        assert result.final_value == "republican"
        assert result.evidence_id is not None

    def test_wrong_value_repaired_from_evidence(self, repairer, election_table):
        row = election_table.row(0).replace_value("votes", "55,000")
        result = repairer.repair_value("r2", row, "votes")
        assert result.action is RepairAction.REPAIRED
        assert result.final_value == "102,000"  # the lake counterpart's value
        assert result.generated_value == "55,000"
        assert result.evidence_id == "t-ohio-1950#r0"

    def test_unverifiable_value_unresolved(self, repairer):
        from repro.datalake.types import Row

        row = Row(
            "t-missing", 0, ("city", "population"),
            ("atlantis", "1,000,000"),
        )
        result = repairer.repair_value("r3", row, "population")
        assert result.action is RepairAction.UNRESOLVED
        assert result.final_value == "1,000,000"

    def test_record_id_links_to_provenance(self, repairer, election_table):
        row = election_table.row(1)
        result = repairer.repair_value("r4", row, "party")
        record = repairer.system.provenance.get(result.record_id)
        assert record.object_id == "r4"


def _conflicting_repairer(source_trust, quiet_profile):
    """Two sources that disagree on one district's votes."""
    from repro.datalake.lake import DataLake
    from repro.datalake.types import Source, Table

    lake = DataLake("conflicting")
    lake.add_table(Table(
        "t-curated", "ohio election results curated",
        ("district", "votes"), [("ohio 9", "111,000")],
        source=Source("curated"), key_column="district",
    ))
    lake.add_table(Table(
        "t-scraped", "ohio election results scraped",
        ("district", "votes"), [("ohio 9", "222,000")],
        source=Source("scraped"), key_column="district",
    ))
    llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=30)
    system = VerifAI(lake, llm=llm, source_trust=source_trust).build_indexes()
    return Repairer(system)


class TestRepairPrefersTrustedSources:
    def test_strongest_refuter_wins(self, quiet_profile):
        repairer = _conflicting_repairer(
            {"curated": 0.9, "scraped": 0.1}, quiet_profile
        )
        row = repairer.system.lake.table("t-curated").row(0).replace_value(
            "votes", "999"
        )
        result = repairer.repair_value("p1", row, "votes")
        assert result.action is RepairAction.REPAIRED
        assert result.final_value == "111,000"
        assert result.evidence_id == "t-curated#r0"

    def test_trust_flips_the_repair(self, quiet_profile):
        repairer = _conflicting_repairer(
            {"curated": 0.1, "scraped": 0.9}, quiet_profile
        )
        row = repairer.system.lake.table("t-curated").row(0).replace_value(
            "votes", "999"
        )
        result = repairer.repair_value("p2", row, "votes")
        assert result.action is RepairAction.REPAIRED
        assert result.final_value == "222,000"
        assert result.evidence_id == "t-scraped#r0"


class TestRepairBatch:
    def test_mixed_batch(self, repairer, election_table):
        items = [
            ("b1", election_table.row(0), "party"),                     # correct
            ("b2", election_table.row(0).replace_value("votes", "1"),   # wrong
             "votes"),
        ]
        report = repairer.repair_batch(items)
        assert len(report) == 2
        assert report.accepted == 1
        assert report.repaired == 1
        assert report.unresolved == 0
        assert "2 values" in report.summary()

    def test_empty_batch(self, repairer):
        report = repairer.repair_batch([])
        assert len(report) == 0
        assert report.summary().startswith("0 values")


def _report(*votes):
    """A minimal stand-in report: (evidence_id, verdict) outcomes in
    evidence order."""
    return SimpleNamespace(
        outcomes=[
            VerificationOutcome(
                verdict=verdict,
                explanation="",
                verifier="test",
                evidence_id=evidence_id,
            )
            for evidence_id, verdict in votes
        ]
    )


REFUTED = Verdict.REFUTED


class TestStrongestRefuter:
    """The shared repair/loop evidence-selection helper: the refuting
    row whose vote decided the report."""

    def test_empty_report_yields_none(self, repairer):
        assert strongest_refuter(repairer.system, _report(), "votes") is None

    def test_evidence_row_lacking_the_column_is_skipped(self, repairer):
        # the medal table has no "votes" column, so its row cannot
        # state a repair value even though it refuted the draft
        report = _report(("t-games-1960#r0", REFUTED))
        assert strongest_refuter(repairer.system, report, "votes") is None

    def test_non_row_evidence_states_no_value(self, repairer):
        # a document id resolves to a text file, not a Row: when it
        # decides, there is no value to quote, and a later refuting row
        # did not decide
        report = _report(("page-jenkins", REFUTED), ("t-ohio-1950#r0", REFUTED))
        assert strongest_refuter(repairer.system, report, "votes") is None

    def test_the_deciding_row_states_the_value(self, repairer):
        report = _report(
            ("page-jenkins", Verdict.NOT_RELATED), ("t-ohio-1950#r0", REFUTED)
        )
        assert strongest_refuter(repairer.system, report, "votes") == (
            "102,000", "t-ohio-1950#r0"
        )

    def test_a_verified_report_has_no_refuter(self, repairer):
        report = _report(
            ("t-ohio-1950#r0", Verdict.VERIFIED), ("t-ohio-1950#r1", REFUTED)
        )
        assert strongest_refuter(repairer.system, report, "votes") is None

    @pytest.mark.parametrize(
        "trust, expected",
        [
            # both trusted: the earlier refuter decided
            ({"curated": 0.9, "scraped": 0.6}, ("222,000", "t-scraped#r0")),
            # the earlier one is distrusted: the trusted one decided
            ({"curated": 0.9, "scraped": 0.1}, ("111,000", "t-curated#r0")),
        ],
    )
    def test_the_pooling_rule_picks_the_refuter(
        self, quiet_profile, trust, expected
    ):
        system = _conflicting_repairer(trust, quiet_profile).system
        report = _report(("t-scraped#r0", REFUTED), ("t-curated#r0", REFUTED))
        assert strongest_refuter(system, report, "votes") == expected

    def test_repairer_method_delegates(self, repairer):
        report = _report(("t-ohio-1950#r0", REFUTED))
        assert repairer._evidence_value(report, "votes") == (
            strongest_refuter(repairer.system, report, "votes")
        )


class TestRepairBatchBoundaries:
    def test_batch_over_empty_report_counts_nothing(self, repairer):
        report = repairer.repair_batch([])
        assert (report.accepted, report.repaired, report.unresolved) == (
            0, 0, 0
        )
        assert list(iter(report)) == []

    def test_evidence_without_the_column_never_invents_a_value(
        self, quiet_profile
    ):
        """When no lake evidence can state the target column, a failed
        draft keeps its generated value (UNRESOLVED), never a fabricated
        repair."""
        from repro.datalake.lake import DataLake
        from repro.datalake.types import Row, Source, Table

        lake = DataLake("column-gap")
        # same entity family, but the lake schema has no "votes" column
        # to quote a repair value from
        lake.add_table(Table(
            "t-novotes", "ohio election results",
            ("district", "winner"), [("ohio 9", "kirwan")],
            source=Source("web"), key_column="district",
        ))
        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=30)
        repairer = Repairer(VerifAI(lake, llm=llm).build_indexes())
        row = Row(
            "t-draft", 0, ("district", "votes"), ("ohio 9", "999")
        )
        result = repairer.repair_value("g1", row, "votes")
        assert result.action is not RepairAction.REPAIRED
        assert result.final_value == "999"


class TestRepairImprovesAccuracy:
    def test_end_to_end_gain(self, tiny_experiment_context):
        """Repair lifts value accuracy well above the raw generator."""
        context = tiny_experiment_context
        repairer = Repairer(context.system)
        items = []
        truths = {}
        for generated in context.generated:
            row = context.bundle.lake.table(generated.table_id).row(
                generated.row_index
            ).replace_value(generated.column, generated.generated_value or "NaN")
            items.append((generated.task_id, row, generated.column))
            truths[generated.task_id] = generated.true_value
        report = repairer.repair_batch(items)
        correct_after = sum(
            1 for r in report if r.final_value == truths[r.object_id]
        )
        accuracy_after = correct_after / len(report)
        assert accuracy_after >= context.completion_accuracy + 0.15
