"""VerifierModule: agent + evidence pooling with its early exit, one
agent call per verified pair and no per-pair memory."""

import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import VerifAI
from repro.core.verifier import VerifierModule
from repro.datalake.lake import DataLake
from repro.datalake.types import Modality, Source, Table, TextDocument
from repro.llm.model import SimulatedLLM
from repro.obs.metrics import get_registry
from repro.trust.model import weighted_vote
from repro.verify.agent import VerifierAgent
from repro.verify.base import VerificationOutcome
from repro.verify.llm_verifier import LLMVerifier
from repro.verify.objects import ClaimObject, TupleObject
from repro.verify.verdict import Verdict


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

    def test_table_source(self, module, election_table):
        assert module.source_of(election_table) == "tabfact"

    @pytest.mark.parametrize("modality", list(Modality), ids=str)
    def test_every_instance_names_its_lake_source(self, module, small_bundle,
                                                  modality):
        lake = small_bundle.lake
        module = VerifierModule(module.agent, lake)
        for instance in lake.iter_instances(modality):
            owner = (
                lake.table(instance.table_id)
                if modality is Modality.TUPLE else instance
            )
            assert module.source_of(instance) == owner.source.name


class TestVerifyPool:
    def test_pool_reads_to_the_first_decisive_pair(self, module,
                                                   election_table, tiny_lake):
        obj = TupleObject("p1", election_table.row(0), attribute="party")
        evidence = [
            election_table.row(3),                 # unrelated entity
            election_table.row(0),                 # verifies
            tiny_lake.document("page-jenkins"),    # never read
        ]
        outcomes, final, margin = module.verify_pool(obj, evidence)
        assert [o.verdict for o in outcomes] == [
            Verdict.NOT_RELATED, Verdict.VERIFIED,
        ]
        assert final is Verdict.VERIFIED
        assert margin == 1.0  # the deciding vote's default trust

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


class CountingAgent(VerifierAgent):
    """The LLM agent, counting the pairs it is asked to verify."""

    def __init__(self, llm):
        super().__init__([], fallback=LLMVerifier(llm))
        self.asked = []

    def verify(self, obj, evidence):
        self.asked.append((obj.object_id, evidence.instance_id))
        return super().verify(obj, evidence)


@pytest.fixture()
def counting(tiny_lake, quiet_profile):
    agent = CountingAgent(
        SimulatedLLM(knowledge=None, profile=quiet_profile, seed=22)
    )
    return agent, VerifierModule(agent, tiny_lake)


class TestOneAgentCallPerPair:
    def test_repeated_pairs_call_the_agent_each_time(self, counting,
                                                     election_table):
        agent, module = counting
        obj = TupleObject("c1", election_table.row(0), attribute="party")
        evidence = election_table.row(0)
        first = module.verify_one(obj, evidence)
        second = module.verify_one(obj, evidence)
        assert agent.asked == [("c1", evidence.instance_id)] * 2
        assert first == second

    def test_same_content_different_object_id_same_outcome(self, counting,
                                                           election_table):
        agent, module = counting
        evidence = election_table.row(1)
        a = TupleObject("idA", election_table.row(1), attribute="party")
        b = TupleObject("idB", election_table.row(1), attribute="party")
        assert module.verify_one(a, evidence) == module.verify_one(b, evidence)
        assert [object_id for object_id, _ in agent.asked] == ["idA", "idB"]

    def test_a_pool_asks_the_agent_once_per_verified_pair(self, counting,
                                                          election_table):
        agent, module = counting
        obj = TupleObject("c3", election_table.row(0), attribute="party")
        # two rows that abstain, then the one that decides
        evidence = [election_table.row(i) for i in (1, 2, 0)]
        for _ in range(2):
            outcomes, _, _ = module.verify_pool(obj, evidence)
        assert [o.evidence_id for o in outcomes] == [
            e.instance_id for e in evidence
        ]
        assert [pair[1] for pair in agent.asked] == 2 * [
            e.instance_id for e in evidence
        ]


class Abstaining:
    """An agent that says NOT_RELATED to every pair, from one outcome."""

    def verify(self, obj, evidence):
        return VerificationOutcome(
            verdict=Verdict.NOT_RELATED, explanation="", verifier="stub",
            evidence_id="e",
        )


class TestNoPerPairMemory:
    def test_two_thousand_distinct_pairs_leave_nothing_behind(
        self, tiny_lake, election_table
    ):
        """The old outcome cache kept a 16-byte key and an outcome per
        distinct pair; the module now keeps nothing a pair could grow."""
        module = VerifierModule(Abstaining(), tiny_lake)
        rows = [election_table.row(i) for i in range(4)]

        def verify(start, stop):
            for i in range(start, stop):
                claim = ClaimObject(f"m{i}", f"claim number {i} is true")
                module.verify_one(claim, rows[i % 4])
                module.verify_pool(claim, rows)

        verify(0, 100)  # the counters exist before the measure
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            verify(100, 2_100)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 2_000 * 16, grown
        assert vars(module).keys() == {
            "agent", "lake", "source_trust", "_metrics",
        }


class TestReverifyFollowsContent:
    """Regression: outcomes were once keyed on the evidence's instance
    id, so a claim re-verified after its table changed got the old
    verdict.  Every pair is verified afresh now; these keep the check."""

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
        assert module.verify_one(claim, rewritten).verdict is Verdict.REFUTED
        # each version of the table keeps its own verdict
        assert module.verify_one(claim, election_table).verdict is Verdict.VERIFIED
        assert module.verify_one(claim, rewritten).verdict is Verdict.REFUTED

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

    def test_a_campaign_after_update_instance_sees_the_write(
        self, election_table, medal_table, quiet_profile
    ):
        """Stale verdicts, campaign-wide: the same claims re-verified
        after a write."""
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
            batch = system.verify_batch(claims)
            return [report.final_verdict for report in batch.reports]

        assert verdicts() == [Verdict.VERIFIED] * len(claims)
        system.update_instance(rewritten)
        changed = [
            Verdict.REFUTED if i % 2 else Verdict.VERIFIED
            for i in range(len(election_table.rows))
        ]
        assert verdicts() == changed * 2


def verifications():
    return get_registry().snapshot().get("verifier.verifications", 0.0)


class TestPoolCounters:
    def test_a_pool_reports_its_pairs_once_with_the_per_pair_totals(
        self, module, election_table
    ):
        obj = TupleObject("n1", election_table.row(0), attribute="party")
        # two pairs that abstain, then the one that decides
        evidence = [election_table.row(i) for i in (1, 2, 0)]
        before = verifications()
        module.verify_pool(obj, evidence)
        module.verify_pool(obj, [election_table.row(3)] + evidence)
        assert verifications() - before == 7.0
        snapshot = get_registry().snapshot()
        assert not [name for name in snapshot if "verifier.cache" in name]

    def test_a_pair_that_raises_is_still_counted(self, tiny_lake,
                                                 election_table):
        class Exploding(LLMVerifier):
            def verify(self, obj, evidence):
                raise RuntimeError("boom")

        module = VerifierModule(
            VerifierAgent([], fallback=Exploding(None)), tiny_lake
        )
        obj = TupleObject("n2", election_table.row(0), attribute="party")
        before = verifications()
        with pytest.raises(RuntimeError):
            module.verify_pool(obj, [election_table.row(0)])
        assert verifications() - before == 1.0

    def test_a_campaign_counts_one_verification_per_model_call(
        self, small_bundle
    ):
        """``verifier.verifications`` is the model's call count: every
        verified pair is one ``chat``, none is answered from memory."""
        llm = SimulatedLLM(knowledge=None, seed=7)
        system = VerifAI(small_bundle.lake, llm=llm).build_indexes()
        tables = small_bundle.tables[:6]
        objects = [
            TupleObject(f"v{i}", table.row(0), attribute=table.columns[1])
            for i, table in enumerate(tables)
        ] + [
            ClaimObject(f"vc{i}", f"{table.row(0).values[0]} appears in "
                        f"{table.caption}")
            for i, table in enumerate(tables)
        ]
        objects += objects[:3]  # repeated content is verified again
        before, calls = verifications(), llm.num_calls
        batch = system.verify_batch(objects)
        pairs = sum(len(report.outcomes) for report in batch.reports)
        assert verifications() - before == llm.num_calls - calls == pairs
        assert pairs > len(objects)


# ----------------------------------------------------------------------
# the early exit against the pooling rule
# ----------------------------------------------------------------------
SOURCES = ("s0", "s1", "s2", "s3", "s4", "s5")

#: any trust map over the lake's sources, ties and ``{}`` included
#: (a source left out takes the default trust, 1.0)
TRUST = st.one_of(
    st.just({}),
    st.dictionaries(
        st.sampled_from(SOURCES),
        st.sampled_from([0.0, 0.25, 0.4, 0.5, 0.75, 1.0]),
    ),
)
VERDICTS = st.lists(st.sampled_from(list(Verdict)), min_size=8, max_size=8)


class ScriptedAgent:
    """Hands out ``verdicts`` in call order and records which evidence
    it was asked about."""

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)
        self.asked = []

    def verify(self, obj, evidence):
        self.asked.append(evidence.instance_id)
        return VerificationOutcome(
            verdict=self.verdicts[len(self.asked) - 1], explanation="",
            verifier="scripted", evidence_id=evidence.instance_id,
        )


def needed_prefix(votes, trust):
    """The fewest leading votes that fix ``weighted_vote`` over all of
    them, whatever the later pairs (same sources) would say."""
    for known in range(len(votes) + 1):
        later = [source for source, _ in votes[known:]]
        results = {
            weighted_vote(
                votes[:known] + list(zip(later, verdicts)), trust,
                default_trust=1.0,
            )
            for verdicts in itertools.product(Verdict, repeat=len(later))
        }
        if len(results) == 1:
            return known
    raise AssertionError("the whole pool always fixes the vote")


@pytest.fixture(scope="module")
def sources_lake():
    """Four tables and two pages that all speak of one election, each
    from its own source."""
    lake = DataLake(name="sources")
    for i in range(4):
        lake.add_table(Table(
            table_id=f"t-s{i}",
            caption=f"ohio house elections 1950 as reported by s{i}",
            columns=("district", "incumbent", "party"),
            rows=[("ohio 1", "tom jenkins", "republican"),
                  ("ohio 2", "ann lee", "democratic")],
            source=Source(f"s{i}"),
            entity_columns=("incumbent",), key_column="district",
        ))
    for i in (4, 5):
        lake.add_document(TextDocument(
            doc_id=f"page-s{i}", title="Tom Jenkins",
            text="Tom Jenkins of ohio 1 is a republican, elected in 1950.",
            source=Source(f"s{i}"), entity="tom jenkins",
        ))
    return lake


@pytest.fixture(scope="module")
def sources_system(sources_lake):
    return VerifAI(sources_lake).build_indexes()


class TestTheExitKeepsTheRule:
    """``verify_pool`` stops early, but decides what ``weighted_vote``
    over every pair of the shortlist decides, and the agent is asked
    about exactly the pairs that rule needs."""

    @settings(max_examples=300, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 13), max_size=8),
        verdicts=VERDICTS,
        trust=TRUST,
    )
    def test_the_pool_asks_for_the_prefix_the_rule_needs(
        self, sources_lake, picks, verdicts, trust
    ):
        instances = [
            table.row(i) for table in sources_lake.tables() for i in (0, 1)
        ] + list(sources_lake.tables()) + list(sources_lake.documents())
        evidence = [instances[pick] for pick in picks]
        agent = ScriptedAgent(verdicts)
        module = VerifierModule(agent, sources_lake, source_trust=trust)
        obj = ClaimObject("x", "tom jenkins is a republican", context="")
        outcomes, final, margin = module.verify_pool(obj, evidence)
        votes = [
            (module.source_of(instance), verdict)
            for instance, verdict in zip(evidence, verdicts)
        ]
        assert (final, margin) == weighted_vote(
            votes, trust, default_trust=1.0
        )
        needed = needed_prefix(votes, trust)
        assert agent.asked == [i.instance_id for i in evidence[:needed]]
        assert [o.evidence_id for o in outcomes] == agent.asked

    @settings(max_examples=150, deadline=None)
    @given(
        which=st.integers(0, 3),
        verdicts=VERDICTS,
        trust=TRUST,
    )
    def test_a_report_lists_the_shortlist_and_the_verified_prefix(
        self, sources_lake, sources_system, which, verdicts, trust
    ):
        table = sources_lake.table(f"t-s{which}")
        obj = TupleObject("t", table.row(which % 2), attribute="party")
        # an agent that always abstains is asked about every pair: the
        # whole shortlist, in order
        listing = ScriptedAgent([Verdict.NOT_RELATED] * 8)
        sources_system.verifier = VerifierModule(listing, sources_lake)
        sources_system.verify_batch([obj])
        shortlist = listing.asked
        assert len(shortlist) > 1

        sources_system.verifier = VerifierModule(
            ScriptedAgent(verdicts), sources_lake, source_trust=trust,
        )
        report = sources_system.verify_batch([obj]).reports[0]
        votes = [
            (sources_system.verifier.source_of(
                sources_lake.instance(instance_id)), verdict)
            for instance_id, verdict in zip(shortlist, verdicts)
        ]
        needed = needed_prefix(votes, trust)
        assert report.evidence_ids == shortlist
        assert [o.evidence_id for o in report.outcomes] == shortlist[:needed]
        assert (report.final_verdict, report.margin) == weighted_vote(
            votes, trust, default_trust=1.0
        )
        record = sources_system.provenance.get(report.record_id)
        assert [o[0] for o in record.outcomes] == shortlist[:needed]
        assert set(record.evidence_ids()) == set(shortlist)
