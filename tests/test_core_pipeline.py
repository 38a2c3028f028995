"""End-to-end VerifAI pipeline on small lakes."""

import dataclasses
import subprocess
import sys

import pytest

from repro.core.config import PAPER_FINE_K, VerifAIConfig
from repro.datalake.lake import LakeStats
from repro.core.pipeline import VerifAI
from repro.core.reranker import RerankerModule
from repro.datalake.types import Modality
from repro.llm.model import SimulatedLLM
from repro.rerank.colbert import LateInteractionReranker
from repro.rerank.features import FeatureReranker
from repro.rerank.table import TableReranker
from repro.verify.objects import ClaimObject, TupleObject
from repro.verify.pasta import PastaVerifier
from repro.verify.verdict import Verdict
from repro.workloads.builder import LakeConfig
from repro.workloads.tuplecomp import build_tuple_workload


@pytest.fixture(scope="module")
def system(tiny_lake, quiet_profile):
    llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=4)
    return VerifAI(tiny_lake, llm=llm).build_indexes()


class TestConfig:
    def test_paper_fine_k(self):
        config = VerifAIConfig()
        assert config.fine_k(Modality.TUPLE) == PAPER_FINE_K[Modality.TUPLE] == 3
        assert config.fine_k(Modality.TEXT) == 3
        assert config.fine_k(Modality.TABLE) == 5

    def test_unknown_modality_default(self):
        config = VerifAIConfig(k_fine={Modality.TUPLE: 2})
        assert config.fine_k(Modality.TEXT) == 5


class TestRemovedKnobs:
    @pytest.mark.parametrize("config_type,field", [
        (VerifAIConfig, "batch_max_retries"),
        (LakeConfig, "build_kg"),
    ])
    def test_a_removed_field_is_refused(self, config_type, field):
        assert field not in {f.name for f in dataclasses.fields(config_type)}
        with pytest.raises(TypeError, match=field):
            config_type(**{field: 1})

    def test_lake_stats_count_tables_tuples_texts_and_sources(self):
        assert [f.name for f in dataclasses.fields(LakeStats)] == [
            "num_tables", "num_tuples", "num_text_files", "num_sources",
        ]

    def test_a_default_system_loads_no_removed_module(self, tmp_path):
        script = (
            "import sys\n"
            "from repro.core.pipeline import VerifAI\n"
            "from repro.datalake.persistence import load_lake, save_lake\n"
            "from repro.verify.objects import ClaimObject, TupleObject\n"
            "from repro.workloads.builder import LakeConfig, build_lake\n"
            "bundle = build_lake(LakeConfig(num_tables=6, seed=2))\n"
            f"save_lake(bundle.lake, {str(tmp_path / 'l.json')!r})\n"
            f"lake = load_lake({str(tmp_path / 'l.json')!r})\n"
            "system = VerifAI(lake).build_indexes()\n"
            "table = lake.tables()[0]\n"
            "system.verify_batch([\n"
            "    ClaimObject('c', f'the {table.columns[1]} of x is 1'),\n"
            "    TupleObject('t', table.row(0), attribute=table.columns[1]),\n"
            "])\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro')))\n"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True,
        ).stdout
        assert "'repro.core.pipeline'" in loaded
        for gone in ("repro.discovery", "repro.datalake.kg",
                     "repro.verify.kg_verifier"):
            assert f"'{gone}" not in loaded, gone


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("k_coarse", 0), ("k_coarse", -1),
    ])
    def test_a_value_below_the_floor_is_refused(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be >= "):
            VerifAIConfig(**{field: value})

    def test_a_shortlist_below_one_is_refused(self):
        with pytest.raises(ValueError, match=r"^k_fine\[text\] must be >= 1"):
            VerifAIConfig(k_fine={Modality.TUPLE: 3, Modality.TEXT: 0})

    def test_the_floors_are_accepted(self):
        config = VerifAIConfig(
            k_coarse=1, k_fine={Modality.TUPLE: 1},
        )
        assert config.fine_k(Modality.TUPLE) == 1


class TestRerankerRouting:
    def test_the_tuple_routes_have_no_reranker(self):
        from repro.datalake.types import Row

        module = RerankerModule()
        claim = ClaimObject("c", "x")
        tuple_obj = TupleObject("t", Row("t", 0, ("a",), ("1",)))
        assert module.route(tuple_obj, Modality.TUPLE) is None
        assert module.route(tuple_obj, Modality.TEXT) is None
        assert isinstance(module.route(claim, Modality.TABLE), TableReranker)
        assert isinstance(module.route(claim, Modality.TEXT),
                          LateInteractionReranker)
        assert isinstance(module.route(tuple_obj, Modality.TABLE),
                          FeatureReranker)
        assert isinstance(module.route(claim, Modality.TUPLE),
                          FeatureReranker)

    def test_a_route_without_a_reranker_fetches_reads_and_counts_nothing(
        self,
    ):
        from repro.datalake.types import Row
        from repro.index.base import SearchHit
        from repro.obs.metrics import get_registry

        def fetch(instance_id):
            raise AssertionError(f"fetched {instance_id}")

        module = RerankerModule()
        tuple_obj = TupleObject("t", Row("t", 0, ("a",), ("1",)))
        candidates = [
            SearchHit(1.0 / (n + 1), f"t#r{n}", "combined") for n in range(6)
        ]
        calls = get_registry().counter("reranker.calls")
        before = calls.value
        for modality in (Modality.TUPLE, Modality.TEXT):
            for k in (0, 3, 10):
                shortlist = module.rerank(
                    tuple_obj, modality, candidates, fetch, k
                )
                assert shortlist == candidates[:k]
                assert all(a is b for a, b in zip(shortlist, candidates))
        assert calls.value == before
        assert module.text_text._readings.cache_info().currsize == 0
        assert module.text_text.embedder._table is None

    def test_a_tuple_shortlist_is_the_head_of_its_coarse_list(
        self, small_bundle
    ):
        system = VerifAI(
            small_bundle.lake, llm=SimulatedLLM(knowledge=None, seed=7),
            config=VerifAIConfig(use_semantic_index=True, use_reranker=True),
        ).build_indexes()
        embedder = system.reranker.text_text.embedder
        assert embedder._table is None  # the build embeds no token
        tasks = build_tuple_workload(small_bundle, num_tasks=30, seed=5)
        objs = [
            TupleObject(task.task_id, task.row, attribute=task.column)
            for task in tasks
        ]
        config = system.config
        for obj, report in zip(objs, system.verify_batch(objs)):
            query = obj.query_text()
            stages = {
                step.stage: [instance_id for instance_id, _ in step.hits]
                for step in system.provenance.get(report.record_id).retrieval
            }
            shortlist = []
            for modality in (Modality.TUPLE, Modality.TEXT):
                coarse = [
                    hit.instance_id for hit in system.indexer.search(
                        query, modality, config.k_coarse
                    )
                ]
                head = coarse[:config.fine_k(modality)]
                assert stages[f"coarse:{modality.value}"] == coarse
                assert stages[f"rerank:{modality.value}"] == head
                shortlist += head
            assert report.evidence_ids == shortlist
        assert embedder._table is None


class TestVerifyTuple:
    def test_correct_value_verified(self, system, election_table):
        obj = TupleObject("o1", election_table.row(0), attribute="party")
        report = system.verify(obj)
        assert report.final_verdict is Verdict.VERIFIED
        assert report.supporting

    def test_wrong_value_refuted_by_the_counterpart_tuple(
        self, system, election_table
    ):
        wrong = election_table.row(0).replace_value("votes", "55,000")
        obj = TupleObject("o2", wrong, attribute="votes")
        report = system.verify(obj)
        assert report.final_verdict is Verdict.REFUTED
        # the top-ranked tuple decides; the entity page is on the
        # shortlist but is never verified
        assert [o.evidence_id for o in report.refuting] == ["t-ohio-1950#r0"]
        assert report.outcomes == report.refuting
        assert report.evidence_ids[0] == "t-ohio-1950#r0"
        assert "page-jenkins" in report.evidence_ids

    def test_report_summary_readable(self, system, election_table):
        obj = TupleObject("o3", election_table.row(1), attribute="party")
        summary = system.verify(obj).summary()
        assert "o3" in summary
        assert "supporting" in summary


class TestVerifyClaim:
    def test_true_claim(self, system, medal_table):
        obj = ClaimObject("c1", "the gold of valoria is 10",
                          context=medal_table.caption)
        report = system.verify(obj)
        assert report.final_verdict is Verdict.VERIFIED

    def test_false_aggregate_claim(self, system, medal_table):
        obj = ClaimObject(
            "c2", f"the total gold in {medal_table.caption} is 99",
            context=medal_table.caption,
        )
        report = system.verify(obj)
        assert report.final_verdict is Verdict.REFUTED

    def test_unrelated_claim(self, system):
        obj = ClaimObject(
            "c3", "the population of atlantis is 1,000,000",
            context="cities of atlantis census",
        )
        report = system.verify(obj)
        assert report.final_verdict is Verdict.NOT_RELATED


class TestProvenanceIntegration:
    def test_every_verify_leaves_a_record(self, system, election_table):
        before = len(system.provenance)
        obj = TupleObject("o9", election_table.row(2), attribute="party")
        report = system.verify(obj)
        assert len(system.provenance) == before + 1
        assert report.record_id

    def test_explain_replays(self, system, election_table):
        obj = TupleObject("o10", election_table.row(2), attribute="party")
        report = system.verify(obj)
        rendered = system.explain(report)
        assert "coarse:tuple" in rendered
        assert "final:" in rendered


class TestLocalVerifierPipeline:
    def test_prefer_local_uses_pasta_for_claims(self, tiny_lake, quiet_profile):
        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=5)
        system = VerifAI(
            tiny_lake,
            llm=llm,
            config=VerifAIConfig(prefer_local=True),
            local_verifiers=[PastaVerifier(model_noise=0.0)],
        ).build_indexes()
        obj = ClaimObject(
            "c", "the gold of valoria is 10",
            context="1960 summer games in lakeview medal table",
        )
        report = system.verify(obj)
        assert any(o.verifier == "pasta" for o in report.outcomes)


class TestRerankedPipeline:
    def test_reranker_path_works(self, tiny_lake, quiet_profile):
        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=6)
        system = VerifAI(
            tiny_lake, llm=llm,
            config=VerifAIConfig(use_reranker=True, k_coarse=10),
        ).build_indexes()
        obj = ClaimObject(
            "c", "the gold of valoria is 10",
            context="1960 summer games in lakeview medal table",
        )
        report = system.verify(obj)
        assert report.final_verdict is Verdict.VERIFIED
        # the provenance record shows both stages
        rendered = system.explain(report)
        assert "coarse:table" in rendered
        assert "rerank:table" in rendered

    def test_semantic_index_path_works(self, tiny_lake, quiet_profile):
        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=7)
        system = VerifAI(
            tiny_lake, llm=llm,
            config=VerifAIConfig(use_semantic_index=True),
        ).build_indexes()
        obj = TupleObject(
            "o", tiny_lake.table("t-ohio-1950").row(0), attribute="party"
        )
        assert system.verify(obj).final_verdict is Verdict.VERIFIED
