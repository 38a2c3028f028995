"""Service-path hardening of ``verify_batch`` / ``BatchStats``.

A long-lived server turns two campaign shapes that a one-shot CLI never
produces into everyday traffic:

* **empty campaigns** (0 objects) — the stats summary and the new
  per-object means must come back well-formed, with no division by
  zero, no dangling provenance records, and no campaign Scope left
  active on any thread;
* **successive campaigns** — requests verified one after another must
  each get a stats view of *their own* work (their own matrix prefill,
  their own failure counters), never a shared Scope.

Plus record ids: ``ProvenanceStore.new_record`` hands them out counting
up in the order the records are opened.
"""

import pytest

from repro.core.batch import BatchStats
from repro.core.pipeline import VerifAI
from repro.obs.clock import TickClock
from repro.obs.metrics import get_registry
from repro.provenance.store import ProvenanceStore
from repro.verify.objects import ClaimObject
from repro.workloads.builder import LakeConfig, build_lake


@pytest.fixture(scope="module")
def system():
    bundle = build_lake(LakeConfig(num_tables=24, seed=3))
    return VerifAI(bundle.lake, clock=TickClock()).build_indexes()


class TestEmptyCampaign:
    def test_empty_campaign_is_well_formed(self, system):
        report = system.verify_batch([])
        assert len(report) == 0
        assert report.failed == 0
        stats = report.stats
        assert stats.objects == 0
        # per-object means must not divide by zero on 0 objects
        means = stats.per_object_seconds()
        assert means == {"retrieve": 0.0, "total": 0.0, "verify": 0.0}
        assert "0 objects" in stats.summary()

    def test_empty_campaign_to_dict_round_trips(self, system):
        import json

        stats = system.verify_batch([]).stats
        payload = stats.to_dict()
        assert payload["objects"] == 0
        assert payload["per_object_seconds"]["total"] == 0.0
        # JSON-serializable as-is: the /verify-batch response embeds it
        assert json.loads(json.dumps(payload)) == payload

    def test_empty_campaign_leaves_no_dangling_state(self, system):
        system.verify_batch([])
        assert system.provenance.open_records() == []
        # the campaign Scope was deactivated on the way out
        assert get_registry().active_scopes() == ()

    def test_empty_campaign_traced(self, system):
        report = system.verify_batch([], trace=True)
        assert report.trace is not None
        root = report.trace.root
        assert root.name == "verify_batch"
        assert root.attributes["objects"] == 0

    def test_per_object_means_divide_on_real_campaign(self, system):
        objs = [
            ClaimObject(f"mean-{i}", "the largest city by population")
            for i in range(4)
        ]
        stats = system.verify_batch(objs).stats
        means = stats.per_object_seconds()
        assert set(means) == {"retrieve", "total", "verify"}
        for name, mean in means.items():
            assert mean == stats.stage_seconds[name] / 4

    def test_zero_objects_stats_standalone(self):
        # the dataclass itself, not just the engine path
        stats = BatchStats(objects=0, stage_seconds={"total": 0.0})
        assert stats.per_object_seconds() == {"total": 0.0}
        assert stats.to_dict()["objects"] == 0


class TestSuccessiveCampaigns:
    def test_successive_campaigns_do_not_share_a_scope(self, system):
        """Two campaigns in a row each see exactly their own matrix
        prefill (1 batch each) and their own object/failure counts — a
        scope left active by the first would double the second's."""
        results = {}
        for name, text in (
            ("a", "Tokyo has the largest population"),
            ("b", "the team won the gold medal total"),
        ):
            objs = [ClaimObject(f"{name}-{i}", text) for i in range(6)]
            results[name] = system.verify_batch(objs)
            assert get_registry().active_scopes() == ()

        for name in ("a", "b"):
            stats = results[name].stats
            assert stats.objects == 6
            assert stats.matrix_batches == 1, name
            assert stats.failed == 0

    def test_record_ids_count_up_in_opening_order(self):
        store = ProvenanceStore()
        ids = [store.new_record(f"obj-{i}", "q").record_id for i in range(50)]
        assert ids == [f"rec-{n:06d}" for n in range(1, 51)]
        assert len(store) == 50
        assert store.records_for_object("obj-7")[0].record_id == "rec-000008"
