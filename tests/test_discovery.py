"""Cross-modal discovery over a homogeneous vector space."""

import threading

import pytest

from repro.datalake.types import Modality
from repro.discovery.crossmodal import CrossModalIndex


@pytest.fixture(scope="module")
def index(tiny_lake):
    return CrossModalIndex(tiny_lake, dim=256).build()


class TestBuild:
    def test_covers_all_modalities(self, index, tiny_lake):
        stats = tiny_lake.stats()
        expected = (
            stats.num_tables + stats.num_tuples + stats.num_text_files
            + tiny_lake.kg.num_entities
        )
        assert len(index) == expected

    def test_idempotent(self, index):
        before = len(index)
        index.build()
        assert len(index) == before


class TestSearch:
    def test_mixed_modality_results(self, index):
        hits = index.search("tom jenkins ohio republican", k=8)
        modalities = {hit.modality for hit in hits}
        assert Modality.TUPLE in modalities
        assert Modality.TEXT in modalities

    def test_modality_filter(self, index):
        hits = index.search("valoria gold medals", k=3,
                            modalities=[Modality.TEXT])
        assert hits
        assert all(hit.modality is Modality.TEXT for hit in hits)

    def test_top_hit_relevance(self, index):
        hits = index.search("valoria gold silver bronze", k=1,
                            modalities=[Modality.TEXT])
        assert hits[0].instance_id == "page-valoria"


class TestRelated:
    def test_tuple_to_its_page(self, index):
        """The discovery question: which text describes this tuple?"""
        hits = index.related("t-ohio-1950#r0", k=2,
                             modalities=[Modality.TEXT])
        assert hits[0].instance_id == "page-jenkins"

    def test_page_to_table(self, index):
        hits = index.related("page-valoria", k=3,
                             modalities=[Modality.TABLE])
        assert hits[0].instance_id == "t-games-1960"

    def test_excludes_self(self, index):
        hits = index.related("page-valoria", k=10)
        assert all(hit.instance_id != "page-valoria" for hit in hits)

    def test_unknown_instance(self, index):
        """A ``KeyError`` naming the id, as from ``DataLake.instance`` —
        it used to be ``list.index``'s ``ValueError``."""
        with pytest.raises(KeyError, match="missing-id"):
            index.related("missing-id")


class TestNonPositiveK:
    """``k <= 0`` asks for nothing, as from every ``SearchIndex``: the
    modality filter's fetch depth starts at ``k`` and must not be grown
    from 0 (or below) for ever, so each call runs in a daemon thread and
    a hang fails the test instead of the run."""

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("modalities", [None, [Modality.TEXT]])
    @pytest.mark.parametrize("read", ["search", "related"])
    def test_returns_nothing(self, index, read, modalities, k):
        query = "valoria gold medals" if read == "search" else "page-valoria"
        result = []
        worker = threading.Thread(
            target=lambda: result.append(
                getattr(index, read)(query, k, modalities=modalities)
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), f"{read}(k={k}) did not return"
        assert result == [[]]
