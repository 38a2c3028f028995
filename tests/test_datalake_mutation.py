"""DataLake mutation: remove/update semantics and entity remapping."""

import random

import pytest

from repro.datalake.lake import DataLake
from repro.datalake.types import Source, Table, TextDocument


def doc(doc_id, entity=None, text="some page text"):
    return TextDocument(
        doc_id=doc_id, title=doc_id, text=text,
        source=Source("wikipages"), entity=entity,
    )


def table(table_id):
    return Table(
        table_id=table_id, caption=f"caption of {table_id}",
        columns=("k", "v"), rows=[("a", "1"), ("b", "2")],
        source=Source("test"),
    )


@pytest.fixture()
def lake():
    lk = DataLake(name="mut")
    lk.add_table(table("t1"))
    lk.add_table(table("t2"))
    lk.add_document(doc("d1", entity="ada lovelace"))
    lk.add_document(doc("d2", entity="ada lovelace"))
    lk.add_document(doc("d3"))
    return lk


class TestRemove:
    def test_remove_table_drops_tuples(self, lake):
        removed = lake.remove_instance("t1")
        assert removed.table_id == "t1"
        assert "t1" not in lake
        assert "t1#r0" not in lake
        assert "t2#r0" in lake

    def test_remove_document(self, lake):
        removed = lake.remove_instance("d3")
        assert removed.doc_id == "d3"
        assert "d3" not in lake
        with pytest.raises(KeyError):
            lake.document("d3")

    def test_entity_slot_reassigned_to_next_doc(self, lake):
        assert lake.entity_page("ada lovelace").doc_id == "d1"
        lake.remove_instance("d1")
        # d2 carries the same entity and is the earliest remaining doc
        assert lake.entity_page("ada lovelace").doc_id == "d2"
        lake.remove_instance("d2")
        assert lake.entity_page("ada lovelace") is None

    def test_entity_slot_untouched_when_other_doc_owns_it(self, lake):
        # d1 owns the slot; removing d2 must not touch it
        lake.remove_instance("d2")
        assert lake.entity_page("ada lovelace").doc_id == "d1"

    def test_remove_unknown_raises_keyerror(self, lake):
        with pytest.raises(KeyError):
            lake.remove_instance("ghost")

    @pytest.mark.parametrize("instance_id,error", [
        ("t1#r0", ValueError), ("t1#r1", ValueError), ("ghost#r0", ValueError),
        ("kg:someone", KeyError), ("kg:ada_lovelace", KeyError),
        ("kg:", KeyError),
    ])
    def test_only_tables_and_documents_are_removable(
        self, lake, instance_id, error
    ):
        before = lake.stats()
        with pytest.raises(error):
            lake.remove_instance(instance_id)
        assert lake.stats() == before

    def test_stats_shrink(self, lake):
        before = lake.stats()
        lake.remove_instance("t1")
        after = lake.stats()
        assert after.num_tables == before.num_tables - 1
        assert after.num_tuples == before.num_tuples - 2


class TestUpdate:
    def test_update_table_returns_old(self, lake):
        new = Table(
            table_id="t1", caption="rewritten caption",
            columns=("k", "v"), rows=[("z", "9")], source=Source("test"),
        )
        old = lake.update_instance(new)
        assert old.caption == "caption of t1"
        assert lake.table("t1").caption == "rewritten caption"
        assert lake.table("t1").num_rows == 1
        assert "t1#r1" not in lake  # dropped row id resolves no more

    def test_update_document_returns_old(self, lake):
        new = doc("d3", text="fresh text")
        old = lake.update_instance(new)
        assert old.text == "some page text"
        assert lake.document("d3").text == "fresh text"

    def test_update_unknown_id_raises(self, lake):
        with pytest.raises(KeyError):
            lake.update_instance(doc("ghost"))
        with pytest.raises(KeyError):
            lake.update_instance(table("ghost"))

    def test_update_wrong_type_raises(self, lake):
        with pytest.raises(ValueError):
            lake.update_instance(lake.table("t1").row(0))

    def test_readd_after_remove(self, lake):
        removed = lake.remove_instance("t1")
        lake.add_table(removed)
        assert "t1" in lake
        assert "t1#r0" in lake


# ---------------------------------------------------------------------------
# the entity page after any sequence of writes
# ---------------------------------------------------------------------------
def rebuilt_pages(lake):
    """The entity -> page-id mapping a lake rebuilt from its remaining
    documents would hold: each entity's earliest document."""
    pages = {}
    for document in lake.documents():
        if document.entity:
            pages.setdefault(document.entity.lower(), document.doc_id)
    return pages


ENTITIES = [
    "Ada Lovelace", "ada lovelace", "Alan Turing", "Grace Hopper", None,
]


class TestEntityPageAfterWrites:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_writes_keep_the_rebuilt_mapping(self, seed):
        rng = random.Random(seed)
        lake = DataLake(name="pages")
        numbers = iter(range(10_000))
        for step in range(120):
            alive = [d.doc_id for d in lake.documents()]
            roll = rng.random()
            if roll < 0.4 or not alive:
                lake.add_document(
                    doc(f"d{next(numbers)}", rng.choice(ENTITIES))
                )
            elif roll < 0.6:
                lake.remove_instance(rng.choice(alive))
            elif roll < 0.85:  # an update, possibly moving the entity
                lake.update_instance(
                    doc(rng.choice(alive), rng.choice(ENTITIES))
                )
            else:  # remove, then re-add the same id
                doc_id = rng.choice(alive)
                removed = lake.remove_instance(doc_id)
                lake.add_document(doc(doc_id, removed.entity))
            pages = rebuilt_pages(lake)
            for entity in ENTITIES[:4] + ["nobody"]:
                page = lake.entity_page(entity)
                expected = pages.get(entity.lower())
                assert (page.doc_id if page else None) == expected, (
                    seed, step,
                )

    def test_a_shared_entity_falls_to_the_next_earliest_page(self):
        lake = DataLake(name="pages")
        for doc_id in ("p1", "p2", "p3"):
            lake.add_document(doc(doc_id, "Grace Hopper"))
        lake.update_instance(doc("p1", "Grace Hopper"))  # p1 moves last
        assert lake.entity_page("grace hopper").doc_id == "p2"
        lake.remove_instance("p2")
        assert lake.entity_page("GRACE HOPPER").doc_id == "p3"
        lake.remove_instance("p3")
        assert lake.entity_page("grace hopper").doc_id == "p1"
        lake.remove_instance("p1")
        assert lake.entity_page("grace hopper") is None
