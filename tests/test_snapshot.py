"""Crash-safe snapshot writes: a write that dies half-way leaves the
previous snapshot loadable and nothing else behind."""

import json

import pytest

from repro import snapshot
from repro.datalake.lake import DataLake
from repro.datalake.persistence import load_lake, save_lake
from repro.datalake.types import Source, TextDocument
from repro.provenance.store import ProvenanceStore


def _lake(*titles):
    lake = DataLake(name="snapshots")
    for title in titles:
        lake.add_document(
            TextDocument(
                doc_id=f"page-{title}", title=title, text=f"{title} page",
                source=Source("wikipages"), entity=title,
            )
        )
    return lake


def _store(*object_ids):
    store = ProvenanceStore()
    for object_id in object_ids:
        store.new_record(object_id, "a query")
    return store


#: (save, load, the committed snapshot, a larger one whose write dies,
#:  how many things the loaded snapshot must hold)
WRITERS = {
    "lake": (
        save_lake, load_lake, _lake("one"), _lake("one", "two", "three"),
        lambda lake: len(list(lake.documents())),
    ),
    "provenance": (
        lambda store, path: store.save(path), ProvenanceStore.load,
        _store("obj-A"), _store("obj-A", "obj-B", "obj-C"),
        lambda store: len(store),
    ),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_write_that_dies_half_way_keeps_the_previous_snapshot(
    writer, tmp_path, monkeypatch
):
    save, load, committed, larger, size = WRITERS[writer]
    path = tmp_path / "nested" / "snapshot.json"
    save(committed, path)
    before = path.read_bytes()
    real_dump = json.dump

    def dump_half_then_die(payload, handle, **options):
        text = json.dumps(payload, **options)
        handle.write(text[: len(text) // 2])
        handle.flush()
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(snapshot.json, "dump", dump_half_then_die)
    with pytest.raises(OSError, match="No space left"):
        save(larger, path)
    assert path.read_bytes() == before
    assert size(load(path)) == 1
    assert [entry.name for entry in path.parent.iterdir()] == [path.name]

    monkeypatch.setattr(snapshot.json, "dump", real_dump)
    save(larger, path)
    assert size(load(path)) == 3
    assert [entry.name for entry in path.parent.iterdir()] == [path.name]

