"""Crash-safe snapshot writes: a write that dies half-way leaves the
previous snapshot loadable — or, for a sealed snapshot's flat arrays,
attachable — and nothing else behind."""

import json
import os

import numpy as np
import pytest

from repro import snapshot
from repro.datalake.lake import DataLake
from repro.datalake.persistence import load_lake, save_lake
from repro.datalake.types import Source, TextDocument
from repro.index.inverted import InvertedIndex
from repro.index.persistence import (
    attach_sealed_index,
    attach_vector_index,
    load_inverted_index,
    save_inverted_index,
    save_sealed_index,
    save_vector_index,
)
from repro.index.vector import FlatVectorIndex
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


def _index(*payloads):
    index = InvertedIndex(name="snapshots")
    for number, payload in enumerate(payloads):
        index.add(f"doc-{number}", payload)
    return index


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
    "index": (
        save_inverted_index, load_inverted_index, _index("ohio district"),
        _index("ohio district", "utah senate", "iowa house"),
        lambda index: len(index),
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


def _vectors(*ids):
    index = FlatVectorIndex(dim=4, name="snapshots")
    for number, instance_id in enumerate(ids):
        index.add_vector(instance_id, np.arange(4.0) + number)
    return index


def _die_in_array(monkeypatch, which):
    """Make the ``which``-th array written from now on run out of disk
    half-way: half its bytes reach its file, then ENOSPC."""
    real_fsync, synced = os.fsync, []

    def fsync(fd):
        synced.append(fd)
        if len(synced) == which:
            os.ftruncate(fd, os.fstat(fd).st_size // 2)
            raise OSError(28, "No space left on device")
        real_fsync(fd)

    monkeypatch.setattr(snapshot.os, "fsync", fsync)


#: (save, attach, the index, which array's write dies, what it answers)
SEALED_WRITERS = {
    "sealed": (
        save_sealed_index, attach_sealed_index,
        _index("ohio district", "utah senate", "iowa house"), 3,
        lambda index: index.search("ohio senate", 5),
    ),
    "vector": (
        save_vector_index, attach_vector_index, _vectors("a", "b", "c"), 1,
        lambda index: index.search_vector(np.ones(4), 5),
    ),
}


@pytest.mark.parametrize("writer", sorted(SEALED_WRITERS))
def test_a_resave_that_dies_in_an_array_keeps_the_snapshot_attachable(
    writer, tmp_path, monkeypatch
):
    save, attach, index, which, answer = SEALED_WRITERS[writer]
    directory = tmp_path / "snap"
    save(index, directory)
    before = {
        entry.name: entry.read_bytes() for entry in directory.iterdir()
    }
    expected = answer(attach(directory))
    assert expected == answer(index) and expected

    with monkeypatch.context() as patch:
        _die_in_array(patch, which)
        with pytest.raises(OSError, match="No space left"):
            save(index, directory)
    # no array is torn, nothing is left beside them, and it attaches
    assert {
        entry.name: entry.read_bytes() for entry in directory.iterdir()
    } == before
    assert answer(attach(directory)) == expected

    save(index, directory)
    assert answer(attach(directory)) == expected
    assert sorted(entry.name for entry in directory.iterdir()) == sorted(before)
