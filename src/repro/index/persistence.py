"""Index persistence.

Rebuilding a BM25 index over a large lake on every process start is the
dominant cold-start cost; these helpers snapshot an index and restore
it without re-analyzing the corpus.  Two persistence families live
here:

* the **JSON snapshots** — an
  :class:`~repro.index.inverted.InvertedIndex` in its *write-path*
  (dict) form, fully mutable after load; a
  :class:`~repro.index.shard.ShardedInvertedIndex` as one manifest file
  per logical index plus one payload per shard.  A removal edits the
  postings at once, so a snapshot never carries a removed document;
* the **sealed memmap snapshots** — the compiled read form's flat
  contiguous arrays written as raw binaries next to a versioned
  ``manifest.json``.  :func:`attach_sealed_index` re-creates the index
  **zero-copy**: the arrays are ``np.memmap``-attached read-only, so N
  processes attaching one snapshot share one set of OS page-cache pages
  instead of N copies of the corpus, and cold start skips tokenization,
  BM25 statistics, and sealing entirely.  Attached indexes refuse
  mutation; rankings are bit-identical to the in-memory sealed index
  the snapshot was written from.

Every manifest carries a format version and array geometry; a
truncated, corrupted, or version-skewed snapshot fails with a clean
:class:`~repro.verify.base.VerificationError` instead of a numpy
traceback.  Every file is written whole or not at all
(:mod:`repro.snapshot`), the manifest last: a save that dies over an
existing snapshot leaves each array the old or the new one, never torn.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.index.inverted import InvertedIndex, _SealedPostings
from repro.index.shard import ShardedInvertedIndex
from repro.index.vector import FlatVectorIndex
from repro.snapshot import write_array, write_json

_FORMAT_VERSION = 1
_SHARDED_FORMAT_VERSION = 1
_SEALED_FORMAT_VERSION = 1
_SEALED_KIND = "sealed-inverted"
_SEALED_SHARDED_KIND = "sealed-sharded"
_SEALED_VECTOR_KIND = "sealed-vector"

#: the flat sealed arrays and their on-disk dtypes, in manifest order
_SEALED_ARRAYS = {
    "tok_start": "int64",
    "doc_idx": "int64",
    "tf_flat": "float64",
    "norm": "float64",
    "idf_flat": "float64",
}


def _snapshot_error(message: str) -> Exception:
    from repro.verify.base import VerificationError

    return VerificationError(f"sealed index snapshot: {message}")


def _load_manifest(path: Path, expected_kind: str) -> dict:
    """Read and validate a sealed-snapshot manifest, failing with a
    clean :class:`VerificationError` on any malformation."""
    if not path.is_file():
        raise _snapshot_error(f"manifest not found at {path}")
    try:
        with path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise _snapshot_error(
            f"manifest at {path} is unreadable: {exc}"
        ) from None
    if not isinstance(manifest, dict):
        raise _snapshot_error(f"manifest at {path} is not an object")
    if manifest.get("kind") != expected_kind:
        raise _snapshot_error(
            f"manifest at {path} has kind {manifest.get('kind')!r}, "
            f"expected {expected_kind!r}"
        )
    if manifest.get("version") != _SEALED_FORMAT_VERSION:
        raise _snapshot_error(
            f"unsupported sealed format version "
            f"{manifest.get('version')!r} at {path}"
        )
    return manifest


def _attach_array(
    directory: Path, name: str, spec: dict
) -> "np.ndarray":
    """Memmap one flat array read-only, verifying its size first."""
    try:
        dtype = np.dtype(spec["dtype"])
        count = int(spec["count"])
        file_name = spec["file"]
    except (KeyError, TypeError, ValueError):
        raise _snapshot_error(
            f"array {name!r} has a malformed manifest entry"
        ) from None
    path = directory / file_name
    if not path.is_file():
        raise _snapshot_error(f"array file {path} is missing")
    expected = count * dtype.itemsize
    actual = path.stat().st_size
    if actual != expected:
        raise _snapshot_error(
            f"array file {path} is truncated or padded: expected "
            f"{expected} bytes ({count} x {dtype}), found {actual}"
        )
    if count == 0:
        # np.memmap refuses zero-length files; an empty array is exact
        return np.empty(0, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode="r", shape=(count,))


def _index_payload(index: InvertedIndex) -> dict:
    """The JSON-serializable snapshot of one inverted index."""
    return {
        "version": _FORMAT_VERSION,
        "name": index.name,
        "k1": index.k1,
        "b": index.b,
        "remove_stopwords": index.remove_stopwords,
        "stemming": index.stemming,
        "doc_length": index._doc_length,
        "total_length": index._total_length,
        # the JSON snapshot serializes the *dict* write form, so walking
        # the postings here is the point, not a missed vectorization
        "postings": {  # repro-lint: disable=PERF001
            token: postings for token, postings in index._postings.items()
        },
    }


def _restore_from_payload(index: InvertedIndex, payload: dict) -> None:
    """Fill an empty index with one snapshot payload's dict form."""
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported index format version: {payload.get('version')!r}"
        )
    index._restore(payload["doc_length"], payload["postings"])


def save_inverted_index(index: InvertedIndex, path: Union[str, Path]) -> None:
    """Snapshot an inverted index to ``path``."""
    write_json(_index_payload(index), Path(path))


def load_inverted_index(path: Union[str, Path]) -> InvertedIndex:
    """Restore an inverted index written by :func:`save_inverted_index`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    index = InvertedIndex(
        name=payload["name"],
        k1=payload["k1"],
        b=payload["b"],
        remove_stopwords=payload["remove_stopwords"],
        stemming=payload["stemming"],
    )
    _restore_from_payload(index, payload)
    return index


def save_sharded_index(
    index: ShardedInvertedIndex, path: Union[str, Path]
) -> None:
    """Snapshot a sharded inverted index as one manifest at ``path``.

    Shard payloads are embedded in the manifest (the shard partition is
    a pure function of the ids, but persisting the actual per-shard
    postings avoids re-hashing and re-bucketing on load).
    """
    payload = {
        "version": _SHARDED_FORMAT_VERSION,
        "name": index.name,
        "num_shards": index.num_shards,
        "shards": [_index_payload(shard) for shard in index.shards],
    }
    write_json(payload, Path(path))


def load_sharded_index(path: Union[str, Path]) -> ShardedInvertedIndex:
    """Restore a sharded index written by :func:`save_sharded_index`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != _SHARDED_FORMAT_VERSION:
        raise ValueError(
            f"unsupported sharded index format version: "
            f"{payload.get('version')!r}"
        )
    num_shards = int(payload["num_shards"])
    if len(payload["shards"]) != num_shards:
        raise ValueError(
            f"manifest promises {num_shards} shards but carries "
            f"{len(payload['shards'])}"
        )
    first = payload["shards"][0]
    index = ShardedInvertedIndex(
        num_shards,
        name=payload["name"],
        k1=first["k1"],
        b=first["b"],
        remove_stopwords=first["remove_stopwords"],
        stemming=first["stemming"],
    )
    for shard, shard_payload in zip(index.shards, payload["shards"]):
        _restore_from_payload(shard, shard_payload)
    return index


# ---------------------------------------------------------------------------
# sealed (zero-copy / memmap) persistence
# ---------------------------------------------------------------------------
def save_sealed_index(
    index: InvertedIndex, directory: Union[str, Path]
) -> Path:
    """Persist an index's sealed form as flat binaries + manifest.

    Seals first when needed (so idf/norm bake in whatever
    ``corpus_stats`` view is assigned — a shard persisted this way
    keeps its *global* statistics).  Returns the snapshot directory.
    """
    index.seal()
    sealed = index._sealed
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays: Dict[str, "np.ndarray"] = {
        "tok_start": np.ascontiguousarray(sealed.tok_start, dtype=np.int64),
        "doc_idx": np.ascontiguousarray(sealed.doc_idx, dtype=np.int64),
        "tf_flat": np.ascontiguousarray(sealed.tf_flat, dtype=np.float64),
        "norm": np.ascontiguousarray(sealed.norm, dtype=np.float64),
        "idf_flat": np.ascontiguousarray(sealed.idf_flat, dtype=np.float64),
    }
    manifest = {
        "version": _SEALED_FORMAT_VERSION,
        "kind": _SEALED_KIND,
        "name": index.name,
        "k1": index.k1,
        "b": index.b,
        "remove_stopwords": index.remove_stopwords,
        "stemming": index.stemming,
        "doc_ids": sealed.doc_ids,
        "doc_lengths": [
            index._doc_length[doc_id] for doc_id in sealed.doc_ids
        ],
        "total_length": index._total_length,
        "tokens": sealed.tokens,
        "arrays": {
            name: {
                "file": f"{name}.bin",
                "dtype": _SEALED_ARRAYS[name],
                "count": int(arrays[name].size),
            }
            for name in _SEALED_ARRAYS
        },
    }
    for name, array in arrays.items():
        write_array(array, directory / f"{name}.bin")
    write_json(manifest, directory / "manifest.json")
    return directory


def attach_sealed_index(
    directory: Union[str, Path], name: Optional[str] = None
) -> InvertedIndex:
    """Zero-copy attach of a sealed snapshot written by
    :func:`save_sealed_index`.

    The flat arrays are ``np.memmap``-attached read-only — no corpus
    pickling, no re-analysis, no BM25 recomputation — so N processes
    attaching the same snapshot share one set of page-cache pages.
    Attaching derives nothing per posting (it only bounds-checks
    ``doc_idx``); the first read builds the seal's ``contrib_flat``
    table, as the first read of any seal does.
    The returned index ranks bit-identically to the index the snapshot
    was written from and refuses mutation.  A corrupted, truncated, or
    version-skewed snapshot raises
    :class:`~repro.verify.base.VerificationError`.
    """
    directory = Path(directory)
    manifest = _load_manifest(directory / "manifest.json", _SEALED_KIND)
    try:
        doc_ids = list(manifest["doc_ids"])
        doc_lengths = [int(n) for n in manifest["doc_lengths"]]
        tokens = list(manifest["tokens"])
        array_specs = manifest["arrays"]
        index = InvertedIndex(
            name=name if name is not None else manifest["name"],
            k1=manifest["k1"],
            b=manifest["b"],
            remove_stopwords=manifest["remove_stopwords"],
            stemming=manifest["stemming"],
        )
        total_length = int(manifest["total_length"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _snapshot_error(
            f"manifest in {directory} is missing or malforms a field: {exc}"
        ) from None
    if len(doc_lengths) != len(doc_ids):
        raise _snapshot_error(
            f"manifest in {directory} carries {len(doc_ids)} doc ids but "
            f"{len(doc_lengths)} doc lengths"
        )
    arrays = {
        array_name: _attach_array(
            directory, array_name, array_specs.get(array_name, {})
        )
        for array_name in _SEALED_ARRAYS
    }
    tok_start = arrays["tok_start"]
    doc_idx = arrays["doc_idx"]
    if tok_start.size != len(tokens) + 1:
        raise _snapshot_error(
            f"tok_start carries {tok_start.size} offsets for "
            f"{len(tokens)} tokens (want tokens + 1)"
        )
    if tokens and int(tok_start[-1]) != doc_idx.size:
        raise _snapshot_error(
            f"postings length mismatch: offsets end at {int(tok_start[-1])} "
            f"but doc_idx carries {doc_idx.size} entries"
        )
    if arrays["tf_flat"].size != doc_idx.size:
        raise _snapshot_error(
            f"tf_flat carries {arrays['tf_flat'].size} entries but doc_idx "
            f"carries {doc_idx.size}"
        )
    if arrays["idf_flat"].size != len(tokens):
        raise _snapshot_error(
            f"idf_flat carries {arrays['idf_flat'].size} values for "
            f"{len(tokens)} tokens"
        )
    if arrays["norm"].size != len(doc_ids):
        raise _snapshot_error(
            f"norm carries {arrays['norm'].size} values for "
            f"{len(doc_ids)} documents"
        )
    if doc_idx.size and (
        int(doc_idx.max()) >= len(doc_ids) or int(doc_idx.min()) < 0
    ):
        raise _snapshot_error(
            f"doc_idx references documents outside [0, {len(doc_ids)})"
        )
    index._doc_length = dict(zip(doc_ids, doc_lengths))
    index._total_length = total_length
    index._sealed = _SealedPostings(
        doc_ids,
        arrays["norm"],
        tokens,
        tok_start,
        doc_idx,
        arrays["tf_flat"],
        arrays["idf_flat"],
    )
    index._attached = True
    return index


def save_sealed_sharded_index(
    index: ShardedInvertedIndex, directory: Union[str, Path]
) -> Path:
    """Persist every shard's sealed form under one manifest directory.

    Shards are sealed against the wrapper's :class:`GlobalBM25Stats`
    view, so the persisted idf/norm tables carry the *whole* logical
    corpus's statistics — an attached shard ranks exactly like the
    live one.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    shard_dirs = []
    for shard_no, shard in enumerate(index.shards):
        shard_dir = f"shard-{shard_no:04d}"
        save_sealed_index(shard, directory / shard_dir)
        shard_dirs.append(shard_dir)
    manifest = {
        "version": _SEALED_FORMAT_VERSION,
        "kind": _SEALED_SHARDED_KIND,
        "name": index.name,
        "num_shards": index.num_shards,
        "shards": shard_dirs,
    }
    write_json(manifest, directory / "manifest.json")
    return directory


def attach_sealed_sharded_index(
    directory: Union[str, Path]
) -> ShardedInvertedIndex:
    """Attach every shard of a sealed sharded snapshot read-only."""
    directory = Path(directory)
    manifest = _load_manifest(
        directory / "manifest.json", _SEALED_SHARDED_KIND
    )
    try:
        num_shards = int(manifest["num_shards"])
        shard_dirs = list(manifest["shards"])
        logical_name = manifest["name"]
    except (KeyError, TypeError, ValueError) as exc:
        raise _snapshot_error(
            f"sharded manifest in {directory} malforms a field: {exc}"
        ) from None
    if len(shard_dirs) != num_shards:
        raise _snapshot_error(
            f"sharded manifest promises {num_shards} shards but lists "
            f"{len(shard_dirs)}"
        )
    attached = [
        attach_sealed_index(directory / shard_dir)
        for shard_dir in shard_dirs
    ]
    index = ShardedInvertedIndex(num_shards, name=logical_name)
    index.shards = attached
    # attached shards score from their baked-in sealed tables; the
    # stats view is only consulted on (forbidden) re-seals
    for shard in index.shards:
        shard.corpus_stats = None
    return index


def save_vector_index(
    index: FlatVectorIndex, directory: Union[str, Path]
) -> Path:
    """Persist a flat vector index's dense matrix + id table."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    matrix = np.ascontiguousarray(index._get_matrix(), dtype=np.float64)
    manifest = {
        "version": _SEALED_FORMAT_VERSION,
        "kind": _SEALED_VECTOR_KIND,
        "name": index.name,
        "dim": index.dim,
        "metric": index.metric,
        "ids": list(index._ids),
        "arrays": {
            "matrix": {
                "file": "matrix.bin",
                "dtype": "float64",
                "count": int(matrix.size),
            }
        },
    }
    write_array(matrix, directory / "matrix.bin")
    write_json(manifest, directory / "manifest.json")
    return directory


def attach_vector_index(directory: Union[str, Path]) -> FlatVectorIndex:
    """Zero-copy attach of a vector snapshot (read-only memmap matrix)."""
    directory = Path(directory)
    manifest = _load_manifest(
        directory / "manifest.json", _SEALED_VECTOR_KIND
    )
    try:
        ids: List[str] = list(manifest["ids"])
        index = FlatVectorIndex(
            dim=int(manifest["dim"]),
            metric=manifest["metric"],
            name=manifest["name"],
        )
        spec = dict(manifest["arrays"]["matrix"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _snapshot_error(
            f"vector manifest in {directory} malforms a field: {exc}"
        ) from None
    flat = _attach_array(directory, "matrix", spec)
    if flat.size != len(ids) * index.dim:
        raise _snapshot_error(
            f"matrix carries {flat.size} values for {len(ids)} ids of "
            f"dim {index.dim}"
        )
    index._ids = ids
    index._id_set = set(ids)
    # the row-major snapshot read as the column-major table's transposed
    # view: no copy, and the norms wait for the first search
    index._columns = flat.reshape(len(ids), index.dim).T
    index._row_norms, index._count = None, len(ids)
    index._attached = True
    return index
