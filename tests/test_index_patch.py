"""A patched seal is a compiled seal, byte for byte.

``InvertedIndex.seal()`` after a write folds the net removals and
additions into the base's CSR arrays, the only form the postings live
in, and publishes the seal: a view of the new base with no writes.
Everything else in the index stack — dict ≡ sealed ≡ matrix — rests on
one property, proved here: after any sequence of writes the seven
arrays a seal scores from (the base's ``doc_ids``, ``tokens``,
``tok_start``, ``doc_idx`` and ``tf_flat``, the seal's ``norm``, and
``idf_flat``, the idf of its row lengths) equal, as bytes, those of a
*mirror*: a fresh index fed the surviving payloads, which compiles once
and never patches.
Rankings are checked against the dict oracle of
``tests/bm25_oracle.py``, which shares no state with either index.

It is one of ``make coverage``'s suites for ``index/inverted.py``.
"""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.datalake.types import Modality, Table
from repro.index.inverted import InvertedIndex
from repro.obs.metrics import get_registry
from repro.workloads.builder import LakeConfig, build_lake
from tests.bm25_oracle import DictOracle, seal_idf

SEVEN = (
    "doc_ids", "norm", "tokens", "tok_start", "doc_idx", "tf_flat", "idf_flat"
)

#: sha256 of the seven arrays compiled at ``bff0fe4`` (the parent of the
#: PR that rewrote the compile) from ``seeded_pair(14, docs=400)``: as
#: built, and after ``churn_for_the_pin``
PINNED_BUILT = (
    "60ea0071b25b47d6308c5c9e32917b23bf9d6c11e7d1fd8bb01367426e316c79"
)
PINNED_CHURNED = (
    "99170ab044d9f96b8d7efff630a41e17253650f1b9d74f1f5254225ea985a5c0"
)

SYLLABLES = (
    "ka", "to", "mi", "ra", "ne", "so", "lu", "vi", "da", "po", "chi", "ben"
)


def word(rank):
    """The ``rank``-th pseudo-word: its base-12 digits as syllables."""
    parts = [SYLLABLES[rank % 12]]
    rank //= 12
    while rank:
        parts.append(SYLLABLES[rank % 12])
        rank //= 12
    return "".join(parts) + "x"


def payload(rng, vocabulary=600):
    """5-40 words, low ranks far more frequent than high ones."""
    return " ".join(
        word(int(rng.random() ** 3 * vocabulary))
        for _ in range(rng.randint(5, 40))
    )


def seven(index):
    """The seven sealed arrays of ``index`` as bytes, by name."""
    return seven_of(index._sealed)


def seven_of(sealed):
    base = sealed.base
    return {
        "doc_ids": "\n".join(base.doc_ids).encode(),
        "norm": sealed.norm.tobytes(),
        "tokens": "\n".join(base.tokens).encode(),
        "tok_start": base.tok_start.tobytes(),
        "doc_idx": base.doc_idx.tobytes(),
        "tf_flat": base.tf_flat.tobytes(),
        "idf_flat": seal_idf(sealed).tobytes(),
    }


def first_difference(left, right):
    """Name of the first of the seven arrays whose bytes differ."""
    for name in SEVEN:
        if left[name] != right[name]:
            return name
    return None


def digest(arrays):
    hasher = hashlib.sha256()
    for name in SEVEN:
        hasher.update(len(arrays[name]).to_bytes(8, "big"))
        hasher.update(arrays[name])
    return hasher.hexdigest()


def pairs(hits):
    return [(hit.instance_id, hit.score) for hit in hits]


class Pair:
    """The index under test and the payloads that survive in it, in its
    document order: what the mirror and the oracle are built from."""

    def __init__(self, **kwargs):
        self.kwargs = kwargs
        self.live = InvertedIndex(name="pair", **kwargs)
        self.payloads = {}
        self.mirror = None

    def add(self, doc_id, text):
        self.live.add(doc_id, text)
        self.payloads[doc_id] = text

    def remove(self, doc_id):
        text = self.payloads.pop(doc_id)
        self.live.remove(doc_id, self.live._analyze(text))

    def update(self, doc_id, text):
        self.remove(doc_id)  # an update moves it to the end
        self.add(doc_id, text)

    def __contains__(self, doc_id):
        return doc_id in self.payloads

    def ids(self):
        return list(self.live._doc_length)

    def fresh(self):
        """A fresh index fed the surviving payloads, sealed: a compile
        from nothing, never a patch."""
        index = InvertedIndex(name="pair", **self.kwargs)
        for doc_id, text in self.payloads.items():
            index.add(doc_id, text)
        return index.seal()

    def oracle(self):
        """The dict oracle over the surviving payloads."""
        return DictOracle(self.payloads.items(), name="pair", **self.kwargs)

    def expected(self, queries, k):
        oracle = self.oracle()
        return [pairs(oracle.search(q, k)) for q in queries]

    def check(self, queries=("kax tox", "mix"), k=10, context=None):
        """Seal the live index (a patch, when it has a base), compile a
        fresh mirror, and demand equal bytes, and the oracle's hits on
        every scoring path."""
        self.live.seal()
        self.mirror = self.fresh()
        assert first_difference(
            seven(self.live), seven(self.mirror)
        ) is None, context
        queries = list(queries)
        expected = self.expected(queries, k)
        assert [pairs(self.live.search(q, k)) for q in queries] == expected
        assert [
            pairs(hits) for hits in self.live.search_batch(queries, k)
        ] == expected, context
        assert [
            pairs(self.mirror.search(q, k)) for q in queries
        ] == expected, context


def seeded_pair(seed, docs=60, **kwargs):
    rng = random.Random(seed)
    pair = Pair(**kwargs)
    for number in range(docs):
        pair.add(f"doc{number}", payload(rng))
    return pair, rng


def churn_for_the_pin(pair, rng):
    for number in range(0, 400, 7):
        pair.remove(f"doc{number}")
    for number in range(3, 400, 11):
        if f"doc{number}" in pair:
            pair.update(f"doc{number}", payload(rng))
    for number in range(0, 400, 21):
        pair.add(f"doc{number}", payload(rng))


def patched_count():
    return get_registry().counter("index.seal.patched").value


def compiled_count():
    return get_registry().counter("index.seal.compiled").value


def viewed_count():
    return get_registry().counter("index.seal.viewed").value


# ---------------------------------------------------------------------------
# the compile itself did not move
# ---------------------------------------------------------------------------
class TestCompileIsPinned:
    def test_compiled_arrays_are_the_parents(self):
        pair, rng = seeded_pair(14, docs=400)
        assert digest(seven(pair.fresh())) == PINNED_BUILT
        churn_for_the_pin(pair, rng)
        assert digest(seven(pair.fresh())) == PINNED_CHURNED

    def test_patching_reaches_the_pinned_bytes_too(self):
        pair, rng = seeded_pair(14, docs=400)
        index = pair.live
        index.seal()
        churn_for_the_pin(pair, rng)
        before = patched_count()
        index.seal()
        assert patched_count() == before + 1
        assert digest(seven(index)) == PINNED_CHURNED

    @pytest.mark.parametrize("name", SEVEN)
    def test_one_flipped_bit_is_a_difference(self, name):
        pair, _ = seeded_pair(2, docs=12)
        pair.live.seal()
        reference = seven(pair.live)
        mutant = dict(reference)
        flipped = bytearray(mutant[name])
        flipped[len(flipped) // 2] ^= 1
        mutant[name] = bytes(flipped)
        assert first_difference(reference, reference) is None
        assert first_difference(reference, mutant) == name
        assert digest(reference) != digest(mutant)


# ---------------------------------------------------------------------------
# the one fold: each output array allocated once, nothing moved on a fault
# ---------------------------------------------------------------------------
def bits(hits):
    return [(hit.instance_id, float(hit.score).hex()) for hit in hits]


class TestOneFold:
    def test_a_compile_peaks_under_two_and_a_half_postings(self):
        """The traced peak of a compile is at most 2.5x the bytes of the
        postings it leaves (``doc_idx``, ``tf_flat``, ``tok_start``):
        the fresh run is sorted once into the final arrays."""
        pair, _ = seeded_pair(31, docs=3000)
        index = pair.live
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index.seal()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        base = index._base
        postings = (
            base.doc_idx.nbytes + base.tf_flat.nbytes + base.tok_start.nbytes
        )
        assert postings > 500_000
        assert peak <= 2.5 * postings, peak / postings

    @pytest.mark.parametrize("based", [False, True], ids=["compile", "merge"])
    def test_a_fold_that_raises_leaves_the_index_as_it_was(
        self, monkeypatch, based
    ):
        pair, rng = seeded_pair(8, docs=400)
        index = pair.live
        if based:  # a base, then writes short of a compaction
            index.seal()
            for number in range(0, 400, 41):
                pair.remove(f"doc{number}")
            pair.update("doc7", payload(rng))
            for number in range(400, 406):
                pair.add(f"doc{number}", payload(rng))
            assert index._delta is not None
        queries = ["kax tox", "mix rax", "chix benx kax"]
        expected = [bits(hits) for hits in pair.fresh().search_batch(queries)]
        fresh, df, size = dict(index._fresh), dict(index._df), len(index)
        reached = []

        def broken(*args, **kwargs):
            reached.append(True)
            raise MemoryError("argsort")

        monkeypatch.setattr(np, "argsort", broken)
        with pytest.raises(MemoryError):
            index.seal()
        monkeypatch.undo()
        assert reached
        assert index._fresh == fresh and dict(index._df) == df
        assert len(index) == size
        index.invalidate_seal()
        assert [bits(hits) for hits in index.search_batch(queries)] == expected
        pair.check(queries)


# ---------------------------------------------------------------------------
# seeded interleavings
# ---------------------------------------------------------------------------
class TestSeededInterleavings:
    @pytest.mark.parametrize("burst", [1, 2, 50])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bursts_patch_to_compiled_bytes(self, seed, burst):
        pair, rng = seeded_pair(seed)
        pair.check()
        fresh_ids = iter(range(10_000, 20_000))
        compiled = compiled_count()
        for round_no in range(120 // burst + 3):
            for _ in range(burst):
                alive = pair.ids()
                roll = rng.random()
                # rare high ranks: the vocabulary grows and shrinks
                text = payload(rng, vocabulary=rng.choice([20, 600, 3000]))
                if roll < 0.35 or len(alive) < 3:
                    pair.add(f"new{next(fresh_ids)}", text)
                elif roll < 0.65:
                    pair.remove(rng.choice(alive))
                else:
                    pair.update(rng.choice(alive), text)
            assert not pair.live.is_sealed
            before = patched_count()
            pair.check(
                queries=[payload(rng), payload(rng, 20), "zzzx"],
                context=(seed, burst, round_no),
            )
            assert patched_count() == before + 1
        # the live index never compiled again (each fresh mirror did)
        assert compiled_count() - compiled == 120 // burst + 3


class TestSoloReadsAcrossWrites:
    def test_a_solo_read_after_every_write_is_the_dict_and_the_batch(self):
        """View on view, the first read after each write is a one-query
        read, scored from the spans it derives on the new view:
        it must be the dict oracle's ranking and the same query's row of
        a three-query batch, by ids and by every score's bits."""
        pair, rng = seeded_pair(31, docs=80)
        index = pair.live
        index.seal()
        fresh_ids = iter(range(10_000, 20_000))

        def exact(hits):
            return [(hit.instance_id, hit.score.hex()) for hit in hits]

        viewed = viewed_count()
        for step in range(50):
            alive = pair.ids()
            roll = rng.random()
            text = payload(rng, vocabulary=rng.choice([20, 600, 3000]))
            if roll < 0.35 or len(alive) < 3:
                pair.add(f"new{next(fresh_ids)}", text)
            elif roll < 0.65:
                pair.remove(rng.choice(alive))
            else:
                pair.update(rng.choice(alive), text)
            query = payload(rng, vocabulary=40)
            folds = patched_count()
            solo = exact(index.search(query, 7))
            assert patched_count() == folds, step  # no read folds
            assert index._sealed.spans, step
            assert solo, step
            assert solo == exact(pair.oracle().search(query, 7)), step
            batch = [payload(rng), query, payload(rng, vocabulary=20)]
            assert solo == exact(index.search_batch(batch, 7)[1]), step
        assert viewed_count() == viewed + 50  # one view a read after a write


# ---------------------------------------------------------------------------
# the cases worth naming
# ---------------------------------------------------------------------------
class TestNamedCases:
    def small(self):
        pair = Pair()
        pair.add("a", "kax tox mix")
        pair.add("b", "tox rax rax nex")
        pair.add("c", "mix sox lux")
        pair.add("d", "kax kax vix")
        pair.check()
        return pair

    def test_token_seen_for_the_first_time(self):
        pair = self.small()
        pair.add("e", "aax zzzx tox")  # before the first and after the last
        pair.check(queries=["aax", "zzzx tox"])
        assert pair.live._base.tokens[0] == "aax"
        assert pair.live._base.tokens[-1] == "zzzx"

    def test_last_carrier_of_a_token_removed(self):
        pair = self.small()
        pair.remove("b")  # the only document with rax and nex
        pair.check(queries=["rax nex", "tox"])
        assert "rax" not in pair.live._sealed.tok_pos
        assert pair.live.search("rax", 5) == []

    def test_first_and_last_document_removed(self):
        pair = self.small()
        pair.remove("a")
        pair.check()
        pair.remove("d")
        pair.check()
        assert pair.live._base.doc_ids == ["b", "c"]

    def test_add_then_remove_inside_one_burst(self):
        pair = self.small()
        untouched = seven(pair.live)
        pair.add("e", "pox dax chix")
        pair.remove("e")
        assert not pair.live.is_sealed
        pair.check()
        assert first_difference(seven(pair.live), untouched) is None

    def test_remove_then_readd_of_one_id(self):
        pair = self.small()
        pair.remove("a")
        pair.add("a", "pox dax")
        pair.check(queries=["pox", "kax"])
        assert pair.live._base.doc_ids == ["b", "c", "d", "a"]
        [expected] = pair.expected(["mix"], 5)
        assert pairs(pair.live.search("mix", 5)) == expected
        assert "a" not in [h.instance_id for h in pair.live.search("mix", 5)]

    def test_readd_then_remove_again_inside_one_burst(self):
        pair = self.small()
        pair.update("a", "pox dax")
        pair.remove("a")
        pair.add("e", "kax benx")
        pair.check(queries=["pox", "kax"])
        assert pair.live._base.doc_ids == ["b", "c", "d", "e"]

    def test_update_with_an_identical_payload(self):
        pair = self.small()
        pair.update("b", "tox rax rax nex")
        pair.check(queries=["rax", "tox"])
        # same statistics, but the document moved to the end
        assert pair.live._base.doc_ids == ["a", "c", "d", "b"]

    def test_index_emptied_and_refilled(self):
        pair = self.small()
        for doc_id in pair.ids():
            pair.remove(doc_id)
        pair.check()
        assert len(pair.live) == 0
        assert pair.live._base.tokens == []
        assert pair.live.search("kax", 5) == []
        pair.add("z", "kax pox")
        pair.add("y", "pox")
        pair.check(queries=["kax pox"])

    def test_document_without_tokens(self):
        pair = self.small()
        pair.add("empty", "")
        pair.check()
        pair.remove("empty")
        pair.check()

    def test_k_at_least_the_corpus(self):
        pair = self.small()
        pair.update("c", "kax tox mix sox")
        for k in (4, 5, 100):
            pair.check(queries=["kax tox mix", "sox"], k=k)

    def test_unsealed_index_statistics_are_current(self):
        pair = Pair()
        pair.add("a", "kax tox")
        pair.add("b", "tox mix")
        pair.remove("a")
        assert not pair.live.is_sealed
        oracle = pair.oracle()
        assert pair.live.idf("tox") == oracle.idf("tox")
        assert pair.live.local_df("tox") == 1
        assert pair.live.local_df("kax") == 0
        assert pair.live.avg_doc_length == oracle.avg_doc_length
        assert InvertedIndex().idf("tox") == 0.0
        [expected] = pair.expected(["tox"], 5)
        assert pairs(pair.live.search("tox", 5)) == expected

    def test_write_between_two_planned_matrix_searches(self):
        pair = self.small()
        def ranked(index):
            """The plan ranked on one seal, and that seal."""
            rankings = index.rank_planned(plan, 5)
            return index._sealed, [list(zip(*ranking)) for ranking in rankings]

        queries = ["kax tox", "mix", "rax"]
        plan = pair.live.plan_matrix(queries)
        first_seal, first = ranked(pair.live)
        assert first_seal.spans
        pair.update("b", "kax mix mix")
        assert not pair.live.is_sealed
        second_seal, second = ranked(pair.live)
        # one seal a planned call: the write's patch, published once
        assert second_seal is not first_seal
        assert second_seal is pair.live._sealed
        assert second == ranked(pair.fresh())[1]
        assert second != first
        assert second == pair.expected(queries, 5)

    def test_the_base_arrays_are_never_written(self):
        pair = self.small()
        held = pair.live._sealed  # a reader still on the old generation
        before = seven(pair.live)
        held_spans = {
            token: (np.concatenate(cells), values.copy())
            for token, (cells, values) in held.spans.items()
        }
        assert held_spans
        pair.remove("a")
        pair.add("e", "tox zzzx")
        pair.check()
        assert pair.live._sealed is not held
        assert first_difference(seven_of(held), before) is None
        assert held.spans.keys() == held_spans.keys()
        for token, (cells, values) in held.spans.items():
            assert np.array_equal(np.concatenate(cells), held_spans[token][0])
            assert values.tobytes() == held_spans[token][1].tobytes()

    def test_invalidate_seal_patches_and_rederives(self):
        pair = self.small()
        held = pair.live._sealed
        pair.live.invalidate_seal()
        patched, compiled = patched_count(), compiled_count()
        pair.live.seal()
        # nothing was written: the same postings under new statistics
        again = pair.live._sealed
        assert again is not held
        assert again.base.doc_idx is held.base.doc_idx
        assert again.base.tokens is held.base.tokens
        assert first_difference(seven_of(held), seven(pair.live)) is None
        pair.add("e", "pox")  # one write outgrows a four-document base
        pair.live.invalidate_seal()
        pair.live.seal()
        # the add compacted, and the seal re-derived what it compacted
        assert patched_count() == patched + 3
        assert compiled_count() == compiled
        pair.check()


# ---------------------------------------------------------------------------
# the published seal: what a patch leaves is what a compile leaves
# ---------------------------------------------------------------------------
class TestPersistenceAfterAPatch:
    def test_snapshot_bytes_equal_after_patch_and_after_compile(self):
        pair, rng = seeded_pair(5)
        pair.check()
        for doc_id in pair.ids()[::7]:
            pair.update(doc_id, payload(rng, vocabulary=3000))
        pair.remove(pair.ids()[0])
        pair.check()
        patched, compiled = pair.live._sealed, pair.mirror._sealed
        assert patched is not compiled
        arrays = [(patched.norm, compiled.norm)] + [
            (getattr(patched.base, name), getattr(compiled.base, name))
            for name in ("lengths", "tok_start", "doc_idx", "tf_flat")
        ]
        for number, (left, right) in enumerate(arrays):
            assert left.dtype == right.dtype, number
            assert left.tobytes() == right.tobytes(), number
        assert patched.base.tokens == compiled.base.tokens
        assert patched.base.doc_ids == compiled.base.doc_ids


# ---------------------------------------------------------------------------
# through the indexer: an update re-indexes what changed, no more
# ---------------------------------------------------------------------------
def one_cell_changed(table, marker):
    rows = [list(row) for row in table.rows]
    rows[0][-1] = f"{rows[0][-1]} {marker}"
    return Table(
        table_id=table.table_id,
        caption=table.caption,
        columns=table.columns,
        rows=[tuple(row) for row in rows],
        source=table.source,
        entity_columns=table.entity_columns,
        key_column=table.key_column,
        metadata=dict(table.metadata),
    )


PROBES = [
    "largest cities by population",
    "gold silver bronze medal total",
    "season player statistics patchmark",
]


class TestThroughTheIndexer:
    @pytest.mark.parametrize("semantic", [False, True])
    def test_update_instance_patches_to_rebuilt_answers(
        self, semantic
    ):
        config = VerifAIConfig(use_semantic_index=semantic)
        lake = build_lake(LakeConfig(num_tables=10, seed=23)).lake
        indexer = IndexerModule(lake, config).build()
        for step, table in enumerate(lake.tables()[:3]):
            new = one_cell_changed(table, f"patchmark{step}")
            old = lake.update_instance(new)
            indexer.update_instance(old, new)
        document = lake.documents()[0]
        removed = lake.remove_instance(document.doc_id)
        indexer.remove_instance(removed)
        rebuilt = IndexerModule(lake, config).build()
        for modality in (Modality.TUPLE, Modality.TABLE, Modality.TEXT):
            for query in PROBES:
                assert pairs(indexer.search(query, modality, 8)) == pairs(
                    rebuilt.search(query, modality, 8)
                ), (modality, query)
            # a fresh index fed the lake's payloads in the live document
            # order compiles what the live one patched to
            live = indexer.content_index(modality)
            entries = dict(indexer._modality_entries(modality))
            compiled = InvertedIndex(name=live.name)
            for doc_id in live._doc_length:
                compiled.add(doc_id, entries.pop(doc_id))
            assert entries == {}
            live.seal()
            compiled.seal()
            assert first_difference(
                seven(live), seven(compiled)
            ) is None, modality

    def test_one_cell_costs_one_row_and_the_table(self):
        lake = build_lake(LakeConfig(num_tables=6, seed=29)).lake
        indexer = IndexerModule(lake, VerifAIConfig()).build()
        table = lake.tables()[0]
        tuples = indexer.content_index(Modality.TUPLE)
        tables = indexer.content_index(Modality.TABLE)
        row_ids = [row.instance_id for row in table.iter_rows()]
        order_before = list(tuples._doc_length)
        payloads_before = [indexer.fetch_payload(row_id) for row_id in row_ids]
        registry = get_registry()
        counts = {
            name: registry.counter(f"indexer.mutations.{name}").value
            for name in ("added", "removed", "updated")
        }
        new = one_cell_changed(table, "patchmark")
        indexer.update_instance(lake.update_instance(new), new)
        # only the changed row moved to the end of the document order
        assert list(tuples._doc_length) == [
            doc_id for doc_id in order_before if doc_id != row_ids[0]
        ] + [row_ids[0]]
        assert list(tables._doc_length)[-1] == table.table_id
        # ... and only its payload reads differently
        assert [
            indexer.fetch_payload(row_id) for row_id in row_ids[1:]
        ] == payloads_before[1:]
        assert "patchmark" in indexer.fetch_payload(row_ids[0])
        for name, value in counts.items():
            counter = registry.counter(f"indexer.mutations.{name}")
            assert counter.value == value + 1, name
        before, viewed = patched_count(), viewed_count()
        assert row_ids[0] in [
            hit.instance_id
            for hit in indexer.search("patchmark", Modality.TUPLE, 3)
        ]
        # the read publishes one view and folds nothing
        assert (patched_count(), viewed_count()) == (before, viewed + 1)


# ---------------------------------------------------------------------------
# any write sequence, sealed at any points
# ---------------------------------------------------------------------------
#: low ranks recur, high ranks are mostly seen once: first-seen tokens
#: and a token's last carrier come up on their own
write_text = st.lists(
    st.one_of(st.integers(0, 5), st.integers(0, 400)).map(word), max_size=6
).map(" ".join)
write_op = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 9), write_text),
    st.tuples(st.just("remove"), st.integers(0, 99)),
    st.tuples(st.just("update"), st.integers(0, 99), write_text),
    st.tuples(st.just("seal")),
    st.tuples(st.just("invalidate")),
)


def fresh_index(payloads):
    index = InvertedIndex(name="ops")
    for doc_id, text in payloads.items():
        index.add(doc_id, text)
    return index


def assert_as_fresh(live, payloads, written):
    """Statistics before the seal, then the seven arrays after it, equal
    to a fresh index's over the surviving payloads."""
    compiled = fresh_index(payloads)
    tokens = sorted(set(live._analyze(written)) | {"absentx"})
    assert len(live) == len(compiled)
    assert live.avg_doc_length == compiled.avg_doc_length
    assert [live.local_df(t) for t in tokens] == [
        compiled.local_df(t) for t in tokens
    ]
    assert [live.idf(t) for t in tokens] == [
        compiled.idf(t) for t in tokens
    ]
    live.seal()
    compiled.seal()
    assert first_difference(seven(live), seven(compiled)) is None


class TestAnyWriteSequence:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(write_op, max_size=40))
    # one document updated twice between seals
    @example(ops=[
        ("add", 0, "kax tox"), ("add", 1, "tox mix"), ("seal",),
        ("update", 0, "rax"), ("update", 0, "kax kax"), ("seal",),
    ])
    # a token's last carrier removed, from the seal and since it
    @example(ops=[
        ("add", 0, "kax tox"), ("add", 1, "mix"), ("seal",), ("remove", 0),
        ("add", 2, "rarex"), ("remove", 1),
    ])
    # first-seen tokens before the first and after the last
    @example(ops=[
        ("add", 0, "kax"), ("seal",), ("add", 1, "aax zzzx"), ("seal",),
    ])
    # a document added since the last seal removed before the next
    @example(ops=[
        ("add", 0, "kax"), ("seal",), ("add", 1, "tox kax"), ("remove", 1),
        ("seal",), ("add", 2, "mix"), ("update", 1, "tox"), ("remove", 1),
    ])
    # invalidate_seal() with nothing written, and with writes pending
    @example(ops=[
        ("add", 0, "kax"), ("add", 3, "tox"), ("seal",), ("invalidate",),
        ("seal",), ("add", 1, "tox"), ("invalidate",), ("remove", 0),
        ("seal",),
    ])
    def test_patched_seals_equal_a_fresh_index(self, ops):
        index = fresh_index({})
        payloads = {}
        written = []
        for op in ops:
            kind = op[0]
            alive = list(payloads)
            if kind == "add" and f"d{op[1]}" not in payloads:
                index.add(f"d{op[1]}", op[2])
                payloads[f"d{op[1]}"] = op[2]
                written.append(op[2])
            elif kind in ("remove", "update") and alive:
                doc_id = alive[op[1] % len(alive)]
                index.remove(doc_id, index._analyze(payloads.pop(doc_id)))
                if kind == "update":
                    index.add(doc_id, op[2])
                    payloads[doc_id] = op[2]
                    written.append(op[2])
            elif kind == "seal":
                assert_as_fresh(index, payloads, " ".join(written))
            elif kind == "invalidate":
                index.invalidate_seal()
        assert_as_fresh(index, payloads, " ".join(written))
