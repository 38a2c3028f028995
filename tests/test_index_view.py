"""Reads after a write score a view: the last seal plus the writes since.

After a write, the next read of an :class:`InvertedIndex` publishes a
*view*: the last compaction's postings (the base, never written), the
base documents removed since (zeroed in every score row) and the
documents added since.  A token's contributions are derived by its
first read of a view, and a view inherits every span of the one before
it that the writes between them did not move.  The property proved here:
after every write, a read through the view ranks exactly as a fresh compile of the surviving payloads and as the dict
oracle of ``tests/bm25_oracle.py`` — the same ids, and every score's
``float.hex``.

Most tests set ``_COMPACT_SHARE`` to infinity, so that no write
compacts and every read after a write reads a view; the compaction
cases put it back.

It is one of ``make coverage``'s suites for ``index/inverted.py``.
"""

import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.datalake.types import Modality
from repro.index import inverted
from repro.index.inverted import InvertedIndex, _View
from repro.obs.metrics import get_registry
from repro.text import analyze
from repro.workloads.builder import LakeConfig, build_lake
from tests.bm25_oracle import DictOracle

WORDS = [
    "kax", "tox", "mix", "rax", "nex", "sox", "lux", "vix", "dax", "pox",
]


@contextmanager
def compact_share(share):
    """Run with ``_COMPACT_SHARE`` at ``share``."""
    with mock.patch.object(inverted, "_COMPACT_SHARE", share):
        yield


@pytest.fixture
def no_compaction():
    """No write compacts: every read after a write reads a view."""
    with compact_share(float("inf")):
        yield


def exact(hits):
    return [(hit.instance_id, hit.score.hex()) for hit in hits]


def seal_count(name):
    return get_registry().counter(f"index.seal.{name}").value


def is_seal(index):
    """The published view is the seal of the current base: no writes."""
    sealed = index._sealed
    return (
        sealed is not None and sealed.base is index._base
        and sealed.delta_start is None
    )


def text(rng, vocabulary=WORDS, low=1, high=8):
    return " ".join(
        rng.choice(vocabulary) for _ in range(rng.randint(low, high))
    )


class Live:
    """An index under writes, the payloads that survive in it, and the
    dict oracle over them."""

    def __init__(self, docs=(), seal=True):
        self.index = InvertedIndex(name="view")
        self.oracle = DictOracle(name="view")
        self.payloads = {}
        for doc_id, payload in docs:
            self.add(doc_id, payload)
        if seal:
            self.index.seal()

    def add(self, doc_id, payload):
        self.index.add(doc_id, payload)
        self.oracle.add(doc_id, payload)
        self.payloads[doc_id] = payload

    def remove(self, doc_id):
        payload = self.payloads.pop(doc_id)
        self.index.remove(doc_id, self.index._analyze(payload))
        self.oracle.remove(doc_id)

    def update(self, doc_id, payload):
        self.remove(doc_id)  # an update moves it to the end
        self.add(doc_id, payload)

    def compiled(self):
        """A fresh index fed the surviving payloads, compiled once."""
        fresh = InvertedIndex(name="view")
        for doc_id, payload in self.payloads.items():
            fresh.add(doc_id, payload)
        return fresh.seal()

    def check(self, queries, k=7):
        """A batch and solo reads: as the compile and the oracle rank,
        by ids and score bits.  No read folds but the first compile."""
        compiles = int(bool(len(self.index)) and self.index._base is None)
        folds = seal_count("patched") + seal_count("compiled")
        got = [exact(hits) for hits in self.index.search_batch(queries, k)]
        assert [exact(self.index.search(q, k)) for q in queries] == got
        assert seal_count("patched") + seal_count("compiled") == (
            folds + compiles
        )
        compiled = self.compiled()
        assert got == [
            exact(hits) for hits in compiled.search_batch(queries, k)
        ]
        assert got == [exact(self.oracle.search(q, k)) for q in queries]
        return got


def seeded(seed, docs=40):
    rng = random.Random(seed)
    return Live([
        (f"doc{number:03d}", text(rng)) for number in range(docs)
    ]), rng


def queries_of(rng, count=6):
    return [text(rng, WORDS + ["newx", "absentx"], 1, 4) for _ in range(count)]


# ---------------------------------------------------------------------------
# the oracle: after every write, every read
# ---------------------------------------------------------------------------
@pytest.mark.usefixtures("no_compaction")
class TestEveryWrite:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_reads_after_every_write_are_the_compile_and_the_oracle(
        self, seed
    ):
        live, rng = seeded(seed)
        fresh_ids = iter(range(10_000, 20_000))
        for step in range(40):
            alive = list(live.payloads)
            roll = rng.random()
            vocabulary = WORDS + [f"rare{step}x"]
            if roll < 0.35 or len(alive) < 3:
                live.add(f"new{next(fresh_ids)}", text(rng, vocabulary))
            elif roll < 0.6:
                live.remove(rng.choice(alive))
            else:
                live.update(rng.choice(alive), text(rng, vocabulary))
            assert not live.index.is_sealed
            viewed = seal_count("viewed")
            live.check(queries_of(rng) + [f"rare{step}x"], k=5)
            # one view, published by the first read
            assert seal_count("viewed") == viewed + 1, step
            assert isinstance(live.index._sealed, _View)

    def test_every_depth_around_the_match_counts(self):
        live, rng = seeded(7, docs=25)
        for step in range(6):
            live.update(f"doc{step * 3:03d}", text(rng))
            live.add(f"extra{step}", text(rng))
            live.remove(f"doc{step * 3 + 1:03d}")
            queries = queries_of(rng)
            size = len(live.payloads)
            for k in range(size + 3):
                live.check(queries, k)


# ---------------------------------------------------------------------------
# the cases worth naming
# ---------------------------------------------------------------------------
def small():
    return Live([
        ("a", "kax tox mix"), ("b", "tox rax rax nex"), ("c", "mix sox lux"),
        ("d", "kax kax vix"), ("e", "tox mix lux"), ("f", "sox sox kax"),
    ])


def tied(docs=8):
    """``docs`` documents with one payload: every query ties them all."""
    return Live([
        (f"t{number}", "kax tox") for number in range(docs)
    ])


@pytest.mark.usefixtures("no_compaction")
class TestNamedCases:
    def test_token_first_seen_in_the_delta(self):
        live = small()
        live.add("g", "aax zzzx tox")  # before the first and after the last
        live.check(["aax", "zzzx tox", "zzzx aax kax"])
        view = live.index._sealed
        assert set(view.first_seen) == {"aax", "zzzx"}
        assert "aax" not in view.tok_pos

    def test_last_carrier_of_a_token_removed(self):
        live = small()
        live.remove("b")  # the only document with rax and nex
        assert live.index.search("rax nex", 5) == []
        live.check(["rax nex", "tox", "rax tox"])

    def test_remove_then_readd_of_one_id(self):
        live = small()
        live.remove("a")
        live.add("a", "pox dax")
        live.check(["pox", "kax", "kax tox mix"])
        assert "a" not in [h.instance_id for h in live.index.search("mix", 9)]

    def test_an_updated_id_keeps_its_rank_among_ties(self):
        live = tied()
        live.update("t3", "kax tox")  # same payload: it moves last
        live.remove("t5")
        live.add("t5", "kax tox")  # and back, as a new document
        live.add("t10", "kax tox")  # sorts between t1 and t2
        got = live.check(["kax", "tox kax"], k=20)
        assert [i for i, _ in got[0]] == sorted(live.payloads)

    def test_update_with_an_identical_payload_keeps_the_other_spans(self):
        live = small()
        live.update("c", "mix sox lux")
        live.check(["mix", "sox lux", "kax tox"])
        before = live.index._sealed
        live.update("b", "tox rax rax nex")
        live.check(["rax", "tox", "kax mix"])
        view = live.index._sealed
        # the same statistics: only the moved document's tokens derive
        assert (view.doc_count, view.avg_len) == (
            before.doc_count, before.avg_len
        )
        derived = {
            token for token, span in view.spans.items()
            if before.spans.get(token) is not span
        }
        assert derived == {"rax", "tox"}
        assert view.spans["kax"] is before.spans["kax"]

    def test_a_changed_cell_rederives_its_tokens_only(self):
        live = small()
        live.update("a", "kax tox mix")
        live.check(["kax", "lux", "mix sox"])
        before = live.index._sealed
        live.update("d", "kax lux vix")  # same length, df of lux moves
        live.check(["kax", "lux vix", "mix"])
        view = live.index._sealed
        derived = {
            token for token, span in view.spans.items()
            if before.spans.get(token) is not span
        }
        # d's old and new tokens, as far as the reads asked for them
        assert derived == {"kax", "lux", "vix"}
        assert view.spans["mix"] is before.spans["mix"]

    def test_a_total_length_change(self):
        live = small()
        live.check(["kax"])
        live.update("c", "mix sox lux lux pox kax")
        live.check(["lux", "kax pox", "mix sox"])
        assert len(live.index) == 6

    def test_a_document_count_change(self):
        live = small()
        live.check(["kax"])
        live.add("g", "kax")
        live.check(["kax", "tox"])
        live.remove("e")
        live.check(["kax", "tox", "lux"])

    def test_an_index_emptied_and_refilled(self):
        live = small()
        for doc_id in list(live.payloads):
            live.remove(doc_id)
        assert len(live.index) == 0
        assert live.index.search("kax", 5) == []
        live.add("z", "kax pox")
        live.add("y", "pox")
        live.check(["kax pox", "pox", "tox"])

    def test_a_document_without_tokens(self):
        live = small()
        live.add("empty", "")
        live.check(["kax", ""])
        live.remove("empty")
        live.check(["kax"])

    def test_a_fresh_document_removed_again(self):
        live = small()
        live.update("a", "pox dax")
        live.check(["pox"])
        live.update("a", "rax")  # the fresh version goes, not the base's
        live.check(["pox", "rax", "kax"])

    def test_the_base_arrays_are_never_written(self):
        live = small()
        base = live.index._base
        before = {
            name: getattr(base, name).tobytes()
            for name in ("lengths", "tok_start", "doc_idx", "tf_flat", "ordinal")
        }
        rng = random.Random(3)
        for step in range(10):
            live.update(rng.choice(list(live.payloads)), text(rng))
            live.add(f"n{step}", text(rng))
            live.check(["kax tox", "mix"])
        assert live.index._base is base
        for name, data in before.items():
            assert getattr(base, name).tobytes() == data, name

# ---------------------------------------------------------------------------
# compaction
# ---------------------------------------------------------------------------
class TestCompaction:
    def test_a_write_that_outgrows_the_share_compacts(self):
        with compact_share(0.25):
            live = Live([(f"d{n}", f"kax {WORDS[n]}") for n in range(8)])
            base = live.index._base
            live.update("d1", "tox")  # 2 written of the 2 allowed
            assert live.index._base is base
            live.check(["kax", "tox"])
            patched = seal_count("patched")
            live.add("d9", "mix")  # 3 of 8: over the share
            assert seal_count("patched") == patched + 1
            assert live.index._base is not base
            assert not live.index.is_sealed
            assert live.index._delta is None and live.index._fresh == {}
            live.check(["kax", "tox", "mix"])
            assert isinstance(live.index._sealed, _View)

    def test_compactions_landing_mid_sequence(self):
        live, rng = seeded(11, docs=30)
        with compact_share(0.1):
            for step in range(30):
                alive = list(live.payloads)
                if step % 3 == 0:
                    live.add(f"m{step}", text(rng))
                elif step % 3 == 1:
                    live.remove(rng.choice(alive))
                else:
                    live.update(rng.choice(alive), text(rng))
                if step == 17:
                    live.index.seal()  # an explicit compaction too
                    assert is_seal(live.index)
                live.check(queries_of(rng))

    def test_seal_compacts_a_published_view(self, no_compaction):
        live = small()
        live.update("a", "pox")
        live.check(["pox"])
        view = live.index._sealed
        assert isinstance(view, _View)
        live.index.seal()
        assert is_seal(live.index)
        assert live.index._base is not view.base
        live.check(["pox", "kax"])


# ---------------------------------------------------------------------------
# any write sequence, read at any point, with or without compaction
# ---------------------------------------------------------------------------
view_text = st.lists(
    st.one_of(st.sampled_from(WORDS[:4]), st.integers(0, 60).map(
        lambda rank: f"w{rank}x"
    )),
    max_size=6,
).map(" ".join)
view_op = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 19), view_text),
    st.tuples(st.just("remove"), st.integers(0, 99)),
    st.tuples(st.just("update"), st.integers(0, 99), view_text),
    st.tuples(st.just("read"), view_text),
    st.tuples(st.just("seal")),
)


class TestAnyWriteSequence:
    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(view_op, max_size=30),
        share=st.sampled_from([float("inf"), 0.2, 0.0]),
    )
    # a token first seen, its last carrier removed, and re-added
    @example(ops=[
        ("add", 0, "kax tox"), ("add", 1, "mix"), ("seal",),
        ("add", 2, "w7x kax"), ("read", "w7x"), ("remove", 2),
        ("read", "w7x kax"), ("add", 2, "w7x"), ("read", "w7x"),
    ], share=float("inf"))
    # an index emptied and refilled between two reads
    @example(ops=[
        ("add", 0, "kax"), ("add", 1, "tox"), ("seal",), ("remove", 0),
        ("remove", 0), ("read", "kax"), ("add", 3, "kax kax"),
        ("read", "kax tox"),
    ], share=float("inf"))
    def test_reads_through_views_are_the_compile(self, ops, share):
        with compact_share(share):
            live = Live()
            for op in ops:
                kind, alive = op[0], list(live.payloads)
                if kind == "add" and f"d{op[1]}" not in live.payloads:
                    live.add(f"d{op[1]}", op[2])
                elif kind in ("remove", "update") and alive:
                    doc_id = alive[op[1] % len(alive)]
                    if kind == "remove":
                        live.remove(doc_id)
                    else:
                        live.update(doc_id, op[2])
                elif kind == "read":
                    live.check([op[1], "kax tox"], k=4)
                elif kind == "seal":
                    live.index.seal()
            live.check(["kax", "tox mix", "w7x"], k=6)


# ---------------------------------------------------------------------------
# is_sealed: False from a write until a read publishes the view
# ---------------------------------------------------------------------------
@pytest.mark.usefixtures("no_compaction")
class TestIsSealed:
    def test_a_write_unpublishes_and_the_next_read_publishes(
        self
    ):
        live = small()
        assert live.index.is_sealed
        live.update("a", "pox dax")
        assert not live.index.is_sealed
        live.index.search("pox", 3)
        assert live.index.is_sealed
        view = live.index._sealed
        live.index.search_batch(["kax", "mix"], 3)  # a steady read
        assert live.index._sealed is view
        live.remove("b")
        assert not live.index.is_sealed
        live.index.rank_batch(["tox"], 3)
        assert live.index.is_sealed
        live.index.seal()
        assert live.index.is_sealed


# ---------------------------------------------------------------------------
# removal by the indexer's tokens
# ---------------------------------------------------------------------------
class TestRemoveByTokens:
    def test_tokens_reach_the_oracles_statistics(self, no_compaction):
        live = small()
        live.remove("b")  # the base carries it: the tokens are handed over
        index = live.index
        assert index._delta.dead == [1]
        for token in ("tox", "rax", "nex", "kax"):
            assert index.local_df(token) == live.oracle.df(token)
        assert index.avg_doc_length == live.oracle.avg_doc_length
        assert exact(index.search("tox rax", 5)) == exact(
            live.oracle.search("tox rax", 5)
        )

    def test_tokens_of_another_length_change_nothing(self):
        index = small().index
        with pytest.raises(ValueError, match="holds 4 tokens"):
            index.remove("b", ["tox"])
        assert "b" in index and index.local_df("rax") == 1
        with pytest.raises(KeyError):
            index.remove("ghost", ["tox"])

    def test_the_indexer_hands_over_the_old_payloads_terms(
        self, monkeypatch
    ):
        lake = build_lake(LakeConfig(num_tables=4, seed=5)).lake
        indexer = IndexerModule(lake, VerifAIConfig()).build()
        content = indexer.content_index(Modality.TABLE)
        handed = []
        original = content.remove
        monkeypatch.setattr(
            content, "remove",
            lambda doc_id, tokens: (
                handed.append((doc_id, tokens)), original(doc_id, tokens)
            ),
        )
        table = lake.tables()[0]
        payload = indexer.fetch_payload(table.table_id)
        indexer.remove_instance(lake.remove_instance(table.table_id))
        assert handed == [(table.table_id, analyze(payload))]


# ---------------------------------------------------------------------------
# a reader holding a superseded view scores it from its own spans
# ---------------------------------------------------------------------------
def exact_ranking(ranking):
    ids, scores = ranking
    return [(doc_id, score.hex()) for doc_id, score in zip(ids, scores)]


@pytest.mark.usefixtures("no_compaction")
class TestHeldViews:
    """A view's spans are derived under its own statistics and never
    dropped or rewritten, so a reader that took a view before a write
    keeps scoring it bit for bit after the next view is published."""

    @pytest.mark.parametrize("read_first", [True, False])
    def test_a_reader_holding_a_view_scores_it_after(self, read_first):
        live, rng = seeded(29)
        index = live.index
        queries = queries_of(rng)
        plan = index.plan_matrix(queries)
        held = index._sealed
        expected = [exact(live.oracle.search(q, 6)) for q in queries]
        if read_first:  # its spans derived before the write
            assert [
                exact_ranking(r) for r in index._score_matrix(held, plan, 6)
            ] == expected
        spans = dict(held.spans)
        live.update("doc003", text(rng))
        live.check(queries)
        assert index._sealed is not held
        got = index._score_matrix(held, plan, 6)
        assert [exact_ranking(r) for r in got] == expected
        # the spans derived before the write stay, and the rest were
        # derived on the held view, under its own statistics
        assert all(held.spans[token] is span for token, span in spans.items())
        assert sorted(held.spans) == sorted({
            token for terms in plan.terms for token, _ in terms
            if held.block(token) is not None
        })

# ---------------------------------------------------------------------------
# a read derives the spans it reads, and only those a write moved
# ---------------------------------------------------------------------------
class DeriveSpy:
    """Records the postings of every derivation pass one index makes
    (each ``_contrib`` call on it)."""

    def __init__(self, monkeypatch, index):
        self.sizes = []
        real = InvertedIndex._contrib

        def contrib(owner, idf, tf, norm, cells):
            if owner is index:
                self.sizes.append(cells.size)
            return real(owner, idf, tf, norm, cells)

        monkeypatch.setattr(InvertedIndex, "_contrib", contrib)


def lake_entries(modality, num_tables=8, seed=3):
    """A generated lake's ``(id, payload)`` entries of one modality, in
    the order the indexer adds them."""
    lake = build_lake(LakeConfig(num_tables=num_tables, seed=seed)).lake
    indexer = IndexerModule(lake, VerifAIConfig())
    return list(indexer._modality_entries(modality))


def known(view, queries, index):
    """The tokens of ``queries`` that ``view`` carries."""
    return {
        token for terms in index.plan_matrix(queries).terms
        for token, _ in terms if view.block(token) is not None
    }


@pytest.mark.usefixtures("no_compaction")
class TestDerivedPerToken:
    def test_a_text_write_derives_the_blocks_it_reads_only(
        self, monkeypatch
    ):
        rng = random.Random(3)
        entries = lake_entries(Modality.TEXT)
        live = Live(entries)
        payloads = [payload for _, payload in entries]
        queries = [
            " ".join(rng.sample(payload.split(), 3))
            for payload in rng.sample(payloads, 6)
        ]
        live.check(queries)  # the seal's spans
        seal = live.index._sealed
        # a document twice as long as the longest: the average moves
        written = " ".join(max(payloads, key=len).split() * 2)
        live.add("written", written)
        queries = queries[:3] + [
            " ".join(rng.sample(written.split(), 3)) for _ in range(3)
        ]
        spy = DeriveSpy(monkeypatch, live.index)
        live.check(queries)  # rankings as the compile's, by score bits
        view = live.index._sealed
        assert view.avg_len != seal.avg_len
        tokens = known(view, queries, live.index)
        assert sorted(view.spans) == sorted(tokens)
        # one pass over the blocks the read reads, none over any other
        # posting (the solo reads after the batch derive nothing)
        assert spy.sizes == [sum(
            part.size for token in tokens for part in view.block(token)[0]
        )]
        postings = int(view.base.tok_start[-1]) + view.delta_cells.size
        assert sum(spy.sizes) < postings / 4

    def test_a_one_cell_tuple_write_rederives_what_it_moved_only(
        self, monkeypatch
    ):
        entries = lake_entries(Modality.TUPLE)
        payloads = dict(entries)
        live = Live(entries)
        row_id, other, third = entries[5][0], entries[20][0], entries[40][0]
        queries = [payloads[row_id], payloads[other], payloads[third]]
        live.check(queries)
        before = live.index._sealed
        # one cell's value replaced by another of one token: the row's
        # length, so the document count and the average length, stay
        cell = payloads[row_id].rsplit(" ; ", 1)
        value = cell[1].split(": ", 1)[1]
        assert len(analyze(value)) == 1, value
        changed = f"{cell[0]} ; {cell[1].split(': ', 1)[0]}: patchmarkx"
        spy = DeriveSpy(monkeypatch, live.index)
        live.update(row_id, changed)
        live.check(queries + [changed])
        view = live.index._sealed
        assert (view.doc_count, view.avg_len) == (
            before.doc_count, before.avg_len
        )
        # every token of the row moved: its df or its postings (the row
        # moved to the end of the document order)
        moved = set(analyze(payloads[row_id])) | set(analyze(changed))
        derived = {
            token for token, span in view.spans.items()
            if before.spans.get(token) is not span
        }
        read = known(view, queries + [changed], live.index)
        assert derived == read & moved
        assert sum(spy.sizes) == sum(
            part.size for token in derived for part in view.block(token)[0]
        )
        inherited = read - moved
        assert inherited, "vacuous: every token read was moved"
        for token in inherited:
            assert view.spans[token] is before.spans[token]
        # a span's cells are views of the base's and the delta's arrays,
        # and its values its own: an inherited span keeps no batch alive
        assert any(len(parts) == 2 for parts, _ in view.spans.values())
        for parts, values in view.spans.values():
            assert values.base is None
            for part in parts:
                assert np.shares_memory(part, view.base.doc_idx) or (
                    np.shares_memory(part, view.delta_cells)
                )
