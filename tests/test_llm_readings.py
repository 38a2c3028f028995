"""Differential proofs behind the verdict path's content-keyed readings.

``SimulatedLLM.chat`` keeps what it read in a prompt section (parsed
evidence, parsed object) keyed by the section's text,
``TableQueryEngine.resolve_row`` answers exact matches from a per-table
map, and ``text.normalize`` skips NFKD on ASCII.  None of that may
change one byte of one response: every test here compares the fast path
with a reference that does the work the slow way — the memo bypassed,
the row-major scan and the NFKD chain kept below as oracles, and a
digest of the corpus's responses pinned at the commit before the memo
existed.
"""

import hashlib
import random
import re
import sys
import threading
import unicodedata
from unittest import mock

import pytest

from repro.claims.engine import TableQueryEngine
from repro.claims.generator import ClaimGenerator
from repro.core.pipeline import VerifAI
from repro.datalake.serialize import serialize_instance, serialize_row
from repro.datalake.types import Table
from repro.llm import model as llm_model
from repro.llm.model import SimulatedLLM
from repro.llm.prompts import verification_prompt
from repro.text import analyze, normalize
from repro.text.similarity import jaccard
from repro.verify.objects import ClaimObject

HANDLERS = (
    "_verify_tuple_vs_tuple",
    "_verify_tuple_vs_table",
    "_verify_tuple_vs_text",
    "_verify_claim_vs_table",
    "_verify_claim_vs_tuple",
    "_verify_claim_vs_text",
)

#: sha256 over every response to ``corpus`` from ``SimulatedLLM(None,
#: seed=7)``, recorded at ec26458 — the last commit that re-read every
#: section on every call.  It moves only if the lake generator, the
#: claim generator or the model's reasoning changes; regenerate with
#: ``responses_digest(chat_all(SimulatedLLM(knowledge=None, seed=7),
#: build_corpus(small_bundle)))``.
PARENT_DIGEST = (
    "46343ec5633dcfd3ab3ef31416f200db6d0f5f2d8c5d0dcc4eee0b268f77e617"
)


def build_corpus(bundle, seed=5):
    """Seeded verification prompts: claims (parseable and not) and
    tuples (one attribute, whole tuple, true and corrupted) against a
    related and an unrelated table, tuple and text file each."""
    rng = random.Random(seed)
    tables = bundle.tables[:10]
    documents = sorted(bundle.lake.documents(), key=lambda doc: doc.doc_id)
    generator = ClaimGenerator(seed=seed, variation_rate=0.3)
    prompts = []
    for position, table in enumerate(tables):
        other = tables[(position + 1) % len(tables)]
        row = table.row(rng.randrange(table.num_rows))
        pages = bundle.relevant_pages_for_row(row)
        evidence_pool = [table, other, row, other.row(0), rng.choice(documents)]
        if pages:
            evidence_pool.append(bundle.lake.document(pages[0]))
        evidence_texts = [serialize_instance(e) for e in evidence_pool]
        claims = [
            (made.claim.text, made.claim.context)
            for made in generator.generate_for_table(table, 5)
        ]
        claims.append((f"{row.values[0]} appears in {table.caption}", ""))
        for text, context in claims:
            for evidence in evidence_texts:
                prompts.append(
                    verification_prompt(evidence, text, context=context or None)
                )
        column = rng.choice(table.columns[1:])
        wrong = row.replace_value(column, f"{row.get(column)} 7")
        for generated in (row, wrong):
            for attribute in (column, None):
                for evidence in evidence_texts:
                    prompts.append(
                        verification_prompt(
                            evidence, serialize_row(generated),
                            attribute=attribute,
                        )
                    )
    return prompts


def chat_all(llm, prompts):
    return [llm.chat(prompt) for prompt in prompts]


def kept(llm):
    """Evidence readings the model's memo holds."""
    return llm._readings.cache_info().currsize


def responses_digest(responses):
    return hashlib.sha256("\x1e".join(responses).encode("utf-8")).hexdigest()


def fresh_llm():
    # the default profile: every slip rate is live, so the rng draws
    # of each handler are part of what must not move
    return SimulatedLLM(knowledge=None, seed=7)


@pytest.fixture(scope="module")
def corpus(small_bundle):
    return build_corpus(small_bundle)


@pytest.fixture(scope="module")
def reference(corpus):
    """Every response with both memos bypassed: each section re-read on
    each call, as before the memos existed."""
    llm = fresh_llm()
    llm._readings = llm_model._read_evidence
    llm._object_reading = llm_model._read_object
    return chat_all(llm, corpus)


class TestChatIsByteIdentical:
    def test_corpus_reaches_every_handler_and_verdict(self, corpus):
        llm = fresh_llm()
        with mock.patch.multiple(
            llm, **{name: mock.DEFAULT for name in HANDLERS}
        ) as spies:
            for name, spy in spies.items():
                spy.return_value = ("Verified", name)
            chat_all(llm, corpus)
        assert all(spy.call_count > 20 for spy in spies.values()), {
            name: spy.call_count for name, spy in spies.items()
        }
        verdicts = {r.splitlines()[0] for r in chat_all(fresh_llm(), corpus)}
        assert verdicts == {
            "Result: Verified", "Result: Refuted", "Result: Not Related",
        }

    def test_cold_equals_warm_equals_bypassed(self, corpus, reference):
        llm = fresh_llm()
        cold = chat_all(llm, corpus)
        assert 0 < kept(llm) <= llm_model.READINGS_SIZE
        warm = chat_all(llm, corpus)
        assert cold == reference
        assert warm == reference

    def test_same_as_before_the_memo(self, reference):
        assert responses_digest(reference) == PARENT_DIGEST

    def test_eviction_changes_no_response(self, corpus, reference, monkeypatch):
        monkeypatch.setattr(llm_model, "READINGS_SIZE", 3)
        llm = fresh_llm()
        assert chat_all(llm, corpus) == reference
        assert kept(llm) == 3
        # an evicted section is read again, to the same reading
        assert chat_all(llm, corpus) == reference

    def test_one_reading_per_distinct_section(self, corpus):
        llm = fresh_llm()
        with mock.patch.object(
            llm_model, "_parse_table_payload",
            wraps=llm_model._parse_table_payload,
        ) as parse_table:
            chat_all(llm, corpus)
            chat_all(llm, corpus)
        assert parse_table.call_count <= kept(llm) < len(corpus) // 10

    def test_readings_are_per_model(self, corpus):
        a, b = fresh_llm(), fresh_llm()
        chat_all(a, corpus[:5])
        assert kept(a) and not kept(b)


class TestEvidenceReadingsStay:
    """Object readings are kept per thread, for the pairs of one pool,
    and never in the evidence LRU: a claim campaign over evidence that
    fits ``READINGS_SIZE`` reads each Evidence section once, however
    many claims pass through."""

    @staticmethod
    def claims(bundle):
        generator = ClaimGenerator(seed=8, variation_rate=0.3)
        made = [
            made.claim
            for table in bundle.tables[:40]
            for made in generator.generate_for_table(table, 6)
        ]
        return [
            ClaimObject(f"spy-{i:04d}", claim.text, context=claim.context)
            for i, claim in enumerate(made)
        ]

    @staticmethod
    def evidence_read(bundle, claims, monkeypatch):
        """Every Evidence text ``_read_evidence`` was handed over one
        serial claim campaign, and the model's calls."""
        texts = []
        real = llm_model._read_evidence

        def spy(text):
            texts.append(text)
            return real(text)

        monkeypatch.setattr(llm_model, "_read_evidence", spy)
        llm = fresh_llm()
        system = VerifAI(bundle.lake, llm=llm)
        system.verify_batch(claims, max_workers=1)
        monkeypatch.setattr(llm_model, "_read_evidence", real)
        return texts, llm.num_calls

    def test_one_reading_per_distinct_text(self, small_bundle, monkeypatch):
        claims = self.claims(small_bundle)
        texts, _ = self.evidence_read(small_bundle, claims, monkeypatch)
        distinct = set(texts)
        # as many readings kept as there are texts, and more claims than
        # that: one object reading a pool in the LRU would evict them
        monkeypatch.setattr(llm_model, "READINGS_SIZE", len(distinct))
        assert len(claims) > len(distinct)
        texts, calls = self.evidence_read(small_bundle, claims, monkeypatch)
        assert calls > 2 * len(distinct)
        assert sorted(texts) == sorted(distinct)


def hammer(worker, threads=8):
    """Run ``worker(thread number)`` on ``threads`` threads under a
    shortened switch interval; every thread must finish."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        running = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in running:
            thread.start()
        for thread in running:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in running)


class TestThreadHammer:
    """The memo is shared by ``verify_batch`` workers and ``serve``'s
    four; ``make sanitize`` runs this file under the lockset sanitizer."""

    def test_concurrent_chats_with_evictions(self, corpus, reference, monkeypatch):
        monkeypatch.setattr(llm_model, "READINGS_SIZE", 8)
        llm = fresh_llm()
        sample = list(range(0, len(corpus), 3))
        results = {}
        errors = []

        def worker(worker_id):
            order = list(sample)
            random.Random(worker_id).shuffle(order)
            try:
                results[worker_id] = {
                    position: llm.chat(corpus[position]) for position in order
                }
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        hammer(worker)
        assert not errors
        expected = {position: reference[position] for position in sample}
        assert all(results[i] == expected for i in range(8))
        assert kept(llm) <= 8
        assert llm.num_calls == 8 * len(sample)

    def test_num_calls_loses_no_update(self):
        """``chat`` counts itself under ``_calls_lock``: eight threads
        behind a barrier must leave the exact total (an unguarded ``+=``
        is a read-modify-write; the sanitizer flags it when the lock is
        taken away)."""
        llm = fresh_llm()
        per_thread = 2_000
        barrier = threading.Barrier(8)

        def worker(thread_number):
            barrier.wait(timeout=30)
            for _ in range(per_thread):
                llm.chat("neither a completion nor a verification prompt")

        hammer(worker)
        assert llm.num_calls == 8 * per_thread


# ----------------------------------------------------------------------
# normalize: the ASCII fast path against the NFKD chain
# ----------------------------------------------------------------------
_WHITESPACE_RE = re.compile(r"\s+")


def reference_normalize(text):
    """``normalize`` as it was: NFKD, drop combining marks, lowercase,
    collapse whitespace — on every string."""
    text = unicodedata.normalize("NFKD", text)
    text = "".join(ch for ch in text if not unicodedata.combining(ch))
    return _WHITESPACE_RE.sub(" ", text.lower()).strip()


class TestNormalizeFastPath:
    def test_every_ascii_character_in_every_position(self):
        for code in range(128):
            ch = chr(code)
            for text in (ch, f"A{ch}b", f"{ch}A{ch}", f"a{ch}{ch}B", f" {ch} "):
                assert normalize(text) == reference_normalize(text), repr(text)

    @pytest.mark.parametrize("text", [
        "", " ", "\t\n\r\x0b\x0c", "\x1c\x1d\x1e\x1f", "  Tom   Jenkins\t1,234 ",
        "Café\tRenée", "café renée", "́", "ﬁnancial ½",
        "a b", " x ", "İstanbul", "STRASSE ß", "Ω OHM",
    ])
    def test_edge_strings(self, text):
        assert normalize(text) == reference_normalize(text)

    def test_seeded_mixed_strings(self):
        rng = random.Random(12)
        alphabet = "abcXYZ019 ,.-'\t\n  éÉñ́ ß"
        for _ in range(2000):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(0, 24))
            )
            assert normalize(text) == reference_normalize(text), repr(text)


# ----------------------------------------------------------------------
# resolve_row: the per-table map against the row-major scan
# ----------------------------------------------------------------------
def scan_resolve_row(engine, table, subject):
    """``TableQueryEngine.resolve_row`` as it was: every candidate cell
    of every row normalised and compared on every call."""
    target = normalize(subject)
    target_tokens = set(analyze(subject))
    candidate_columns = list(
        dict.fromkeys(
            [c for c in (table.key_column,) if c]
            + list(table.entity_columns)
            + list(table.columns)
        )
    )
    best = (0.0, None)
    for row in table.iter_rows():
        for column in candidate_columns:
            cell = row.get(column)
            if cell is None:
                continue
            if normalize(cell) == target:
                return row
            if not target_tokens:
                continue
            score = jaccard(target_tokens, analyze(cell))
            if score > best[0]:
                best = (score, row)
    if best[0] >= engine.subject_threshold:
        return best[1]
    return None


def make_table(columns, rows, **kwargs):
    return Table(
        table_id="t-resolve", caption="resolve", columns=columns, rows=rows,
        **kwargs,
    )


class TestResolveRowIndex:
    engine = TableQueryEngine()

    def check(self, table, subjects):
        for subject in subjects:
            assert self.engine.resolve_row(table, subject) == scan_resolve_row(
                self.engine, table, subject
            ), subject

    def test_duplicate_cells_first_row_wins_whatever_the_column(self):
        # "ada" is row 1's key but sits in a later column of row 0: the
        # scan is row-major, so row 0 answers
        table = make_table(
            ("name", "mentor", "city"),
            [("bob", "ada", "rome"), ("ada", "cy", "oslo"), ("cy", "bob", "ada")],
            entity_columns=("mentor",), key_column="name",
        )
        self.check(table, ["ada", "ADA", " Ada ", "bob", "cy", "oslo", "nobody"])
        assert self.engine.resolve_row(table, "ada").row_index == 0

    def test_jaccard_only_matches_and_ties(self):
        table = make_table(
            ("player", "club"),
            [
                ("john smith", "united"), ("john smith jr", "city"),
                ("smith john", "rovers"), ("anna lee", "john smith fc"),
            ],
        )
        self.check(table, [
            "john smith", "smith", "john", "john smith junior", "jr john smith",
            "lee anna", "anna", "fc john smith", "smith fc", "zzz",
        ])
        # a two-way tie at 2/3 goes to the first row in row-major order
        assert self.engine.resolve_row(table, "john smith senior").row_index == 0

    def test_empty_subjects_and_empty_cells(self):
        table = make_table(
            ("name", "note"), [("ann", "x"), ("bo", ""), ("", "  ")],
        )
        self.check(table, ["", "   ", "the", "of the", "ann", "x"])
        assert self.engine.resolve_row(table, "").row_index == 1
        no_blank = make_table(("name",), [("ann",), ("bo",)])
        self.check(no_blank, ["", " ", "the"])
        assert self.engine.resolve_row(no_blank, "") is None

    def test_accents_case_and_whitespace_normalise_alike(self):
        table = make_table(
            ("city", "mayor"),
            [("Zürich", "Renée  Blanc"), ("zurich", "rene blanc"), ("GENÈVE", "x")],
        )
        self.check(table, [
            "zurich", "ZÜRICH", "renee blanc", "Renée Blanc", "geneve", "rene",
        ])

    def test_duplicate_column_names_reach_only_the_first(self):
        # Row.get resolves a name to its first column; the scan never
        # saw the second "tag" column, nor may the map
        table = make_table(
            ("name", "tag", "tag"), [("ann", "red", "blue"), ("bo", "blue", "red")],
        )
        self.check(table, ["blue", "red", "ann", "bo"])
        assert self.engine.resolve_row(table, "blue").row_index == 1

    def test_key_and_entity_columns_outside_the_schema(self):
        table = make_table(
            ("a", "b"), [("x y", "z"), ("z", "x")],
            entity_columns=("missing",), key_column="absent",
        )
        self.check(table, ["z", "x", "x y", "y"])

    def test_no_rows(self):
        table = make_table(("a",), [])
        self.check(table, ["", "x"])

    def test_seeded_sweep_over_generated_tables(self, small_bundle):
        rng = random.Random(21)
        for table in small_bundle.tables[:25]:
            cells = [cell for row in table.rows for cell in row]
            subjects = []
            for _ in range(30):
                cell = rng.choice(cells)
                tokens = cell.split()
                subjects.extend([
                    cell, cell.upper(), f"  {cell} ",
                    " ".join(tokens[:-1]), " ".join(reversed(tokens)),
                    f"{cell} {rng.choice(cells)}", f"{cell} extra",
                ])
            self.check(table, subjects)

    def test_a_replaced_table_is_indexed_afresh(self):
        before = make_table(("name", "party"), [("ann", "red"), ("bo", "blue")])
        assert self.engine.resolve_row(before, "bo").row_index == 1
        after = make_table(("name", "party"), [("bo", "green"), ("ann", "red")])
        assert self.engine.resolve_row(after, "bo").row_index == 0
        assert self.engine.resolve_row(before, "bo").row_index == 1
        # the index is no part of a table's value
        assert before == make_table(
            ("name", "party"), [("ann", "red"), ("bo", "blue")]
        )
