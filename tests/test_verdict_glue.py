"""Identity proofs behind the campaign path's bookkeeping.

Between the kernels of a campaign — the model's readings, the
query-matrix tiles, the analysis table — the program splits prompts,
parses responses, orders candidates and fuses rankings.  Those were
rewritten to do their work once, at the size of what is returned; none
of it may change one byte of one result.  Every test here compares the
code under ``src/`` with the body it replaced, kept below as the
oracle: ``split_sections`` and ``parse_verification_response`` over
hostile text and over the seeded prompt corpus, the one-index RRF
``Combiner`` at its new depth against a fuse of twice that depth, the
shared candidate ordering against the ``sorted(..., key=lambda)`` it
replaced, ``jaccard`` on sets as they are against the body that copied
them, and counters showing an evidence instance is rendered once per
verified pair and a tuple object once per campaign.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.core.verifier import VerifierModule
from repro.datalake.serialize import serialize_row
from repro.index.base import SearchIndex
from repro.index.combiner import Combiner, FusionMethod
from repro.index.base import ordinals_of, select_ranked
from repro.index.inverted import InvertedIndex
from repro.llm.model import SimulatedLLM
from repro.llm.prompts import (
    parse_verification_response,
    split_sections,
    verification_prompt,
)
from repro.text.similarity import jaccard
from repro.verify import llm_verifier
from repro.verify import objects as verify_objects
from repro.verify.agent import VerifierAgent
from repro.verify.llm_verifier import LLMVerifier
from repro.verify.objects import ClaimObject, TupleObject
from repro.verify.verdict import Verdict
from tests.bm25_oracle import DictOracle
from tests.test_llm_readings import build_corpus, chat_all, fresh_llm


# ----------------------------------------------------------------------
# oracles: the bodies at 5f66e17, before this file existed
# ----------------------------------------------------------------------
def split_sections_oracle(prompt):
    sections = {"evidence": "", "data": "", "attribute": None, "context": None}
    current = None
    body = {"evidence": [], "data": []}
    for line in prompt.splitlines():
        stripped = line.strip()
        if stripped == "Evidence:":
            current = "evidence"
            continue
        if stripped == "Generative Data:":
            current = "data"
            continue
        if stripped.startswith("Attribute to verify:"):
            sections["attribute"] = stripped.partition(":")[2].strip()
            current = None
            continue
        if stripped.startswith("Context:"):
            sections["context"] = stripped.partition(":")[2].strip()
            current = None
            continue
        if stripped.startswith("Result:"):
            current = None
            continue
        if current is not None:
            body[current].append(line)
    sections["evidence"] = "\n".join(body["evidence"]).strip()
    sections["data"] = "\n".join(body["data"]).strip()
    return sections


def parse_verification_response_oracle(text):
    match = re.search(
        r"result\s*:\s*(verified|refuted|not related)", text, re.IGNORECASE
    )
    if not match:
        return None, text.strip()
    verdict = match.group(1).lower()
    explanation = ""
    for line in text.splitlines():
        if line.lower().startswith("explanation:"):
            explanation = line.partition(":")[2].strip()
            break
    return verdict, explanation


def from_string_oracle(text):
    if text is None:
        return None
    mapping = {
        "verified": Verdict.VERIFIED,
        "true": Verdict.VERIFIED,
        "refuted": Verdict.REFUTED,
        "false": Verdict.REFUTED,
        "not related": Verdict.NOT_RELATED,
        "unrelated": Verdict.NOT_RELATED,
    }
    return mapping.get(text.strip().lower())


def jaccard_oracle(a, b):
    """``jaccard`` at db82edc: both arguments copied into new sets."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)


def order_oracle(doc_ids, row, candidates, k):
    """The ordering ``_rank_matrix`` used to end in: per-element
    numpy reads under a ``lambda`` key."""
    ordered = sorted(
        ((row[i], doc_ids[i], i) for i in candidates),
        key=lambda triple: (-triple[0], triple[1]),
    )[:k]
    return [(i, float(score)) for score, _, i in ordered]


# ----------------------------------------------------------------------
# text that looks like a prompt, and text that only nearly does
# ----------------------------------------------------------------------
#: everything ``str.splitlines`` breaks a line on
LINE_BREAKS = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029",
]
#: what ``str.strip`` removes besides the line breaks
OUTER_SPACE = ["", "", " ", "\t", "  ", "\xa0", "\u3000", "\x1f"]

PROMPT_LINES = [
    "Evidence:", "Generative Data:", "Attribute to verify: party",
    "Attribute to verify:", "Context: 1994 elections", "Context:",
    "Result: Verified/Refuted/Not Related + Further explanation",
    "Result:", "Please use the evidence below to validate the generative data.",
    # look-alikes inside sections
    "name | Evidence: | votes", "Evidence: none", "evidence:", "Evidence",
    "a | Result: 3 | b", "Results: 12", "Generative Data: x", "Generative Data",
    "Contexts: many", "context: lower", "An attribute to verify: x",
    "district: ohio 1 ; incumbent: tom", "alice | 12 | paris", "Carol | 3",
    "Rome | 4", "Ada | 5", ":", "A", "C:", "R", "", "   ", "total: 7:",
    "note\x1f: odd", "\u0130stanbul: 1", "x" * 40,
]


@st.composite
def prompt_like(draw):
    lines = draw(st.lists(
        st.one_of(
            st.sampled_from(PROMPT_LINES),
            st.text(alphabet="ACRE:| ab\t", max_size=12),
        ),
        max_size=14,
    ))
    pieces = []
    for line in lines:
        pieces.append(draw(st.sampled_from(OUTER_SPACE)))
        pieces.append(line)
        pieces.append(draw(st.sampled_from(OUTER_SPACE)))
        pieces.append(draw(st.sampled_from(LINE_BREAKS)))
    if pieces and draw(st.booleans()):
        pieces.pop()  # no final line break
    return "".join(pieces)


RESPONSE_LINES = [
    "Result: Verified", "result : NOT RELATED", "RESULT:refuted",
    "Result: maybe", "Results: Verified", "Explanation: the row agrees",
    "EXPLANATION: shouted", "explanation:", "Explanation:  padded  ",
    "eXpLaNaTiOn: mixed: with: colons", " Explanation: indented",
    "Explanations: plural", "Explanation", "explanat\u0130on: dotted",
    "\u0130xplanation: x", "e\u212aplanation: kelvin", "explanation\uff1a wide",
    "Explanation: second one", "who knows", "", "  ",
]


@st.composite
def response_like(draw):
    lines = draw(st.lists(
        st.one_of(
            st.sampled_from(RESPONSE_LINES),
            st.text(alphabet="explantioEXPLANTIO:\u0130 r", max_size=16),
        ),
        max_size=6,
    ))
    text = "".join(
        line + draw(st.sampled_from(LINE_BREAKS)) for line in lines
    )
    return text[:-1] if text and draw(st.booleans()) else text


@pytest.fixture(scope="module")
def corpus(small_bundle):
    return build_corpus(small_bundle)


class TestSplitSections:
    @settings(max_examples=400, deadline=None)
    @given(prompt_like())
    def test_prompt_like_text(self, prompt):
        assert split_sections(prompt) == split_sections_oracle(prompt)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=80))
    def test_any_text(self, prompt):
        assert split_sections(prompt) == split_sections_oracle(prompt)

    @pytest.mark.parametrize("prompt", [
        "",
        "Evidence:",
        "\n\nEvidence:\n\n a \n\nGenerative Data:\n b \n\n",
        "Evidence:\r\na | Evidence: | b\r\nResult: mid-table\r\nc\r\n"
        "Generative Data:\r\nd",
        "Evidence:\x0bx\x0cy\x1cz\x1dGenerative Data:\x1ew\x85"
        "Context: c\u2028Attribute to verify: a\u2029Result: r",
        "  Evidence:  \n\tbody\t\n\xa0Generative Data:\xa0\n data \n"
        " Attribute to verify:  party  \n Context:  scope  ",
        "Attribute to verify: first\nAttribute to verify: second: third",
        verification_prompt(
            evidence="Evidence:\nResult: 1 | Context: x\nGenerative Data:",
            data="Context: inside the data",
            attribute="Result:",
        ),
    ])
    def test_named_cases(self, prompt):
        assert split_sections(prompt) == split_sections_oracle(prompt)

    def test_key_order_is_unchanged(self):
        assert list(split_sections("")) == list(split_sections_oracle(""))

    def test_every_corpus_prompt(self, corpus):
        assert len(corpus) >= 600
        for prompt in corpus:
            assert split_sections(prompt) == split_sections_oracle(prompt)


class TestParseVerificationResponse:
    @settings(max_examples=400, deadline=None)
    @given(response_like())
    def test_response_like_text(self, text):
        assert (
            parse_verification_response(text)
            == parse_verification_response_oracle(text)
        )

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_any_text(self, text):
        assert (
            parse_verification_response(text)
            == parse_verification_response_oracle(text)
        )

    def test_every_corpus_response(self, corpus):
        for response in chat_all(fresh_llm(), corpus):
            assert (
                parse_verification_response(response)
                == parse_verification_response_oracle(response)
            )


class TestJaccard:
    TOKENS = st.lists(
        st.sampled_from(["ohio", "tom", "1994", "", "a", "b", "votes"]),
        max_size=8,
    )

    @settings(max_examples=400, deadline=None)
    @given(TOKENS, TOKENS)
    def test_every_form_equals_the_copying_body(self, a, b):
        expected = jaccard_oracle(a, b)
        for form_a in (list, set, frozenset, tuple):
            for form_b in (list, set, frozenset, iter):
                assert jaccard(form_a(a), form_b(b)) == expected

    def test_a_set_is_read_not_changed(self):
        a, b = {"x", "y"}, frozenset({"y", "z"})
        assert jaccard(a, b) == 1 / 3
        assert a == {"x", "y"} and b == frozenset({"y", "z"})

    def test_the_corpus_answers_as_with_the_copying_body(
        self, corpus, monkeypatch
    ):
        """The model's caption test calls ``jaccard`` on two frozensets
        for every claim-vs-table pair."""
        from repro.llm import model as llm_model

        expected = chat_all(fresh_llm(), corpus)
        monkeypatch.setattr(llm_model, "jaccard", jaccard_oracle)
        assert chat_all(fresh_llm(), corpus) == expected


class TestOneRenderPerTuple:
    def test_query_text_is_serialize_row(self, small_bundle):
        for table in small_bundle.tables[:20]:
            for row in table.iter_rows():
                obj = TupleObject("q", row, attribute=table.columns[-1])
                text = obj.query_text()
                assert text == serialize_row(row)
                assert obj.query_text() is text

    def test_the_kept_text_is_no_part_of_the_value(self, election_table):
        rendered = TupleObject("q", election_table.row(0), attribute="votes")
        rendered.query_text()
        fresh = TupleObject("q", election_table.row(0), attribute="votes")
        assert rendered == fresh and hash(rendered) == hash(fresh)
        assert repr(rendered) == repr(fresh)
        moved = dataclasses.replace(rendered, row=election_table.row(1))
        assert moved.query_text() == serialize_row(election_table.row(1))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_campaign_renders_each_tuple_once(
        self, small_bundle, monkeypatch, workers
    ):
        rendered = []
        real = verify_objects.serialize_row
        monkeypatch.setattr(
            verify_objects, "serialize_row",
            lambda row: rendered.append(row) or real(row),
        )
        objects = [
            TupleObject(f"r{i}", row, attribute=table.columns[-1])
            for i, (table, row) in enumerate(
                (table, table.row(j))
                for table in small_bundle.tables[:12] for j in range(2)
            )
        ]
        system = VerifAI(
            small_bundle.lake, config=VerifAIConfig(use_reranker=True)
        )
        batch = system.verify_batch(objects, max_workers=workers)
        assert batch.failed == 0
        assert rendered == [obj.row for obj in objects]


class TestVerdictFromString:
    @pytest.mark.parametrize("text", [
        None, "", "verified", " Verified ", "TRUE", "refuted", "False",
        "not related", "Not Related", "UNRELATED", "not  related", "maybe",
        "verified.", "\tfalse\n",
    ])
    def test_same_mapping(self, text):
        assert Verdict.from_string(text) is from_string_oracle(text)


# ----------------------------------------------------------------------
# retrieval: rank at the depth that is returned
# ----------------------------------------------------------------------
WORDS = "ohio texas tom ann senate house votes party 1994 1996".split()
DEPTHS = (0, 1, 3, 5, 50)
QUERIES = [
    "ohio senate", "tom", "party votes 1994", "ann ann house", "",
    "absent words only", "texas ohio tom ann senate house votes",
]


def fill(index, docs=60):
    """Seeded documents in which many share a text, so scores tie — and
    tie across the cut for every depth in ``DEPTHS``."""
    rng = np.random.default_rng(7)
    texts = [
        " ".join(rng.choice(WORDS, size=int(rng.integers(1, 5))))
        for _ in range(docs // 4)
    ]
    for i in range(docs):
        index.add(f"doc-{i:03d}", texts[i % len(texts)])
    return index


def pairs(hits):
    return [(hit.instance_id, hit.score, hit.index_name) for hit in hits]


def build_index():
    return fill(InvertedIndex(name="glue"))


class SpyIndex(SearchIndex):
    """Records the depth it is asked for; answers from a real index."""

    name = "spy"

    def __init__(self):
        self.inner = fill(InvertedIndex(name="spy"))
        self.asked = []

    def add(self, instance_id, payload):  # pragma: no cover - unused
        self.inner.add(instance_id, payload)

    def __len__(self):  # pragma: no cover - unused
        return len(self.inner)

    def search(self, query, k=10):
        self.asked.append(k)
        return self.inner.search(query, k)

    def search_batch(self, queries, k=10):
        self.asked.append(k)
        return self.inner.search_batch(queries, k)


class TestOneIndexCombiner:
    @pytest.mark.parametrize("k", DEPTHS)
    def test_equals_the_fuse_of_twice_the_depth(self, k):
        index = build_index()
        combiner = Combiner([index], name="combined-glue")
        expected = [
            pairs(combiner.fuse([index.search(query, 2 * k)], k))
            for query in QUERIES
        ]
        assert [pairs(combiner.search(q, k)) for q in QUERIES] == expected
        assert [
            pairs(hits) for hits in combiner.search_batch(QUERIES, k)
        ] == expected

    def test_scores_tie_across_the_cut(self):
        """The corpus does what ``fill`` says: at every depth some query
        has its k-th and (k+1)-th hits on one score."""
        index = build_index()
        for k in (1, 3, 5):
            tied = []
            for query in QUERIES:
                scores = [hit.score for hit in index.search(query, k + 1)]
                tied.append(len(scores) > k and scores[k - 1] == scores[k])
            assert any(tied), k

    def test_depth_asked_of_the_index(self):
        def asked(indexes, method, call):
            for spy in indexes:
                spy.asked.clear()
            combiner = Combiner(indexes, method=method)
            call(combiner)
            return [spy.asked for spy in indexes]

        one, other = SpyIndex(), SpyIndex()
        search = lambda c: c.search("ohio senate", 5)  # noqa: E731
        batch = lambda c: c.search_batch(QUERIES, 5)  # noqa: E731
        for call in (search, batch):
            assert asked([one], FusionMethod.RRF, call) == [[5]]
            assert asked([one], FusionMethod.MAX, call) == [[10]]
            assert asked([one, other], FusionMethod.RRF, call) == [[10], [10]]
        assert asked(
            [one], FusionMethod.RRF, lambda c: c.search("tom", 5, per_index_k=7)
        ) == [[7]]

    def test_max_fusion_reads_the_tail(self):
        """Why MAX keeps ``2 * k``: its normalisation depends on the
        lowest score in the list."""
        index = build_index()
        combiner = Combiner([index], method=FusionMethod.MAX)
        expected = pairs(combiner.fuse([index.search("ohio senate", 10)], 5))
        assert pairs(combiner.search("ohio senate", 5)) == expected


class TestOrderCandidates:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_the_sorted_lambda(self, data):
        num_docs = data.draw(st.integers(1, 40))
        # few distinct scores: ties everywhere, ids decide
        row = np.asarray(
            data.draw(st.lists(
                st.sampled_from([0.25, 0.5, 1.0, 1.5, 1e-6, 3.75]),
                min_size=num_docs, max_size=num_docs,
            )),
            dtype=np.float64,
        )
        doc_ids = data.draw(st.permutations(
            [f"doc-{i:02d}" for i in range(num_docs)]
        ))
        candidates = np.asarray(
            data.draw(st.lists(
                st.integers(0, num_docs - 1), unique=True, max_size=num_docs,
            )),
            dtype=np.int64,
        )
        k = data.draw(st.integers(0, num_docs + 2))
        ids, scores = select_ranked(
            *ordinals_of(doc_ids), row[candidates], candidates, k
        )
        assert list(zip(ids, scores)) == [
            (doc_ids[i], score)
            for i, score in order_oracle(doc_ids, row, candidates, k)
        ]
        assert all(type(i) is str for i in ids)
        assert all(type(score) is float for score in scores)

    def test_search_and_search_batch_agree_with_search_dict(self):
        """The ordering is reached from both selections: per query and
        query-matrix; the dict scorer shares neither."""
        index = build_index()
        oracle = fill(DictOracle())
        oracle.name = index.name
        for k in DEPTHS:
            batched = index.search_batch(QUERIES, k)
            for query, hits in zip(QUERIES, batched):
                assert pairs(hits) == pairs(index.search(query, k))
                assert pairs(hits) == pairs(oracle.search(query, k))


# ----------------------------------------------------------------------
# the verdict path: one rendering per pair
# ----------------------------------------------------------------------
class TestOneRenderPerPair:
    @pytest.fixture()
    def renders(self, monkeypatch):
        """Every ``serialize_instance`` call the verdict path makes."""
        calls = []

        def counting(instance):
            calls.append(instance.instance_id)
            return real(instance)

        real = llm_verifier.serialize_instance
        monkeypatch.setattr(llm_verifier, "serialize_instance", counting)
        return calls

    @staticmethod
    def module(lake):
        agent = VerifierAgent(fallback=LLMVerifier(SimulatedLLM(seed=3)))
        return VerifierModule(agent, lake)

    def test_default_path_renders_each_evidence_once(
        self, tiny_lake, election_table, renders
    ):
        module = self.module(tiny_lake)
        # three rows that abstain, then the table that decides
        evidence = [election_table.row(i) for i in (1, 2, 3)] + [election_table]
        obj = TupleObject("g1", election_table.row(0), attribute="party")
        module.verify_pool(obj, evidence)
        assert renders == [e.instance_id for e in evidence]
        module.verify_pool(obj, evidence)  # every pair verified again
        assert renders == 2 * [e.instance_id for e in evidence]

    def test_outcomes_do_not_depend_on_who_rendered(
        self, tiny_lake, election_table, renders
    ):
        claim = ClaimObject("c1", "tom jenkins is in ohio 1", context="")
        obj = TupleObject("g2", election_table.row(1), attribute="party")
        evidence = [election_table.row(i) for i in (2, 3, 0, 1)] + [
            election_table
        ]
        for generated in (claim, obj):
            handed, _, _ = self.module(tiny_lake).verify_pool(
                generated, evidence
            )
            # the pool reads up to its first decisive pair, the same
            # prefix whoever renders
            direct = [
                LLMVerifier(SimulatedLLM(seed=3)).verify(generated, e)
                for e in evidence[:len(handed)]
            ]
            assert len(handed) > 2
            assert handed == direct

    def test_a_two_argument_verify_is_called_with_two(
        self, tiny_lake, election_table
    ):
        seen = []

        class TwoArguments(LLMVerifier):
            def verify(self, obj, evidence):
                seen.append(evidence.instance_id)
                return self._outcome(Verdict.VERIFIED, "stub", evidence)

        module = VerifierModule(
            VerifierAgent(fallback=TwoArguments(None)), tiny_lake
        )
        obj = TupleObject("g3", election_table.row(0), attribute="party")
        outcomes, final, _ = module.verify_pool(obj, [election_table.row(0)])
        assert seen == [election_table.row(0).instance_id]
        assert final is Verdict.VERIFIED and outcomes[0].explanation == "stub"
