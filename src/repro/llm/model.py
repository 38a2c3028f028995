"""The simulated chat model.

:class:`SimulatedLLM` exposes one method — :meth:`chat` — and answers
three families of prompts (tuple completion, no-evidence claim QA, and
evidence-grounded verification) in free text, exactly as a hosted model
would.  Its behaviour is fully mechanistic:

* **generation** reads from a noisy parametric memory
  (:class:`~repro.llm.knowledge.WorldKnowledge`);
* **verification** reasons over the evidence *in the prompt* — checking
  relatedness first, then comparing or executing — with the slip rates
  of its :class:`~repro.llm.profile.LLMProfile`;
* all randomness is a deterministic function of (seed, prompt).
"""

from __future__ import annotations

import functools
import random
import threading
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.analysis import sanitizer as _sanitizer
from repro.claims.model import ClaimSpec
from repro.claims.parser import ClaimParser
from repro.datalake.serialize import parse_row, parse_table
from repro.datalake.types import Table
from repro.llm.knowledge import WorldKnowledge, rng_for
from repro.llm.profile import LLMProfile
from repro.llm.prompts import (
    CLAIM_QA_MARKER,
    COMPLETION_MARKER,
    VERIFICATION_MARKER,
    split_feedback,
    split_sections,
)
from repro.llm.reasoning import NoisyClaimReasoner
from repro.text import analyze, normalize, sentences
from repro.text.numbers import numbers_in, parse_number, years_in
from repro.text.similarity import jaccard

VERIFIED = "Verified"
REFUTED = "Refuted"
NOT_RELATED = "Not Related"


def _parse_table_payload(payload: str) -> Optional[Table]:
    """Read a serialised table back into a :class:`Table`: blank lines
    skipped, at least three lines, rows of another width than the
    header dropped; None if no row is left."""
    lines = [line for line in payload.splitlines() if line.strip()]
    if len(lines) < 3:
        return None
    caption, header, body = parse_table("\n".join(lines))
    rows = [row for row in body if len(row) == len(header)]
    if not rows:
        return None
    return Table(
        table_id="evidence",
        caption=caption,
        columns=header,
        rows=rows,
        key_column=header[0],
    )


#: evidence readings kept per model: an Evidence section's parsed table
#: and row index cost ~6 KB, so the memo stays under ~6 MB.  Object
#: readings are not counted here (see ``SimulatedLLM._object_reading``)
READINGS_SIZE = 1024

_PARSER = ClaimParser(strict=False)


class _Evidence(NamedTuple):
    """What the model reads in one Evidence section.  A pure function
    of the section's text, so every pair showing that text shares it;
    no handler writes to it."""

    text: str
    fields: Optional[Dict[str, str]]  # a serialised tuple
    table: Optional[Table]  # a serialised table
    #: analysed tuple values / table caption / whole passage
    tokens: FrozenSet[str]
    years: Set[int]  # table: years in the caption
    normalized: str  # passage: normalize(text)
    title: str  # passage: normalize(first line)


def _read_evidence(text: str) -> _Evidence:
    fields = parse_row(text)
    if fields is not None:
        tokens = frozenset(analyze(" ".join(fields.values())))
        return _Evidence(text, fields, None, tokens, set(), "", "")
    table = _parse_table_payload(text)
    if table is not None:
        return _Evidence(
            text, None, table, frozenset(analyze(table.caption)),
            years_in(table.caption), "", "",
        )
    return _Evidence(
        text, None, None, frozenset(analyze(text)), set(),
        normalize(text), normalize(text.partition("\n")[0]),
    )


class _Object(NamedTuple):
    """What the model reads in the Generative Data, Attribute and
    Context sections: parsed once for the k' pairs of a pool."""

    text: str
    attribute: str  # "" when no single attribute is on trial
    fields: Optional[Dict[str, str]]  # a generated tuple; None: a claim
    spec: Optional[ClaimSpec]  # claim: what ClaimParser makes of it
    #: claim: analysed scope; tuple: analysed identifying values
    tokens: FrozenSet[str]
    years: Set[int]  # claim: years in its scope
    anchor: FrozenSet[str]  # tuple: analysed leading identifying value
    names: Tuple[str, ...]  # tuple: normalised entity-like values


def _read_object(
    data: str, attribute: Optional[str], context: Optional[str]
) -> _Object:
    fields = parse_row(data)
    if fields is None:
        scope = context or data
        return _Object(
            data, "", None, _PARSER.parse(data), frozenset(analyze(scope)),
            years_in(scope), frozenset(), (),
        )
    target = normalize(attribute or "")
    identity = [
        value for column, value in fields.items()
        if normalize(column) != target
    ]
    return _Object(
        data, attribute or "", fields, None,
        frozenset(analyze(" ".join(identity))), set(),
        # the leading field of a tuple names its entity
        frozenset(analyze(identity[0])) if identity else frozenset(),
        tuple(
            normalize(value) for value in identity
            if parse_number(value) is None and len(value) >= 4
        ),
    )


class SimulatedLLM:
    """A deterministic stand-in for a hosted chat model."""

    def __init__(
        self,
        knowledge: Optional[WorldKnowledge] = None,
        profile: LLMProfile = LLMProfile(),
        seed: int = 99,
    ) -> None:
        self.knowledge = knowledge
        self.profile = profile
        self.seed = seed
        self._reasoner = NoisyClaimReasoner(profile)
        self.num_calls = 0
        self._calls_lock = threading.Lock()
        #: ``_read_evidence(text)``, once per distinct Evidence section
        #: while the LRU holds it: the key is the text the model was
        #: shown, so a kept reading is the one a fresh read would give
        self._readings = functools.lru_cache(maxsize=READINGS_SIZE)(
            _read_evidence
        )
        #: per thread, the last object read: ``((data, attribute,
        #: context), reading)``
        self._last_object = threading.local()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def chat(self, prompt: str) -> str:
        """Answer one prompt; identical prompts yield identical answers."""
        # worker threads share one model: an unguarded += loses updates
        with self._calls_lock:
            self.num_calls += 1
            _sanitizer.note_write(self, "num_calls", lock=self._calls_lock)
        if COMPLETION_MARKER in prompt:
            return self._handle_completion(prompt)
        if VERIFICATION_MARKER in prompt:
            return self._handle_verification(prompt)
        if CLAIM_QA_MARKER in prompt:
            return self._handle_claim_qa(prompt)
        return "I'm not sure how to help with that."

    # ------------------------------------------------------------------
    # tuple completion (generation)
    # ------------------------------------------------------------------
    def _handle_completion(self, prompt: str) -> str:
        if self.knowledge is None:
            return "I do not have enough information to complete this table."
        feedback, iteration = split_feedback(prompt)
        caption = ""
        table_lines: List[str] = []
        for line in prompt.splitlines():
            if line.startswith("Table name:"):
                caption = line.partition(":")[2].strip()
            elif " | " in line:
                table_lines.append(line)
        if len(table_lines) < 2:
            return "I could not find a table in the question."
        header = [cell.strip() for cell in table_lines[0].split(" | ")]
        out_lines = [" | ".join(header)]
        for line in table_lines[1:]:
            cells = [cell.strip() for cell in line.split(" | ")]
            if len(cells) != len(header):
                continue
            key_value = cells[0]
            for index, cell in enumerate(cells):
                if cell != "NaN":
                    continue
                column = header[index]
                if column in feedback:
                    cells[index] = self._revise_cell(
                        caption, key_value, column, feedback[column], iteration
                    )
                    continue
                recalled = self.knowledge.recall_cell(caption, key_value, column)
                if recalled is None:
                    rng = rng_for(self.seed, "hallucinate", caption, key_value, column)
                    recalled = self.knowledge.hallucinate_value(caption, column, rng)
                cells[index] = recalled
            out_lines.append(" | ".join(cells))
        out_lines.append("All missing values have been filled in.")
        return "\n".join(out_lines)

    def _revise_cell(
        self,
        caption: str,
        key_value: str,
        column: str,
        stated: Optional[str],
        iteration: int,
    ) -> str:
        """Answer a disputed cell on a revision round.

        When the verifier's feedback quotes the refuting evidence's
        value, the model adopts it (the grounded path).  When the
        feedback only says the draft failed, the model abandons its
        (already-disputed) memory and guesses again — with an rng keyed
        on the iteration, so each retry is a fresh deterministic draw
        rather than a repeat of the same wrong answer.  Attempt 0 keys
        are untouched, preserving first-draft reproducibility.
        """
        if stated is not None:
            return stated
        rng = rng_for(
            self.seed,
            "hallucinate",
            caption,
            key_value,
            column,
            f"attempt={iteration}",
        )
        return self.knowledge.hallucinate_value(caption, column, rng)

    # ------------------------------------------------------------------
    # claim QA without evidence (headline numbers)
    # ------------------------------------------------------------------
    def _handle_claim_qa(self, prompt: str) -> str:
        statement = ""
        context = ""
        for line in prompt.splitlines():
            if line.startswith("Statement:"):
                statement = line.partition(":")[2].strip()
            elif line.startswith("Context:"):
                context = line.partition(":")[2].strip()
        rng = rng_for(self.seed, "claimqa", statement, context)
        spec = _PARSER.parse(statement)
        memory = (
            self.knowledge.recall_table(context or statement)
            if self.knowledge is not None
            else None
        )
        if spec is None or memory is None:
            answer = rng.random() < 0.5
            return (
                f"Answer: {'true' if answer else 'false'}\n"
                "Explanation: I am not certain about this statement."
            )
        result = self._reasoner.execute(spec, memory, rng)
        if result.verdict is None:
            answer = rng.random() < 0.5
            explanation = "I could not ground every part of the statement."
        else:
            answer = result.verdict
            explanation = "; ".join(result.trace) or "Based on what I recall."
        return f"Answer: {'true' if answer else 'false'}\nExplanation: {explanation}"

    # ------------------------------------------------------------------
    # evidence-grounded verification
    # ------------------------------------------------------------------
    def _handle_verification(self, prompt: str) -> str:
        sections = split_sections(prompt)
        evidence_text = sections["evidence"]
        data = sections["data"]
        attribute = sections["attribute"]
        context = sections["context"]
        rng = rng_for(
            self.seed, "verify", evidence_text, data, attribute or "", context or ""
        )
        evidence = self._readings(evidence_text)
        obj = self._object_reading(data, attribute, context)
        if obj.fields is not None:
            if evidence.fields is not None:
                verdict, why = self._verify_tuple_vs_tuple(
                    obj, evidence.fields, evidence.tokens, rng
                )
            elif evidence.table is not None:
                verdict, why = self._verify_tuple_vs_table(obj, evidence.table, rng)
            else:
                verdict, why = self._verify_tuple_vs_text(obj, evidence, rng)
        else:
            if evidence.table is not None:
                verdict, why = self._verify_claim_vs_table(obj, evidence, rng)
            elif evidence.fields is not None:
                verdict, why = self._verify_claim_vs_tuple(obj, evidence, rng)
            else:
                verdict, why = self._verify_claim_vs_text(obj, evidence, rng)
        return f"Result: {verdict}\nExplanation: {why}"

    def _object_reading(
        self, data: str, attribute: Optional[str], context: Optional[str]
    ) -> _Object:
        """``_read_object(data, attribute, context)``, kept until this
        thread reads another object.  A pool's k' pairs are verified one
        after another by one thread, so each pool reads its object once;
        an object is rarely asked about again once its pool is done, so
        it never takes an evidence reading's place in the LRU."""
        key = (data, attribute, context)
        last = getattr(self._last_object, "reading", None)
        if last is not None and last[0] == key:
            return last[1]
        reading = _read_object(data, attribute, context)
        self._last_object.reading = (key, reading)
        return reading

    # -- helpers --------------------------------------------------------
    def _maybe_slip_relatedness(self, related: bool, rng: random.Random) -> bool:
        if rng.random() < self.profile.relatedness_slip:
            return not related
        return related

    @staticmethod
    def _find_column(fields: Dict[str, str], name: str) -> Optional[str]:
        target = normalize(name)
        for column in fields:
            if normalize(column) == target:
                return column
        target_tokens = set(analyze(name))
        for column in fields:
            if target_tokens and target_tokens <= set(analyze(column)):
                return column
        return None

    @staticmethod
    def _values_agree(a: str, b: str) -> bool:
        num_a, num_b = parse_number(a), parse_number(b)
        if num_a is not None and num_b is not None:
            return abs(num_a - num_b) <= 1e-6 * max(abs(num_a), abs(num_b), 1.0)
        return normalize(a) == normalize(b)

    # -- (tuple, tuple) --------------------------------------------------
    def _verify_tuple_vs_tuple(
        self,
        obj: _Object,
        evidence: Dict[str, str],
        evidence_tokens: FrozenSet[str],
        rng: random.Random,
    ) -> Tuple[str, str]:
        data, target = obj.fields, obj.attribute
        overlap = (
            len(obj.tokens & evidence_tokens) / len(obj.tokens)
            if obj.tokens
            else 0.0
        )
        # the evidence must describe the *same* entity, not merely share
        # attribute values
        anchor_overlap = (
            len(obj.anchor & evidence_tokens) / len(obj.anchor)
            if obj.anchor
            else 1.0
        )
        related = (
            overlap >= self.profile.tuple_overlap_threshold
            and anchor_overlap >= 0.6
        )
        related = self._maybe_slip_relatedness(related, rng)
        if not related:
            return NOT_RELATED, (
                "The evidence tuple does not describe the same entity as the "
                "generated tuple."
            )
        if not target:
            # whole-tuple verification: every shared column must agree
            disagreements = []
            for column, value in data.items():
                evidence_column = self._find_column(evidence, column)
                if evidence_column is None:
                    continue
                if not self._values_agree(value, evidence[evidence_column]):
                    disagreements.append(column)
            if disagreements:
                return REFUTED, f"Values disagree on: {', '.join(disagreements)}."
            return VERIFIED, "All shared attributes agree with the evidence."
        data_column = self._find_column(data, target)
        evidence_column = self._find_column(evidence, target)
        if data_column is None or evidence_column is None:
            return NOT_RELATED, (
                f"The evidence does not contain the attribute {target!r}."
            )
        agree = self._values_agree(data[data_column], evidence[evidence_column])
        if rng.random() < self.profile.lookup_slip:
            agree = not agree
        if agree:
            return VERIFIED, (
                f"The evidence confirms {target} = {evidence[evidence_column]!r}."
            )
        return REFUTED, (
            f"The evidence shows {target} = {evidence[evidence_column]!r}, not "
            f"{data[data_column]!r}."
        )

    # -- (tuple, table) ---------------------------------------------------
    def _verify_tuple_vs_table(
        self, obj: _Object, table: Table, rng: random.Random
    ) -> Tuple[str, str]:
        # find the table row matching the tuple's identity, then defer to
        # tuple-vs-tuple logic
        best_row: Optional[Dict[str, str]] = None
        best_score = 0.0
        if obj.tokens:
            for row in table.iter_rows():
                row_tokens = set(analyze(" ".join(row.values)))
                score = len(obj.tokens & row_tokens) / len(obj.tokens)
                if score > best_score:
                    best_score = score
                    best_row = row.as_dict()
        if best_row is None or best_score < self.profile.tuple_overlap_threshold:
            related = self._maybe_slip_relatedness(False, rng)
            if not related:
                return NOT_RELATED, "No row in the evidence table matches the tuple."
            best_row = table.row(0).as_dict()
        return self._verify_tuple_vs_tuple(
            obj, best_row, frozenset(analyze(" ".join(best_row.values()))), rng
        )

    # -- (tuple, text) ----------------------------------------------------
    def _verify_tuple_vs_text(
        self, obj: _Object, evidence: _Evidence, rng: random.Random
    ) -> Tuple[str, str]:
        data, target = obj.fields, obj.attribute
        text, normalized_text = evidence.text, evidence.normalized
        # relatedness: the passage must be *about* one of the tuple's
        # identifying entities, not merely mention one in passing — the
        # subject of a page is its title (first line), so anchor there
        if evidence.title and evidence.title != normalized_text:
            related = any(name in evidence.title for name in obj.names)
        else:
            related = any(name in normalized_text for name in obj.names)
        related = self._maybe_slip_relatedness(related, rng)
        if not related:
            return NOT_RELATED, (
                "The passage does not mention the entity described by the tuple."
            )
        data_column = self._find_column(data, target) if target else None
        if target and data_column is None:
            return NOT_RELATED, f"The tuple has no attribute {target!r}."
        # does the passage discuss the target attribute's concept at all?
        if target:
            column_tokens = set(analyze(target))
            if column_tokens and not column_tokens & evidence.tokens:
                return NOT_RELATED, (
                    f"The passage does not discuss the attribute {target!r}."
                )
            value = data[data_column]
        else:
            value = " ".join(data.values())
        found = self._value_in_text(
            value, text, normalized_text, column=target or None
        )
        if rng.random() < self.profile.extraction_slip:
            found = not found
        if found:
            return VERIFIED, f"The passage states the value {value!r}."
        return REFUTED, (
            f"The passage discusses this attribute but does not support "
            f"{value!r}."
        )

    @staticmethod
    def _value_in_text(
        value: str,
        text: str,
        normalized_text: str,
        column: Optional[str] = None,
    ) -> bool:
        number = parse_number(value)
        if number is None:
            return normalize(value) in normalized_text
        if not any(abs(n - number) <= 1e-9 for n in numbers_in(text)):
            return False
        # small numbers appear incidentally everywhere ("ohio 1"); a
        # careful reader only counts them when the sentence actually
        # discusses the attribute in question
        if abs(number) >= 1000 or column is None:
            return True
        column_tokens = set(analyze(column))
        if not column_tokens:
            return True
        for sentence in sentences(text):
            sentence_numbers = numbers_in(sentence)
            if any(abs(n - number) <= 1e-9 for n in sentence_numbers):
                if column_tokens & set(analyze(sentence)):
                    return True
        return False

    # -- (claim, table) ----------------------------------------------------
    def _verify_claim_vs_table(
        self, obj: _Object, evidence: _Evidence, rng: random.Random
    ) -> Tuple[str, str]:
        spec, table, claim_text = obj.spec, evidence.table, obj.text
        caption_sim = jaccard(obj.tokens, evidence.tokens)
        scope_years, caption_years = obj.years, evidence.years
        years_compatible = (
            not scope_years or not caption_years or bool(scope_years & caption_years)
        )
        related = caption_sim >= self.profile.caption_similarity_threshold
        related = related and years_compatible
        if related and spec is not None and spec.subject:
            if self._reasoner._engine.resolve_row(table, spec.subject) is None:
                related = False
        related = self._maybe_slip_relatedness(related, rng)
        if not related:
            if not years_compatible:
                why = (
                    f"The evidence table is for {sorted(caption_years)}, but the "
                    f"claim concerns {sorted(scope_years)}."
                )
            else:
                why = "The evidence table does not cover the claim's scope."
            return NOT_RELATED, why
        if spec is None:
            # lexical fallback: is the claim's content present in the table?
            claim_tokens = set(analyze(claim_text))
            table_tokens = evidence.tokens | {
                token
                for row in table.rows
                for cell in row
                for token in analyze(cell)
            }
            coverage = (
                len(claim_tokens & table_tokens) / len(claim_tokens)
                if claim_tokens
                else 0.0
            )
            if coverage >= 0.8 and rng.random() > self.profile.lookup_slip:
                return VERIFIED, "The table mentions all parts of the claim."
            return REFUTED, "Parts of the claim are not supported by the table."
        result = self._reasoner.execute(spec, table, rng)
        if result.verdict is None:
            return NOT_RELATED, "; ".join(result.trace)
        if result.verdict:
            return VERIFIED, "; ".join(result.trace)
        return REFUTED, "; ".join(result.trace)

    # -- (claim, tuple) ----------------------------------------------------
    def _verify_claim_vs_tuple(
        self, obj: _Object, reading: _Evidence, rng: random.Random
    ) -> Tuple[str, str]:
        spec, claim_text = obj.spec, obj.text
        evidence, evidence_tokens = reading.fields, reading.tokens
        if spec is None or spec.subject is None:
            claim_tokens = set(analyze(claim_text))
            overlap = (
                len(claim_tokens & evidence_tokens) / len(claim_tokens)
                if claim_tokens
                else 0.0
            )
            if overlap < self.profile.tuple_overlap_threshold:
                return NOT_RELATED, "The evidence tuple does not cover the claim."
            return VERIFIED, "The evidence tuple mentions the claim's content."
        subject_tokens = set(analyze(spec.subject))
        if not subject_tokens or not subject_tokens <= evidence_tokens:
            related = self._maybe_slip_relatedness(False, rng)
            if not related:
                return NOT_RELATED, (
                    f"The evidence tuple is not about {spec.subject!r}."
                )
        column = self._find_column(evidence, spec.column)
        if column is None or spec.value is None:
            return NOT_RELATED, (
                f"The evidence tuple has no attribute {spec.column!r}."
            )
        agree = self._values_agree(evidence[column], spec.value)
        if rng.random() < self.profile.lookup_slip:
            agree = not agree
        if agree:
            return VERIFIED, f"The tuple confirms {spec.column} = {spec.value!r}."
        return REFUTED, (
            f"The tuple shows {spec.column} = {evidence[column]!r}, not "
            f"{spec.value!r}."
        )

    # -- (claim, text) — standard fact checking ----------------------------
    def _verify_claim_vs_text(
        self, obj: _Object, evidence: _Evidence, rng: random.Random
    ) -> Tuple[str, str]:
        spec, claim_text = obj.spec, obj.text
        text, normalized_text = evidence.text, evidence.normalized
        subject = spec.subject if spec is not None else None
        if subject and normalize(subject) not in normalized_text:
            related = self._maybe_slip_relatedness(False, rng)
            if not related:
                return NOT_RELATED, f"The passage is not about {subject!r}."
        if spec is not None and spec.value is not None:
            found = self._value_in_text(
                spec.value, text, normalized_text, column=spec.column
            )
            if rng.random() < self.profile.extraction_slip:
                found = not found
            if found:
                return VERIFIED, f"The passage states {spec.value!r}."
            return REFUTED, f"The passage does not support {spec.value!r}."
        claim_tokens = set(analyze(claim_text))
        coverage = (
            len(claim_tokens & evidence.tokens) / len(claim_tokens)
            if claim_tokens
            else 0.0
        )
        if coverage >= 0.8:
            return VERIFIED, "The passage covers the full claim."
        if coverage >= self.profile.tuple_overlap_threshold:
            return REFUTED, "The passage contradicts or omits part of the claim."
        return NOT_RELATED, "The passage does not discuss the claim."
