"""Prompt templates and response parsers.

The templates mirror Section 4 of the paper verbatim in structure (the
tuple-completion prompt and the "Please use the evidence below..."
verification prompt).  Because the simulated model answers in free text,
both sides of the conversation go through real string parsing — the same
brittleness boundary a production deployment has.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Tuple

from repro.datalake.serialize import parse_table

COMPLETION_MARKER = "Please fill the missing values, annotated by NaN."
VERIFICATION_MARKER = "Please use the evidence below to validate the generative data."
CLAIM_QA_MARKER = "Answer with true or false."
FEEDBACK_MARKER = "Verifier feedback:"
REVISION_MARKER = "Please revise your previous answer using the feedback."


# ---------------------------------------------------------------------------
# prompt builders
# ---------------------------------------------------------------------------
def tuple_completion_prompt(
    caption: str,
    columns: Tuple[str, ...],
    rows: List[Tuple[str, ...]],
) -> str:
    """The paper's tuple-completion prompt (Section 4)."""
    lines = [
        "Question:",
        f"Table name: {caption}",
        " | ".join(columns),
    ]
    lines.extend(" | ".join(row) for row in rows)
    lines.append(COMPLETION_MARKER)
    return "\n".join(lines)


def tuple_revision_prompt(
    caption: str,
    columns: Tuple[str, ...],
    rows: List[Tuple[str, ...]],
    feedback: List[Tuple[str, Optional[str], str]],
    iteration: int,
) -> str:
    """An orchestrate-until-pass retry of the tuple-completion prompt.

    The original question (with the disputed cell re-masked to NaN) is
    repeated verbatim, followed by one feedback line per disputed
    column.  Each feedback item is ``(column, stated_value, note)``:
    when verification REFUTED the draft and the strongest refuting
    evidence states a value, ``stated_value`` carries it (the note is
    ignored); otherwise ``stated_value`` is None and ``note`` explains
    why the draft failed ("no related evidence was found", ...).

    ``iteration`` is stamped into the prompt so the retry is a
    *different* prompt from the first attempt — a model whose answers
    are a deterministic function of the prompt may then answer
    differently (see :meth:`repro.llm.model.SimulatedLLM.chat`).
    """
    if iteration < 1:
        raise ValueError(f"iteration must be >= 1, got {iteration}")
    lines = [tuple_completion_prompt(caption, columns, rows), FEEDBACK_MARKER]
    for column, stated, note in feedback:
        if stated is not None:
            lines.append(
                f"- {column}: refuted; the evidence states "
                f"{column} = {stated!r}"
            )
        else:
            lines.append(f"- {column}: {note}")
    lines.append(f"Iteration: {iteration}")
    lines.append(REVISION_MARKER)
    return "\n".join(lines)


def verification_prompt(
    evidence: str,
    data: str,
    attribute: Optional[str] = None,
    context: Optional[str] = None,
) -> str:
    """The paper's verification prompt (Section 4).

    ``attribute`` narrows verification to one column (the paper's remark
    on verification metadata); ``context`` names the scope of a claim.
    """
    lines = [
        VERIFICATION_MARKER,
        "Evidence:",
        evidence,
        "Generative Data:",
        data,
    ]
    if attribute:
        lines.append(f"Attribute to verify: {attribute}")
    if context:
        lines.append(f"Context: {context}")
    lines.append("Result: Verified/Refuted/Not Related + Further explanation")
    return "\n".join(lines)


def claim_question_prompt(statement: str, context: str = "") -> str:
    """Ask the model to judge a claim with no evidence (headline numbers)."""
    lines = [
        "Question: Is the following statement true or false?",
        f"Statement: {statement}",
    ]
    if context:
        lines.append(f"Context: {context}")
    lines.append(CLAIM_QA_MARKER)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# response parsers
# ---------------------------------------------------------------------------
_RESULT_RE = re.compile(
    r"result\s*:\s*(verified|refuted|not related)", re.IGNORECASE
)
_ANSWER_RE = re.compile(r"answer\s*:\s*(true|false)", re.IGNORECASE)


def parse_verification_response(text: str) -> Tuple[Optional[str], str]:
    """Extract (verdict, explanation) from a verification response.

    The verdict is one of ``"verified" | "refuted" | "not related"`` or
    None when the response does not follow the format.
    """
    match = _RESULT_RE.search(text)
    if not match:
        return None, text.strip()
    verdict = match.group(1).lower()
    explanation = ""
    for line in text.splitlines():
        # the label is 12 characters and ends at the line's first colon
        if line[:12].lower() == "explanation:":
            explanation = line[12:].strip()
            break
    return verdict, explanation


def parse_boolean_response(text: str) -> Optional[bool]:
    """Extract a true/false answer from a claim-QA response."""
    match = _ANSWER_RE.search(text)
    if not match:
        return None
    return match.group(1).lower() == "true"


def parse_completed_table(
    text: str,
) -> Optional[Tuple[Tuple[str, ...], List[Tuple[str, ...]]]]:
    """Parse a completed table (header + pipe-separated rows) from a
    completion response, rows of another width than the header dropped;
    None when no table is found."""
    _, header, body = parse_table(text)
    rows = [row for row in body if len(row) == len(header)]
    if not rows:
        return None
    return header, rows


# ---------------------------------------------------------------------------
# prompt structure extraction (used by the simulated model itself)
# ---------------------------------------------------------------------------
_FEEDBACK_VALUE_RE = re.compile(
    r"^- (?P<column>.+?): refuted; the evidence states .+? = (?P<value>.+)$"
)
_FEEDBACK_NOTE_RE = re.compile(r"^- (?P<column>.+?): (?P<note>.+)$")
_ITERATION_RE = re.compile(r"^Iteration:\s*(\d+)$")


def split_feedback(prompt: str) -> Tuple[dict, int]:
    """Extract ``({column: stated value or None}, iteration)`` from a
    revision prompt; ``({}, 0)`` for a plain completion prompt.

    The inverse of :func:`tuple_revision_prompt`'s feedback section —
    the simulated model reads the verifier's findings back through the
    same free-text boundary a hosted model would.
    """
    feedback: dict = {}
    iteration = 0
    in_feedback = False
    for line in prompt.splitlines():
        stripped = line.strip()
        if stripped == FEEDBACK_MARKER:
            in_feedback = True
            continue
        match = _ITERATION_RE.match(stripped)
        if match:
            iteration = int(match.group(1))
            in_feedback = False
            continue
        if not in_feedback or not stripped.startswith("- "):
            continue
        match = _FEEDBACK_VALUE_RE.match(stripped)
        if match:
            try:
                value = ast.literal_eval(match.group("value"))
            except (SyntaxError, ValueError):
                value = match.group("value")
            feedback[match.group("column")] = str(value)
            continue
        match = _FEEDBACK_NOTE_RE.match(stripped)
        if match:
            feedback.setdefault(match.group("column"), None)
    return feedback, iteration


def split_sections(prompt: str) -> dict:
    """Split a verification prompt into its labelled sections.

    One walk over the lines.  Every label carries a colon, so only a
    line with one is stripped and compared against the labels — all but
    a few lines of a prompt are evidence body, kept as they are.
    """
    attribute = context = None
    evidence: List[str] = []
    data: List[str] = []
    current: Optional[List[str]] = None
    for line in prompt.splitlines():
        if ":" in line:
            stripped = line.strip()
            if stripped == "Evidence:":
                current = evidence
                continue
            if stripped == "Generative Data:":
                current = data
                continue
            if stripped.startswith("Attribute to verify:"):
                attribute = stripped.partition(":")[2].strip()
                current = None
                continue
            if stripped.startswith("Context:"):
                context = stripped.partition(":")[2].strip()
                current = None
                continue
            if stripped.startswith("Result:"):
                current = None
                continue
        if current is not None:
            current.append(line)
    return {
        "evidence": "\n".join(evidence).strip(),
        "data": "\n".join(data).strip(),
        "attribute": attribute,
        "context": context,
    }
