"""Request/response codecs between HTTP JSON and pipeline objects.

The wire shapes (see docs/serving.md):

``POST /verify`` body::

    {"kind": "claim", "text": "...", "context": "...?"}
    {"kind": "tuple", "table_id": "T", "row": 0,
     "column": "votes", "value": "123,456"?}

(a tuple request without ``value`` verifies the cell the lake already
holds; with ``value`` it verifies the imputed replacement, exactly like
``repro verify-tuple``; see :func:`replaced_row` for the values that
are refused; a claim's ``text`` and ``context`` are one line each, see
:func:`claim_object`).  ``object_id`` is optional everywhere — the
server assigns a deterministic ``req-NNNNNN`` id when absent.

``POST /verify-batch`` body::

    {"objects": [<verify bodies>...], "max_workers": 2?,
     "fail_fast": false?}

Anything malformed raises :class:`BadRequest`, which the server maps to
a ``400`` with the message in the JSON error body.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.pipeline import VerificationReport
from repro.datalake.lake import DataLake
from repro.datalake.serialize import is_representable
from repro.datalake.types import Row
from repro.verify.objects import ClaimObject, DataObject, TupleObject


class BadRequest(Exception):
    """The request body does not describe a verifiable object."""


def _require_str(payload: Dict, key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise BadRequest(f"field {key!r} must be a non-empty string")
    return value


def _optional_str(payload: Dict, key: str, default: str = "") -> str:
    value = payload.get(key, default)
    if not isinstance(value, str):
        raise BadRequest(f"field {key!r} must be a string")
    return value


def replaced_row(row: Row, column: str, value: str) -> Row:
    """``row`` with ``column`` set to a client's ``value``, or
    :class:`BadRequest`: the verifier reads the row back from its
    unescaped ``col: v ; col: v`` rendering, where ``"wrong ; votes:
    <the lake's value>"`` is two fields and the later, true one wins.
    Rows of the lake itself are the operator's input and not checked."""
    replaced = row.replace_value(column, value)
    if not is_representable(replaced):
        raise BadRequest(
            f"field 'value' {value!r} cannot be carried by the evidence "
            "form 'col: v ; col: v' (' ; ', line break or outer blank)"
        )
    return replaced


def claim_object(object_id: str, text: str, context: str = "") -> ClaimObject:
    """A client's claim, or :class:`BadRequest`: ``text`` and
    ``context`` are pasted into the verification prompt as lines of
    their own, so a line break in either would begin lines the model
    reads as another section (more evidence, say).  Claims of the lake's
    own generators are not checked."""
    for key, value in (("text", text), ("context", context)):
        if value.splitlines() not in ([], [value]):
            raise BadRequest(
                f"field {key!r} {value!r} must be one line: a claim is "
                "pasted into the verification prompt as is"
            )
    return ClaimObject(object_id, text, context=context)


def parse_object(
    payload: object, lake: DataLake, default_object_id: str
) -> DataObject:
    """One verify body -> the DataObject the pipeline runs on."""
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    kind = payload.get("kind")
    object_id = _optional_str(payload, "object_id", default_object_id)
    if not object_id:
        object_id = default_object_id
    if kind == "claim":
        return claim_object(
            object_id,
            _require_str(payload, "text"),
            context=_optional_str(payload, "context"),
        )
    if kind == "tuple":
        table_id = _require_str(payload, "table_id")
        row_index = payload.get("row")
        if not isinstance(row_index, int) or isinstance(row_index, bool):
            raise BadRequest("field 'row' must be an integer")
        try:
            table = lake.table(table_id)
        except KeyError as exc:
            raise BadRequest(f"unknown table {table_id!r}") from exc
        if not 0 <= row_index < table.num_rows:
            raise BadRequest(
                f"row {row_index} out of range for table {table_id!r} "
                f"({table.num_rows} rows)"
            )
        column = _require_str(payload, "column")
        if column not in table.columns:
            raise BadRequest(
                f"unknown column {column!r} in table {table_id!r}"
            )
        row = table.row(row_index)
        if "value" in payload:
            row = replaced_row(row, column, _require_str(payload, "value"))
        return TupleObject(object_id, row, attribute=column)
    raise BadRequest("field 'kind' must be 'claim' or 'tuple'")


def parse_batch(
    payload: object,
    lake: DataLake,
    id_prefix: str,
    max_objects: int,
    max_workers_cap: int,
) -> Tuple[List[DataObject], int, bool]:
    """``/verify-batch`` body -> (objects, max_workers, fail_fast)."""
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    entries = payload.get("objects")
    if not isinstance(entries, list):
        raise BadRequest("field 'objects' must be a list")
    if len(entries) > max_objects:
        raise BadRequest(
            f"batch of {len(entries)} objects exceeds the limit of "
            f"{max_objects}"
        )
    objects = [
        parse_object(entry, lake, f"{id_prefix}-{position:04d}")
        for position, entry in enumerate(entries)
    ]
    workers = payload.get("max_workers", 1)
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise BadRequest("field 'max_workers' must be an integer")
    if workers < 1:
        raise BadRequest(f"max_workers must be >= 1, got {workers}")
    workers = min(workers, max_workers_cap)
    fail_fast = payload.get("fail_fast", False)
    if not isinstance(fail_fast, bool):
        raise BadRequest("field 'fail_fast' must be a boolean")
    return objects, workers, fail_fast


def report_to_dict(
    report: VerificationReport,
    trace_id: Optional[str] = None,
) -> Dict[str, object]:
    """A verification report as the JSON the service responds with."""
    payload: Dict[str, object] = {
        "object_id": report.object_id,
        "status": report.status,
        "verdict": report.final_verdict.name,
        "margin": report.margin,
        "record_id": report.record_id,
        "evidence_ids": list(report.evidence_ids),
        "outcomes": [
            {
                "evidence_id": outcome.evidence_id,
                "verifier": outcome.verifier,
                "verdict": outcome.verdict.name,
                "explanation": outcome.explanation,
            }
            for outcome in report.outcomes
        ],
    }
    if report.error:
        payload["error"] = report.error
    if trace_id is not None:
        payload["trace_id"] = trace_id
    return payload
