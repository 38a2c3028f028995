"""The JSON codecs of the verification service, without a server.

``parse_object`` / ``parse_batch`` turn request bodies into pipeline
objects or :class:`BadRequest`; ``report_to_dict`` is the response
shape.  The end-to-end 400s live in ``tests/test_serve.py``; these
cases pin every field check of the codecs themselves.
"""

import pytest

from repro.core.pipeline import STATUS_FAILED, VerificationReport
from repro.serve.protocol import (
    BadRequest,
    parse_batch,
    parse_object,
    report_to_dict,
)
from repro.verify.base import VerificationOutcome
from repro.verify.objects import ClaimObject, TupleObject
from repro.verify.verdict import Verdict
from repro.workloads.builder import LakeConfig, build_lake


@pytest.fixture(scope="module")
def lake():
    return build_lake(LakeConfig(num_tables=4, seed=5)).lake


@pytest.fixture(scope="module")
def cell(lake):
    """A tuple body naming a real (table, row 0, non-key column)."""
    for table in sorted(lake.tables(), key=lambda t: t.table_id):
        columns = [c for c in table.columns if c != table.key_column]
        if table.num_rows and columns:
            return {"kind": "tuple", "table_id": table.table_id, "row": 0,
                    "column": columns[0]}
    raise AssertionError("lake has no sampleable table")


CLAIM = {"kind": "claim", "text": "the gold of valoria is 3"}


class TestParseObject:
    def test_a_claim_keeps_its_id_text_and_context(self, lake):
        obj = parse_object(
            {**CLAIM, "object_id": "mine", "context": "olympics"}, lake, "d"
        )
        assert isinstance(obj, ClaimObject)
        assert (obj.object_id, obj.text, obj.context) == (
            "mine", CLAIM["text"], "olympics"
        )

    @pytest.mark.parametrize("object_id", [None, ""], ids=["absent", "empty"])
    def test_a_missing_or_empty_id_takes_the_default(self, lake, object_id):
        body = dict(CLAIM)
        if object_id is not None:
            body["object_id"] = object_id
        assert parse_object(body, lake, "req-000007").object_id == "req-000007"

    def test_a_tuple_without_value_verifies_the_lake_cell(self, lake, cell):
        obj = parse_object(cell, lake, "d")
        assert isinstance(obj, TupleObject)
        table = lake.table(cell["table_id"])
        assert obj.row == table.row(0)
        assert obj.attribute == cell["column"]

    def test_a_tuple_with_value_verifies_the_replacement(self, lake, cell):
        obj = parse_object({**cell, "value": "12,345"}, lake, "d")
        assert obj.row.get(cell["column"]) == "12,345"
        assert obj.row.row_index == 0

    @pytest.mark.parametrize("change,fragment", [
        ({"object_id": 7}, "field 'object_id' must be a string"),
        ({"context": ["a"]}, "field 'context' must be a string"),
        ({"text": 3}, "field 'text' must be a non-empty string"),
        ({"kind": None}, "field 'kind' must be 'claim' or 'tuple'"),
    ])
    def test_claim_field_types(self, lake, change, fragment):
        with pytest.raises(BadRequest, match=fragment):
            parse_object({**CLAIM, **change}, lake, "d")

    @pytest.mark.parametrize("change,fragment", [
        ({"row": "0"}, "field 'row' must be an integer"),
        ({"row": True}, "field 'row' must be an integer"),
        ({"row": 1.0}, "field 'row' must be an integer"),
        ({"row": -1}, "out of range"),
        ({"table_id": ""}, "field 'table_id' must be a non-empty string"),
        ({"table_id": "no-such"}, "unknown table 'no-such'"),
        ({"column": "no-such"}, "unknown column 'no-such'"),
        ({"value": ""}, "field 'value' must be a non-empty string"),
    ])
    def test_tuple_fields(self, lake, cell, change, fragment):
        with pytest.raises(BadRequest, match=fragment):
            parse_object({**cell, **change}, lake, "d")


class TestParseBatch:
    def parse(self, lake, payload, max_objects=4, cap=2):
        return parse_batch(payload, lake, "b", max_objects, cap)

    def test_entries_get_positional_default_ids(self, lake, cell):
        objects, fail_fast = self.parse(
            lake, {"objects": [CLAIM, cell, {**CLAIM, "object_id": "x"}]}
        )
        assert [o.object_id for o in objects] == ["b-0000", "b-0001", "x"]
        assert fail_fast is False

    def test_workers_are_ignored_and_fail_fast_is_read(self, lake, cell):
        body = {"objects": [CLAIM, cell], "fail_fast": True}
        plain, plain_fail_fast = self.parse(lake, body)
        asked, asked_fail_fast = self.parse(lake, {**body, "max_workers": 9})
        assert plain_fail_fast is asked_fail_fast is True
        assert [(o.object_id, o.query_text()) for o in asked] == [
            (o.object_id, o.query_text()) for o in plain
        ]

    @pytest.mark.parametrize("payload,fragment", [
        ([CLAIM], "request body must be a JSON object"),
        ({}, "field 'objects' must be a list"),
        ({"objects": CLAIM}, "field 'objects' must be a list"),
        ({"objects": [CLAIM] * 5}, "exceeds the limit of 4"),
        ({"objects": [], "max_workers": "2"},
         "field 'max_workers' must be an integer"),
        ({"objects": [], "max_workers": False},
         "field 'max_workers' must be an integer"),
        ({"objects": [], "max_workers": 0}, "max_workers must be >= 1"),
        ({"objects": [], "fail_fast": 1},
         "field 'fail_fast' must be a boolean"),
        ({"objects": [CLAIM, {"kind": "claim"}]}, "field 'text'"),
    ])
    def test_bad_batches(self, lake, payload, fragment):
        with pytest.raises(BadRequest, match=fragment):
            self.parse(lake, payload)


class TestReportToDict:
    def test_an_ok_report(self):
        outcome = VerificationOutcome(
            Verdict.REFUTED, "votes differ", "llm", "T#r0"
        )
        payload = report_to_dict(
            VerificationReport("o1", Verdict.REFUTED, 0.5, [outcome],
                               ["T#r0"], record_id="rec-1"),
            trace_id="t-1",
        )
        assert payload == {
            "object_id": "o1",
            "status": "OK",
            "verdict": "REFUTED",
            "margin": 0.5,
            "record_id": "rec-1",
            "evidence_ids": ["T#r0"],
            "outcomes": [{"evidence_id": "T#r0", "verifier": "llm",
                          "verdict": "REFUTED",
                          "explanation": "votes differ"}],
            "trace_id": "t-1",
        }

    def test_a_failed_report_carries_its_error_and_no_trace_id(self):
        payload = report_to_dict(VerificationReport(
            "o2", Verdict.NOT_RELATED, 0.0, status=STATUS_FAILED,
            error="ValueError: boom",
        ))
        assert payload["status"] == "FAILED"
        assert payload["error"] == "ValueError: boom"
        assert "trace_id" not in payload
