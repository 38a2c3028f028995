"""Additional simulated-LLM verification paths."""

import pytest

from repro.datalake.serialize import parse_row, serialize_row, serialize_table
from repro.llm.model import SimulatedLLM, _parse_table_payload
from repro.llm.prompts import parse_verification_response, verification_prompt


@pytest.fixture()
def verifier(quiet_profile):
    return SimulatedLLM(knowledge=None, profile=quiet_profile, seed=40)


class TestPayloadDetection:
    def test_tuple_payload(self):
        assert parse_row("a: 1 ; b: 2") == {"a": "1", "b": "2"}

    def test_multiline_not_tuple(self):
        assert parse_row("a: 1\nb: 2") is None

    def test_plain_text_not_tuple(self):
        assert parse_row("just a sentence") is None

    def test_table_payload(self, medal_table):
        parsed = _parse_table_payload(serialize_table(medal_table))
        assert parsed is not None
        assert parsed.caption == medal_table.caption
        assert parsed.rows == medal_table.rows
        assert parsed.key_column == "nation"

    def test_text_not_table(self):
        assert _parse_table_payload("one line only") is None
        assert _parse_table_payload("line\nanother line\nthird") is None


class TestTupleVsTableEvidence:
    """A whole table as evidence for a tuple: the verifier locates the
    matching row, then compares."""

    def test_correct_value_verified(self, verifier, election_table):
        row = election_table.row(0)
        prompt = verification_prompt(
            serialize_table(election_table), serialize_row(row),
            attribute="party",
        )
        verdict, _ = parse_verification_response(verifier.chat(prompt))
        assert verdict == "verified"

    def test_wrong_value_refuted(self, verifier, election_table):
        wrong = election_table.row(0).replace_value("votes", "55,000")
        prompt = verification_prompt(
            serialize_table(election_table), serialize_row(wrong),
            attribute="votes",
        )
        verdict, _ = parse_verification_response(verifier.chat(prompt))
        assert verdict == "refuted"

    def test_foreign_tuple_not_related(self, verifier, election_table,
                                       medal_table):
        row = medal_table.row(0)
        prompt = verification_prompt(
            serialize_table(election_table), serialize_row(row),
            attribute="gold",
        )
        verdict, _ = parse_verification_response(verifier.chat(prompt))
        assert verdict == "not related"


class TestWholeTupleVerification:
    """No attribute scoping: every shared column must agree."""

    def test_identical_verified(self, verifier, election_table):
        row = election_table.row(2)
        prompt = verification_prompt(serialize_row(row), serialize_row(row))
        verdict, _ = parse_verification_response(verifier.chat(prompt))
        assert verdict == "verified"

    def test_one_disagreement_refuted(self, verifier, election_table):
        row = election_table.row(2)
        wrong = row.replace_value("result", "re-elected")
        prompt = verification_prompt(serialize_row(row), serialize_row(wrong))
        verdict, explanation = parse_verification_response(
            verifier.chat(prompt)
        )
        assert verdict == "refuted"
        assert "result" in explanation


class TestSmallNumberExtraction:
    def test_incidental_digit_does_not_verify(self, verifier, election_table,
                                              tiny_lake):
        """'ohio 1' in the page must not verify votes = 1."""
        page = tiny_lake.document("page-jenkins")
        wrong = election_table.row(0).replace_value("votes", "1")
        prompt = verification_prompt(
            f"{page.title}\n{page.text}", serialize_row(wrong),
            attribute="votes",
        )
        verdict, _ = parse_verification_response(verifier.chat(prompt))
        assert verdict == "refuted"

    def test_small_number_with_concept_context_verifies(self, verifier):
        text = (
            "Anna Carter\nAnna Carter is a basketball guard. She appeared "
            "in 7 games averaging 10.2 points per game."
        )
        data = "player: anna carter ; games: 7 ; points per game: 10.2"
        prompt = verification_prompt(text, data, attribute="games")
        verdict, _ = parse_verification_response(verifier.chat(prompt))
        assert verdict == "verified"
