"""Instance serialization used by indexes, prompts, and parsers — and
its inverse.

``datalake/serialize.py`` writes the evidence form and is the only
module that reads it back.  The first half checks the writers.  The
second proves the readers: ``parse_row`` / ``parse_table`` invert
``serialize_row`` / ``serialize_table`` exactly on cells that hold no
separator, and over hostile text each caller built on them computes
what the body it replaced computed — the five bodies at b56d1cc are
kept below as the oracles.  Three readings were narrowed on purpose,
and each is asserted as what it now is rather than left out:

* a tuple is one line for the reranker too (its parser used to read a
  multi-line text as fields when every `` ; `` part held a ``: ``);
* a line break is whatever ``str.splitlines`` breaks on, as in the
  prompt the text is pasted into, not ``"\\n"`` alone;
* a `` | `` line is split as written, so a blank first or last cell of a
  completed table is a blank cell (stripping the line first glued the
  bar to its neighbour and the row was dropped as ragged).
"""

import pytest
from hypothesis import given, strategies as st

from repro.datalake.serialize import (
    is_representable,
    parse_row,
    parse_table,
    serialize_instance,
    serialize_row,
    serialize_table,
    serialize_text,
)
from repro.datalake.types import Row, Table, TextDocument
from repro.llm import model as llm_model
from repro.llm.prompts import parse_completed_table
from repro.rerank.table import TableReranker, _Table
from repro.rerank.tuples import _read_tuple
from repro.text import analyze, normalize
from repro.text.numbers import numbers_in, parse_number
from tests.test_verdict_glue import LINE_BREAKS, OUTER_SPACE


class TestSerializeRow:
    def test_format(self):
        row = Row("t1", 0, ("district", "incumbent"), ("ohio 1", "tom"))
        assert serialize_row(row) == "district: ohio 1 ; incumbent: tom"

    def test_with_table_id(self):
        row = Row("t1", 0, ("a",), ("x",))
        assert serialize_row(row, include_table_id=True) == "[t1] a: x"

    def test_round_trip_via_tuple_parser(self):
        row = Row("t", 0, ("a", "b", "c"), ("1", "two words", "3.5"))
        parsed = parse_row(serialize_row(row))
        assert parsed == row.as_dict()


class TestSerializeTable:
    def test_caption_first_line(self, election_table):
        lines = serialize_table(election_table).splitlines()
        assert lines[0] == election_table.caption
        assert lines[1] == " | ".join(election_table.columns)
        assert len(lines) == 2 + election_table.num_rows

    def test_max_rows(self, election_table):
        lines = serialize_table(election_table, max_rows=1).splitlines()
        assert len(lines) == 3


class TestSerializeText:
    def test_title_prefixed(self):
        doc = TextDocument("d", "Title", "Body text.")
        assert serialize_text(doc) == "Title\nBody text."

    def test_untitled(self):
        doc = TextDocument("d", "", "Body only.")
        assert serialize_text(doc) == "Body only."


class TestSerializeInstance:
    def test_dispatch(self, election_table):
        assert serialize_instance(election_table).startswith(
            election_table.caption
        )
        assert "district:" in serialize_instance(election_table.row(0))
        doc = TextDocument("d", "T", "b")
        assert serialize_instance(doc) == "T\nb"

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            serialize_instance(42)


# ----------------------------------------------------------------------
# the readers invert the writers
# ----------------------------------------------------------------------
#: what a cell may hold and still come back: no bar, no semicolon, no
#: line break (the categories hold them all), no blank at either end
_CELL_CHARS = st.characters(
    blacklist_categories=("Cs", "Cc", "Zl", "Zp"),
    blacklist_characters="|;",
)
values = st.text(_CELL_CHARS, max_size=8).map(str.strip)
#: a column name ends at the first colon
columns = st.text(_CELL_CHARS, max_size=8).map(
    lambda name: name.replace(":", "").strip()
)
captions = st.text(_CELL_CHARS, max_size=12)


@st.composite
def tables(draw):
    width = draw(st.integers(2, 4))
    row = st.tuples(*[values] * width)
    return Table(
        "t", draw(captions), draw(st.tuples(*[columns] * width)),
        draw(st.lists(row, max_size=4)),
    )


class TestInverses:
    @given(st.lists(st.tuples(columns, values), min_size=1, max_size=5))
    def test_parse_row_inverts_serialize_row(self, fields):
        names, cells = zip(*fields)
        row = Row("t", 0, names, cells)
        assert parse_row(serialize_row(row)) == row.as_dict()
        assert is_representable(row)

    @given(tables())
    def test_parse_table_inverts_serialize_table(self, table):
        assert parse_table(serialize_table(table)) == (
            table.caption, table.columns, table.rows
        )

    @pytest.mark.parametrize("value", [
        "1 ; b: 2", "1 ;  ; 2", "1\n2", "1\r2", "1\u20282", "1\n", " 1",
        "1 ", "1\x1f",
    ])
    def test_a_value_the_form_cannot_carry(self, value):
        assert not is_representable(Row("t", 0, ("a", "b"), (value, "2")))
        assert not is_representable(Row("t", 0, ("a", "b"), ("1", value)))

    def test_a_row_is_one_line(self):
        assert parse_row("a: 1\nb: 2") is None
        assert parse_row("a: 1 ; b: 2\n") == {"a": "1", "b": "2"}

    def test_parse_table_keeps_what_the_callers_choose_between(self):
        text = "\ncap\na | b\n1 | 2 | 3\nnote\n | 4\n"
        assert parse_table(text) == (
            "", ("a", "b"), [("1", "2", "3"), ("", "4")]
        )
        assert parse_table("a | b\n1 | 2") == ("", ("a", "b"), [("1", "2")])
        assert parse_table("cap\nno bars") == ("cap", (), [])
        assert parse_table("") == ("", (), [])


# ----------------------------------------------------------------------
# oracles: the five bodies at b56d1cc, before the form had one reader
# ----------------------------------------------------------------------
def llm_tuple_oracle(payload):
    """``llm/model.py:_parse_tuple_payload``"""
    if ": " not in payload or "\n" in payload.strip():
        return None
    fields = {}
    for part in payload.split(" ; "):
        column, sep, value = part.partition(": ")
        if not sep:
            return None
        fields[column.strip()] = value.strip()
    return fields if fields else None


def rerank_tuple_oracle(payload):
    """``rerank/tuples.py:parse_serialized_tuple``"""
    if ": " not in payload:
        return None
    fields = {}
    for part in payload.split(" ; "):
        column, sep, value = part.partition(": ")
        if not sep:
            return None
        fields[column.strip()] = value.strip()
    return fields or None


def llm_table_oracle(payload):
    """``llm/model.py:_parse_table_payload``"""
    lines = [line for line in payload.splitlines() if line.strip()]
    if len(lines) < 3:
        return None
    pipe_lines = [line for line in lines if " | " in line]
    if len(pipe_lines) < 2:
        return None
    caption = lines[0] if " | " not in lines[0] else ""
    header = tuple(cell.strip() for cell in pipe_lines[0].split(" | "))
    rows = []
    for line in pipe_lines[1:]:
        cells = tuple(cell.strip() for cell in line.split(" | "))
        if len(cells) == len(header):
            rows.append(cells)
    if not rows:
        return None
    return Table(
        table_id="evidence", caption=caption, columns=header, rows=rows,
        key_column=header[0],
    )


def years_oracle(text):
    """``llm/model.py:_years_in`` and ``rerank/table.py:_years``"""
    return {
        int(n) for n in numbers_in(text) if 1900 <= n <= 2100 and n == int(n)
    }


def rerank_table_oracle(payload):
    """``rerank/table.py:TableReranker._read_payload``"""
    lines = payload.splitlines()
    caption = lines[0] if lines and " | " not in lines[0] else ""
    header = ""
    body_lines = []
    for line in lines[1:] if caption else lines:
        if " | " in line and not header:
            header = line
        elif " | " in line:
            body_lines.append(line)
    caption_tokens = frozenset(analyze(caption))
    header_tokens = frozenset(analyze(header))
    cell_tokens = frozenset(analyze(" ".join(body_lines)))
    return _Table(
        caption_tokens,
        header_tokens,
        cell_tokens | caption_tokens | header_tokens,
        years_oracle(caption),
    )


def completed_table_oracle(text):
    """``llm/prompts.py:parse_completed_table``"""
    lines = [line.strip() for line in text.splitlines() if " | " in line]
    if len(lines) < 2:
        return None
    header = tuple(cell.strip() for cell in lines[0].split(" | "))
    rows = []
    for line in lines[1:]:
        cells = tuple(cell.strip() for cell in line.split(" | "))
        if len(cells) == len(header):
            rows.append(cells)
    if not rows:
        return None
    return header, rows


EVIDENCE_LINES = [
    "district: ohio 1 ; incumbent: tom", "a: 1", "a: 1 ; a: 2", "a:1 ; b: 2",
    "a: 1 ; b", "a: 1 ;b: 2", " ; ", ": ", "a: ", ": 1", "total: 7: 8",
    "1950 ohio elections", "games of 1960 and 2100", "alice | 12 | paris",
    "nation | gold | year", "Carol | 3", "Rome | 4 | 1,960 | x", "a |b | c",
    " | 4", "4 | ", " | ", "|", "a | | b", "votes: 1 | 2 ; x: 3", "", "   ",
    "note\x1f: odd", "İstanbul | 1", "The page says tom won ohio 1.",
]


@st.composite
def evidence_like(draw):
    lines = draw(st.lists(
        st.one_of(
            st.sampled_from(EVIDENCE_LINES),
            st.text(alphabet="ab19:;| \t", max_size=12),
        ),
        max_size=8,
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


hostile_text = st.one_of(evidence_like(), st.text(max_size=60))


def as_the_reranker_reads(fields):
    return tuple(
        (normalize(column), (parse_number(value), normalize(value)))
        for column, value in (fields or {}).items()
    )


def newlines_only(text):
    """``text`` as the prompt's line walk hands it to the model."""
    return "\n".join(text.splitlines())


class TestCallersAgainstTheBodiesTheyReplaced:
    @given(hostile_text)
    def test_the_model_reads_a_tuple(self, text):
        shown = newlines_only(text)
        fields = llm_tuple_oracle(shown)
        assert parse_row(shown) == fields
        assert parse_row(text) == fields  # every line break is one
        assert llm_model._read_evidence(shown).fields == fields
        assert llm_model._read_object(shown, None, None).fields == fields

    @given(hostile_text)
    def test_the_reranker_reads_a_tuple(self, text):
        reading = _read_tuple(text)
        if len(text.strip().splitlines()) > 1:
            assert reading.fields == ()
        else:
            assert reading.fields == as_the_reranker_reads(
                rerank_tuple_oracle(text)
            )
        assert reading.by_column == dict(reading.fields)

    @given(hostile_text)
    def test_the_model_reads_a_table(self, text):
        assert llm_model._parse_table_payload(text) == llm_table_oracle(text)

    @given(hostile_text)
    def test_the_reranker_reads_a_table(self, text):
        assert TableReranker()._read_payload(text) == rerank_table_oracle(text)

    @given(hostile_text)
    def test_a_completed_table(self, text):
        parsed = parse_completed_table(text)
        bars = [
            line.strip() for line in text.splitlines() if " | " in line
        ]
        if any(line[0] == "|" or line[-1] == "|" for line in bars):
            # a blank first or last cell: kept now, width counted with it
            assert parsed is None or all(
                len(row) == len(parsed[0]) for row in parsed[1]
            )
        else:
            assert parsed == completed_table_oracle(text)

    def test_a_blank_last_cell_is_a_cell(self):
        assert parse_completed_table("a | b\n1 | ") == (
            ("a", "b"), [("1", "")]
        )
        assert completed_table_oracle("a | b\n1 | ") is None

    def test_every_payload_of_a_lake(self, small_bundle):
        """No narrowing is reachable from a generated lake: on every
        payload all five callers read what they read before."""
        lake = small_bundle.lake
        reranker = TableReranker()
        for table in lake.tables():
            text = serialize_table(table)
            assert llm_model._parse_table_payload(text) == llm_table_oracle(text)
            assert reranker._read_payload(text) == rerank_table_oracle(text)
            assert parse_completed_table(text) == completed_table_oracle(text)
            assert parse_table(text) == (
                table.caption, table.columns, table.rows
            )
            for row in table.iter_rows():
                assert is_representable(row)
        for modality_instances in (
            [row for table in lake.tables() for row in table.iter_rows()],
            lake.tables(), lake.documents(),
        ):
            for instance in modality_instances:
                text = serialize_instance(instance)
                fields = llm_tuple_oracle(text)
                assert parse_row(text) == fields
                assert fields == rerank_tuple_oracle(text)
