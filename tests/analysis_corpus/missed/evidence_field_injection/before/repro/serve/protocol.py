"""``parse_object``'s tuple branch as ``src/repro/serve/protocol.py``
held it before 86d1f41: a client ``value`` of ``"wrong ; votes: <the
lake's value>"`` renders as two fields of the ``col: v ; col: v``
evidence form, and the later, true one wins.  No rule fires."""


def replaced_row(row, column: str, value: str):
    return row.replace_value(column, value)
