"""``replaced_row`` as 86d1f41 fixed it: a value the evidence form
cannot carry is refused."""

from repro.datalake.serialize import is_representable


class BadRequest(ValueError):
    pass


def replaced_row(row, column: str, value: str):
    replaced = row.replace_value(column, value)
    if not is_representable(replaced):
        raise BadRequest(
            f"field 'value' {value!r} cannot be carried by the evidence "
            "form 'col: v ; col: v' (' ; ', line break or outer blank)"
        )
    return replaced
