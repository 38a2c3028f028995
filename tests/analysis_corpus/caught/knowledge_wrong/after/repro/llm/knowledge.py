"""The wrong-number draw as 0c78fb2 fixed it: the integral values
compare as ints."""

import random

from repro.text.numbers import format_number, parse_number


def plausible_wrong(actual: str, rng: random.Random) -> str:
    number = parse_number(actual)
    if number is None or abs(number) <= 4:
        return actual
    factor = rng.uniform(1.05, 1.6)
    if rng.random() < 0.5:
        factor = 1.0 / factor
    wrong = number * factor
    if float(number).is_integer():
        wrong = float(int(round(wrong)))
        if int(wrong) == int(number):
            wrong = number + rng.choice([-2.0, -1.0, 1.0, 2.0])
    if "," in actual:
        return f"{int(wrong):,}"
    return format_number(round(wrong, 1))
