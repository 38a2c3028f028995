"""``_perturb_number`` as 0c78fb2 fixed it: both sides are integral, so
they compare as ints, exactly."""

import random


class ClaimGenerator:
    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def _perturb_number(self, value: float) -> float:
        """A clearly-different number of the same magnitude."""
        factor = self._rng.uniform(1.1, 1.5)
        if self._rng.random() < 0.5:
            factor = 1.0 / factor
        perturbed = value * factor
        if float(value).is_integer():
            perturbed = float(int(round(perturbed)))
            if int(perturbed) == int(value):
                perturbed = value + self._rng.choice([-2.0, -1.0, 1.0, 2.0])
        return perturbed
