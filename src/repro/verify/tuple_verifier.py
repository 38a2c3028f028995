"""Local (tuple, tuple) verifier — the fine-tuned RoBERTa stand-in.

RetClean fine-tunes RoBERTa to decide whether a retrieved tuple supports
an imputed tuple; the paper reports it "comparable to ChatGPT" on this
pair type.  The stand-in is a logistic-regression classifier over
engineered pair features, trained on synthetically labelled pairs
generated from lake tables (positive: the true value; negative: a
corrupted value) — the same self-supervision recipe such models use.

Like its neural counterpart it is binary at heart; a relatedness gate
(identity-token overlap) produces NOT_RELATED before classification.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import numpy as np

from repro.datalake.types import DataInstance, Row, Table
from repro.text import analyze, normalize
from repro.text.numbers import parse_number
from repro.text.similarity import jaccard, levenshtein_ratio
from repro.verify.base import VerificationOutcome, Verifier
from repro.verify.objects import DataObject, TupleObject
from repro.verify.verdict import Verdict

_NUM_FEATURES = 5


def _value_similarity(a: str, b: str) -> float:
    num_a, num_b = parse_number(a), parse_number(b)
    if num_a is not None and num_b is not None:
        if num_a == num_b:
            return 1.0
        denom = max(abs(num_a), abs(num_b), 1.0)
        return max(0.0, 1.0 - abs(num_a - num_b) / denom)
    return levenshtein_ratio(normalize(a), normalize(b))


def pair_features(obj: TupleObject, evidence: Row) -> np.ndarray:
    """Feature vector for a (generated tuple, evidence tuple) pair."""
    target = obj.attribute or ""
    data = obj.row.as_dict()
    other = evidence.as_dict()
    other_by_norm = {normalize(c): v for c, v in other.items()}

    identity_values = [
        v for c, v in data.items() if normalize(c) != normalize(target)
    ]
    identity_tokens = set(analyze(" ".join(identity_values)))
    evidence_tokens = set(analyze(" ".join(other.values())))
    identity_overlap = (
        len(identity_tokens & evidence_tokens) / len(identity_tokens)
        if identity_tokens
        else 0.0
    )

    schema_overlap = jaccard(
        [normalize(c) for c in data], [normalize(c) for c in other]
    )

    target_value = data.get(target, "")
    evidence_value = other_by_norm.get(normalize(target), "")
    if target and evidence_value:
        value_sim = _value_similarity(target_value, evidence_value)
        exact = 1.0 if _value_similarity(target_value, evidence_value) >= 0.999 else 0.0
    else:
        value_sim = 0.0
        exact = 0.0

    shared_agreements = []
    for column, value in data.items():
        evidence_cell = other_by_norm.get(normalize(column))
        if evidence_cell is None:
            continue
        shared_agreements.append(_value_similarity(value, evidence_cell))
    agreement = (
        sum(shared_agreements) / len(shared_agreements)
        if shared_agreements
        else 0.0
    )

    return np.array(
        [identity_overlap, schema_overlap, value_sim, exact, agreement],
        dtype=np.float64,
    )


class TupleVerifier(Verifier):
    """Trained logistic-regression pair classifier for (tuple, tuple)."""

    name = "tuple-lr"

    def __init__(
        self,
        relatedness_threshold: float = 0.4,
        learning_rate: float = 0.5,
        epochs: int = 300,
        seed: int = 5,
    ) -> None:
        self.relatedness_threshold = relatedness_threshold
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.seed = seed
        self._weights = np.zeros(_NUM_FEATURES + 1, dtype=np.float64)
        self._trained = False

    @property
    def is_trained(self) -> bool:
        return self._trained

    def supports(self, obj: DataObject, evidence: DataInstance) -> bool:
        """This local model handles (tuple, tuple) pairs only."""
        return isinstance(obj, TupleObject) and isinstance(evidence, Row)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train(
        self, pairs: Sequence[Tuple[TupleObject, Row, bool]]
    ) -> "TupleVerifier":
        """Fit the classifier on labelled (object, evidence, supports) pairs."""
        if not pairs:
            raise ValueError("cannot train on an empty pair set")
        features = np.vstack([pair_features(obj, row) for obj, row, _ in pairs])
        features = np.hstack([features, np.ones((features.shape[0], 1))])
        labels = np.array([1.0 if label else 0.0 for _, _, label in pairs])
        rng = np.random.default_rng(self.seed)
        weights = rng.standard_normal(features.shape[1]) * 0.01
        n = features.shape[0]
        for _ in range(self.epochs):
            logits = features @ weights
            probs = 1.0 / (1.0 + np.exp(-logits))
            gradient = features.T @ (probs - labels) / n
            weights -= self.learning_rate * gradient
        self._weights = weights
        self._trained = True
        return self

    def predict_proba(self, obj: TupleObject, evidence: Row) -> float:
        """P(evidence supports the generated value)."""
        if not self._trained:
            raise RuntimeError("TupleVerifier.predict called before train()")
        feats = np.append(pair_features(obj, evidence), 1.0)
        return float(1.0 / (1.0 + np.exp(-feats @ self._weights)))

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _anchor_overlap(self, obj: TupleObject, evidence: Row) -> float:
        """Fraction of the tuple's leading (entity-naming) field found in
        the evidence — rows about a different entity must not be
        classified, only gated to NOT_RELATED."""
        target = normalize(obj.attribute or "")
        anchor_tokens: set = set()
        for column, value in obj.row.as_dict().items():
            if normalize(column) != target:
                anchor_tokens = set(analyze(value))
                break
        if not anchor_tokens:
            return 1.0
        evidence_tokens = set(analyze(" ".join(evidence.values)))
        return len(anchor_tokens & evidence_tokens) / len(anchor_tokens)

    def verify(self, obj: DataObject, evidence: DataInstance) -> VerificationOutcome:
        if not self.supports(obj, evidence):
            raise TypeError(
                f"{self.name} verifies (tuple, tuple) pairs, got "
                f"({type(obj).__name__}, {type(evidence).__name__})"
            )
        assert isinstance(obj, TupleObject) and isinstance(evidence, Row)
        feats = pair_features(obj, evidence)
        identity_overlap = feats[0]
        anchor_overlap = self._anchor_overlap(obj, evidence)
        if (
            identity_overlap < self.relatedness_threshold
            or anchor_overlap < 0.6
        ):
            return self._outcome(
                Verdict.NOT_RELATED,
                f"identity overlap {identity_overlap:.2f} / anchor overlap "
                f"{anchor_overlap:.2f} below threshold",
                evidence,
            )
        probability = self.predict_proba(obj, evidence)
        if probability >= 0.5:
            return self._outcome(
                Verdict.VERIFIED,
                f"classifier support probability {probability:.2f}",
                evidence,
            )
        return self._outcome(
            Verdict.REFUTED,
            f"classifier support probability {probability:.2f}",
            evidence,
        )


def training_pairs_from_tables(
    tables: Sequence[Table],
    num_pairs: int = 400,
    seed: int = 17,
) -> List[Tuple[TupleObject, Row, bool]]:
    """Self-supervised training pairs: for a sampled row and column, the
    positive keeps the true value, the negative swaps in another value
    from the same column."""
    rng = random.Random(seed)
    usable = [t for t in tables if t.num_rows >= 2 and t.num_columns >= 2]
    if not usable:
        return []
    pairs: List[Tuple[TupleObject, Row, bool]] = []
    attempts = 0
    while len(pairs) < num_pairs and attempts < num_pairs * 10:
        attempts += 1
        table = rng.choice(usable)
        row = table.row(rng.randrange(table.num_rows))
        columns = [c for c in table.columns if c != table.key_column]
        if not columns:
            continue
        column = rng.choice(columns)
        true_value = row.get(column)
        assert true_value is not None
        positive = len(pairs) % 2 == 0
        if positive:
            candidate = row
        else:
            alternatives = [
                v for v in table.column_values(column)
                if normalize(v) != normalize(true_value)
            ]
            if not alternatives:
                continue
            candidate = row.replace_value(column, rng.choice(sorted(set(alternatives))))
        obj = TupleObject(
            object_id=f"train-{len(pairs)}",
            row=candidate,
            attribute=column,
        )
        pairs.append((obj, row, positive))
    return pairs
