"""The seeded request mix the service is load-tested with.

:func:`build_request_mix` derives requests from the lake itself
(claims and tuples over real tables, plus small batches).  The mix is
byte-stable: same lake + seed + counts gives byte-identical request
bodies, and :func:`mix_digest` pins that in benchmark baselines so a
drifting mix can't masquerade as a performance change.  Replaying it
over sockets is the benchmark's job (``bench/loadgen.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.datalake.lake import DataLake

#: default kind weights for :func:`build_request_mix`
DEFAULT_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("claim", 0.4),
    ("tuple", 0.4),
    ("batch", 0.2),
)

#: objects per generated /verify-batch request
BATCH_SIZE = 4


@dataclass(frozen=True)
class PlannedRequest:
    """One request the harness will replay."""

    kind: str
    method: str
    path: str
    body: bytes


def _corrupt_digits(value: str, rng: random.Random) -> str:
    """A plausibly-wrong variant of a cell value (flips one digit)."""
    digits = [i for i, ch in enumerate(value) if ch.isdigit()]
    if not digits:
        return value + "x"
    slot = digits[rng.randrange(len(digits))]
    old = value[slot]
    new = str((int(old) + 1 + rng.randrange(8)) % 10)
    return value[:slot] + new + value[slot + 1:]


def _verify_body(lake: DataLake, rng: random.Random) -> Dict[str, object]:
    """One claim/tuple verify body over a random real cell."""
    tables = lake.tables()
    table = tables[rng.randrange(len(tables))]
    row_index = rng.randrange(table.num_rows)
    row = table.row(row_index)
    key_column = table.key_column or table.columns[0]
    value_columns = [c for c in table.columns if c != key_column]
    column = (
        value_columns[rng.randrange(len(value_columns))]
        if value_columns else key_column
    )
    truthful = rng.random() < 0.5
    value = row.get(column) or ""
    if not truthful:
        value = _corrupt_digits(value, rng)
    if rng.random() < 0.5:
        subject = row.get(key_column) or ""
        return {
            "kind": "claim",
            "text": f"the {column} of {subject} is {value}",
        }
    body: Dict[str, object] = {
        "kind": "tuple",
        "table_id": table.table_id,
        "row": row_index,
        "column": column,
    }
    if not truthful:
        body["value"] = value
    return body


def build_request_mix(
    lake: DataLake,
    count: int,
    seed: int = 0,
    weights: Sequence[Tuple[str, float]] = DEFAULT_WEIGHTS,
) -> List[PlannedRequest]:
    """``count`` seeded requests over the lake's own content.

    Bodies are ``json.dumps(..., sort_keys=True)`` of seeded draws, so
    the whole mix is byte-stable for a given (lake, seed, count,
    weights) — the property :func:`mix_digest` asserts.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    kinds = [kind for kind, _ in weights]
    cum: List[float] = []
    total = 0.0
    for _, weight in weights:
        if weight < 0:
            raise ValueError(f"weights must be >= 0, got {weight}")
        total += weight
        cum.append(total)
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    rng = random.Random(seed)
    requests: List[PlannedRequest] = []
    for _ in range(count):
        draw = rng.random() * total
        kind = kinds[-1]
        for name, bound in zip(kinds, cum):
            if draw < bound:
                kind = name
                break
        if kind == "batch":
            payload: Dict[str, object] = {
                "objects": [
                    _verify_body(lake, rng) for _ in range(BATCH_SIZE)
                ],
                "max_workers": 2,
            }
            path = "/verify-batch"
        elif kind in ("claim", "tuple"):
            body = _verify_body(lake, rng)
            # re-draw until the body matches the asked-for kind, so the
            # weights mean what they say
            while body["kind"] != kind:
                body = _verify_body(lake, rng)
            payload, path = body, "/verify"
        else:
            raise ValueError(f"unknown request kind {kind!r}")
        requests.append(PlannedRequest(
            kind=kind,
            method="POST",
            path=path,
            body=json.dumps(payload, sort_keys=True).encode("utf-8"),
        ))
    return requests


def mix_digest(requests: Sequence[PlannedRequest]) -> str:
    """Stable hex digest of a mix (pins benchmark inputs)."""
    digest = hashlib.blake2b(digest_size=8)
    for request in requests:
        digest.update(request.method.encode("utf-8"))
        digest.update(request.path.encode("utf-8"))
        digest.update(request.body)
        digest.update(b"\x00")
    return digest.hexdigest()

