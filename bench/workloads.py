"""Seeded inputs: the lake, object streams, the request mix, the
mutation schedule — and their digests.

One ``--seed`` drives everything here and nothing in ``src/repro``
ever sees it: the program receives only the generated inputs.  Every
stream yields objects that are unique by content (so the verifier's
outcome cache misses unless a workload repeats an object on purpose)
and is consumed in a fixed order — warm-up first, then the traced
sample, then the measured objects — so the three are disjoint.

Digests are blake2b over the inputs a run always consumes (the lake,
the warm-up, the traced sample, the checked prefix of the measured
stream), so they repeat exactly for a seed however far a time-boxed
run got; a drifted input can never pass as a speed change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.claims.generator import ClaimGenerator
from repro.datalake.lake import DataLake
from repro.datalake.types import Table
from repro.serve.loadgen import PlannedRequest, build_request_mix
from repro.verify.objects import ClaimObject, DataObject, TupleObject
from repro.verify.verdict import Verdict
from repro.workloads.builder import LakeBundle, LakeConfig, build_lake
from repro.workloads.tuplecomp import build_tuple_workload

#: the issue's pinned sizes
LAKE_TABLES = 1200
WARMUP_OBJECTS = 50
WARMUP_REQUESTS = 100
CHECKED_OPERATIONS = 300  # the oracle's sample
TRACED_OBJECTS = 300
TRACED_OBJECTS_FULL = 60
TRACED_CYCLES = 30
CLAIMS_PER_TABLE = 11
READS_PER_CYCLE = 25
#: requests drawn per seed (the issue's figure); a run uses a prefix
MIX_REQUESTS = 3100

#: --smoke: 1/50 of the issue's sizes
SMOKE_TABLES = 24


@dataclass(frozen=True)
class Labelled:
    """One object with the verdict a perfect verifier would return
    (``None`` where the inputs carry no label)."""

    obj: DataObject
    gold: Optional[Verdict]


def build_bundle(seed: int, tables: int = LAKE_TABLES) -> LakeBundle:
    return build_lake(LakeConfig(num_tables=tables, seed=seed))


def corrupt_digits(value: str, rng: random.Random) -> str:
    """A plausibly wrong variant of a cell value: one digit changed to
    a different digit, or an ``x`` appended when there is none."""
    digits = [i for i, ch in enumerate(value) if ch.isdigit()]
    if not digits:
        return value + "x"
    slot = digits[rng.randrange(len(digits))]
    new = str((int(value[slot]) + 1 + rng.randrange(9)) % 10)
    return value[:slot] + new + value[slot + 1:]


def gold_of(truthful: bool) -> Verdict:
    return Verdict.VERIFIED if truthful else Verdict.REFUTED


def object_key(obj: DataObject) -> Tuple[str, str, str]:
    """What makes two objects the same to the pipeline: the content
    ``VerifierModule`` keys its outcome cache on (minus the evidence)."""
    return (
        type(obj).__name__,
        obj.query_text(),
        getattr(obj, "attribute", None) or getattr(obj, "context", ""),
    )


# ----------------------------------------------------------------------
# object streams
# ----------------------------------------------------------------------
def claim_stream(bundle: LakeBundle, seed: int) -> Iterator[Labelled]:
    """Unique labelled claims, generated the way
    ``build_claim_workload(claims_per_table=11)`` generates them
    (shuffled tables, one ``ClaimGenerator``), but lazily and in as
    many rounds as the caller consumes, so a time-boxed run never
    starves."""
    rng = random.Random(seed + 2)
    tables = list(bundle.tables)
    rng.shuffle(tables)
    generator = ClaimGenerator(seed=seed + 2, variation_rate=0.2)
    seen = set()
    counter = itertools.count()
    while True:
        produced = 0
        for table in tables:
            for made in generator.generate_for_table(table, CLAIMS_PER_TABLE):
                obj = ClaimObject(
                    f"claim-{next(counter):06d}",
                    made.claim.text, context=made.claim.context,
                )
                key = object_key(obj)
                if key in seen:
                    continue
                seen.add(key)
                produced += 1
                yield Labelled(obj, gold_of(made.label))
        if not produced:
            return


def tuple_stream(bundle: LakeBundle, seed: int) -> Iterator[Labelled]:
    """Unique tuple objects over ``build_tuple_workload``'s sampling
    of the lake's rows, alternating the true value and a seeded
    digit-corrupted one; later sweeps flip the alternation and draw
    fresh corruptions."""
    tasks = build_tuple_workload(
        bundle, num_tasks=sum(t.num_rows for t in bundle.tables),
        seed=seed + 1,
    ).tasks
    rng = random.Random(seed + 11)
    seen = set()
    counter = itertools.count()
    for sweep in itertools.count():
        produced = 0
        for position, task in enumerate(tasks):
            corrupted = (position + sweep) % 2 == 1
            row = task.row
            if corrupted:
                row = task.completed_row(
                    corrupt_digits(task.true_value, rng)
                )
            obj = TupleObject(
                f"tuple-{next(counter):06d}", row, attribute=task.column
            )
            key = object_key(obj)
            if key in seen:
                continue
            seen.add(key)
            produced += 1
            yield Labelled(obj, gold_of(not corrupted))
        if not produced:
            return


def mixed_stream(bundle: LakeBundle, seed: int) -> Iterator[Labelled]:
    """Claims and tuples in turn: the warm-up of a workload that reads
    both."""
    for claim, row in zip(claim_stream(bundle, seed), tuple_stream(bundle, seed)):
        yield claim
        yield row


def take(stream: Iterator, count: int) -> list:
    return list(itertools.islice(stream, count))


# ----------------------------------------------------------------------
# request mix (serve_mix)
# ----------------------------------------------------------------------
def request_objects(request: PlannedRequest) -> List[Dict[str, object]]:
    """The verify bodies one planned request carries (1, or 4 for a
    ``/verify-batch``)."""
    payload = json.loads(request.body)
    return payload["objects"] if "objects" in payload else [payload]


def request_mix(
    lake: DataLake, seed: int, count: int = MIX_REQUESTS
) -> List[PlannedRequest]:
    """``repro.serve.build_request_mix`` (40% claim / 40% tuple / 20%
    4-object batches), minus every request that repeats an object an
    earlier request already carried, so no object is answered from the
    verifier's outcome cache."""
    seen = set()
    unique: List[PlannedRequest] = []
    for request in build_request_mix(lake, count, seed=seed):
        keys = [
            json.dumps(body, sort_keys=True)
            for body in request_objects(request)
        ]
        if len(set(keys)) < len(keys) or any(key in seen for key in keys):
            continue
        seen.update(keys)
        unique.append(request)
    return unique


def body_gold(body: Dict[str, object]) -> Optional[Verdict]:
    """Gold label of one verify body, where the body itself shows it: a
    tuple body carries ``value`` exactly when the mix corrupted the
    cell.  Claim bodies carry no label."""
    if body.get("kind") != "tuple":
        return None
    return gold_of("value" not in body)


# ----------------------------------------------------------------------
# mutation schedule (lake_churn)
# ----------------------------------------------------------------------
@dataclass
class Cycle:
    """One write and the reads around it.

    ``mutations`` are ``(operation, argument)`` pairs to apply through
    ``VerifAI`` in order: ``("update", instance)``, ``("remove", id)``,
    ``("add", instance)``.  ``probe_old`` is verified before the write
    and again after it; ``probe_new`` after it; both are ``None`` for a
    text-document write.
    """

    kind: str
    mutations: List[Tuple[str, object]]
    probe_old: Optional[ClaimObject]
    probe_new: Optional[ClaimObject]
    reads: List[Labelled]


def _cell_claim(
    object_id: str, table: Table, row_index: int, column: str, value: str
) -> ClaimObject:
    subject = table.rows[row_index][table.columns.index(table.key_column)]
    return ClaimObject(
        object_id, f"the {column} of {subject} is {value}",
        context=table.caption,
    )


def _value_columns(table: Table) -> List[str]:
    protected = {table.key_column} | set(table.entity_columns)
    return [c for c in table.columns if c not in protected]


def churn_schedule(
    lake: DataLake, seed: int, taken: Iterable[DataObject] = ()
) -> Iterator[Cycle]:
    """Seeded write/read cycles over the *live* lake, none of whose
    reads repeats an object in ``taken`` (the warm-up).

    Each cycle is built from the lake's state when it is drawn, so the
    gold labels of its reads account for every earlier write; the
    caller must apply a cycle's mutations before drawing the next.
    Writes rotate 60% one-cell ``update_instance``, 20%
    ``remove_instance`` + ``add_instance`` of a table (one cell
    changed), 20% ``update_instance`` of a text document.
    """
    rng = random.Random(seed + 21)
    table_ids = [
        t.table_id for t in lake.tables() if _value_columns(t) and t.num_rows
    ]
    doc_ids = [d.doc_id for d in lake.documents()]
    seen = {object_key(obj) for obj in taken}
    counter = itertools.count()

    def fresh_read(avoid: Optional[str]) -> Labelled:
        while True:
            table = lake.table(table_ids[rng.randrange(len(table_ids))])
            if table.table_id == avoid:
                continue  # the plain reads go over *other* tables
            row_index = rng.randrange(table.num_rows)
            column = rng.choice(_value_columns(table))
            truthful = rng.random() < 0.5
            as_claim = rng.random() < 0.5
            row = table.row(row_index)
            value = row.get(column) or ""
            if not truthful:
                value = corrupt_digits(value, rng)
            number = next(counter)
            if as_claim:
                obj: DataObject = _cell_claim(
                    f"read-{number:06d}", table, row_index, column, value
                )
            else:
                obj = TupleObject(
                    f"read-{number:06d}",
                    row.replace_value(column, value), attribute=column,
                )
            key = object_key(obj)
            if key in seen:
                continue
            seen.add(key)
            return Labelled(obj, gold_of(truthful))

    for cycle_no in itertools.count():
        draw = rng.random()
        if draw < 0.8:
            # a cell and a NEW value no earlier read has claimed for it:
            # the NEW probe must be verified fresh, not from the cache
            while True:
                table = lake.table(table_ids[rng.randrange(len(table_ids))])
                row_index = rng.randrange(table.num_rows)
                column = rng.choice(_value_columns(table))
                old = table.rows[row_index][table.columns.index(column)]
                new = corrupt_digits(old, rng)
                if object_key(_cell_claim(
                    "", table, row_index, column, new
                )) not in seen:
                    break
            rows = list(table.rows)
            cells = list(rows[row_index])
            cells[table.columns.index(column)] = new
            rows[row_index] = tuple(cells)
            changed = dataclasses.replace(table, rows=rows)
            if draw < 0.6:
                kind = "cell"
                mutations = [("update", changed)]
            else:
                kind = "replace"
                mutations = [("remove", table.table_id), ("add", changed)]
            probe_old = _cell_claim(
                f"old-{cycle_no:05d}", table, row_index, column, old
            )
            probe_new = _cell_claim(
                f"new-{cycle_no:05d}", table, row_index, column, new
            )
            seen.add(object_key(probe_old))
            seen.add(object_key(probe_new))
            avoid: Optional[str] = table.table_id
            reads = READS_PER_CYCLE - 3
        else:
            kind = "text"
            doc = lake.document(doc_ids[rng.randrange(len(doc_ids))])
            changed_doc = dataclasses.replace(
                doc,
                text=f"{doc.text} Revision {cycle_no} recorded "
                     f"{rng.randrange(10 ** 6)}.",
            )
            mutations = [("update", changed_doc)]
            probe_old = probe_new = None
            avoid = None
            reads = READS_PER_CYCLE
        yield Cycle(
            kind, mutations, probe_old, probe_new,
            [fresh_read(avoid) for _ in range(reads)],
        )


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def _hasher() -> "hashlib._Hash":
    return hashlib.blake2b(digest_size=8)


def lake_digest(lake: DataLake) -> str:
    digest = _hasher()
    for table in lake.tables():
        digest.update(repr((
            table.table_id, table.caption, table.columns, table.rows,
        )).encode("utf-8"))
    for doc in lake.documents():
        digest.update(repr((doc.doc_id, doc.text)).encode("utf-8"))
    return digest.hexdigest()


def objects_digest(objects: Iterable[DataObject]) -> str:
    digest = _hasher()
    for obj in objects:
        digest.update(repr(object_key(obj)).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def verdicts_digest(verdicts: Iterable[str]) -> str:
    digest = _hasher()
    for verdict in verdicts:
        digest.update(verdict.encode("ascii"))
        digest.update(b"\x00")
    return digest.hexdigest()


def combine_digests(parts: Dict[str, str]) -> str:
    digest = _hasher()
    for name in sorted(parts):
        digest.update(f"{name}={parts[name]};".encode("ascii"))
    return digest.hexdigest()
