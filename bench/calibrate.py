"""``calibrate``: how far apart do runs of the same code land, and
``agree``: are two result sets within that.

``python3 -m bench.run calibrate --runs 5`` makes the measured pass
``--runs`` times at one seed, then ``--runs`` times more with another
seed each, and for every (workload, end-to-end metric) row reports the
median, the spread between quartiles and the whole range as shares of
the median, both ways.  The two sets answer two questions:

* **run to run** (one seed, so identical inputs): how much the host
  alone moves a number.  A later change is compared with its parent on
  the same seeds, so this is the noise a bound has to clear: the
  issue's ``max(5%, 2 x widest range)`` over the workloads;
* **across seeds**: what the driver measures when it judges the
  benchmark itself.  It accepts no bound below the quartile spread it
  sees over ten seeds and asks for three times that.

A metric's bound is the larger of the two, rounded up to a whole
percent.  ``accuracy`` and ``passed_share`` repeat exactly for a seed
(``agree`` demands it), so the first rule gives them 0, as the issue
wants, and only the second rule gives them a bound.

Nothing is written, and the command exits 1 naming the rows, when

* a row's range run to run, or its quartile spread across seeds, is
  wider than the bound it would get (the driver caps a bound at 25%,
  and a bound narrower than the range it came from fails runs of
  identical code), or
* a row's quartile spread run to run is over 10%: the issue's threshold
  for demoting an end-to-end metric to a layer metric, or resizing the
  workload until it is steadier.

``setup_s`` is exempt from both (see ``unfit_rows``): compare it over
medians of several runs, as the driver does, or against
``bench/baseline.json``.

Otherwise the bounds go into ``BENCHMARK.json`` and both tables, stamped
with the host, into ``bench/baseline.json`` (``workloads`` holds the
one-seed medians: the baseline).

``python3 -m bench.run agree A.json B.json`` compares two results
documents (``results-measured.json`` of two passes, or one of them and
``bench/baseline.json``) row by row and names every row that differs by
more than its bound.  When both used the same seed it also demands that
``accuracy``, ``passed_share``, ``attempted``, ``failed`` and both
digests are identical.  It exits 1 if anything disagreed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
from typing import Dict, List, Sequence

from bench.measure import quartile_spread
from bench.passes import run_pass, write_results
from bench.spec import (
    BASELINE_PATH,
    SPEC_PATH,
    import_program,
    load_spec,
    workload_names,
)

#: the seed of the run-to-run set: ``python3 -m bench.run``'s default
SEED = 3
OUT_DIR = ".bench_out"
MIN_BOUND = 0.05
#: the widest bound the driver accepts
MAX_BOUND = 0.25
DEMOTE_SPREAD = 0.10
#: how many times its spread across seeds the driver asks a bound to be
HEADROOM = 3.0
#: metrics the inputs decide: two same-seed runs must agree exactly
EXACT_METRICS = ("accuracy", "passed_share")
EXACT_FIELDS = ("attempted", "failed")

Table = Dict[str, Dict[str, Dict[str, object]]]


def range_spread(values: Sequence[float]) -> float:
    """(max - min) / median."""
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if max(values) == min(values) else math.inf
    return (max(values) - min(values)) / abs(middle)


def bound_of(name: str, run_to_run: Table, across_seeds: Table) -> float:
    """A metric's bound from its rows on every workload, rounded up to
    a whole percent."""
    noise = 0.0
    if name not in EXACT_METRICS:
        noise = max(
            MIN_BOUND,
            2.0 * max(rows[name]["range"] for rows in run_to_run.values()),
        )
    seeds = HEADROOM * max(
        rows[name]["spread"] for rows in across_seeds.values()
    )
    bound = min(MAX_BOUND, max(noise, seeds, 0.01))
    return math.ceil(bound * 100.0 - 1e-9) / 100.0


def summarise(
    runs: Sequence[Dict[str, object]], metrics: Sequence[Dict[str, str]],
    workloads: Sequence[str],
) -> Table:
    """workload -> metric -> {value (median), unit, spread, range,
    values} over the runs that have the workload."""
    table: Table = {}
    for workload in workloads:
        rows = [
            run["workloads"][workload] for run in runs
            if workload in run["workloads"]
        ]
        if len(rows) < 2:
            raise RuntimeError(
                f"{workload}: {len(rows)} good runs, need at least 2"
            )
        table[workload] = {}
        for entry in metrics:
            values = [
                row["metrics"][entry["name"]]["value"] for row in rows
            ]
            table[workload][entry["name"]] = {
                "value": statistics.median(values),
                "unit": entry["unit"],
                "spread": quartile_spread(values),
                "range": range_spread(values),
                "values": values,
            }
    return table


def unfit_rows(
    run_to_run: Table, across_seeds: Table, bounds: Dict[str, float]
) -> List[str]:
    """One line per row that no bound can be committed for.

    ``setup_s`` is judged by none of the rules.  The driver requires
    the metric, caps its bound at 25% and compares medians of ten runs
    without holding its spread against the bound; a run sets up once,
    so one stall of the host is in the number (its range over ten runs
    at one seed reaches 25-40% on the builder's host, its quartile
    spread 3-15%).
    """
    found: List[str] = []
    for workload, rows in run_to_run.items():
        for name, row in rows.items():
            if name == "setup_s":
                continue
            if row["range"] > bounds[name]:
                found.append(
                    f"{workload} {name}: range {row['range']:.1%} run to "
                    f"run is wider than its bound {bounds[name]:.0%}"
                )
            if row["spread"] > DEMOTE_SPREAD:
                found.append(
                    f"{workload} {name}: quartile spread {row['spread']:.1%} "
                    f"run to run is over {DEMOTE_SPREAD:.0%}"
                )
            seeds = across_seeds[workload][name]["spread"]
            if seeds > bounds[name]:
                found.append(
                    f"{workload} {name}: quartile spread {seeds:.1%} across "
                    f"seeds is wider than its bound {bounds[name]:.0%}"
                )
    return found


def calibrate(args: argparse.Namespace) -> int:
    spec = load_spec()
    import_program()
    seconds = float(spec["run_seconds"])
    sets: Dict[str, List[Dict[str, object]]] = {"one": [], "many": []}
    status = 0
    for kind, runs in sets.items():
        for number in range(args.runs):
            seed = SEED if kind == "one" else SEED + 1 + number
            results, failed = run_pass(
                seed, seconds, False, OUT_DIR, echo=False
            )
            status = status or failed
            runs.append(results)
            print(f"seed {seed}: run {number + 1}/{args.runs} done",
                  flush=True)
    names = workload_names(spec)
    run_to_run = summarise(sets["one"], spec["end_to_end"], names)
    across_seeds = summarise(sets["many"], spec["end_to_end"], names)

    bounds = {
        entry["name"]: bound_of(entry["name"], run_to_run, across_seeds)
        for entry in spec["end_to_end"]
    }
    print(f"{'':<40}{'one seed':>28}{'across seeds':>17}")
    print(f"{'workload':<16}{'metric':<24}{'median':>12}"
          f"{'spread':>8}{'range':>8}{'median':>9}{'spread':>8}{'bound':>7}")
    for workload, rows in run_to_run.items():
        for name, row in rows.items():
            other = across_seeds[workload][name]
            print(
                f"{workload:<16}{name:<24}{row['value']:>12.5g}"
                f"{row['spread']:>8.3f}{row['range']:>8.3f}"
                f"{other['value']:>9.4g}{other['spread']:>8.3f}"
                f"{bounds[name]:>7.2f}"
            )
    unfit = unfit_rows(run_to_run, across_seeds, bounds)
    for line in unfit:
        print(f"UNFIT {line}")
    if unfit:
        print("nothing written: demote these metrics or resize these "
              "workloads")
        return 1

    for entry in spec["end_to_end"]:
        entry["bound"] = bounds[entry["name"]]
    with open(SPEC_PATH, "w", encoding="utf-8") as handle:
        json.dump(spec, handle, indent=2)
        handle.write("\n")
    write_results({
        "stamp": sets["one"][-1]["stamp"],
        "seed": SEED,
        "runs": args.runs,
        "seconds": seconds,
        "pass": "measured",
        "bounds": bounds,
        "workloads": {
            workload: {"metrics": rows}
            for workload, rows in run_to_run.items()
        },
        "across_seeds": across_seeds,
    }, BASELINE_PATH)
    print(f"wrote bounds to {SPEC_PATH} and the baseline to {BASELINE_PATH}")
    return status


def _load(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def disagreements(
    first: Dict[str, object], second: Dict[str, object],
    metrics: Sequence[Dict[str, object]],
) -> List[str]:
    """One line per row on which two results documents differ by more
    than the metric's bound — or, for what a seed decides, at all."""
    found: List[str] = []
    shared = [w for w in first["workloads"] if w in second["workloads"]]
    if not shared:
        return ["the two documents share no workload"]
    same_seed = first.get("seed") == second.get("seed")
    for workload in shared:
        one, two = first["workloads"][workload], second["workloads"][workload]
        for entry in metrics:
            name, bound = entry["name"], float(entry["bound"])
            if name not in one["metrics"] or name not in two["metrics"]:
                found.append(f"{workload} {name}: missing on one side")
                continue
            a = one["metrics"][name]["value"]
            b = two["metrics"][name]["value"]
            if same_seed and name in EXACT_METRICS:
                if a != b:
                    found.append(
                        f"{workload} {name}: {a!r} vs {b!r} (same seed)"
                    )
                continue
            differs = abs(b - a) / abs(a) if a else float(b != a)
            if differs > bound:
                found.append(
                    f"{workload} {name}: {a:.6g} vs {b:.6g} differ by "
                    f"{differs:.1%}, bound {bound:.0%}"
                )
        if not same_seed:
            continue
        # a baseline carries medians only: compare what both sides have
        for kind in sorted(
            set(one.get("digests", {})) & set(two.get("digests", {}))
        ):
            if one["digests"][kind] != two["digests"][kind]:
                found.append(
                    f"{workload} digest.{kind}: {one['digests'][kind]} vs "
                    f"{two['digests'][kind]} (same seed)"
                )
        for name in EXACT_FIELDS:
            if name in one and name in two and one[name] != two[name]:
                found.append(
                    f"{workload} {name}: {one[name]} vs {two[name]} "
                    f"(same seed)"
                )
    return found


def agree(args: argparse.Namespace) -> int:
    found = disagreements(
        _load(args.first), _load(args.second), load_spec()["end_to_end"]
    )
    for line in found:
        print(f"DISAGREE {line}")
    if not found:
        print("agree: every row within its bound")
    return 1 if found else 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bench.run", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    cal = commands.add_parser("calibrate")
    cal.add_argument("--runs", type=int, default=5)
    cal.set_defaults(run=calibrate)
    agr = commands.add_parser("agree")
    agr.add_argument("first")
    agr.add_argument("second")
    agr.set_defaults(run=agree)
    args = parser.parse_args(list(argv))
    if args.command == "calibrate" and args.runs < 2:
        parser.error("--runs must be at least 2")
    return args.run(args)
