"""The benchmark's command line.

One workload, one pass, in this process, result as the last line (the
form the driver calls)::

    python3 -m bench.run --workload campaign_claim --seed 3 \\
        --seconds 10 --trace 0

The whole benchmark: every workload in its own fresh subprocess, every
metric printed by name with its unit, and one results JSON stamped with
commit / cores / versions written under ``--out``::

    python3 -m bench.run --seed 3            # measured pass
    python3 -m bench.run --seed 3 --trace    # traced pass
    python3 -m bench.run --smoke             # 1/50 size, both passes

plus ``python3 -m bench.run calibrate --runs 5`` (measure run-to-run
spread, write the bounds) and ``python3 -m bench.run agree A.json
B.json`` (do two result sets agree within the bounds); see
``bench/calibrate.py``.

``src/`` is put on ``sys.path`` here, so no ``PYTHONPATH`` is needed;
in a directory without ``src/repro`` the command exits 2 before
printing any result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from bench.spec import (
    declared,
    import_program,
    load_spec,
    pass_name,
    workload_names,
)

#: --smoke: seconds of timed work per workload and pass
SMOKE_SECONDS = 0.3


def run_workload(args: argparse.Namespace) -> int:
    """One workload, one pass, in this process."""
    spec = load_spec()
    if args.workload not in workload_names(spec):
        print(
            f"bench: unknown workload {args.workload!r}; "
            f"choose from {workload_names(spec)}", file=sys.stderr,
        )
        return 2
    import_program()
    from bench import campaign, churn, serve, workloads
    from bench.harness import Options

    trace = bool(args.trace)
    options = Options(
        seed=args.seed, seconds=args.seconds, trace=trace, out_dir=args.out,
    )
    if args.smoke:
        options.tables = workloads.SMOKE_TABLES
        options.warmup = 4
        options.warmup_requests = 4
        options.checked = 10
        options.traced = 6
        options.traced_cycles = 2
        options.open_slice_s = 0.1
    if args.workload in campaign.WORKLOADS:
        result = campaign.run(args.workload, options)
    elif args.workload == "serve_mix":
        result = serve.run(options)
    else:
        result = churn.run(options)

    wanted = declared(spec, trace)
    unknown = sorted(set(result.metrics) - set(wanted))
    if unknown:
        print(f"bench: undeclared metrics {unknown}", file=sys.stderr)
        return 3
    metrics = {}
    for name, entry in wanted.items():
        # a layer a workload never enters did no work: count 0, time 0
        value = result.metrics.get(name, 0.0 if trace else None)
        if value is None:
            print(f"bench: metric {name!r} not measured", file=sys.stderr)
            return 3
        metrics[name] = {"value": float(value), "unit": entry["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{pass_name(trace)} pass")
    for name, body in metrics.items():
        print(f"  {name:<48} {body['value']:>14.6g} {body['unit']}")
    for name, value in sorted(result.digests.items()):
        print(f"  digest.{name:<41} {value}")
    for name, value in sorted(result.notes.items()):
        print(f"  note.{name}: {value}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "digests": result.digests, "notes": result.notes,
    }, default=str))
    print(json.dumps({
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own subprocess, one pass (both with
    ``--smoke``), results written under ``--out``."""
    import_program()
    from bench.passes import run_pass, write_results

    status = 0
    for trace in ([False, True] if args.smoke else [bool(args.trace)]):
        results, failed = run_pass(
            args.seed, args.seconds, trace, args.out, smoke=args.smoke,
        )
        status = status or failed
        path = os.path.join(args.out, f"results-{pass_name(trace)}.json")
        write_results(results, path)
        print(f"wrote {path}")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("calibrate", "agree"):
        from bench import calibrate

        return calibrate.main(argv)
    parser = argparse.ArgumentParser(
        prog="bench.run", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload",
        help="run this one workload in this process (default: all, each "
             "in its own subprocess)",
    )
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per workload (default: BENCHMARK.json's "
             "run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0,
        help="1 = the traced pass (per-layer metrics)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="1/50 size; without --workload, both passes",
    )
    parser.add_argument(
        "--out", default=".bench_out",
        help="directory for results, traces and the served lake",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = (
            SMOKE_SECONDS if args.smoke
            else float(load_spec()["run_seconds"])
        )
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
