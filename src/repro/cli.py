"""Command-line interface.

Subcommands::

    repro build-lake  --tables 300 --seed 0 --out lake.json
    repro stats       --lake lake.json
    repro verify-claim --lake lake.json --text "..." [--context "..."]
    repro verify-tuple --lake lake.json --table-id T --row 0 \
                       --column votes --value "123,456"
    repro verify-batch --lake lake.json --sample 50 [--trace out.json]
    repro profile     --lake lake.json --sample 50 [--out stacks.txt]
    repro profile     -- verify-batch --lake lake.json --sample 20
    repro trace       out.json [--json]
    repro serve       --lake lake.json [--port 8080] [--queue 16]
    repro experiment  --name table1 [--scale small]
    repro lint        [--json] [--root DIR] [paths...]
    repro coverage    [--floor 0.9] [--target PATH ...] -- [pytest args...]
    repro orchestrate [--scenario NAME] [--max-iters 4] [--trail PATH]
                      [--json]

Installed as ``python -m repro.cli`` (no console-script entry point to
keep the package dependency-free).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.datalake.persistence import load_lake, save_lake
from repro.serve.config import ServeConfig
from repro.verify.objects import TupleObject
from repro.workloads.builder import LakeConfig, build_lake
from repro.workloads.tables import ScopeExhausted


def _cmd_build_lake(args: argparse.Namespace) -> int:
    try:
        bundle = build_lake(LakeConfig(num_tables=args.tables, seed=args.seed))
    except ScopeExhausted as exc:
        print(f"build-lake: {exc}", file=sys.stderr)
        return 2
    save_lake(bundle.lake, args.out)
    stats = bundle.lake.stats()
    print(
        f"wrote {args.out}: {stats.num_tables} tables, "
        f"{stats.num_tuples} tuples, {stats.num_text_files} text files"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    lake = load_lake(args.lake)
    stats = lake.stats()
    print(f"lake:        {lake.name}")
    print(f"tables:      {stats.num_tables}")
    print(f"tuples:      {stats.num_tuples}")
    print(f"text files:  {stats.num_text_files}")
    print(f"sources:     {stats.num_sources}")
    return 0


def _system_for(args: argparse.Namespace) -> VerifAI:
    """The system over ``--lake``, unbuilt: a one-object command's
    campaign builds only the modalities it reads."""
    return VerifAI(load_lake(args.lake), config=VerifAIConfig())


def _cmd_verify_claim(args: argparse.Namespace) -> int:
    from repro.serve.protocol import BadRequest, claim_object

    try:
        obj = claim_object("cli-claim", args.text, args.context or "")
    except BadRequest as exc:
        print(f"verify-claim: {exc}", file=sys.stderr)
        return 2
    system = _system_for(args)
    report = system.verify(obj)
    print(report.summary())
    if args.explain:
        print(system.explain(report))
    return 0 if report.final_verdict.name != "REFUTED" else 1


def _cmd_verify_tuple(args: argparse.Namespace) -> int:
    from repro.serve.protocol import BadRequest, parse_object

    system = _system_for(args)
    body = {
        "kind": "tuple", "table_id": args.table_id, "row": args.row,
        "column": args.column, "value": args.value,
    }
    try:
        obj = parse_object(body, system.lake, "cli-tuple")
    except BadRequest as exc:
        print(f"verify-tuple: {exc}", file=sys.stderr)
        return 2
    report = system.verify(obj)
    print(report.summary())
    if args.explain:
        print(system.explain(report))
    return 0 if report.final_verdict.name != "REFUTED" else 1


def _sample_objects(system: VerifAI, sample: int, seed: int, command: str):
    """``sample`` seeded tuple objects drawn from the lake, or ``None``
    (with a stderr diagnostic) when the lake has nothing sampleable."""
    import random

    rng = random.Random(seed)
    # a sampleable table needs at least one row and one non-key column;
    # degenerate tables (empty, or key-only) would crash rng.choice /
    # rng.randrange, so skip them up front
    tables = [
        table
        for table in sorted(system.lake.tables(), key=lambda t: t.table_id)
        if table.num_rows > 0
        and any(c != table.key_column for c in table.columns)
    ]
    if not tables:
        print(
            f"{command}: no sampleable tables in the lake "
            "(every table is empty or has only its key column)",
            file=sys.stderr,
        )
        return None
    objects = []
    for i in range(sample):
        table = rng.choice(tables)
        row = table.row(rng.randrange(table.num_rows))
        column = rng.choice([c for c in table.columns if c != table.key_column])
        objects.append(TupleObject(f"batch-{i:04d}", row, attribute=column))
    return objects


def _cmd_verify_batch(args: argparse.Namespace) -> int:
    system = _system_for(args).build_indexes()
    objects = _sample_objects(system, args.sample, args.seed, "verify-batch")
    if objects is None:
        return 2
    batch = system.verify_batch(
        objects,
        fail_fast=args.fail_fast,
        trace=args.trace is not None,
    )
    print(batch.summary())
    print(batch.stats.summary())
    if args.trace is not None:
        from repro.obs.export import write_trace

        path = write_trace(batch.trace, args.trace)
        print(f"trace: {len(batch.trace)} spans -> {path}")
    if batch.failed:
        print(f"{batch.failed} object(s) FAILED:", file=sys.stderr)
        for report in batch.failures:
            print(f"  {report.object_id}: {report.error}", file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Two profiling modes behind one subcommand:

    * **campaign** (``--lake``): run a seeded verify-batch campaign with
      per-span CPU stamping and print the per-stage self-time table
      plus collapsed-stack output (``--out`` writes it to a file
      instead — feed it straight to flamegraph tooling);
    * **sampler** (``repro profile -- <repro args>``): run any other
      repro subcommand in-process under the thread-sampling stack
      profiler and emit collapsed stacks with sample counts.
    """
    command = [a for a in args.cmd if a != "--"]
    if command and args.lake:
        print(
            "profile: use either --lake (campaign mode) or "
            "-- <command> (sampler mode), not both",
            file=sys.stderr,
        )
        return 2
    if command:
        from repro.obs.profile import sample_callable

        run = sample_callable(lambda: main(command))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(run.collapsed)
            print(
                f"profile: {run.samples} samples "
                f"every {run.interval * 1e3:g}ms -> {args.out}"
            )
        else:
            sys.stdout.write(run.collapsed)
        return run.exit_code
    if not args.lake:
        print(
            "profile: --lake (campaign mode) or -- <command> "
            "(sampler mode) is required",
            file=sys.stderr,
        )
        return 2
    system = _system_for(args).build_indexes()
    objects = _sample_objects(system, args.sample, args.seed, "profile")
    if objects is None:
        return 2
    batch = system.verify_batch(objects, profile=True)
    print(batch.profile.table())
    collapsed = batch.profile.collapsed(cpu=args.cpu)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(collapsed)
        print(f"collapsed stacks -> {args.out}")
    else:
        sys.stdout.write(collapsed)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServerThread, VerificationService

    lake = load_lake(args.lake)
    system = VerifAI(lake, config=VerifAIConfig())
    serve_config = ServeConfig(
        host=args.host,
        port=args.port,
        max_queue=args.queue,
    )
    service = VerificationService(system, serve_config)
    server = ServerThread(service).start()
    host, port = server.address
    print(f"serving {lake.name} on http://{host}:{port} (Ctrl-C to stop)")
    try:
        server.join()
    except KeyboardInterrupt:
        print("stopping")
        server.stop()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import load_trace, render_trace_json
    from repro.obs.render import render_tree

    try:
        payload = load_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(render_trace_json(payload))
    else:
        print(render_tree(payload))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import get_context
    from repro.experiments.report import render_experiment

    context = get_context(args.scale)
    print(render_experiment(args.name, context))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import Linter, render_json, render_text

    linter = Linter()
    root = Path(args.root) if args.root else Path.cwd()
    paths = [Path(p) for p in (args.paths or ["src/repro"])]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"repro-lint: no such path(s): {', '.join(map(str, missing))}")
        return 2
    run = linter.run_paths(paths, root=root)
    if args.json:
        print(render_json(run.findings, rules=linter.rules, files=run.files))
    else:
        print(render_text(run.findings))
    return 1 if run.findings else 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    # a fresh interpreter, so the measured modules are imported *under*
    # the tracer (the plugin starts tracing at import, before conftest
    # files pull in the repro package)
    import os
    import subprocess
    from pathlib import Path

    pytest_args = list(args.pytest_args)
    if pytest_args[:1] == ["--"]:
        pytest_args = pytest_args[1:]
    targets = args.target or ["src/repro/loop", "src/repro/repair.py"]
    package_root = str(Path(__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH", "")) if p
    )
    env["REPRO_COVERAGE_TARGETS"] = os.pathsep.join(targets)
    env["REPRO_COVERAGE_FLOOR"] = str(args.floor)
    command = [
        sys.executable, "-m", "pytest",
        "-p", "repro_coverage", *pytest_args,
    ]
    try:
        return subprocess.call(command, env=env)
    except OSError as exc:  # pragma: no cover - interpreter missing
        print(f"repro-coverage: {exc}", file=sys.stderr)
        return 2


def _cmd_orchestrate(args: argparse.Namespace) -> int:
    import json as json_module
    import os

    from repro.loop import DEFAULT_MIX, MixReport, run_scenario

    scenarios = list(DEFAULT_MIX)
    if args.scenario is not None:
        scenarios = [s for s in scenarios if s.name == args.scenario]
        if not scenarios:
            names = ", ".join(s.name for s in DEFAULT_MIX)
            print(
                f"unknown scenario {args.scenario!r}; choose from: {names}",
                file=sys.stderr,
            )
            return 2
    report = MixReport()
    for scenario in scenarios:
        result = run_scenario(scenario, max_iters=args.max_iters)
        report.results.append(result)
        if args.trail is not None:
            if len(scenarios) == 1:
                path = args.trail
            else:
                os.makedirs(args.trail, exist_ok=True)
                path = os.path.join(args.trail, f"{scenario.name}.jsonl")
            result.result.trail.write(path)
            if not args.json:
                print(f"wrote trail: {path}")
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    for result in report:
        print(f"{result.scenario.name}: {result.result.summary()}")
        for stats in result.result.rounds:
            print(
                f"  round {stats.round}: {stats.active} active -> "
                f"{stats.verified} verified, {stats.refuted} refuted, "
                f"{stats.unresolved} unresolved"
            )
    print(report.summary())
    return 0


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < minimum:
        raise argparse.ArgumentTypeError(
            f"must be >= {minimum}, got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    """argparse type of a count: a bad one is a usage error (exit 2)
    before any lake is loaded."""
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    """argparse type of a count that may be 0 (see _positive_int)."""
    return _int_at_least(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="VerifAI: verified generative AI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-lake", help="generate a synthetic lake")
    p.add_argument(
        "--tables", type=_non_negative_int, default=LakeConfig.num_tables
    )
    p.add_argument("--seed", type=int, default=LakeConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_lake)

    p = sub.add_parser("stats", help="print lake statistics")
    p.add_argument("--lake", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("verify-claim", help="verify a textual claim")
    p.add_argument("--lake", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--context", default="")
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=_cmd_verify_claim)

    p = sub.add_parser("verify-tuple", help="verify one imputed cell")
    p.add_argument("--lake", required=True)
    p.add_argument("--table-id", required=True)
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--column", required=True)
    p.add_argument("--value", required=True)
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=_cmd_verify_tuple)

    p = sub.add_parser(
        "verify-batch", help="verify a sampled batch of lake tuples"
    )
    p.add_argument("--lake", required=True)
    p.add_argument("--sample", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--fail-fast", action="store_true",
        help="abort on the first per-object fault instead of reporting it",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span trace of the campaign and write it to PATH "
             "(stable JSON; inspect with `repro trace PATH`)",
    )
    p.set_defaults(func=_cmd_verify_batch)

    p = sub.add_parser(
        "profile",
        help="profile a seeded campaign (--lake) or any repro "
             "subcommand (repro profile -- <args>)",
    )
    p.add_argument(
        "--lake", default=None,
        help="campaign mode: lake to sample a verify-batch from",
    )
    p.add_argument("--sample", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--cpu", action="store_true",
        help="campaign mode: emit CPU self time instead of wall time",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write collapsed stacks to PATH instead of stdout",
    )
    p.add_argument(
        "cmd", nargs=argparse.REMAINDER,
        help="sampler mode: a repro subcommand to run under the "
             "stack sampler (prefix with --)",
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "serve", help="run the verification service over a lake"
    )
    p.add_argument("--lake", required=True)
    p.add_argument("--host", default=ServeConfig.host)
    p.add_argument(
        "--port", type=int, default=ServeConfig.port,
        help="listen port (0 = pick a free one)",
    )
    p.add_argument(
        "--queue", type=_non_negative_int, default=ServeConfig.max_queue,
        help="requests allowed to wait while one verifies, before 429s",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "trace", help="render a trace file written by verify-batch --trace"
    )
    p.add_argument("file", help="trace JSON file")
    p.add_argument(
        "--json", action="store_true",
        help="re-emit the validated stable JSON instead of the tree",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("experiment", help="run one paper experiment")
    p.add_argument(
        "--name", required=True,
        choices=["headline", "table1", "table2", "figures", "ablations"],
    )
    p.add_argument("--scale", default="small")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "lint", help="run the repro-lint static analysis rules"
    )
    p.add_argument("paths", nargs="*", help="files/dirs (default: src/repro)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--root", default=None,
        help="directory findings paths are reported relative to",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "coverage",
        help="run pytest under the stdlib line-coverage tracer with a "
             "floor gate (repro coverage -- <pytest args>)",
    )
    p.add_argument(
        "--floor", type=float, default=0.9,
        help="minimum per-file line rate (0..1, default 0.9)",
    )
    p.add_argument(
        "--target", action="append", default=None, metavar="PATH",
        help="file or directory to measure (repeatable; default: "
             "src/repro/loop and src/repro/repair.py)",
    )
    p.add_argument(
        "pytest_args", nargs=argparse.REMAINDER,
        help="arguments after -- go to pytest verbatim",
    )
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser(
        "orchestrate",
        help="run the orchestrate-until-pass convergence campaign "
             "(default: the full seeded scenario mix)",
    )
    p.add_argument(
        "--scenario", default=None,
        help="run a single named scenario from the default mix",
    )
    p.add_argument("--max-iters", type=_positive_int, default=4)
    p.add_argument(
        "--trail", default=None, metavar="PATH",
        help="write the JSONL audit trail (a file for one scenario, a "
             "directory for a mix)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_orchestrate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
