"""Command-line interface.

Subcommands::

    repro build-lake  --tables 300 --seed 0 --out lake.json
    repro stats       --lake lake.json
    repro verify-claim --lake lake.json --text "..." [--context "..."]
    repro verify-tuple --lake lake.json --table-id T --row 0 \
                       --column votes --value "123,456"
    repro verify-batch --lake lake.json --sample 50 --workers 4 \
                       [--trace out.json]
    repro profile     --lake lake.json --sample 50 [--out stacks.txt]
    repro profile     -- verify-batch --lake lake.json --sample 20
    repro trace       out.json [--json]
    repro serve       --lake lake.json [--port 8080] [--concurrency 4]
                      [--queue 16] [--demo N]
    repro discover    --lake lake.json --query "..." [--modality text]
    repro experiment  --name table1 [--scale small]
    repro lint        [--json] [--baseline lint_baseline.json]
                      [--changed] [--cache] [paths...]
    repro sanitize    -- [pytest args...]
    repro coverage    [--floor 0.9] [--target PATH ...] -- [pytest args...]
    repro orchestrate [--scenario NAME] [--max-iters 4] [--workers 1]
                      [--trail PATH] [--json]

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
from repro.datalake.types import Modality
from repro.verify.objects import TupleObject
from repro.workloads.builder import LakeConfig, build_lake


def _cmd_build_lake(args: argparse.Namespace) -> int:
    bundle = build_lake(LakeConfig(num_tables=args.tables, seed=args.seed))
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
    print(f"kg entities: {stats.num_kg_entities}")
    print(f"sources:     {stats.num_sources}")
    return 0


def _system_for(args: argparse.Namespace) -> VerifAI:
    """The system over ``--lake``, unbuilt: a one-object command's
    campaign builds only the modalities it reads."""
    lake = load_lake(args.lake)
    config = VerifAIConfig(num_shards=getattr(args, "shards", 1))
    return VerifAI(lake, config=config)


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
        max_workers=args.workers,
        fail_fast=args.fail_fast,
        max_retries=args.retries,
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

        run = sample_callable(
            lambda: main(command), interval=args.interval
        )
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
    batch = system.verify_batch(
        objects, max_workers=args.workers, profile=True
    )
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
    from repro.serve import (
        LoadGenerator,
        ServeConfig,
        ServerThread,
        VerificationService,
        build_request_mix,
        mix_digest,
    )

    lake = load_lake(args.lake)
    system = VerifAI(lake, config=VerifAIConfig(num_shards=args.shards))
    serve_config = ServeConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.concurrency,
        max_queue=args.queue,
    )
    service = VerificationService(system, serve_config)
    if args.demo:
        # start, replay a seeded mix against ourselves, report, stop —
        # the smoke path `make serve-demo` runs
        with ServerThread(service) as server:
            host, port = server.address
            print(f"serving {lake.name} on http://{host}:{port}")
            mix = build_request_mix(lake, args.demo, seed=args.seed)
            print(f"demo mix: {args.demo} requests, digest {mix_digest(mix)}")
            report = LoadGenerator(host, port).run_closed(
                mix, clients=min(4, args.demo)
            )
            print(report.summary())
        print("stopped")
        return 0
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


def _cmd_discover(args: argparse.Namespace) -> int:
    from repro.discovery.crossmodal import CrossModalIndex

    lake = load_lake(args.lake)
    index = CrossModalIndex(lake).build()
    modalities = None
    if args.modality:
        modalities = [Modality(args.modality)]
    for hit in index.search(args.query, k=args.k, modalities=modalities):
        print(f"{hit.score:6.3f}  [{hit.modality.value:9s}] {hit.instance_id}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import get_context
    from repro.experiments.report import render_experiment

    context = get_context(args.scale)
    print(render_experiment(args.name, context))
    return 0


def _changed_paths(root) -> Optional[set]:
    """Repo-relative ``.py`` paths touched per git (staged, unstaged,
    and untracked); None when git is unavailable."""
    import subprocess

    changed: set = set()
    ran_any = False
    for cmd in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            result = subprocess.run(
                cmd, cwd=root, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            continue
        ran_any = True
        changed.update(
            line.strip()
            for line in result.stdout.splitlines()
            if line.strip()
        )
    if not ran_any:
        return None
    return {p for p in changed if p.endswith(".py")}


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        Baseline,
        Linter,
        ParseCache,
        known_rule_ids,
        render_json,
        render_text,
    )

    linter = Linter()
    root = Path(args.root) if args.root else Path.cwd()
    paths = [Path(p) for p in (args.paths or ["src/repro"])]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"repro-lint: no such path(s): {', '.join(map(str, missing))}")
        return 2
    cache = None
    if args.cache:
        cache = ParseCache(Path(args.cache_file), linter.cache_signature())
    changed = None
    if args.changed:
        changed = _changed_paths(root)
        if changed is None:
            print(
                "repro-lint: --changed needs git; linting everything",
                file=sys.stderr,
            )
    run = linter.run_paths(paths, root=root, cache=cache, changed=changed)
    findings = run.findings

    if args.write_baseline:
        Baseline.from_findings(findings, rules=known_rule_ids()).save(
            args.write_baseline
        )
        print(
            f"repro-lint: wrote {len(findings)} finding(s) to "
            f"{args.write_baseline}"
        )
        return 0

    suppressed = 0
    baseline_path = args.baseline
    if baseline_path is None and Path("lint_baseline.json").is_file():
        baseline_path = "lint_baseline.json"
    if baseline_path:
        baseline = Baseline.load(baseline_path)
        stale = baseline.stale_rules(known_rule_ids())
        if stale:
            print(
                f"repro-lint: baseline references unknown rule(s): "
                f"{', '.join(stale)} (rewrite with --write-baseline)",
                file=sys.stderr,
            )
        findings, suppressed = baseline.filter(findings)
    all_rules_for_report = sorted(
        [*linter.rules, *linter.project_rules], key=lambda r: r.rule_id
    )
    if args.json:
        print(
            render_json(
                findings,
                rules=all_rules_for_report,
                suppressed=suppressed,
                run=run,
            )
        )
    else:
        print(render_text(findings, suppressed=suppressed))
    return 1 if findings else 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    # a fresh interpreter, so the plugin's pytest_configure patches the
    # lock factories before any repro module (and its module-level
    # locks) is imported
    import os
    import subprocess
    from pathlib import Path

    pytest_args = list(args.pytest_args)
    if pytest_args[:1] == ["--"]:
        pytest_args = pytest_args[1:]
    package_root = str(Path(__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH", "")) if p
    )
    command = [
        sys.executable, "-m", "pytest",
        "-p", "repro.analysis.sanitizer", *pytest_args,
    ]
    try:
        return subprocess.call(command, env=env)
    except OSError as exc:  # pragma: no cover - interpreter missing
        print(f"repro-sanitize: {exc}", file=sys.stderr)
        return 2


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
        result = run_scenario(
            scenario, max_iters=args.max_iters, max_workers=args.workers
        )
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
    p.add_argument("--tables", type=_non_negative_int, default=300)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument(
        "--shards", type=_positive_int, default=1,
        help="index shard count (1 = monolithic; results are identical)",
    )
    p.set_defaults(func=_cmd_verify_claim)

    p = sub.add_parser("verify-tuple", help="verify one imputed cell")
    p.add_argument("--lake", required=True)
    p.add_argument("--table-id", required=True)
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--column", required=True)
    p.add_argument("--value", required=True)
    p.add_argument("--explain", action="store_true")
    p.add_argument(
        "--shards", type=_positive_int, default=1,
        help="index shard count (1 = monolithic; results are identical)",
    )
    p.set_defaults(func=_cmd_verify_tuple)

    p = sub.add_parser(
        "verify-batch", help="verify a sampled batch of lake tuples"
    )
    p.add_argument("--lake", required=True)
    p.add_argument("--sample", type=_positive_int, default=20)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--fail-fast", action="store_true",
        help="abort on the first per-object fault instead of reporting it",
    )
    p.add_argument(
        "--retries", type=_non_negative_int, default=None, metavar="N",
        help="extra attempts per faulted object "
             "(default: config batch_max_retries)",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span trace of the campaign and write it to PATH "
             "(stable JSON; inspect with `repro trace PATH`)",
    )
    p.add_argument(
        "--shards", type=_positive_int, default=1,
        help="index shard count (1 = monolithic; results are identical)",
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
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--cpu", action="store_true",
        help="campaign mode: emit CPU self time instead of wall time",
    )
    p.add_argument(
        "--interval", type=float, default=0.005,
        help="sampler mode: seconds between stack samples",
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
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 = pick a free one)",
    )
    p.add_argument(
        "--concurrency", type=_positive_int, default=4,
        help="verifies in flight at once (admission semaphore width)",
    )
    p.add_argument(
        "--queue", type=_non_negative_int, default=16,
        help="requests allowed to wait for a slot before 429s",
    )
    p.add_argument(
        "--demo", type=int, default=0, metavar="N",
        help="serve, replay N seeded requests against ourselves, "
             "print the load report, and exit",
    )
    p.add_argument("--seed", type=int, default=0, help="demo mix seed")
    p.add_argument(
        "--shards", type=_positive_int, default=1,
        help="index shard count (1 = monolithic; results are identical)",
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

    p = sub.add_parser("discover", help="cross-modal discovery query")
    p.add_argument("--lake", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument(
        "--modality", choices=[m.value for m in Modality], default=None
    )
    p.set_defaults(func=_cmd_discover)

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
        "--baseline", default=None,
        help="baseline file (default: ./lint_baseline.json if present)",
    )
    p.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        help="write current findings as the new baseline and exit 0",
    )
    p.add_argument(
        "--root", default=None,
        help="directory findings paths are reported relative to",
    )
    p.add_argument(
        "--changed", action="store_true",
        help="report findings only for git-changed files (the "
             "whole-program phase still analyzes the full tree)",
    )
    p.add_argument(
        "--cache", action="store_true",
        help="reuse per-file results for files unchanged since the "
             "last --cache run (hit/miss counters appear in --json)",
    )
    p.add_argument(
        "--cache-file", default=".repro-lint-cache", metavar="PATH",
        help="where the parse cache lives (default: .repro-lint-cache)",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "sanitize",
        help="run pytest under the lockset race sanitizer "
             "(repro sanitize -- <pytest args>)",
    )
    p.add_argument(
        "pytest_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to pytest (prefix with --)",
    )
    p.set_defaults(func=_cmd_sanitize)

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
        "--workers", type=_positive_int, default=1,
        help="verify_batch workers (the trail bytes do not depend on this)",
    )
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
