"""One pass of the whole benchmark: every workload in its own fresh
subprocess, collected into one stamped results document."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, Tuple

from bench.spec import ROOT, load_spec, pass_name, workload_names


def run_subprocess(
    workload: str, seed: int, seconds: float, trace: bool, out_dir: str,
    smoke: bool = False, echo: bool = True,
) -> Dict[str, object]:
    """Run one workload in a fresh interpreter; returns its result line
    merged with its digests and notes.  Raises ``RuntimeError`` when
    the run printed no result."""
    command = [
        sys.executable, "-m", "bench.run", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", "1" if trace else "0", "--out", out_dir,
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-2]), flush=True)
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{workload} ({pass_name(trace)}) exited {done.returncode} "
            f"without a result:\n{done.stderr[-2000:]}"
        )
    record = json.loads(lines[-1])
    record.update(json.loads(lines[-2]))
    return record


def run_pass(
    seed: int, seconds: float, trace: bool, out_dir: str,
    smoke: bool = False, echo: bool = True,
) -> Tuple[Dict[str, object], int]:
    """Every workload, one pass.  Returns the
    results document and an exit status: 1 when a workload printed no
    result or failed its output checks."""
    from bench.measure import host_stamp

    results: Dict[str, object] = {
        "stamp": host_stamp(ROOT),
        "seed": seed,
        "seconds": seconds,
        "pass": pass_name(trace),
        "smoke": smoke,
        "workloads": {},
    }
    status = 0
    for workload in workload_names(load_spec()):
        try:
            record = run_subprocess(
                workload, seed, seconds, trace, out_dir, smoke=smoke,
                echo=echo,
            )
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            status = 1
            continue
        results["workloads"][workload] = record
        if not record["correct"]:
            print(
                f"bench: {workload} ({pass_name(trace)}) failed its "
                f"output checks: {record['notes'].get('failures')}",
                file=sys.stderr,
            )
            status = 1
    return results, status


def write_results(results: Dict[str, object], path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
