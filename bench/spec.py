"""``BENCHMARK.json`` (the declaration every run is checked against)
and where the program under test lives."""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BASELINE_PATH = os.path.join(ROOT, "bench", "baseline.json")


def load_spec() -> Dict[str, object]:
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(spec: Dict[str, object]) -> List[str]:
    return [entry["name"] for entry in spec["workloads"]]


def declared(spec: Dict[str, object], trace: bool) -> Dict[str, Dict]:
    """name -> declaration of the metrics one pass must print."""
    section = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry for entry in spec[section]}


def pass_name(trace: bool) -> str:
    return "traced" if trace else "measured"


#: numpy's BLAS runs on one thread, here and in the server serve_mix
#: spawns (set before numpy is first imported).  On a 2-core host
#: OpenBLAS's spinning worker thread competes with the interpreter: the
#: identical first campaign of campaign_full took 620-1180 ms over
#: eight runs with two BLAS threads and 690-870 ms with one, at the
#: same median throughput and 40% less CPU.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def import_program() -> None:
    """Put ``src/`` on ``sys.path`` (and on ``PYTHONPATH``, for the
    server process of ``serve_mix``) and pin BLAS to one thread; exit 2
    where there is no program to measure."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"bench: no program to measure: {SRC}/repro is missing",
            file=sys.stderr,
        )
        raise SystemExit(2)
    os.environ.update(BLAS_THREADS)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        SRC + os.pathsep + inherited if inherited else SRC
    )
