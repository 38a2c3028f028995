"""``--smoke``: all five workloads, both passes, end to end."""

import json
import subprocess
import sys

from bench.measure import host_speed, now
from bench.spec import ROOT, declared, load_spec, workload_names


def test_smoke_runs_every_workload_and_emits_every_declared_metric(tmp_path):
    spec = load_spec()
    # 20 reference-host seconds: this host runs at half speed some hours
    limit = 20.0 / min(1.0, host_speed(5))
    start = now()
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = now() - start
    assert done.returncode == 0, done.stderr[-2000:]
    assert elapsed < limit, f"smoke took {elapsed:.1f} s of {limit:.1f}"

    for trace, name in ((False, "measured"), (True, "traced")):
        with open(tmp_path / f"results-{name}.json", encoding="utf-8") as f:
            results = json.load(f)
        assert results["smoke"] is True and results["pass"] == name
        assert set(results["stamp"]) >= {"commit", "nproc", "python", "numpy"}
        assert sorted(results["workloads"]) == sorted(workload_names(spec))
        wanted = declared(spec, trace)
        for workload, record in results["workloads"].items():
            assert record["correct"] is True, (workload, record["notes"])
            assert record["failed"] == 0 and record["attempted"] >= 1
            assert set(record["metrics"]) == set(wanted), workload
            for metric, body in record["metrics"].items():
                assert body["unit"] == wanted[metric]["unit"]
            if trace:
                assert (tmp_path / f"trace-{workload}.json").exists()
            else:
                assert all(
                    body["value"] > 0 for body in record["metrics"].values()
                ), (workload, record["metrics"])

    # every metric printed by name exactly once per workload and pass
    sections = ("\n" + done.stdout).split("\nworkload ")[1:]
    assert len(sections) == 2 * len(workload_names(spec))
    for section in sections:
        trace = "traced pass" in section.splitlines()[0]
        lines = [
            line.split()[0] for line in section.splitlines()[1:]
            if line.startswith("  ")
        ]
        for metric in declared(spec, trace):
            assert lines.count(metric) == 1, (section.splitlines()[0], metric)
