"""Benchmark regression gate.

The acceptance bar: a synthetic 20% regression between two fixture
snapshots fails the gate (non-zero exit, regression named).
"""

import json

import pytest

from repro.obs.benchdiff import (
    BenchDiffError,
    compare_paths,
    diff_benchmarks,
    load_benchmarks,
)


def snapshot(**means):
    """A minimal pytest-benchmark payload with the given mean per name."""
    return {
        "benchmarks": [
            {
                "name": name.rsplit("::", 1)[-1],
                "fullname": name,
                "stats": {"mean": mean, "median": mean, "min": mean},
            }
            for name, mean in means.items()
        ],
    }


def write_snapshot(path, **means):
    path.write_text(json.dumps(snapshot(**means)), encoding="utf-8")
    return path


class TestLoad:
    def test_loads_fullname_to_stats(self, tmp_path):
        path = write_snapshot(tmp_path / "BENCH_x.json", **{"t::a": 0.5})
        table = load_benchmarks(path)
        assert table["t::a"]["mean"] == 0.5

    def test_rejects_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(BenchDiffError):
            load_benchmarks(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(BenchDiffError):
            load_benchmarks(bad)

    def test_rejects_non_benchmark_payload(self, tmp_path):
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"spans": []}), encoding="utf-8")
        with pytest.raises(BenchDiffError):
            load_benchmarks(wrong)


class TestDiff:
    def test_twenty_percent_regression_is_caught_at_default_threshold(
        self, tmp_path
    ):
        """The headline case: +20% mean versus a 15% threshold fails;
        the same pair passes a 25% threshold (noise tolerance)."""
        old = write_snapshot(
            tmp_path / "old.json", **{"t::fast": 0.10, "t::slow": 0.50}
        )
        new = write_snapshot(
            tmp_path / "new.json", **{"t::fast": 0.12, "t::slow": 0.50}
        )
        report = compare_paths(old, new, threshold_pct=15.0)
        assert not report.passed
        assert [d.fullname for d in report.regressions] == ["t::fast"]
        assert "t::fast" in report.table()
        assert "REGRESSION" in report.table()

        lenient = compare_paths(old, new, threshold_pct=25.0)
        assert lenient.passed

    def test_self_compare_passes_with_zero_delta(self, tmp_path):
        path = write_snapshot(tmp_path / "b.json", **{"t::a": 0.3})
        report = compare_paths(path, path)
        assert report.passed
        assert report.deltas[0].change_pct == pytest.approx(0.0)

    def test_improvements_never_fail_the_gate(self):
        deltas = diff_benchmarks(
            {"t::a": {"mean": 1.0}}, {"t::a": {"mean": 0.2}},
            threshold_pct=10.0,
        )
        assert deltas[0].status == "improved"

    def test_added_and_removed_are_informational(self):
        deltas = diff_benchmarks(
            {"t::gone": {"mean": 1.0}}, {"t::new": {"mean": 1.0}}
        )
        statuses = {d.fullname: d.status for d in deltas}
        assert statuses == {"t::gone": "removed", "t::new": "added"}

    def test_missing_metric_is_a_usage_error(self):
        with pytest.raises(BenchDiffError):
            diff_benchmarks(
                {"t::a": {"median": 1.0}}, {"t::a": {"median": 1.0}},
                metric="mean",
            )

    def test_negative_threshold_rejected(self):
        with pytest.raises(BenchDiffError):
            diff_benchmarks({}, {}, threshold_pct=-1)


class TestDirectories:
    def test_pairs_bench_files_by_name(self, tmp_path):
        old_dir = tmp_path / "old"
        new_dir = tmp_path / "new"
        old_dir.mkdir()
        new_dir.mkdir()
        write_snapshot(old_dir / "BENCH_a.json", **{"a::x": 0.1})
        write_snapshot(new_dir / "BENCH_a.json", **{"a::x": 0.5})
        # only on one side: ignored, not an error
        write_snapshot(new_dir / "BENCH_b.json", **{"b::y": 0.1})
        report = compare_paths(old_dir, new_dir, threshold_pct=25.0)
        assert [d.fullname for d in report.regressions] == ["a::x"]

    def test_no_common_files_is_an_error(self, tmp_path):
        old_dir = tmp_path / "old"
        new_dir = tmp_path / "new"
        old_dir.mkdir()
        new_dir.mkdir()
        with pytest.raises(BenchDiffError):
            compare_paths(old_dir, new_dir)

    def test_mixing_file_and_directory_is_an_error(self, tmp_path):
        path = write_snapshot(tmp_path / "BENCH_a.json", **{"a::x": 0.1})
        with pytest.raises(BenchDiffError):
            compare_paths(tmp_path, path)


class TestReportShapes:
    def test_to_dict_is_stable_json(self, tmp_path):
        old = write_snapshot(
            tmp_path / "old.json", **{"t::b": 0.2, "t::a": 0.1}
        )
        new = write_snapshot(
            tmp_path / "new.json", **{"t::a": 0.1, "t::b": 0.2}
        )
        payload = compare_paths(old, new).to_dict()
        names = [d["fullname"] for d in payload["deltas"]]
        assert names == sorted(names)
        once = json.dumps(payload, sort_keys=True)
        again = json.dumps(compare_paths(old, new).to_dict(), sort_keys=True)
        assert once == again
