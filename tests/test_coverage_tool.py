"""The stdlib line-coverage tracer behind ``make coverage``."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro_coverage import (
    COVERAGE_EXIT_STATUS,
    ENV_FLOOR,
    ENV_TARGETS,
    CoverageReport,
    FileCoverage,
    LineTracer,
    executable_lines,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def sample_module(tmp_path):
    path = tmp_path / "sample_mod.py"
    path.write_text(textwrap.dedent(
        """
        CONSTANT = 1


        def covered(x):
            return x + CONSTANT


        def uncovered(x):
            if x > 0:
                return -x
            return x


        def excluded():  # pragma: no cover
            raise RuntimeError("never measured")
        """
    ).lstrip())
    return path


class TestExecutableLines:
    def test_discovers_module_and_function_lines(self, sample_module):
        lines = executable_lines(str(sample_module))
        source = sample_module.read_text().splitlines()
        for number, text in enumerate(source, start=1):
            if "CONSTANT = 1" in text or "return x + CONSTANT" in text:
                assert number in lines

    def test_pragma_excludes_the_whole_statement_span(self, sample_module):
        lines = executable_lines(str(sample_module))
        source = sample_module.read_text().splitlines()
        for number, text in enumerate(source, start=1):
            if "pragma" in text or "never measured" in text:
                assert number not in lines

    def test_missing_target_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not found"):
            LineTracer([str(tmp_path / "nope.py")])


class TestLineTracer:
    def _run_sample(self, sample_module, exercise):
        tracer = LineTracer([str(sample_module)])
        namespace = {}
        with tracer:
            code = compile(
                sample_module.read_text(), str(sample_module), "exec"
            )
            exec(code, namespace)  # module-level lines run under trace
            exercise(namespace)
        return tracer.report()

    def test_covered_lines_are_counted(self, sample_module):
        report = self._run_sample(
            sample_module, lambda ns: ns["covered"](1)
        )
        [entry] = report.files
        assert entry.executable > 0
        assert 0.0 < entry.rate < 1.0
        source = sample_module.read_text().splitlines()
        body = next(
            n for n, t in enumerate(source, 1) if "return x + CONSTANT" in t
        )
        assert body not in entry.missing

    def test_unexercised_branches_are_missing(self, sample_module):
        report = self._run_sample(
            sample_module, lambda ns: ns["uncovered"](5)
        )
        [entry] = report.files
        source = sample_module.read_text().splitlines()
        negative = next(
            n for n, t in enumerate(source, 1)
            if t.strip() == "return x"
        )
        assert negative in entry.missing

    def test_directory_targets_expand(self, sample_module):
        tracer = LineTracer([str(sample_module.parent)])
        report = tracer.report()
        assert [Path(f.path).name for f in report.files] == [
            "sample_mod.py"
        ]

    def test_double_start_rejected(self, sample_module):
        tracer = LineTracer([str(sample_module)])
        with tracer:
            with pytest.raises(RuntimeError, match="already started"):
                tracer.start()
        tracer.stop()  # idempotent after exit


class TestReport:
    def _report(self, rate_a, rate_b):
        return CoverageReport(files=[
            FileCoverage("a.py", 10, int(10 * rate_a),
                         list(range(int(10 * rate_a), 10))),
            FileCoverage("b.py", 10, int(10 * rate_b),
                         list(range(int(10 * rate_b), 10))),
        ])

    def test_below_floor_lists_offenders(self):
        report = self._report(1.0, 0.5)
        assert [f.path for f in report.below(0.9)] == ["b.py"]
        assert report.rate == 0.75

    def test_empty_file_counts_as_fully_covered(self):
        assert FileCoverage("e.py", 0, 0, []).rate == 1.0

    def test_render_has_total_line(self):
        text = self._report(1.0, 0.5).render(root="/")
        assert "TOTAL" in text
        assert "75.0%" in text


class TestPluginGate:
    """End-to-end: the -p repro_coverage pytest plugin in a fresh
    interpreter, floor pass and floor fail."""

    def _run(self, tmp_path, floor):
        test_dir = tmp_path / "suite"
        test_dir.mkdir()
        target = test_dir / "half_mod.py"
        target.write_text(textwrap.dedent(
            """
            def hit():
                return 1


            def missed():
                return 2
            """
        ).lstrip())
        (test_dir / "test_half.py").write_text(textwrap.dedent(
            """
            import half_mod


            def test_hit():
                assert half_mod.hit() == 1
            """
        ).lstrip())
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(test_dir)]
        )
        env[ENV_TARGETS] = str(target)
        env[ENV_FLOOR] = str(floor)
        return subprocess.run(
            [
                sys.executable, "-m", "pytest",
                "-p", "repro_coverage", "-q", "-p", "no:cacheprovider",
                str(test_dir),
            ],
            env=env, capture_output=True, text=True, cwd=str(tmp_path),
        )

    def test_floor_met_exits_clean(self, tmp_path):
        result = self._run(tmp_path, floor=0.5)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "repro-coverage: line coverage" in result.stdout

    def test_floor_missed_fails_the_session(self, tmp_path):
        result = self._run(tmp_path, floor=0.95)
        assert result.returncode == COVERAGE_EXIT_STATUS, (
            result.stdout + result.stderr
        )
        assert "repro-coverage: FAIL" in result.stdout
