"""Per-rule fixtures for repro-lint.

Every per-file rule gets minimal offending snippets that must fire and
clean snippets that must stay quiet, so a rule regression — either
silenced or newly noisy — fails tier-1.  The defects each rule caught
in this tree's history are replayed in tests/test_analysis_corpus.py.
"""

import ast
import json
import textwrap

from repro.analysis import Linter, all_rules, render_json, render_text
from repro.analysis.linter import Finding, Rule


def findings_for(source, rule_id=None, path="<string>"):
    result = Linter().lint_source(textwrap.dedent(source), path=path)
    if rule_id is not None:
        return [f for f in result if f.rule_id == rule_id]
    return result


def assert_fires(source, rule_id, count=1, path="<string>"):
    found = findings_for(source, rule_id, path=path)
    assert len(found) == count, (
        f"{rule_id}: expected {count} finding(s), got "
        f"{[f.message for f in found]}"
    )
    return found


def assert_quiet(source, rule_id, path="<string>"):
    found = findings_for(source, rule_id, path=path)
    assert found == [], f"{rule_id} fired on clean code: {found[0].message}"


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
def test_syntax_error_is_reported_not_raised():
    found = findings_for("def broken(:\n")
    assert [f.rule_id for f in found] == ["E001"]


class _EveryName(Rule):
    """Fires on each ``Name`` load; its audit reports how many raw
    findings it was shown."""

    rule_id = "TST001"
    node_types = (ast.Name,)

    def visit(self, node, ctx):
        yield self.finding(ctx, node, node.id)

    def audit(self, ctx, raw):
        yield Finding("TST002", ctx.rel_path, 1, 0, f"saw {len(raw)}")


def test_the_audit_pass_sees_suppressed_raw_findings():
    found = Linter(rules=[_EveryName()]).lint_source(
        "a = b  # repro-lint: disable=TST001\nc = d\n"
    )
    # four names raised four raw findings; the pragma then dropped the
    # two on line 1, after the audit had seen them
    assert [(f.rule_id, f.line, f.message) for f in found] == [
        ("TST002", 1, "saw 4"), ("TST001", 2, "c"), ("TST001", 2, "d"),
    ]


def test_a_linter_runs_only_the_rules_it_is_given():
    source = (
        "ordered = list(set(items))\n"
        "def f(x):\n"
        "    return x == 0.5\n"
    )
    assert {f.rule_id for f in findings_for(source)} == {"DET003", "CTR003"}
    (det003,) = [rule for rule in all_rules() if rule.rule_id == "DET003"]
    found = Linter(rules=[det003]).lint_source(source)
    assert [f.rule_id for f in found] == ["DET003"]
    assert Linter(rules=[]).lint_source(source) == []


def test_run_paths_counts_files_and_skips_caches(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("ordered = list(set(items))\n")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("list(set(items))\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "c.py").write_text(
        "ordered = list(set(items))\n"
    )
    run = Linter().run_paths([tmp_path], root=tmp_path)
    assert run.files == 2
    assert [f.location() for f in run.findings] == ["pkg/a.py:1:10"]


def test_run_paths_agrees_with_lint_source_file_by_file(tmp_path):
    sources = {
        "b.py": "import time\nstart = time.perf_counter()\n",
        "a.py": "ordered = list(set(items))  # repro-lint: disable=CTR003\n",
        "c.py": "def broken(:\n",
    }
    expected = []
    for name, source in sources.items():
        (tmp_path / name).write_text(source)
        expected += Linter().lint_source(source, path=name)
    run = Linter().run_paths([tmp_path], root=tmp_path)
    assert run.findings == sorted(
        expected, key=lambda f: (f.path, f.line, f.col, f.rule_id)
    )
    assert [f.rule_id for f in run.findings] == [
        "META001", "DET003", "OBS001", "E001",
    ]


def test_lint_paths_takes_a_single_file_under_its_relative_path(tmp_path):
    (tmp_path / "src").mkdir()
    target = tmp_path / "src" / "broken.py"
    target.write_text("x = 1\ndef broken(:\n")
    (found,) = Linter().lint_paths([target], root=tmp_path)
    assert (found.rule_id, found.path, found.line) == (
        "E001", "src/broken.py", 2,
    )
    # outside the root the path is kept as given
    (found,) = Linter().lint_paths([target], root=tmp_path / "elsewhere")
    assert found.path == str(target)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_det003_set_iteration_fires():
    assert_fires(
        "def f(items, out):\n    for x in set(items):\n        out.append(x)\n",
        "DET003",
    )
    assert_fires("values = [x for x in {1, 2, 3}]\n", "DET003")
    assert_fires("ordered = list(set(items))\n", "DET003")


def test_det003_sorted_set_is_quiet():
    assert_quiet(
        "def f(items, out):\n"
        "    for x in sorted(set(items)):\n"
        "        out.append(x)\n",
        "DET003",
    )
    assert_quiet("n = len(set(items))\n", "DET003")


# ----------------------------------------------------------------------
# contracts
# ----------------------------------------------------------------------
def test_ctr002_nonexhaustive_if_chain_fires():
    found = assert_fires(
        "def tally(verdict, stats):\n"
        "    if verdict is Verdict.VERIFIED:\n"
        "        stats.support += 1\n"
        "    elif verdict is Verdict.REFUTED:\n"
        "        stats.against += 1\n",
        "CTR002",
    )
    assert "NOT_RELATED" in found[0].message


def test_ctr002_nonexhaustive_match_fires():
    assert_fires(
        "def tally(verdict, stats):\n"
        "    match verdict:\n"
        "        case Verdict.VERIFIED:\n"
        "            stats.support += 1\n"
        "        case Verdict.REFUTED:\n"
        "            stats.against += 1\n",
        "CTR002",
    )


def test_ctr002_exhaustive_dispatches_are_quiet():
    assert_quiet(
        "def tally(verdict, stats):\n"
        "    if verdict is Verdict.VERIFIED:\n"
        "        stats.support += 1\n"
        "    elif verdict is Verdict.REFUTED:\n"
        "        stats.against += 1\n"
        "    else:\n"
        "        stats.abstain += 1\n",
        "CTR002",
    )
    assert_quiet(
        "def tally(verdict, stats):\n"
        "    match verdict:\n"
        "        case Verdict.VERIFIED:\n"
        "            stats.support += 1\n"
        "        case _:\n"
        "            stats.other += 1\n",
        "CTR002",
    )
    # a single membership test is a gate, not a dispatch
    assert_quiet(
        "def gate(verdict):\n"
        "    if verdict is Verdict.NOT_RELATED:\n"
        "        return None\n"
        "    return verdict\n",
        "CTR002",
    )


def test_ctr003_float_equality_fires():
    assert_fires("def f(x):\n    return x == 0.5\n", "CTR003")
    # one-step inference: a division result is a float
    assert_fires(
        "def f(a, b):\n    score = a / b\n    return score == 0\n", "CTR003"
    )
    # fixed point over a short assignment chain
    assert_fires(
        "def f(votes):\n"
        "    support = 0.0\n"
        "    total = support + len(votes)\n"
        "    return total == 0\n",
        "CTR003",
    )


def test_ctr003_int_equality_and_inequalities_are_quiet():
    assert_quiet("def f(count):\n    return count == 3\n", "CTR003")
    assert_quiet("def f(score):\n    return score >= 0.5\n", "CTR003")
    assert_quiet(
        "def f(a, b):\n    score = a / b\n    return score <= 0.0\n", "CTR003"
    )


# ----------------------------------------------------------------------
# pragmas, reporters
# ----------------------------------------------------------------------
def test_line_pragma_suppresses_single_finding():
    source = (
        "a = list(set(items))  # repro-lint: disable=DET003\n"
        "b = list(set(items))\n"
    )
    found = findings_for(source, "DET003")
    assert len(found) == 1 and found[0].line == 2


def test_file_pragma_suppresses_everywhere():
    source = (
        "# repro-lint: disable-file=DET003\n"
        "a = list(set(items))\n"
        "b = list(set(items))\n"
    )
    assert findings_for(source, "DET003") == []


def test_render_text_and_json():
    found = findings_for("a = list(set(items))\n")
    text = render_text(found)
    assert "DET003" in text and "<string>:" in text
    payload = json.loads(render_json(found, rules=all_rules()))
    assert payload["count"] == len(found)
    assert any(rule["id"] == "DET003" for rule in payload["rules"])
    assert payload["findings"][0]["line"] == 1
    assert render_text([]) == "repro-lint: clean"


def test_findings_are_sorted_and_carry_snippets():
    source = (
        "b = list(set(items))\nimport time\nstamp = time.perf_counter()\n"
    )
    found = findings_for(source)
    assert [f.rule_id for f in found] == ["DET003", "OBS001"]
    assert [f.line for f in found] == sorted(f.line for f in found)
    assert found[0].snippet == "b = list(set(items))"


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_obs001_direct_clock_read_fires():
    assert_fires("import time\nstart = time.perf_counter()\n", "OBS001")
    assert_fires("import time\nstart = time.monotonic()\n", "OBS001")
    assert_fires("import time\nns = time.perf_counter_ns()\n", "OBS001")


def test_obs001_quiet_in_clock_module_and_benchmarks():
    source = "import time\nstart = time.perf_counter()\n"
    assert_quiet(source, "OBS001", path="src/repro/obs/clock.py")
    assert_quiet(source, "OBS001", path="benchmarks/test_bench_lint.py")


def test_obs001_quiet_on_injected_clock():
    assert_quiet(
        "def timed(clock):\n    return clock.now()\n", "OBS001"
    )
    assert_quiet("import time\ntime.sleep(0.1)\n", "OBS001")


def test_obs001_fires_on_thread_time():
    assert_fires("import time\ncpu = time.thread_time()\n", "OBS001")
    assert_fires("import time\nns = time.thread_time_ns()\n", "OBS001")
    # the clock module is the seam: thread_time is allowed there
    assert_quiet(
        "import time\ncpu = time.thread_time()\n",
        "OBS001", path="src/repro/obs/clock.py",
    )
