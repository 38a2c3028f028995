"""Fire/quiet pairs for the concurrency rule and the pragma audit.

Each rule gets at least one fixture that must fire and one structurally
close fixture that must stay quiet — the quiet twin is what keeps the
rule honest about false positives.  IPC002 and META001 once needed the
whole-program project model; both now run in the one pass over each
file, so every fixture goes through the real linter.
"""

import pytest

from repro.analysis.linter import Linter


def findings_for(source, rule_id="IPC002", path="src/repro/m.py"):
    found = Linter().lint_source(source, path=path)
    return [f for f in found if f.rule_id == rule_id]


def under_lock(statement, params="", item="LOCK", header="def f"):
    """A module whose one function runs ``statement`` inside ``with
    item:``."""
    return (
        "import threading\n"
        "import time\n"
        "LOCK = threading.Lock()\n"
        f"{header}({params}):\n"
        f"    with {item}:\n"
        f"        {statement}\n"
    )


# ----------------------------------------------------------------------
# IPC002: blocking / injected code under a lock
# ----------------------------------------------------------------------
def test_ipc002_fires_on_sleep_and_injected_callable_under_lock():
    found = findings_for(
        "import threading\n"
        "import time\n"
        "LOCK = threading.Lock()\n"
        "def bad(callback):\n"
        "    with LOCK:\n"
        "        time.sleep(0.1)\n"
        "        callback()\n"
    )
    messages = sorted(f.message for f in found)
    assert len(found) == 2
    assert any("time.sleep" in m for m in messages)
    assert any("injected callable 'callback'" in m for m in messages)


def test_ipc002_fires_on_bare_result_wait_join():
    found = findings_for(
        "import threading\n"
        "LOCK = threading.Lock()\n"
        "def bad(future):\n"
        "    with LOCK:\n"
        "        return future.result()\n"
    )
    assert len(found) == 1
    assert "result" in found[0].message


def test_ipc002_quiet_outside_lock_and_for_str_join():
    found = findings_for(
        "import threading\n"
        "import time\n"
        "LOCK = threading.Lock()\n"
        "def fine(parts):\n"
        "    with LOCK:\n"
        "        joined = ', '.join(parts)\n"
        "    time.sleep(0)\n"
        "    return joined\n"
    )
    assert found == []


def test_ipc002_quiet_for_a_local_definition_and_a_deferred_call():
    # a call by the name of a function defined in the body runs that
    # definition, not an injected one; a lambda or def under the lock
    # runs later, on its own schedule
    found = findings_for(
        "import threading\n"
        "import time\n"
        "LOCK = threading.Lock()\n"
        "def fine(callback, pool):\n"
        "    def callback():\n"
        "        return 1\n"
        "    with LOCK:\n"
        "        callback()\n"
        "        pool.append(lambda: time.sleep(1))\n"
    )
    assert found == []


def test_ipc002_quiet_outside_a_function():
    found = findings_for(
        "import threading\n"
        "import time\n"
        "LOCK = threading.Lock()\n"
        "with LOCK:\n"
        "    time.sleep(0)\n"
        "class Holder:\n"
        "    with LOCK:\n"
        "        time.sleep(0)\n"
    )
    assert found == []


def test_ipc002_follows_import_aliases():
    found = findings_for(
        "import threading\n"
        "from time import sleep\n"
        "LOCK = threading.Lock()\n"
        "def bad():\n"
        "    with LOCK:\n"
        "        sleep(0.1)\n"
    )
    assert [f.line for f in found] == [6]
    assert "holding LOCK" in found[0].message


@pytest.mark.parametrize("call", [
    "worker.join()", "done.wait()", "future.result()",
])
def test_ipc002_fires_on_each_zero_argument_wait(call):
    found = findings_for(under_lock(call, params="worker, done, future"))
    assert len(found) == 1
    assert f"'{call[:-2]}'" in found[0].message


@pytest.mark.parametrize("call", [
    "worker.join(1.0)",
    "done.wait(timeout=1)",
    "future.result(0.5)",
    "sep.join(parts)",
])
def test_ipc002_quiet_when_the_wait_takes_an_argument(call):
    # a bounded wait, or str.join over an iterable, is not the cliff
    assert findings_for(under_lock(call, params="worker, done, future")) == []


@pytest.mark.parametrize("item", [
    "LOCK",
    "self._lock",
    "registry.lock",
    "self._ring_Lock",
    "open(path) as handle, self._lock",
])
def test_ipc002_a_lock_is_any_with_item_named_lock(item):
    found = findings_for(under_lock(
        "time.sleep(0.1)", params="self, registry, path", item=item,
    ))
    assert len(found) == 1
    held = item.rpartition(", ")[2]
    assert found[0].message.endswith(f"while holding {held}")


@pytest.mark.parametrize("item", [
    "open(path) as handle",
    "contextlib.suppress(KeyError)",
    "self._mutex",
    "span('verify')",
])
def test_ipc002_quiet_under_a_with_that_is_no_lock(item):
    assert findings_for(under_lock(
        "time.sleep(0.1)", params="self, path", item=item,
    )) == []


@pytest.mark.parametrize("params", [
    "factory",
    "factory, /",
    "*, factory",
    "self, factory",
    "*factory",
])
def test_ipc002_fires_on_every_kind_of_parameter(params):
    found = findings_for(under_lock("factory()", params=params))
    assert [f.message.split(" while")[0] for f in found] == [
        "call to injected callable 'factory'"
    ]


def test_ipc002_fires_in_an_async_function():
    found = findings_for(under_lock(
        "factory()", params="factory", header="async def f",
    ))
    assert len(found) == 1


def test_ipc002_quiet_for_a_method_of_a_parameter_and_a_module_function():
    # neither is a call of the injected name itself: the parameter's own
    # method and a function the module defines are known code
    found = findings_for(
        "import threading\n"
        "LOCK = threading.Lock()\n"
        "def helper():\n"
        "    return 1\n"
        "def f(callback):\n"
        "    with LOCK:\n"
        "        callback.run()\n"
        "        helper()\n"
    )
    assert found == []


def test_ipc002_reaches_into_blocks_nested_under_the_lock():
    found = findings_for(
        "import threading\n"
        "import time\n"
        "LOCK = threading.Lock()\n"
        "def f(items, ready):\n"
        "    with LOCK:\n"
        "        if ready:\n"
        "            for item in items:\n"
        "                try:\n"
        "                    time.sleep(item)\n"
        "                finally:\n"
        "                    pass\n"
    )
    assert [f.line for f in found] == [9]


@pytest.mark.parametrize("path", [
    "benchmarks/test_bench_lint.py", "bench_serve.py",
])
def test_ipc002_quiet_in_benchmark_files(path):
    source = under_lock("time.sleep(0.1)")
    assert len(findings_for(source)) == 1
    assert findings_for(source, path=path) == []


def test_ipc002_quiet_for_relative_imports_named_like_time():
    # a relative import never names the stdlib's time.sleep
    found = findings_for(
        "import threading\n"
        "from . import time\n"
        "from .clock import sleep\n"
        "LOCK = threading.Lock()\n"
        "def f():\n"
        "    with LOCK:\n"
        "        time.sleep(0.1)\n"
        "        sleep(0.1)\n"
    )
    assert found == []


def test_ipc002_finding_is_anchored_at_the_call():
    (found,) = findings_for(
        under_lock("total = 1 + time.sleep(0.1)"), path="src/repro/obs/x.py",
    )
    assert (found.path, found.line, found.col) == ("src/repro/obs/x.py", 6, 20)
    assert found.snippet == "total = 1 + time.sleep(0.1)"
    assert found.location() == "src/repro/obs/x.py:6:20"


# ----------------------------------------------------------------------
# META001: pragma liveness, audited against the file's raw findings
# ----------------------------------------------------------------------
def lint_source(tmp_path, source):
    target = tmp_path / "mod.py"
    target.write_text(source)
    return Linter().lint_paths([target], root=tmp_path)


def test_meta001_flags_stale_and_unknown_pragmas(tmp_path):
    found = lint_source(
        tmp_path,
        "live = list(set(items))  # repro-lint: disable=DET003\n"
        "stale = 1  # repro-lint: disable=DET003\n"
        "unknown = 2  # repro-lint: disable=NOPE001\n",
    )
    meta = [f for f in found if f.rule_id == "META001"]
    assert len(meta) == 2
    assert {f.line for f in meta} == {2, 3}
    assert any("stale pragma" in f.message for f in meta)
    assert any("unknown rule NOPE001" in f.message for f in meta)
    # the live pragma on line 1 both suppressed DET003 and stayed quiet
    assert not any(f.rule_id == "DET003" for f in found)


def test_meta001_flags_stale_file_pragma(tmp_path):
    found = lint_source(
        tmp_path,
        "# repro-lint: disable-file=DET003\n"
        "x = 1\n",
    )
    assert [f.rule_id for f in found] == ["META001"]
    assert "anywhere in this file" in found[0].message


def test_meta001_sees_suppressions_of_project_rule_findings(tmp_path):
    # a live pragma for IPC002 must NOT be reported stale: META001 is
    # the file's last pass and audits against every raw finding the
    # node visits raised
    found = lint_source(
        tmp_path,
        "import threading\n"
        "import time\n"
        "LOCK = threading.Lock()\n"
        "def pause():\n"
        "    with LOCK:\n"
        "        time.sleep(0.1)  # repro-lint: disable=IPC002\n",
    )
    assert not any(f.rule_id == "META001" for f in found)
    assert not any(f.rule_id == "IPC002" for f in found)


#: per rule, a module where the rule fires exactly once
FIRES = {
    "DET003": "ordered = list(set(items))\n",
    "CTR002": (
        "def tally(verdict, stats):\n"
        "    if verdict is Verdict.VERIFIED:\n"
        "        stats.support += 1\n"
        "    elif verdict is Verdict.REFUTED:\n"
        "        stats.against += 1\n"
    ),
    "CTR003": "def f(x):\n    return x == 0.5\n",
    "OBS001": "import time\nstart = time.perf_counter()\n",
    "IPC002": under_lock("time.sleep(0.1)"),
}


def test_every_rule_but_meta001_has_a_firing_module():
    from repro.analysis import all_rules

    assert sorted(FIRES) == sorted(
        rule.rule_id for rule in all_rules() if rule.rule_id != "META001"
    )


@pytest.mark.parametrize("rule_id", sorted(FIRES))
def test_meta001_keeps_a_live_pragma_of_every_rule(tmp_path, rule_id):
    (finding,) = [
        f for f in lint_source(tmp_path, FIRES[rule_id])
        if f.rule_id == rule_id
    ]
    lines = FIRES[rule_id].splitlines()
    lines[finding.line - 1] += f"  # repro-lint: disable={rule_id}"
    found = lint_source(tmp_path, "\n".join(lines) + "\n")
    assert [f.rule_id for f in found] == []


def test_meta001_reads_pragma_ids_case_insensitively(tmp_path):
    found = lint_source(
        tmp_path, "live = list(set(items))  # repro-lint: disable=det003\n",
    )
    assert found == []


def test_meta001_flags_only_the_stale_id_of_a_list(tmp_path):
    found = lint_source(
        tmp_path,
        "live = list(set(items))  # repro-lint: disable=DET003, CTR003\n",
    )
    assert [(f.rule_id, f.line) for f in found] == [("META001", 1)]
    assert "stale pragma: CTR003" in found[0].message


def test_meta001_knows_the_syntax_marker(tmp_path):
    # E001 is the engine's own id: a pragma naming it is stale, not
    # unknown
    found = lint_source(tmp_path, "x = 1  # repro-lint: disable=E001\n")
    assert [f.message for f in found] == [
        "stale pragma: E001 no longer fires on this line"
    ]


def test_meta001_does_not_audit_itself(tmp_path):
    found = lint_source(tmp_path, "x = 1  # repro-lint: disable=META001\n")
    assert found == []


def test_meta001_findings_obey_a_file_pragma(tmp_path):
    source = "x = 1  # repro-lint: disable=DET003\n"
    assert [f.rule_id for f in lint_source(tmp_path, source)] == ["META001"]
    found = lint_source(
        tmp_path, "# repro-lint: disable-file=META001\n" + source,
    )
    assert found == []
