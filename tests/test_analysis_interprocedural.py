"""Fire/quiet pairs for the whole-program rules.

Each rule gets at least one fixture that must fire and one structurally
close fixture that must stay quiet — the quiet twin is what keeps the
conservative analyses honest about false positives.
"""

from pathlib import Path

from repro.analysis.linter import Linter
from repro.analysis.project import Project
from repro.analysis.rules.interprocedural import (
    BlockingUnderLock,
    EscapedLazyInit,
)


def findings_for(rule_cls, sources):
    project = Project.from_sources(sources)
    return list(rule_cls().visit_project(project))


# ----------------------------------------------------------------------
# IPC002: blocking / injected code under a lock
# ----------------------------------------------------------------------
def test_ipc002_fires_on_sleep_and_injected_callable_under_lock():
    found = findings_for(BlockingUnderLock, {
        "src/repro/m.py": (
            "import threading\n"
            "import time\n"
            "LOCK = threading.Lock()\n"
            "def bad(callback):\n"
            "    with LOCK:\n"
            "        time.sleep(0.1)\n"
            "        callback()\n"
        ),
    })
    messages = sorted(f.message for f in found)
    assert len(found) == 2
    assert any("time.sleep" in m for m in messages)
    assert any("injected callable 'callback'" in m for m in messages)


def test_ipc002_fires_on_bare_result_wait_join():
    found = findings_for(BlockingUnderLock, {
        "src/repro/m.py": (
            "import threading\n"
            "LOCK = threading.Lock()\n"
            "def bad(future):\n"
            "    with LOCK:\n"
            "        return future.result()\n"
        ),
    })
    assert len(found) == 1
    assert "result" in found[0].message


def test_ipc002_quiet_outside_lock_and_for_str_join():
    found = findings_for(BlockingUnderLock, {
        "src/repro/m.py": (
            "import threading\n"
            "import time\n"
            "LOCK = threading.Lock()\n"
            "def fine(parts):\n"
            "    with LOCK:\n"
            "        joined = ', '.join(parts)\n"
            "    time.sleep(0)\n"
            "    return joined\n"
        ),
    })
    assert found == []


# ----------------------------------------------------------------------
# IPE001: escaped lazy initialization
# ----------------------------------------------------------------------
_RACY_CACHE = (
    "from concurrent.futures import ThreadPoolExecutor\n"
    "class Cache:\n"
    "    def __init__(self):\n"
    "        self._data = None\n"
    "    def get(self):\n"
    "        if self._data is None:\n"
    "            self._data = [1]\n"
    "        return self._data\n"
    "def run(cache):\n"
    "    with ThreadPoolExecutor() as pool:\n"
    "        pool.submit(cache.get)\n"
)


def test_ipe001_fires_on_unlocked_lazy_init_reachable_from_pool():
    found = findings_for(EscapedLazyInit, {"src/repro/m.py": _RACY_CACHE})
    assert len(found) == 1
    finding = found[0]
    assert finding.rule_id == "IPE001"
    assert "self._data" in finding.message
    assert "thread entry" in finding.message


def test_ipe001_fires_on_guard_return_form():
    source = _RACY_CACHE.replace(
        "        if self._data is None:\n"
        "            self._data = [1]\n"
        "        return self._data\n",
        "        if self._data is not None:\n"
        "            return self._data\n"
        "        self._data = [1]\n"
        "        return self._data\n",
    )
    found = findings_for(EscapedLazyInit, {"src/repro/m.py": source})
    assert len(found) == 1


def test_ipe001_fires_on_module_global_dict_fill():
    found = findings_for(EscapedLazyInit, {
        "src/repro/m.py": (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "_CACHE = {}\n"
            "def lookup(key):\n"
            "    if key not in _CACHE:\n"
            "        _CACHE[key] = key.upper()\n"
            "    return _CACHE[key]\n"
            "def run(keys):\n"
            "    with ThreadPoolExecutor() as pool:\n"
            "        list(pool.map(lookup, keys))\n"
        ),
    })
    assert len(found) == 1
    assert "_CACHE" in found[0].message


def test_ipe001_quiet_when_write_is_under_a_lock():
    source = _RACY_CACHE.replace(
        "    def __init__(self):\n"
        "        self._data = None\n",
        "    def __init__(self):\n"
        "        self._data = None\n"
        "        self._lock = __import__('threading').Lock()\n",
    ).replace(
        "        if self._data is None:\n"
        "            self._data = [1]\n",
        "        if self._data is None:\n"
        "            with self._lock:\n"
        "                if self._data is None:\n"
        "                    self._data = [1]\n",
    )
    found = findings_for(EscapedLazyInit, {"src/repro/m.py": source})
    assert found == []


def test_ipe001_quiet_when_not_reachable_from_a_thread_entry():
    source = _RACY_CACHE.replace(
        "def run(cache):\n"
        "    with ThreadPoolExecutor() as pool:\n"
        "        pool.submit(cache.get)\n",
        "def run(cache):\n"
        "    return cache.get()\n",
    )
    found = findings_for(EscapedLazyInit, {"src/repro/m.py": source})
    assert found == []


def test_ipe001_quiet_for_locked_suffix_convention():
    source = _RACY_CACHE.replace("def get(self):", "def get_locked(self):")
    source = source.replace("pool.submit(cache.get)",
                            "pool.submit(cache.get_locked)")
    found = findings_for(EscapedLazyInit, {"src/repro/m.py": source})
    assert found == []


# ----------------------------------------------------------------------
# META001: pragma liveness (needs the full two-phase linter so raw
# findings are populated)
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
    # a live pragma for a whole-program rule (IPC002) must NOT be
    # reported stale: META001 runs last and audits against the raw
    # findings of every earlier phase, including project rules
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


# ----------------------------------------------------------------------
# end to end: the racy fixture through the real two-phase pipeline
# ----------------------------------------------------------------------
def test_run_paths_reports_project_findings(tmp_path):
    target = tmp_path / "racy.py"
    target.write_text(_RACY_CACHE)
    linter = Linter()
    run = linter.run_paths([Path(target)], root=tmp_path)
    assert any(f.rule_id == "IPE001" for f in run.findings)
