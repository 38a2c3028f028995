"""Per-rule fixtures for repro-lint.

Every rule gets (at least) one minimal offending snippet that must fire
and one clean snippet that must stay quiet, so a rule regression —
either silenced or newly noisy — fails tier-1.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    Baseline,
    Linter,
    all_rules,
    render_json,
    render_text,
)


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
# registry
# ----------------------------------------------------------------------
def test_registry_has_at_least_eight_rules_in_three_families():
    rules = all_rules()
    ids = [rule.rule_id for rule in rules]
    assert len(ids) == len(set(ids))
    assert len(rules) >= 8
    categories = {rule.category for rule in rules}
    assert {
        "determinism", "concurrency", "contracts", "observability"
    } <= categories
    for rule in rules:
        assert rule.name and rule.description and rule.node_types


def test_syntax_error_is_reported_not_raised():
    found = findings_for("def broken(:\n")
    assert [f.rule_id for f in found] == ["E001"]


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_det001_unseeded_rng_fires():
    assert_fires("import random\nrng = random.Random()\n", "DET001")
    assert_fires("import numpy as np\nrng = np.random.default_rng()\n", "DET001")
    assert_fires("import random\nx = random.random()\n", "DET001")
    assert_fires("import numpy as np\nnp.random.shuffle(items)\n", "DET001")


def test_det001_seeded_rng_is_quiet():
    assert_quiet("import random\nrng = random.Random(0)\n", "DET001")
    assert_quiet(
        "import numpy as np\nrng = np.random.default_rng(seed)\n", "DET001"
    )
    assert_quiet("rng.random()\n", "DET001")  # instance method, not global


def test_det002_wall_clock_fires():
    assert_fires("import time\nstamp = time.time()\n", "DET002")
    assert_fires(
        "from datetime import datetime\nnow = datetime.now()\n", "DET002"
    )


def test_det002_quiet_on_perf_counter_and_benchmarks():
    assert_quiet("import time\nstart = time.perf_counter()\n", "DET002")
    assert_quiet(
        "import time\nstamp = time.time()\n",
        "DET002",
        path="benchmarks/test_bench_lint.py",
    )


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


def test_det004_popitem_fires_and_directed_popitem_is_quiet():
    assert_fires("entry = cache.popitem()\n", "DET004")
    assert_quiet("entry = cache.popitem(last=False)\n", "DET004")
    assert_quiet("entry = cache.pop('key')\n", "DET004")


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
def test_con001_manual_acquire_fires():
    assert_fires(
        "def f(self):\n"
        "    self._lock.acquire()\n"
        "    self.count += 1\n"
        "    self._lock.release()\n",
        "CON001",
    )


def test_con001_with_lock_is_quiet():
    assert_quiet(
        "def f(self):\n    with self._lock:\n        self.count += 1\n",
        "CON001",
    )


_CON002_DIRTY = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1

    def reset(self):
        self.count = 0
"""

_CON002_CLEAN = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1

    def reset(self):
        with self._lock:
            self.count = 0
"""


def test_con002_inconsistent_guard_fires():
    found = assert_fires(_CON002_DIRTY, "CON002")
    assert "reset" in found[0].message


def test_con002_consistent_guard_is_quiet():
    assert_quiet(_CON002_CLEAN, "CON002")


def test_con003_global_rebind_and_mutation_fire():
    assert_fires(
        "cache = {}\n"
        "def clear():\n"
        "    global cache\n"
        "    cache = {}\n",
        "CON003",
    )
    assert_fires(
        "cache = {}\ndef put(key, value):\n    cache[key] = value\n",
        "CON003",
    )


def test_con003_registry_constants_and_locals_are_quiet():
    # ALL_CAPS registry mutated at import time by a decorator: idiomatic
    assert_quiet(
        "_REGISTRY = []\ndef register(cls):\n    _REGISTRY.append(cls)\n",
        "CON003",
    )
    # a local that shadows the module name is not shared state
    assert_quiet(
        "cache = {}\n"
        "def isolated():\n"
        "    cache = {}\n"
        "    cache['a'] = 1\n",
        "CON003",
    )


# ----------------------------------------------------------------------
# contracts
# ----------------------------------------------------------------------
def test_ctr001_non_verdict_return_fires():
    assert_fires(
        "def decide(x) -> Verdict:\n"
        "    if x:\n"
        "        return Verdict.VERIFIED\n"
        "    return 0\n",
        "CTR001",
    )
    assert_fires(
        "def decide(x) -> Verdict:\n"
        "    if x:\n"
        "        return Verdict.VERIFIED\n"
        "    return\n",
        "CTR001",
    )


def test_ctr001_verdict_and_optional_returns_are_quiet():
    assert_quiet(
        "def decide(x) -> Verdict:\n"
        "    if x:\n"
        "        return Verdict.VERIFIED\n"
        "    return Verdict.REFUTED\n",
        "CTR001",
    )
    assert_quiet(
        "def decide(x) -> Optional[Verdict]:\n"
        "    if x:\n"
        "        return Verdict.VERIFIED\n"
        "    return None\n",
        "CTR001",
    )


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


def test_ctr004_mutable_default_fires():
    assert_fires("def f(items=[]):\n    return items\n", "CTR004")
    assert_fires("def f(*, mapping={}):\n    return mapping\n", "CTR004")
    assert_fires("def f(seen=set()):\n    return seen\n", "CTR004")


def test_ctr004_none_default_is_quiet():
    assert_quiet(
        "def f(items=None):\n    return items if items else []\n", "CTR004"
    )
    assert_quiet("def f(shape=(2, 3)):\n    return shape\n", "CTR004")


def test_ctr005_silent_except_fires():
    assert_fires(
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except:\n"
        "        pass\n",
        "CTR005",
    )
    assert_fires(
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception:\n"
        "        pass\n",
        "CTR005",
    )


def test_ctr005_handled_exceptions_are_quiet():
    assert_quiet(
        "def f():\n"
        "    try:\n"
        "        return work()\n"
        "    except ValueError:\n"
        "        return None\n",
        "CTR005",
    )
    assert_quiet(
        "def f(log):\n"
        "    try:\n"
        "        return work()\n"
        "    except Exception as error:\n"
        "        log.warning(error)\n"
        "        raise\n",
        "CTR005",
    )


# ----------------------------------------------------------------------
# pragmas, baseline, reporters
# ----------------------------------------------------------------------
def test_line_pragma_suppresses_single_finding():
    source = (
        "a = cache.popitem()  # repro-lint: disable=DET004\n"
        "b = cache.popitem()\n"
    )
    found = findings_for(source, "DET004")
    assert len(found) == 1 and found[0].line == 2


def test_file_pragma_suppresses_everywhere():
    source = (
        "# repro-lint: disable-file=DET004\n"
        "a = cache.popitem()\n"
        "b = cache.popitem()\n"
    )
    assert findings_for(source, "DET004") == []


def test_baseline_roundtrip_and_count_semantics(tmp_path):
    source = "a = cache.popitem()\nb = cache.popitem()\n"
    found = findings_for(source, "DET004")
    assert len(found) == 2

    # a baseline built from both findings suppresses both, via disk
    path = tmp_path / "baseline.json"
    Baseline.from_findings(found).save(path)
    kept, suppressed = Baseline.load(path).filter(found)
    assert kept == [] and suppressed == 2

    # a baseline holding only one occurrence lets the second through
    kept, suppressed = Baseline.from_findings(found[:1]).filter(found)
    assert len(kept) == 1 and suppressed == 1


def test_render_text_and_json():
    found = findings_for("a = cache.popitem()\n")
    text = render_text(found)
    assert "DET004" in text and "<string>:" in text
    payload = json.loads(render_json(found, rules=all_rules()))
    assert payload["count"] == len(found)
    assert any(rule["id"] == "DET004" for rule in payload["rules"])
    assert payload["findings"][0]["line"] == 1
    assert render_text([]) == "repro-lint: clean"


def test_findings_are_sorted_and_carry_snippets():
    source = "b = cache.popitem()\nimport time\nstamp = time.time()\n"
    found = findings_for(source)
    assert [f.line for f in found] == sorted(f.line for f in found)
    assert found[0].snippet == "b = cache.popitem()"

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


def test_obs002_fires_on_computed_metric_names():
    assert_fires(
        "def track(registry, name):\n"
        "    registry.counter(name).inc()\n",
        "OBS002",
    )
    assert_fires(
        "def track(registry, a, b):\n"
        "    registry.histogram(a + b).observe(1.0)\n",
        "OBS002",
    )


def test_obs002_fires_on_malformed_literals():
    # single segment: not component.name
    assert_fires('registry.counter("hits")\n', "OBS002")
    # uppercase
    assert_fires('registry.gauge("Serve.Depth")\n', "OBS002")
    # f-string without a literal dotted prefix
    assert_fires(
        "def track(registry, status):\n"
        '    registry.counter(f"{status}.responses").inc()\n',
        "OBS002",
    )


def test_obs002_quiet_on_catalogue_shaped_names():
    assert_quiet('registry.counter("verifier.cache.hits").inc()\n',
                 "OBS002")
    assert_quiet(
        'registry.histogram("serve.request_seconds", buckets=(1.0,))\n',
        "OBS002",
    )
    # an f-string opening with a literal component prefix stays greppable
    assert_quiet(
        "def track(registry, status):\n"
        '    registry.counter(f"serve.responses.{status}").inc()\n',
        "OBS002",
    )
    # .counter on something that is not an instrument registry-shaped
    # call with no name argument is not this rule's business
    assert_quiet("collections.Counter()\n", "OBS002")
    assert_quiet("registry.counter()\n", "OBS002")


# ----------------------------------------------------------------------
# performance
# ----------------------------------------------------------------------
_INDEX_PATH = "src/repro/index/somekernel.py"


def test_perf001_fires_on_sealed_array_loop_in_index_package():
    assert_fires(
        """
        def slow(sealed):
            total = 0.0
            for tf in sealed.tf_flat:
                total += tf
            return total
        """,
        "PERF001", path=_INDEX_PATH,
    )


def test_perf001_quiet_on_own_postings_and_vectorized_reads():
    # numpy passes over an index's own postings — its seal's arrays —
    # are the intended fast path
    assert_quiet(
        """
        def kernel(self, start, end):
            sealed = self._sealed
            return np.bincount(
                sealed.doc_idx[start:end],
                weights=sealed.tf_flat[start:end] * 2.0,
            )
        """,
        "PERF001", path=_INDEX_PATH,
    )


def test_perf001_scoped_to_index_package():
    source = """
    def slow(sealed):
        return [tf for tf in sealed.tf_flat]
    """
    assert_quiet(source, "PERF001")
    assert_quiet(source, "PERF001", path="src/repro/core/batch.py")
    assert_fires(source, "PERF001", path=_INDEX_PATH)


def test_perf001_pragma_silences_the_snapshot_loop():
    assert_quiet(
        """
        def snapshot(sealed):
            return [  # repro-lint: disable=PERF001
                int(position) for position in sealed.doc_idx
            ]
        """,
        "PERF001", path=_INDEX_PATH,
    )
