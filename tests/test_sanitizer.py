"""The Eraser-style lockset sanitizer: detection, precision, lifecycle.

The detection tests drive *deterministic* thread schedules (event
handshakes, overlapping thread lifetimes so idents are never recycled)
— the whole point of the lockset algorithm is that a racy fixture
fails reliably, so these tests must too.

The regression half pins the five data races the interprocedural
analyses found in the index/metrics layers: each fixed site is hammered
from real threads under the sanitizer and must stay silent.
"""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.index.inverted import InvertedIndex
from repro.index.vector import FlatVectorIndex
from repro.obs.metrics import MetricsRegistry
from repro.text.tokenize import analyze

# ``repro.text.tokenize`` the attribute is the function; this is the module
tokenize_module = sys.modules["repro.text.tokenize"]

REPO_ROOT = Path(__file__).resolve().parent.parent


class Shared:
    def __init__(self):
        self.value = 0


def run_pair(first, second):
    """Run ``first`` then ``second`` on two *overlapping* threads: the
    handshake fixes the order, and neither thread exits before the
    other finishes, so their idents are guaranteed distinct."""
    first_done = threading.Event()
    second_done = threading.Event()

    def runner_one():
        first()
        first_done.set()
        second_done.wait(5)

    def runner_two():
        first_done.wait(5)
        second()
        second_done.set()

    threads = [
        threading.Thread(target=runner_one),
        threading.Thread(target=runner_two),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5)


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------
def test_unguarded_cross_thread_write_races_reliably():
    obj = Shared()

    def write():
        obj.value += 1
        sanitizer.note_write(obj, "value")

    with sanitizer.sanitized(prefixes=("tests",)) as found:
        run_pair(write, write)
    assert len(found) == 1
    race = found[0]
    assert race.type_name == "Shared"
    assert race.field_name == "value"
    assert race.access == "write"
    assert race.first_thread != race.second_thread
    assert "RACE" in race.describe()


def test_tracked_lock_keeps_guarded_writes_clean():
    with sanitizer.sanitized(prefixes=("tests",)) as found:
        obj = Shared()
        lock = threading.Lock()  # created while patched -> tracked
        assert type(lock).__name__ == "_TrackedLock"

        def write():
            with lock:
                obj.value += 1
                sanitizer.note_write(obj, "value")

        run_pair(write, write)
    assert found == []


def test_declared_lock_parameter_covers_pre_enable_locks():
    # module-level locks predate enable(); the lock= argument declares
    # them held without factory patching
    legacy_lock = threading.Lock()
    obj = Shared()

    def write():
        with legacy_lock:
            obj.value += 1
            sanitizer.note_write(obj, "value", lock=legacy_lock)

    with sanitizer.sanitized(prefixes=("tests",)) as found:
        run_pair(write, write)
    assert found == []


def test_read_only_sharing_is_not_a_race():
    obj = Shared()

    def read():
        _ = obj.value
        sanitizer.note_read(obj, "value")

    with sanitizer.sanitized(prefixes=("tests",)) as found:
        run_pair(read, read)
    assert found == []


def test_same_site_races_deduplicate_by_fingerprint():
    # both threads run the SAME worker function, so every access shares
    # one stack and repeated races collapse to a single fingerprint
    obj = Shared()

    def worker(ready, done, hold):
        ready.wait(5)
        obj.value += 1
        sanitizer.note_write(obj, "value")
        done.set()
        hold.wait(5)

    def same_path_pair():
        start = threading.Event()
        start.set()
        mid = threading.Event()
        end = threading.Event()
        threads = [
            threading.Thread(target=worker, args=(start, mid, end)),
            threading.Thread(target=worker, args=(mid, end, end)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(5)

    with sanitizer.sanitized(prefixes=("tests",)) as found:
        for _ in range(2):
            same_path_pair()
    assert len(found) == 1  # four accesses, three racy, one fingerprint


def test_lock_intersection_catches_disjoint_guards():
    # each thread holds *a* lock, but not a common one: the candidate
    # lockset intersects to empty and the race is still caught
    obj = Shared()

    with sanitizer.sanitized(prefixes=("tests",)) as found:
        lock_a = threading.Lock()
        lock_b = threading.Lock()

        def write_a():
            with lock_a:
                obj.value += 1
                sanitizer.note_write(obj, "value")

        def write_b():
            with lock_b:
                obj.value += 1
                sanitizer.note_write(obj, "value")

        # the candidate lockset is the intersection over all accesses:
        # {a} at the second access, then {a} & {b} = {} at the third —
        # a second round is what empties it and trips the detector
        for _ in range(2):
            run_pair(write_a, write_b)
    assert len(found) >= 1


def test_a_collected_objects_address_starts_a_fresh_cell():
    # cells are keyed by id(): an object allocated where a collected
    # one lived, guarded by its own lock, must not inherit the dead
    # object's candidate lockset (seen as a flaky "race" between two
    # indexes' seals, each under its own _seal_lock)
    def guarded_writes(obj, lock):
        def write():
            with lock:
                obj.value += 1
                sanitizer.note_write(obj, "value")
        run_pair(write, write)

    with sanitizer.sanitized(prefixes=("tests",)) as found:
        reused = False
        for _ in range(200):
            first = Shared()
            address = id(first)
            guarded_writes(first, threading.Lock())
            del first
            second = Shared()
            if id(second) == address:
                reused = True
                guarded_writes(second, threading.Lock())
                break
        if not reused:
            pytest.skip("the allocator never reused the address")
    assert found == []


# ----------------------------------------------------------------------
# lifecycle and proxy mechanics
# ----------------------------------------------------------------------
def test_enable_disable_restore_the_real_factories():
    original_lock = threading.Lock
    original_rlock = threading.RLock
    sanitizer.enable(prefixes=("tests",))
    try:
        assert threading.Lock is not original_lock
        assert sanitizer.is_enabled()
    finally:
        sanitizer.disable()
    assert threading.Lock is original_lock
    assert threading.RLock is original_rlock
    assert not sanitizer.is_enabled()


def test_factory_only_tracks_configured_prefixes():
    sanitizer.enable(prefixes=("some_other_package",))
    try:
        lock = threading.Lock()  # this module is tests.* -> untracked
        assert type(lock).__name__ != "_TrackedLock"
    finally:
        sanitizer.disable()


def test_tracked_rlock_is_reentrant_and_held_until_outermost_release():
    with sanitizer.sanitized(prefixes=("tests",)):
        rlock = threading.RLock()
        assert type(rlock).__name__ == "_TrackedLock"
        held = sanitizer._held()
        with rlock:
            with rlock:  # reentrant acquire must not deadlock
                assert id(rlock) in held
            assert id(rlock) in held  # inner release keeps it held
        assert id(rlock) not in held


def test_render_report_mentions_every_fingerprint():
    obj = Shared()

    def write():
        obj.value += 1
        sanitizer.note_write(obj, "value")

    with sanitizer.sanitized(prefixes=("tests",)) as found:
        run_pair(write, write)
    report = sanitizer.render_report(found)
    assert found[0].fingerprint in report
    assert "1 race(s) detected" in report
    assert sanitizer.render_report([]) == (
        "repro-sanitize: no races detected"
    )


# ----------------------------------------------------------------------
# the pytest plugin and CLI wrapper, end to end
# ----------------------------------------------------------------------
_RACY_TEST = '''
import threading
from repro.analysis import sanitizer


class Shared:
    def __init__(self):
        self.value = 0


def test_deliberately_racy():
    obj = Shared()
    first = threading.Event()
    done = threading.Event()

    def one():
        obj.value += 1
        sanitizer.note_write(obj, "value")
        first.set()
        done.wait(5)

    def two():
        first.wait(5)
        obj.value += 1
        sanitizer.note_write(obj, "value")
        done.set()

    threads = [threading.Thread(target=one), threading.Thread(target=two)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5)
'''


@pytest.mark.slow
def test_cli_sanitize_flags_racy_fixture_with_exit_status_3(tmp_path):
    target = tmp_path / "test_racy_fixture.py"
    target.write_text(_RACY_TEST)
    result = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "sanitize", "--",
            "-q", "-p", "no:cacheprovider", str(target),
        ],
        capture_output=True,
        text=True,
        env={
            **__import__("os").environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
        },
        timeout=120,
    )
    assert result.returncode == sanitizer.RACE_EXIT_STATUS, result.stdout
    assert "RACE" in result.stdout
    assert "Shared.value" in result.stdout


# ----------------------------------------------------------------------
# regression: the five races the whole-program analysis found, each
# hammered under the sanitizer on its fixed code path
# ----------------------------------------------------------------------
def test_flat_vector_lazy_matrix_build_is_guarded():
    with sanitizer.sanitized() as found:  # prefixes=("repro",)
        index = FlatVectorIndex(dim=8)
        for i in range(16):
            vec = np.full(8, float(i + 1), dtype=np.float32)
            index.add_vector(f"id-{i}", vec)
        query = np.ones(8, dtype=np.float32)

        def search():
            hits = index.search_vector(query, k=3)
            assert len(hits) == 3

        run_pair(search, search)
        # invalidation path: mutate, then search again from a thread
        index.remove_vector("id-0")
        run_pair(search, search)
    assert found == []


def test_inverted_index_concurrent_seal_is_guarded():
    with sanitizer.sanitized() as found:
        index = InvertedIndex()
        for i in range(32):
            index.add(f"doc-{i}", f"token{i} shared corpus text")
        results = []

        def search():
            results.append(index.search("shared corpus", k=4))

        run_pair(search, search)
        assert results[0] == results[1]
    assert found == []


def test_metrics_registry_concurrent_get_or_create_is_guarded():
    with sanitizer.sanitized() as found:
        registry = MetricsRegistry()
        created = []

        def bump():
            counter = registry.counter("shared.counter")
            created.append(counter)
            counter.inc()

        run_pair(bump, bump)
        assert created[0] is created[1]  # one instrument, not two
        assert created[0].value == 2
    assert found == []


def test_tokenize_analyze_cache_is_guarded():
    """Two threads fill the word table — its one write, under the table
    lock — each with words no analysis has seen yet."""
    table = tokenize_module._WORD_TABLES[True, True]
    fresh = [
        word for word in (f"lockset{number}" for number in range(10_000))
        if word not in table
    ][:4]

    def fill(words):
        def analyse():
            text = f"the {words[0]} and {words[1]}"
            assert analyze(text) == analyze(text) == words
        return analyse

    with sanitizer.sanitized() as found:
        run_pair(fill(fresh[:2]), fill(fresh[2:]))
    assert found == []
    assert all(word in table for word in fresh)
