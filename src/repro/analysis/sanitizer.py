"""An Eraser-style lockset race sanitizer (dynamic counterpart to IPE001).

The static escape analysis reasons about what *may* race; this module
watches what the code *actually does*.  It is deliberately
timing-independent: the classic lockset algorithm (Savage et al.,
"Eraser") flags a field as racy the moment two threads have touched it
with no lock in common — no unlucky interleaving required, so a racy
test fixture fails **reliably**, not one run in fifty.

How it works:

* :func:`enable` replaces ``threading.Lock`` / ``threading.RLock`` with
  factories that hand out *tracked* proxies to code whose module name
  matches the configured prefixes (default: ``repro``).  Acquire /
  release maintain a per-thread **lockset**; stdlib internals (queue,
  concurrent.futures, ...) keep untracked native locks.
* Product code marks shared-state writes with :func:`note_write` (and
  reads with :func:`note_read`) at the handful of fields that are
  supposed to be lock-guarded.  The hooks are near-free when the
  sanitizer is off: one global ``None`` check.
* Each ``(type, field, object)`` gets a shadow state machine:
  ``virgin -> exclusive(thread) -> shared -> shared_modified``.  On
  shared access the **candidate lockset** (locks held at *every* access
  so far) is intersected with the current thread's; an empty candidate
  set in the ``shared_modified`` state is a race, reported once per
  location with a stack fingerprint.
* A ``lock=`` argument on the hooks declares "the caller holds this
  lock here" — the escape hatch for locks created before :func:`enable`
  patched the factories (module-level locks in already-imported code).

Scope note: the sanitizer audits the *lock-guarded* invariants.  Fields
shared in phases under an external single-writer contract (an index
mutated, then searched) are not instrumented on the mutation path —
lockset analysis has no happens-before and would flag every phase
hand-off as a race.

Run it three ways::

    repro sanitize -- -q tests/test_index_sharding.py   # CLI wrapper
    pytest -p repro.analysis.sanitizer ...              # pytest plugin
    with sanitized():                                   # in a test
        ...
    assert not races()

Under pytest the plugin enables at configure time (before any repro
module is imported, so even module-level locks get tracked), prints a
race report in the terminal summary, and fails the run with exit status
3 when races were found.
"""

from __future__ import annotations

import os
import sys
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Dict, List, Optional, Set, Tuple

#: the genuine factories, captured at import time so the sanitizer's own
#: bookkeeping never runs through its own proxies
_ORIG_LOCK = threading.Lock
_ORIG_RLOCK = threading.RLock

#: frames from these path fragments never appear in race stacks
_OWN_FRAMES = (os.path.join("analysis", "sanitizer"),)


@dataclass(frozen=True)
class Race:
    """One detected lockset violation (reported once per fingerprint)."""

    type_name: str           #: type of the owning object
    field_name: str          #: the field that raced
    access: str              #: "read" or "write"
    first_thread: str
    second_thread: str
    first_stack: Tuple[str, ...]
    second_stack: Tuple[str, ...]
    fingerprint: str         #: blake2b over both stacks + the field key

    def describe(self) -> str:
        lines = [
            f"RACE {self.fingerprint} on {self.type_name}.{self.field_name}"
            f" ({self.access} with empty lockset)",
            f"  first access  [{self.first_thread}]:",
        ]
        lines += [f"    {frame}" for frame in self.first_stack]
        lines.append(f"  second access [{self.second_thread}]:")
        lines += [f"    {frame}" for frame in self.second_stack]
        return "\n".join(lines)


@dataclass
class _Shadow:
    """Eraser shadow word for one (type, field, object) cell."""

    state: str = "virgin"    #: virgin|exclusive|shared|shared_modified
    owner: int = 0           #: thread ident while exclusive
    owner_name: str = ""
    lockset: Optional[frozenset] = None  #: candidate locks; None = unset
    first_stack: Tuple[str, ...] = ()
    #: the shadowed object (None: it takes no weak references)
    alive: Optional[weakref.ref] = None


@dataclass
class _State:
    prefixes: Tuple[str, ...]
    mutex: object = field(default_factory=_ORIG_LOCK)
    shadows: Dict[Tuple[str, str, int], _Shadow] = field(default_factory=dict)
    races: List[Race] = field(default_factory=list)
    seen_fingerprints: Set[str] = field(default_factory=set)


_STATE: Optional[_State] = None
_HELD = threading.local()


def _held() -> Set[int]:
    locks = getattr(_HELD, "locks", None)
    if locks is None:
        locks = set()
        _HELD.locks = locks
    return locks


class _TrackedLock:
    """A Lock/RLock proxy that maintains the per-thread lockset."""

    def __init__(self, real, reentrant: bool = False) -> None:
        self._real = real
        self._reentrant = reentrant
        self._depth = 0  # only touched by the owning thread

    def acquire(self, *args, **kwargs):
        acquired = self._real.acquire(*args, **kwargs)
        if acquired:
            _held().add(id(self))
            if self._reentrant:
                self._depth += 1
        return acquired

    def release(self):
        self._real.release()  # raises on non-owner, before bookkeeping
        if self._reentrant:
            self._depth -= 1
            if self._depth > 0:
                return
        _held().discard(id(self))

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()
        return False

    def locked(self):
        return self._real.locked()

    def __getattr__(self, name):
        return getattr(self._real, name)


def _make_factory(orig, reentrant: bool):
    def factory():
        real = orig()
        state = _STATE
        if state is None:
            return real
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if isinstance(caller, str) and caller.startswith(state.prefixes):
            return _TrackedLock(real, reentrant=reentrant)
        return real

    factory._repro_sanitizer = True  # type: ignore[attr-defined]
    return factory


def _stack(skip: int = 2, limit: int = 8) -> Tuple[str, ...]:
    """A compact, relative-path stack: ``pkg/mod.py:func:line`` frames,
    innermost first, sanitizer frames elided."""
    frames: List[str] = []
    frame = sys._getframe(skip)
    while frame is not None and len(frames) < limit:
        filename = frame.f_code.co_filename
        if not any(part in filename for part in _OWN_FRAMES):
            parts = filename.replace("\\", "/").split("/")
            rel = "/".join(parts[-2:])
            frames.append(f"{rel}:{frame.f_code.co_name}:{frame.f_lineno}")
        frame = frame.f_back
    return tuple(frames)


def _fingerprint(
    key: Tuple[str, str], first: Tuple[str, ...], second: Tuple[str, ...]
) -> str:
    digest = blake2b(digest_size=8)
    digest.update("|".join(key).encode())
    for frame in first + ("::",) + second:
        digest.update(frame.encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# the access hooks product code calls
# ----------------------------------------------------------------------
def note_write(owner: object, field_name: str, lock: object = None) -> None:
    """Record a write to ``owner.field_name`` by the current thread.

    ``lock`` declares a guard the caller holds that predates
    :func:`enable` (module-level locks); locks acquired through the
    patched factories are tracked automatically.
    """
    if _STATE is not None:
        _note(owner, field_name, lock, "write")


def note_read(owner: object, field_name: str, lock: object = None) -> None:
    """Record a read of ``owner.field_name`` by the current thread."""
    if _STATE is not None:
        _note(owner, field_name, lock, "read")


def _note(owner, field_name, lock, access) -> None:
    state = _STATE
    if state is None:  # disabled between the gate and here
        return
    held = frozenset(_held() | ({id(lock)} if lock is not None else set()))
    ident = threading.get_ident()
    name = threading.current_thread().name
    key = (type(owner).__name__, field_name, id(owner))
    with state.mutex:
        shadow = state.shadows.get(key)
        if (
            shadow is not None
            and shadow.alive is not None
            and shadow.alive() is not owner
        ):
            # cells are keyed by id(): this word shadowed an object
            # since collected, whose address ``owner`` now has
            shadow = None
        if shadow is None:
            try:
                alive = weakref.ref(owner)
            except TypeError:
                alive = None
            shadow = _Shadow(
                state="exclusive",
                owner=ident,
                owner_name=name,
                first_stack=_stack(skip=3),
                alive=alive,
            )
            state.shadows[key] = shadow
            return
        if shadow.state == "exclusive":
            if shadow.owner == ident:
                return
            shadow.state = (
                "shared_modified" if access == "write" else "shared"
            )
            shadow.lockset = held
        elif shadow.state == "shared":
            shadow.lockset = (
                held if shadow.lockset is None else shadow.lockset & held
            )
            if access == "write":
                shadow.state = "shared_modified"
        else:  # shared_modified
            shadow.lockset = (
                held if shadow.lockset is None else shadow.lockset & held
            )
        if shadow.state == "shared_modified" and not shadow.lockset:
            second_stack = _stack(skip=3)
            fingerprint = _fingerprint(
                (key[0], key[1]), shadow.first_stack, second_stack
            )
            if fingerprint not in state.seen_fingerprints:
                state.seen_fingerprints.add(fingerprint)
                state.races.append(
                    Race(
                        type_name=key[0],
                        field_name=key[1],
                        access=access,
                        first_thread=shadow.owner_name,
                        second_thread=name,
                        first_stack=shadow.first_stack,
                        second_stack=second_stack,
                        fingerprint=fingerprint,
                    )
                )


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def enable(prefixes: Tuple[str, ...] = ("repro",)) -> None:
    """Start tracking: patch the lock factories and arm the hooks.
    Idempotent; nested enables keep the first configuration."""
    global _STATE
    if _STATE is not None:
        return
    # the on/off gate is main-thread lifecycle state, not worker data:
    # enable/disable run at session start/end, never from workers
    _STATE = _State(prefixes=tuple(prefixes))  # repro-lint: disable=CON003
    threading.Lock = _make_factory(_ORIG_LOCK, reentrant=False)
    threading.RLock = _make_factory(_ORIG_RLOCK, reentrant=True)


def disable() -> List[Race]:
    """Stop tracking, restore the real factories, return the races."""
    global _STATE
    state = _STATE
    _STATE = None  # repro-lint: disable=CON003  (main-thread lifecycle)
    threading.Lock = _ORIG_LOCK
    threading.RLock = _ORIG_RLOCK
    return list(state.races) if state is not None else []


def races() -> List[Race]:
    """Races recorded so far in the active (or just-disabled) session."""
    state = _STATE
    if state is None:
        return []
    with state.mutex:
        return list(state.races)


def is_enabled() -> bool:
    return _STATE is not None


@contextmanager
def sanitized(prefixes: Tuple[str, ...] = ("repro",)):
    """``with sanitized() as get_races:`` — scoped enable/disable."""
    already = _STATE is not None
    if not already:
        enable(prefixes)
    found: List[Race] = []
    try:
        yield found
    finally:
        if already:
            found.extend(races())
        else:
            found.extend(disable())


def render_report(found: List[Race]) -> str:
    if not found:
        return "repro-sanitize: no races detected"
    blocks = [race.describe() for race in found]
    blocks.append(f"repro-sanitize: {len(found)} race(s) detected")
    return "\n".join(blocks)


# ----------------------------------------------------------------------
# pytest plugin (load with ``-p repro.analysis.sanitizer``)
# ----------------------------------------------------------------------
#: exit status a sanitized pytest run reports when races were found
RACE_EXIT_STATUS = 3


def pytest_configure(config) -> None:
    prefixes = os.environ.get("REPRO_SANITIZE_PREFIXES", "repro")
    enable(tuple(p for p in prefixes.split(",") if p))
    config._repro_sanitizer_active = True


def pytest_sessionfinish(session, exitstatus) -> None:
    if races() and exitstatus == 0:
        session.exitstatus = RACE_EXIT_STATUS


def pytest_terminal_summary(terminalreporter) -> None:
    found = races()
    terminalreporter.section("repro-sanitize")
    terminalreporter.write_line(render_report(found))


def pytest_unconfigure(config) -> None:
    if getattr(config, "_repro_sanitizer_active", False):
        disable()
