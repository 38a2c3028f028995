"""``MetricsRegistry._get_or_create`` as ``src/repro/obs/metrics.py``
held it at 036fb1d: the injected instrument factory runs while the
registry lock is held (IPC002)."""

import threading


class MetricsRegistry:
    def __init__(self) -> None:
        self._instruments = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind: type):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
        if not isinstance(instrument, kind):
            raise TypeError(f"metric {name!r} is not a {kind.__name__}")
        return instrument
