"""``MetricsRegistry._get_or_create`` as 47a8d39 fixed it: the factory
runs outside the lock and a ``setdefault`` publishes one instance."""

import threading


class MetricsRegistry:
    def __init__(self) -> None:
        self._instruments = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind: type):
        with self._lock:
            instrument = self._instruments.get(name)
        if instrument is None:
            candidate = factory()
            with self._lock:
                instrument = self._instruments.setdefault(name, candidate)
        if not isinstance(instrument, kind):
            raise TypeError(f"metric {name!r} is not a {kind.__name__}")
        return instrument
