"""The stage timings of ``BatchEngine.run`` in
``src/repro/core/batch.py`` at 2d8c0a9: five direct
``time.perf_counter()`` reads (OBS001)."""

import time


class BatchEngine:
    def __init__(self, system) -> None:
        self.system = system

    def run(self, objects):
        system = self.system
        batch_start = time.perf_counter()
        stats = {"retrieve": 0.0, "verify": 0.0}
        reports = []
        for obj in objects:
            retrieve_start = time.perf_counter()
            evidence = system.retrieve(obj)
            verify_start = time.perf_counter()
            stats["retrieve"] += verify_start - retrieve_start
            reports.append(system.verifier.verify_pool(obj, evidence))
            verify_end = time.perf_counter()
            stats["verify"] += verify_end - verify_start
        return reports, {
            **stats,
            "total": time.perf_counter() - batch_start,
        }
