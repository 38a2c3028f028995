"""The same stage timings as 036fb1d fixed them: every read goes
through the system's injectable clock."""


class BatchEngine:
    def __init__(self, system) -> None:
        self.system = system

    def run(self, objects):
        system = self.system
        clock = system.clock
        batch_start = clock.now()
        stats = {"retrieve": 0.0, "verify": 0.0}
        reports = []
        for obj in objects:
            retrieve_start = clock.now()
            evidence = system.retrieve(obj)
            verify_start = clock.now()
            stats["retrieve"] += verify_start - retrieve_start
            reports.append(system.verifier.verify_pool(obj, evidence))
            verify_end = clock.now()
            stats["verify"] += verify_end - verify_start
        return reports, {
            **stats,
            "total": clock.now() - batch_start,
        }
