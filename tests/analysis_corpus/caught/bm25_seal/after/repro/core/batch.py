"""A batch worker pool, as ``src/repro/core/batch.py`` fans objects out:
the thread entry that makes the lazy build below shared."""

from concurrent.futures import ThreadPoolExecutor


def run(indexes, queries, max_workers):
    def run_one(position):
        return [index.search(queries[position], 5) for index in indexes]

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(run_one, range(len(queries))))
