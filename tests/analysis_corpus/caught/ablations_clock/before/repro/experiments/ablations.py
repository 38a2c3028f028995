"""The vector-index ablation of ``src/repro/experiments/ablations.py``
at a502626: four direct ``time.perf_counter()`` reads (OBS001), so
no test can freeze its timings."""

import time


def time_build_and_search(index, vectors, queries):
    start = time.perf_counter()
    for doc_id, vector in vectors:
        index.add_vector(doc_id, vector)
    build_seconds = time.perf_counter() - start
    start = time.perf_counter()
    retrieved = [index.search_vector(query, 10) for query in queries]
    search_seconds = time.perf_counter() - start
    return retrieved, build_seconds, search_seconds
