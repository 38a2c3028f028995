"""The same ablation as 036fb1d fixed it: timings come from an
injectable ``Clock``."""

from typing import Optional

from repro.obs.clock import Clock, MonotonicClock


def time_build_and_search(
    index, vectors, queries, clock: Optional[Clock] = None
):
    clock = clock or MonotonicClock()
    start = clock.now()
    for doc_id, vector in vectors:
        index.add_vector(doc_id, vector)
    build_seconds = clock.now() - start
    start = clock.now()
    retrieved = [index.search_vector(query, 10) for query in queries]
    search_seconds = clock.now() - start
    return retrieved, build_seconds, search_seconds
