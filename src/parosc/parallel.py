"""Thread pool shared by the kernels of one repetition and by the sweeps.

numpy's random fills, scipy's lfilter and FFTs and large elementwise ufuncs
release the GIL, so independent streams and chunks overlap on threads.
Results come back in input order, so every reduction over them is the same
for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def thread_map(fn, items, workers: int = 1) -> list:
    """[fn(x) for x in items], on up to `workers` threads."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))
