"""Thread pool shared by the kernels of one repetition and by the sweeps.

numpy's random fills, scipy's lfilter and FFTs and large elementwise ufuncs
release the GIL, so independent streams and chunks overlap on threads.
Results come back in input order, so every reduction over them is the same
for any worker count.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor


def thread_map(fn, items, workers: int = 1) -> list:
    """[fn(x) for x in items], on up to `workers` threads."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def in_order(fn, items, workers: int, window: int):
    """Yield fn(x) for x in items, in order, computed on up to `workers`
    threads with at most `window` results computed or pending at once: the
    next item is submitted only after the result `window` places before it
    has been consumed, so fn may reuse that result's storage."""
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for x in items:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, x))
        while pending:
            yield pending.popleft().result()
