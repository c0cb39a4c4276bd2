"""Thread pool shared by the kernels of one repetition and by the sweeps.

thread_map is its one primitive.  numpy's random fills, its FFTs and
large elementwise ufuncs release the GIL (the OU chains' cumulative sums
hold it), so independent streams and chunks overlap on threads.  Results
come back in input order, so every reduction over them is the same for
any worker count.

One pool per worker count is built on first use and reused by every later
call, so a kernel called once per record block pays no thread start-up.  A
call made on one of the pools' own threads (a sweep point's kernels, say)
runs serially there: a task never waits on tasks queued behind it, so
nested calls cannot deadlock.

The pool holds no arrays: a read-only table (a mixing phasor) belongs to
the record that uses it (synth.Streams.table) and goes with it.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
_local = threading.local()


def _mark_pool_thread() -> None:
    _local.in_pool = True


def _pool(workers: int) -> ThreadPoolExecutor | None:
    """The shared pool of `workers` threads, or None where the call must
    run serially: one worker, or a caller that is itself a pool thread."""
    if workers <= 1 or getattr(_local, "in_pool", False):
        return None
    with _pools_lock:
        if workers not in _pools:
            _pools[workers] = ThreadPoolExecutor(workers, initializer=_mark_pool_thread)
        return _pools[workers]


def thread_map(fn, items, workers: int = 1) -> list:
    """[fn(x) for x in items], on up to `workers` threads.  Every item has
    finished when the call returns or raises the first item's error."""
    items = list(items)
    pool = _pool(workers) if len(items) > 1 else None
    if pool is None:
        return [fn(x) for x in items]
    futures = [pool.submit(fn, x) for x in items]
    wait(futures)
    return [future.result() for future in futures]
