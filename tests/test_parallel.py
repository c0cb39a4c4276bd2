"""The shared thread pool's one primitive, thread_map: input order, errors,
reuse across calls and serial nested calls."""

import os
import subprocess
import sys
import threading
import time

import pytest

from parosc.parallel import thread_map

WORKERS = 3


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_thread_map_keeps_input_order(workers):
    def slow_square(x):
        time.sleep(0.001 * (x % 3))  # finish out of order
        return x * x

    assert thread_map(slow_square, range(20), workers) == [x * x for x in range(20)]


def test_thread_map_raises_the_first_error_in_order():
    def fn(x):
        if x in (2, 4):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="item 2"):
        thread_map(fn, range(6), WORKERS)


def test_repeated_calls_reuse_the_pool_threads():
    def ident(_):
        time.sleep(0.001)
        return threading.get_ident()

    # all WORKERS threads exist from here on: each waits for the others
    barrier = threading.Barrier(WORKERS)
    thread_map(lambda _: barrier.wait(timeout=30), range(WORKERS), WORKERS)
    threads_before = threading.active_count()
    idents = set()
    for _ in range(50):
        idents.update(thread_map(ident, range(2 * WORKERS), WORKERS))
    assert threading.active_count() == threads_before
    assert threading.get_ident() not in idents
    assert len(idents) <= WORKERS


def test_concurrent_first_calls_build_one_pool():
    # callers on several threads race to build the pool of a worker count
    # no other test uses; a lost update would leave two pools, and more
    # distinct threads than workers
    workers, callers = 4, 8
    idents, errors = set(), []
    lock = threading.Lock()

    def ident(_):
        time.sleep(0.0005)
        return threading.get_ident()

    def caller():
        try:
            for _ in range(20):
                got = thread_map(ident, range(2 * workers), workers)
                with lock:
                    idents.update(got)
        except Exception as exc:  # handed to the test thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(idents) <= workers


def test_nested_thread_map_runs_serially_on_the_calling_thread():
    # Every pool thread runs an outer task that maps again with the same
    # worker count.  Queued on the same pool, the inner items would wait for
    # threads that are all busy waiting on them.  A deadlocked pool thread
    # would also block the interpreter's exit, so the check runs in a child
    # interpreter whose result is awaited with a timeout.
    code = f"""
import threading
from parosc.parallel import thread_map

def outer(_):
    caller = threading.get_ident()
    inner = thread_map(lambda _: threading.get_ident(), range(4), {WORKERS})
    return inner == [caller] * 4

print(all(thread_map(outer, range({WORKERS}), {WORKERS})))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]
