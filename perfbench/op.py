"""One benchmark operation in a fresh interpreter, as the CLI runs one verb
per process.

    python3 perfbench/op.py REQUEST_JSON

REQUEST_JSON holds ``name``, ``config_text``, ``s_values`` (null for
``run_single``), ``out`` (the artifact directory, deleted afterwards),
``run_id`` and ``traced``.  The last line of standard output is one JSON
object: set-up and call times, CPU time, peak RSS, the gate's problems per
repetition, the artifact digest and, when traced, the per-layer metrics and
the spans.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import Workload, call, gate, setup, tree_digest  # noqa: E402


def run(request: dict) -> dict:
    # Set-up comes first: it times the package imports, so nothing here may
    # import numpy before it.
    config, setup_s = setup(request["config_text"])
    from spans import Tracer, layer_metrics

    s_values = request["s_values"]
    workload = Workload(request["name"], request["config_text"],
                        None if s_values is None else tuple(s_values))
    reps = config.values["repetitions"] * workload.points
    out = Path(request["out"])
    tracer = Tracer() if request["traced"] else None
    digest, layer = None, {}
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            root_name = "pipeline.simulate" if s_values is None else "pipeline.sweep"
            with tracer.trace(root_name, request["run_id"]):
                result = call(workload, config, out)
        else:
            result = call(workload, config, out)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        # Outputs the gate cannot read (a changed report layout) fail the
        # operation too.
        problems = gate(workload, config, result, out)
        if len(problems) != reps:
            problems = [[f"expected {reps} repetitions, gate saw {len(problems)}"]
                        for _ in range(reps)]
        digest = tree_digest(out)
    except Exception as exc:  # a failing operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        problems = [[f"raised {type(exc).__name__}: {exc}"] for _ in range(reps)]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    spans = []
    if tracer is not None:
        spans = tracer.spans
        root = next(s for s in spans if s.parent is None)
        layer = layer_metrics(spans, root, cpu, len(os.sched_getaffinity(0)))
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems,
        "digest": digest,
        "layer": layer,
        "spans": [asdict(s) for s in spans],
    }


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))), flush=True)
