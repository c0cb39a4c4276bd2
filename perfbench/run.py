"""parosc benchmark: drive one pinned workload through the public entry
points, check its outputs and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each operation -- set-up plus one entry-point call -- runs in a
fresh interpreter (``op.py``), as the CLI runs one verb per process.  A run
makes at least three operations, and then more while another is expected to
end within ``--seconds`` of the first one's start.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` alternates traced and untraced operations
and prints the per-layer metrics.  The last line of standard output is one
JSON object; the lines before it give provenance, each operation and a
metric table.  Run the workloads one at a time: ``simulate_default`` needs
about 2.5 GB of RAM.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, setup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 3
OP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "success_rate": "ratio",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("mb"):
        return "MiB"
    if name.endswith("msamples"):
        return "Msamples"
    if name.endswith(("_ratio", "_util")):
        return "ratio"
    return "count"


@dataclass
class Op:
    index: int
    traced: bool
    elapsed_s: float
    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    digest: str | None
    problems: list[list[str]]
    layer: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout at root, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_op(index: int, workload, config_text: str, reps: int, run_dir: Path, traced: bool) -> Op:
    """One operation in a child interpreter.  A child that dies without a
    result fails all its repetitions."""
    request = {
        "name": workload.name,
        "config_text": config_text,
        "s_values": None if workload.s_values is None else list(workload.s_values),
        "out": str(run_dir / f"op{index:02d}"),
        "run_id": f"op{index:02d}",
        "traced": traced,
    }
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "op.py"), json.dumps(request)],
        cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        error = f"operation process exited with code {proc.returncode}"
        nan = float("nan")
        return Op(index, traced, elapsed, nan, elapsed, nan, nan, None,
                  [[error] for _ in range(reps)])
    r = json.loads(lines[-1])
    return Op(index, traced, elapsed, r["setup_s"], r["wall_s"], r["cpu_s"], r["peak_rss_mb"],
              r["digest"], r["problems"], r["layer"], r["spans"])


def check_determinism(ops: list[Op]) -> None:
    """An operation whose artifact digest differs from the first operation's
    fails all its repetitions: a fixed (config, seed) must give identical
    artifacts."""
    digests = [op.digest for op in ops if op.digest is not None]
    if not digests:
        return
    reference = digests[0]
    for op in ops:
        if op.digest is not None and op.digest != reference:
            for problems in op.problems:
                problems.append(f"artifact digest {op.digest[:12]} differs from {reference[:12]}")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=WORKLOADS) -> int:
    args = parse_args(argv, workloads)
    if not (SRC / "parosc" / "__init__.py").is_file():
        print(f"error: no parosc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads[args.workload]
    config_text = workload.config_text(args.seed)
    # Parsed and validated here once, so a bad config stops the run before
    # any operation starts.
    config, _ = setup(config_text)

    import numpy
    import scipy
    import parosc

    if Path(parosc.__file__).resolve().parent != (SRC / "parosc").resolve():
        print(f"error: imported parosc from {parosc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(ROOT),
        "config_hash": config.config_hash(),
        "config_text": config_text,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True), flush=True)

    reps = config.values["repetitions"] * workload.points
    # Detector samples one call synthesizes: one record per backend per repetition.
    samples = 2 * config.grid(seed=0).n_samples * reps
    run_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)

    ops: list[Op] = []
    t_start = time.perf_counter()
    while len(ops) < MIN_OPS or (
        time.perf_counter() - t_start + statistics.median(op.elapsed_s for op in ops)
        <= args.seconds
    ):
        index = len(ops)
        traced = bool(args.trace) and index % 2 == 0
        ops.append(run_op(index, workload, config_text, reps, run_dir, traced))
    check_determinism(ops)

    for op in ops:
        mode = "traced" if op.traced else "untraced"
        print(f"op {op.index}: {mode} setup {op.setup_s:.4f} s, wall {op.wall_s:.4f} s, "
              f"cpu {op.cpu_s:.4f} s, peak {op.peak_rss_mb:.1f} MiB, "
              f"failed {op.failed}/{reps}, digest {(op.digest or '-')[:16]}")
        for rep, problems in enumerate(op.problems):
            for problem in problems:
                print(f"  repetition {rep}: {problem}")

    attempted = reps * len(ops)
    failed = sum(op.failed for op in ops)
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} repetitions)")

    if args.trace:
        with open(run_dir / "trace.jsonl", "w", encoding="utf-8") as fh:
            for op in ops:
                for span in op.spans:
                    fh.write(json.dumps(span) + "\n")
        traced_ops = [op for op in ops if op.traced and op.layer]
        values = {
            name: statistics.median(op.layer[name] for op in traced_ops)
            for name in traced_ops[0].layer
        }
        traced_wall = statistics.median(op.wall_s for op in ops if op.traced)
        untraced_wall = statistics.median(op.wall_s for op in ops if not op.traced)
        values["trace.wall_traced_s"] = traced_wall
        values["trace.wall_untraced_s"] = untraced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    else:
        values = {
            "wall_s": statistics.median(op.wall_s for op in ops),
            "samples_per_s": statistics.median(samples / op.wall_s for op in ops),
            "peak_rss_mb": max(op.peak_rss_mb for op in ops),
            "setup_s": statistics.median(op.setup_s for op in ops),
            "success_rate": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:>16.6g} {m['unit']}")
    print(f"{len(ops)} operations of {reps} repetitions in {time.perf_counter() - t_start:.1f} s, "
          "each in a fresh interpreter; medians over operations")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
