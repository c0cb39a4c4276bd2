"""The benchmark's pinned workloads, how one operation runs, and the
correctness gate applied to what it writes.

This module imports no part of parosc at load time: ``setup`` times those
imports, so they must happen inside it.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

# Gate on the five headline estimates: each repetition's value must be finite
# and lie within PULL_LIMIT of its own fit sigma from the report's theory
# block.  The report's own pass/fail checks are not used: they fail on most
# correct runs.
GATED = {
    "s_hat": "s",
    "r_plus": "r_plus",
    "r_minus": "r_minus",
    "var_ratio_x": "var_ratio_x",
    "var_ratio_y": "var_ratio_y",
}
PULL_LIMIT = 5.0

# The test suite's fast desk grid (tests/conftest.py FAST_OVERRIDES), restated
# here so the benchmark does not depend on test code.
_FAST_GRID = """\
sample_rate = 25kHz
carrier = 5kHz
delta_lo = 1.1kHz
lowpass_cutoff = 2.5kHz
decimate = 4
duration = 30s
welch_segment = 1s
fit_margin = 300Hz
rate_source = target
gamma_eff_target = 20Hz
s_target = 0.5
n_bar = 5.8
"""


@dataclass(frozen=True)
class Workload:
    """A config (``{seed}`` is filled from the command line) and the entry
    point it drives: ``run_single`` when ``s_values`` is None, else
    ``run_sweep_ratio_vs_s`` over ``s_values``."""

    name: str
    config_template: str
    s_values: tuple[float, ...] | None = None

    @property
    def points(self) -> int:
        return 1 if self.s_values is None else len(self.s_values)

    def config_text(self, seed: int) -> str:
        return self.config_template.format(seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        # Shipped defaults, 25 M samples per backend: synth and detect on
        # records far larger than the last-level cache dominate; fitting is
        # negligible.  workers=2 is ignored by simulate today.
        Workload(
            "simulate_default",
            "repetitions = 1\nworkers = 2\nseed = {seed}\n",
        ),
        # Many small records through the thread-parallel sweep: artifact
        # writing, spectral and fitting take a much larger share.
        Workload(
            "sweep_ratios_fast",
            _FAST_GRID + "repetitions = 3\nworkers = 2\nseed = {seed}\n",
            s_values=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
        ),
        # The only workload that persists raw records (recordio), serially.
        Workload(
            "simulate_raw_serial",
            "duration = 40s\nkeep_raw = true\nrepetitions = 1\nworkers = 1\nseed = {seed}\n",
        ),
    )
}


def setup(config_text: str):
    """Imports, config parse, validation and closed-form rates: the work a
    user pays before the entry point runs.  Returns (config, seconds)."""
    t0 = time.perf_counter()
    from parosc import pipeline  # noqa: F401  (imports the whole package)
    from parosc.config import RunConfig, require_valid

    config = RunConfig.from_text(config_text)
    require_valid(config)
    config.derived_rates()
    return config, time.perf_counter() - t0


def call(workload: Workload, config, out: Path):
    """One operation through the entry point the CLI verb uses.  The entry
    point is looked up on the module at call time, so a tracer that wraps it
    sees the call."""
    from parosc import pipeline

    if workload.s_values is None:
        return pipeline.run_single(config, out)
    return pipeline.run_sweep_ratio_vs_s(config, list(workload.s_values), out)


def _report_problems(report: dict, out: Path, reps: int) -> list[list[str]]:
    """Problems of each repetition in one run_single report."""
    if report.get("mode") == "analytic_only":
        return [["analytic-only report: no synthesized data"] for _ in range(reps)]
    agg, theory = report["aggregate"], report["theory"]
    held = len(agg["s_hat"]["values"])
    if held != reps:
        return [[f"report holds {held} repetitions, expected {reps}"] for _ in range(reps)]
    missing = [a for a in report["artifacts"] if not (out / a).is_file()]
    per_rep = []
    for rep in range(reps):
        problems = [f"missing artifact {m}" for m in missing]
        for key, theory_key in GATED.items():
            value = agg[key]["values"][rep]
            sigma = agg[key]["sigmas"][rep]
            target = theory[theory_key]
            if not (math.isfinite(value) and math.isfinite(sigma) and sigma > 0.0):
                problems.append(f"{key} = {value!r} +- {sigma!r} is not finite")
            elif abs(value - target) > PULL_LIMIT * sigma:
                pull = (value - target) / sigma
                problems.append(f"{key} = {value:.6g} is {pull:+.2f} sigma from theory {target:.6g}")
        per_rep.append(problems)
    return per_rep


def gate(workload: Workload, config, result, out: Path) -> list[list[str]]:
    """Problems of each repetition of one call; an empty list means correct."""
    reps = config.values["repetitions"]
    if workload.s_values is None:
        return _report_problems(result, out, reps)
    per_rep = []
    for entry in result:
        if entry["status"] != "ok":
            per_rep.extend([f"point {entry['index']}: {entry['error']}"] for _ in range(reps))
        else:
            point_dir = out / f"point_{entry['index']:02d}"
            per_rep.extend(_report_problems(entry["report"], point_dir, reps))
    for name in ("sweep_summary.csv", "theory_overlay.csv"):
        if not (out / name).is_file():
            for problems in per_rep:
                problems.append(f"missing {name}")
    return per_rep


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 22):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()
