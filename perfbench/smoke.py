"""Smoke test of the benchmark harness on a tiny grid.

    python3 perfbench/smoke.py

Runs run.main on two tiny serial workloads (a simulate that keeps raw
records and a two-point sweep), untraced and traced.  It checks that every
metric BENCHMARK.json names is printed with its unit, that the outputs pass
the correctness gate, and that in every traced operation the root span's
duration equals the sum of all self times.  Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import run
from workloads import Workload

_TINY = """\
sample_rate = 25kHz
carrier = 5kHz
delta_lo = 1.1kHz
lowpass_cutoff = 2.5kHz
decimate = 4
duration = 12s
schedule_period = 3s
welch_segment = 0.7s
fit_margin = 300Hz
rate_source = target
gamma_eff_target = 20Hz
s_target = 0.5
n_bar = 5.8
workers = 1
seed = {seed}
"""

TINY = {
    w.name: w
    for w in (
        Workload("tiny_simulate", _TINY + "repetitions = 2\nkeep_raw = true\n"),
        Workload("tiny_sweep", _TINY + "repetitions = 1\n", s_values=(0.0, 0.3)),
    )
}
SEED = 3
TOLERANCE_S = 1e-6


def run_harness(name: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(
            ["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
            workloads=TINY,
        )
    text = buf.getvalue()
    if code != 0:
        raise AssertionError(f"{name} trace={trace}: exit code {code}\n{text}")
    return json.loads(text.strip().splitlines()[-1])


def check_result(name: str, trace: int, result: dict, expected: dict) -> None:
    where = f"{name} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0, f"{where}: {result}"
    assert result["attempted"] >= 1, where
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        f"{where}: missing {sorted(set(expected) - set(metrics))}, "
        f"extra {sorted(set(metrics) - set(expected))}"
    )
    for metric, unit in expected.items():
        value = metrics[metric]["value"]
        assert metrics[metric]["unit"] == unit, f"{where}: {metric} unit {metrics[metric]['unit']}"
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {metric} = {value}"


def check_self_times(name: str) -> int:
    """Root duration equals the sum of self times in every traced operation
    (the tiny workloads are serial, so no spans overlap)."""
    from spans import Span, self_times

    path = run.OUT / f"{name}-seed{SEED}-trace1" / "trace.jsonl"
    by_run: dict[str, list[Span]] = {}
    for line in path.read_text().splitlines():
        span = Span(**json.loads(line))
        by_run.setdefault(span.run_id, []).append(span)
    for run_id, spans in by_run.items():
        root = next(s for s in spans if s.parent is None)
        total = sum(self_times(spans).values())
        assert abs(total - root.duration) <= TOLERANCE_S, (
            f"{name} {run_id}: root {root.duration:.9f} s, self sum {total:.9f} s"
        )
    return len(by_run)


def main() -> int:
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    try:
        for name in TINY:
            for trace, expected in ((0, end_to_end), (1, per_layer)):
                result = run_harness(name, trace)
                check_result(name, trace, result, expected)
            n = check_self_times(name)
            print(f"ok {name}: {len(end_to_end)} end-to-end and {len(per_layer)} per-layer "
                  f"metrics with units; self times sum to the root in {n} traced operations")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
