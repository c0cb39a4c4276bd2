"""Outside-in span tracer for the benchmark's traced runs.

It wraps layer entry points as ``parosc.pipeline`` binds them (plus
``parosc.recordio.write_record_bin``, which the pipeline calls through its
module) and restores them afterwards; no code under ``src/`` changes.  Spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import resource
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

MIB = float(1 << 20)


def _samples(args, kwargs, result):
    return {"samples": args[2].n_samples}


def _welch(args, kwargs, result):
    return {"segments": result.n_averages}


def _fit(args, kwargs, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _record_bytes(args, kwargs, result):
    return {"bytes": np.asarray(args[1]).nbytes}


# (module under parosc, attribute, span name "<layer>.<what>", counter)
WRAPPED = (
    ("pipeline", "run_single", "pipeline.run_single", None),
    ("pipeline", "require_valid", "config.validate", None),
    ("pipeline", "schedule_drive", "detect.schedule", None),
    ("pipeline", "simulate_scheduled_quadratures", "synth.quadratures", _samples),
    ("pipeline", "simulate_scheduled_envelopes", "synth.envelopes", _samples),
    ("pipeline", "compose_heterodyne_wigner", "detect.compose_wigner", None),
    ("pipeline", "compose_heterodyne_components", "detect.compose_components", None),
    ("pipeline", "demod_baseband", "detect.demod_baseband", None),
    ("pipeline", "optimize_demod_phase", "detect.phase_search", None),
    ("pipeline", "lockin_demodulate", "detect.lockin", None),
    ("pipeline", "welch_psd_chunks", "spectral.welch", _welch),
    ("pipeline", "chi2_indistinguishable", "spectral.chi2", None),
    ("pipeline", "fit_single_pair", "fitting.reference", _fit),
    ("pipeline", "fit_double_pair", "fitting.double", _fit),
    ("pipeline", "fit_quadrature", "fitting.quadrature", _fit),
    ("pipeline", "write_psd_csv_with_hash", "pipeline.artifacts", None),
    ("recordio", "write_record_bin", "recordio.write", _record_bytes),
)

LAYERS = ("config", "synth", "detect", "spectral", "fitting", "recordio", "pipeline")
# Layers whose calls move arrays; config calls carry none.
ARRAY_LAYERS = LAYERS[1:]
TIMED = (
    "synth.quadratures", "synth.envelopes",
    "detect.compose_wigner", "detect.compose_components", "detect.demod_baseband",
    "detect.phase_search", "detect.lockin",
    "spectral.welch",
    "fitting.reference", "fitting.double", "fitting.quadrature",
    "pipeline.artifacts",
    "recordio.write",
)


def _maxrss() -> int:
    """Process high-water RSS in bytes (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def array_bytes(obj, depth: int = 0) -> int:
    """Sum of ``nbytes`` of the arrays in obj, looking three levels into
    tuples, lists, dict values and dataclass fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth >= 3:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(x, depth + 1) for x in obj)
    if isinstance(obj, dict):
        return sum(array_bytes(x, depth + 1) for x in obj.values())
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name), depth + 1) for f in fields(obj))
    return 0


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    thread: int
    start: float
    rss_start: int
    end: float = float("nan")
    rss_end: int = 0
    bytes: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``trace(root_name, run_id)`` installs the wrappers for
    the duration of one operation and opens its root span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Span | None = None
        self._run_id = ""

    def _open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # Spans opened in a sweep's pool threads hang off the root span.
        parent = stack[-1].id if stack else (self._root.id if self._root else None)
        with self._lock:
            span = Span(
                id=len(self.spans), name=name, parent=parent, run_id=self._run_id,
                thread=threading.get_ident(), start=time.perf_counter(), rss_start=_maxrss(),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.rss_end = _maxrss()
        self._local.stack.pop()

    def _wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.bytes = array_bytes(args) + array_bytes(kwargs) + array_bytes(result)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def trace(self, root_name: str, run_id: str):
        import parosc.pipeline
        import parosc.recordio

        modules = {"pipeline": parosc.pipeline, "recordio": parosc.recordio}
        saved = []
        self._run_id = run_id
        try:
            for mod_name, attr, name, counter in WRAPPED:
                mod = modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original, counter))
            self._root = self._open(root_name)
            try:
                yield self._root
            finally:
                self._close(self._root)
                self._root = None
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that children cover."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    return {s.id: s.duration - _covered(s, children.get(s.id, [])) for s in spans}


def self_rss_rise(spans: list[Span]) -> dict[int, int]:
    """Span id -> rise of the RSS high-water mark across the span, less the
    rises its direct children account for."""
    child_rise: dict[int, int] = {}
    for s in spans:
        child_rise[s.parent] = child_rise.get(s.parent, 0) + (s.rss_end - s.rss_start)
    return {s.id: (s.rss_end - s.rss_start) - child_rise.get(s.id, 0) for s in spans}


def layer_metrics(spans: list[Span], root: Span, cpu_s: float, nproc: int) -> dict[str, float]:
    """Per-layer figures of one traced operation, keyed by metric name."""
    selfs = self_times(spans)
    rises = self_rss_rise(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    m: dict[str, float] = {}
    for name in TIMED:
        m[f"{name}.s"] = sum(s.duration for s in named(name))
    m["synth.msamples"] = (count("synth.quadratures", "samples") + count("synth.envelopes", "samples")) / 1e6
    m["spectral.welch.calls"] = len(named("spectral.welch"))
    m["spectral.welch.segments"] = count("spectral.welch", "segments")
    fits = [s for s in spans if s.layer == "fitting"]
    m["fitting.iterations"] = sum(s.counts.get("iterations", 0) for s in fits)
    m["fitting.converged_ratio"] = (
        sum(s.counts.get("converged", 0) for s in fits) / len(fits) if fits else 0.0
    )
    m["pipeline.artifacts.files"] = len(named("pipeline.artifacts"))
    m["pipeline.point_wait.s"] = sum(s.start - root.start for s in named("pipeline.run_single"))
    m["pipeline.cpu_util"] = cpu_s / (root.duration * nproc)
    m["recordio.write.mb"] = count("recordio.write", "bytes") / MIB
    for layer in LAYERS:
        m[f"{layer}.self.s"] = sum(selfs[s.id] for s in spans if s.layer == layer)
    for layer in ARRAY_LAYERS:
        m[f"{layer}.rss_rise_mb"] = sum(rises[s.id] for s in spans if s.layer == layer) / MIB
        m[f"{layer}.bytes_mb"] = sum(s.bytes for s in spans if s.layer == layer) / MIB
    return m
