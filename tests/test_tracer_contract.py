"""The benchmark tracer (perfbench/spans.py) wraps package functions by
name and reads their arguments by position; these checks keep the package
side of that contract without running a benchmark."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import fast_config
from parosc import pipeline, recordio, synth

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_name_is_bound(spans):
    for mod_name, attr, span_name, _ in spans.WRAPPED:
        module = importlib.import_module(f"parosc.{mod_name}")
        assert callable(getattr(module, attr, None)), (mod_name, attr, span_name)


@pytest.mark.parametrize("name", ["simulate_scheduled_quadratures", "simulate_scheduled_envelopes"])
def test_synthesis_grid_is_the_third_argument(name):
    # the tracer counts synthesized samples as args[2].n_samples
    params = list(inspect.signature(getattr(synth, name)).parameters)
    assert params[:4] == ["osc", "rates", "grid", "schedule"]


def test_record_samples_are_the_second_argument(spans):
    # the tracer counts written bytes as np.asarray(args[1]).nbytes; a tuple
    # of channels counts as the stacked array it replaces
    params = list(inspect.signature(recordio.write_record_bin).parameters)
    assert params[:3] == ["path", "samples", "sample_rate"]
    record_bytes = next(fn for _, attr, _, fn in spans.WRAPPED if attr == "write_record_bin")
    ch_x, ch_y = np.zeros(1000), np.ones(1000)
    stacked = record_bytes(("path", np.vstack([ch_x, ch_y]), 1e3), {}, None)
    assert record_bytes(("path", (ch_x, ch_y), 1e3), {}, None) == stacked


def test_every_detect_span_is_recorded(spans, tmp_path):
    # the per-layer timings read the spans of calls made through the
    # bindings the tracer wraps; a stage that stops calling its binding
    # would read 0 and fail no other check
    tracer = spans.Tracer()
    cfg = fast_config(duration="12s", schedule_period="3s", welch_segment="0.7s", repetitions="1")
    with tracer.trace("simulate", "tiny"):
        pipeline.run_single(cfg, tmp_path / "run")
    recorded = {span.name for span in tracer.spans}
    wanted = {name for _, _, name, _ in spans.WRAPPED if name.startswith("detect.")}
    assert wanted and wanted <= recorded, wanted - recorded
