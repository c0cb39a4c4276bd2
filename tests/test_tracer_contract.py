"""The benchmark tracer (perfbench/spans.py) wraps package functions by
name and reads their arguments by position; these checks keep the package
side of that contract without running a benchmark."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from parosc import synth

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
