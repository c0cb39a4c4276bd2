import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from parosc.config import RunConfig
from parosc.synth import RESONANT, Schedule, SimGrid, Streams

# Reduced desk grid for fast synthesis tests: all physics depends only on the
# rates and the LO offset, so shrinking the carrier keeps statistics intact.
FAST_OVERRIDES = dict(
    sample_rate="25kHz",
    carrier="5kHz",
    delta_lo="1.1kHz",
    lowpass_cutoff="2.5kHz",
    decimate="4",
    duration="30s",
    welch_segment="1s",
    fit_margin="300Hz",
    repetitions="2",
    rate_source="target",
    gamma_eff_target="20Hz",
    s_target="0.5",
    n_bar="5.8",
    seed="42",
)


def fast_config(**overrides) -> RunConfig:
    merged = dict(FAST_OVERRIDES)
    merged.update(overrides)
    return RunConfig.defaults().with_overrides(**merged)


def joined_slices(parts) -> list:
    """(tag, bytes) of every slice the (tag, part, last) stream of
    spectral.slice_parts ends, in order, its parts joined; asserts that no
    part is empty, that a slice's parts share its tag and that the last
    slice ends."""
    got, joined = [], []
    for tag, part, last in parts:
        assert len(part)
        joined.append((tag, part))
        if last:
            assert {t for t, _ in joined} == {tag}
            got.append((tag, np.concatenate([p for _, p in joined]).tobytes()))
            joined = []
    assert not joined
    return got


def single_segment_schedule(duration: float, tag: str = RESONANT) -> Schedule:
    """A record of `duration` seconds as one drive segment of class tag,
    with no settling guard."""
    return Schedule(period=duration, duration=duration, guard=0.0, tags=(tag,))


def record_streams(grid: SimGrid) -> Streams:
    """Fresh Streams of the record the grid covers whole."""
    return Streams(grid.seed, grid.dt, grid.n_samples)


def as_record(grid: SimGrid, tag: str = RESONANT) -> tuple[Schedule, int, Streams]:
    """(schedule, workers, streams) of a synthesis call on the grid as a
    whole record of one drive segment of class tag, on one worker."""
    return single_segment_schedule(grid.duration, tag), 1, record_streams(grid)
