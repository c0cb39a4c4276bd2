"""Stochastic synthesis of quadrature trajectories and sideband envelopes.

Two backends realize the model:

* Wigner backend -- X and Y as independent real Ornstein-Uhlenbeck chains
  with amplitude decays gamma_plus/2 and gamma_minus/2.  The resulting
  heterodyne record is sideband-symmetric by construction (classical record);
  it serves the quadrature-demodulation path.
* Component backend -- each motional sideband as the sum of two independent
  complex OU processes, one per Lorentzian component, normalized so the
  envelope PSD equals the closed-form sideband spectra exactly.  This is the
  path that carries the sideband asymmetry.

All updates use the exact OU discretization (no step-size bias).  Every
stochastic stream is derived from the grid seed through named SeedSequence
spawn keys, so trajectories are bit-reproducible and independent streams stay
independent under any execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import signal

from .errors import (
    ParametricInstabilityError,
    QuantumSqueezingRegimeError,
    ScheduleError,
)
from .model import DerivedRates, OscillatorParams
from .parallel import thread_map

# Stream ids for SeedSequence spawn keys; never renumber, only append.
STREAM_WIGNER_X = 0
STREAM_WIGNER_Y = 1
STREAM_ENV_STOKES_NARROW = 2
STREAM_ENV_STOKES_BROAD = 3
STREAM_ENV_ANTISTOKES_NARROW = 4
STREAM_ENV_ANTISTOKES_BROAD = 5
STREAM_SHOT_WIGNER = 6
STREAM_SHOT_COMPONENT = 7
STREAM_FRAME_PHASE = 8

RESONANT = "resonant"
DETUNED = "detuned"


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible generator for a named stream of a run."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class SimGrid:
    """Uniform sampling grid with a reduced intermediate carrier.

    The carrier (rad/s) stands in for the mechanical frequency in the sampled
    record; the physics only depends on rates and offsets, so the baseband
    reduction is exact.
    """

    sample_rate: float
    duration: float
    carrier: float
    seed: int

    def __post_init__(self):
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate}")
        if not self.duration > 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))


@dataclass(frozen=True)
class Segment:
    start: float
    end: float
    tag: str


@dataclass(frozen=True)
class Schedule:
    """Alternating drive segments tiling [0, duration), plus the settling guard
    discarded after each switch before samples count as usable."""

    segments: tuple[Segment, ...]
    guard: float

    def sample_bounds(self, sample_rate: float, n_samples: int) -> list[tuple[int, int, str]]:
        """(start_index, stop_index, tag) triples covering all n_samples."""
        bounds = []
        for k, seg in enumerate(self.segments):
            i0 = int(round(seg.start * sample_rate))
            i1 = n_samples if k == len(self.segments) - 1 else int(round(seg.end * sample_rate))
            bounds.append((i0, i1, seg.tag))
        return bounds

    def usable_slices(
        self, tag: str, sample_rate: float, n_samples: int, tail_guard: float = 0.0
    ) -> list[slice]:
        """Guard-trimmed index ranges of all segments carrying `tag`.

        The settling guard trims each segment head; tail_guard (seconds)
        optionally trims the tail as well, e.g. by a filter's half support so
        demodulated statistics cannot leak across a drive switch.
        """
        guard_n = int(math.ceil(self.guard * sample_rate))
        tail_n = int(math.ceil(tail_guard * sample_rate))
        out = []
        for i0, i1, seg_tag in self.sample_bounds(sample_rate, n_samples):
            if seg_tag != tag:
                continue
            lo = i0 + guard_n
            hi = i1 if i1 >= n_samples else i1 - tail_n
            if lo < hi:
                out.append(slice(lo, hi))
        return out


def single_segment_schedule(duration: float, tag: str = RESONANT) -> Schedule:
    return Schedule(segments=(Segment(0.0, duration, tag),), guard=0.0)


@dataclass(frozen=True)
class Frame:
    """Carrier frame of a composed record: reduced carrier (rad/s), LO offset
    (rad/s) and the LO phase used during composition."""

    carrier: float
    delta_lo: float
    lo_phase: float = 0.0


@dataclass
class Record:
    """Uniformly sampled detector record with drive-schedule tags."""

    samples: np.ndarray
    sample_rate: float
    schedule: Schedule
    frame: Frame

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    def usable_slices(self, tag: str) -> list[slice]:
        return self.schedule.usable_slices(tag, self.sample_rate, self.n_samples)


@dataclass
class QuadTrajectory:
    """Sampled quadrature pair (quanta units) with its generating rates."""

    x: np.ndarray
    y: np.ndarray
    grid: SimGrid
    rates: DerivedRates


def ou_step(prev: float, decay_rate: float, stationary_var: float, dt: float, noise_draw: float) -> float:
    """One exact Ornstein-Uhlenbeck update.

    alpha = exp(-decay*dt); the chain is exactly stationary when initialized
    from the stationary variance, for any dt.
    """
    if not decay_rate > 0:
        raise ValueError(f"decay_rate must be > 0, got {decay_rate}")
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    alpha = math.exp(-decay_rate * dt)
    return alpha * prev + math.sqrt(stationary_var * (1.0 - alpha * alpha)) * noise_draw


def ou_chain(
    n: int,
    decay_rate: float,
    stationary_var: float,
    dt: float,
    rng: np.random.Generator,
    x0: float | None = None,
) -> np.ndarray:
    """Exactly stationary OU chain of length n (vectorized ou_step recursion)."""
    if n <= 0:
        return np.empty(0)
    alpha = math.exp(-decay_rate * dt)
    sigma_w = math.sqrt(stationary_var * (1.0 - alpha * alpha))
    out = np.empty(n)
    if x0 is None:
        x0 = math.sqrt(stationary_var) * rng.standard_normal()
    out[0] = x0
    if n > 1:
        w = sigma_w * rng.standard_normal(n - 1)
        out[1:], _ = signal.lfilter([1.0], [1.0, -alpha], w, zi=np.array([alpha * x0]))
    return out


def ou_chain_piecewise(
    pieces: list[tuple[int, float, float]],
    dt: float,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
    add: bool = False,
) -> np.ndarray:
    """OU chain whose (decay, variance) switch between pieces, state carried
    continuously across switches.  pieces: (n_samples, decay, stationary_var).
    The first sample is a stationary draw of the first piece.

    The chain is written into `out` when given (added to its contents when
    `add`), one piece at a time, so no full-length temporary is built."""
    if out is None:
        out = np.empty(sum(n for n, _, _ in pieces))
    pos = 0
    state: float | None = None
    for n, decay, var in pieces:
        if n == 0:
            continue
        if state is None:
            piece = ou_chain(n, decay, var, dt, rng)
        else:
            alpha = math.exp(-decay * dt)
            sigma_w = math.sqrt(var * (1.0 - alpha * alpha))
            w = sigma_w * rng.standard_normal(n)
            piece, _ = signal.lfilter([1.0], [1.0, -alpha], w, zi=np.array([alpha * state]))
        if add:
            out[pos : pos + n] += piece
        else:
            out[pos : pos + n] = piece
        pos += n
        state = piece[-1]
    return out


def complex_ou_chain(
    n: int,
    decay_rate: float,
    stationary_power: float,
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Circular complex OU chain with <|z|^2> = stationary_power."""
    half = 0.5 * stationary_power
    re = ou_chain(n, decay_rate, half, dt, rng)
    im = ou_chain(n, decay_rate, half, dt, rng)
    return re + 1j * im


def _check_synthesizable(rates: DerivedRates) -> None:
    if rates.s >= 1.0 or rates.gamma_minus <= 0.0:
        raise ParametricInstabilityError(
            f"s = {rates.s:.6g} >= 1: parametric instability, synthesis refused"
        )


def simulate_quadratures(osc: OscillatorParams, rates: DerivedRates, grid: SimGrid) -> QuadTrajectory:
    """Wigner-backend trajectory: X decays at gamma_plus/2 with the squeezed
    stationary variance, Y at gamma_minus/2 with the anti-squeezed one;
    the two chains are statistically independent."""
    _check_synthesizable(rates)
    var_x, var_y = rates.quadrature_variances()
    x = ou_chain(
        grid.n_samples, 0.5 * rates.gamma_plus, var_x, grid.dt,
        stream_rng(grid.seed, STREAM_WIGNER_X),
    )
    y = ou_chain(
        grid.n_samples, 0.5 * rates.gamma_minus, var_y, grid.dt,
        stream_rng(grid.seed, STREAM_WIGNER_Y),
    )
    return QuadTrajectory(x=x, y=y, grid=grid, rates=rates)


def detuned_reference_trajectory(
    osc: OscillatorParams, rates: DerivedRates, grid: SimGrid
) -> QuadTrajectory:
    """Reference trajectory with the parametric action removed: s forced to 0
    while gamma_eff (both tones' damping) is unchanged."""
    reference = DerivedRates.from_target(rates.gamma_eff, 0.0, rates.n_bar)
    return simulate_quadratures(osc, reference, grid)


def _envelope_component_table(rates: DerivedRates) -> dict[int, tuple[float, float]]:
    """(decay, stationary_power) per component stream.

    A complex OU with decay gamma/2 and power p has PSD p*gamma/(w^2+gamma^2/4);
    matching the closed-form component (gamma_eff/2)*weight/(w^2+gamma^2/4)
    requires p = weight / (2*(1 +- s)).
    """
    w = rates.weights
    s = rates.s
    return {
        STREAM_ENV_STOKES_NARROW: (0.5 * rates.gamma_minus, w.stokes_narrow / (2.0 * (1.0 - s))),
        STREAM_ENV_STOKES_BROAD: (0.5 * rates.gamma_plus, w.stokes_broad / (2.0 * (1.0 + s))),
        STREAM_ENV_ANTISTOKES_NARROW: (0.5 * rates.gamma_minus, w.antistokes_narrow / (2.0 * (1.0 - s))),
        STREAM_ENV_ANTISTOKES_BROAD: (0.5 * rates.gamma_plus, w.antistokes_broad / (2.0 * (1.0 + s))),
    }


def _check_weights(rates: DerivedRates) -> None:
    w = rates.weights
    if min(w.as_tuple()) < 0.0:
        raise QuantumSqueezingRegimeError(
            f"broad anti-Stokes weight {w.antistokes_broad:.6g} < 0: "
            f"quantum-squeezing regime (s > 2*n_bar, s = {rates.s:.6g}, "
            f"n_bar = {rates.n_bar:.6g}); time-domain synthesis is refused, "
            "use the analytic spectra instead"
        )


def simulate_sideband_envelopes(
    osc: OscillatorParams, rates: DerivedRates, grid: SimGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Component-backend envelopes (beta_stokes, beta_antistokes).

    Each envelope is the sum of two independent complex OU components whose
    PSDs add up to the closed-form sideband spectrum exactly; the four
    component processes are mutually independent.  Refuses negative component
    weights (s > 2*n_bar).
    """
    _check_synthesizable(rates)
    _check_weights(rates)
    table = _envelope_component_table(rates)
    chains = {
        sid: complex_ou_chain(grid.n_samples, decay, power, grid.dt, stream_rng(grid.seed, sid))
        for sid, (decay, power) in table.items()
    }
    beta_s = chains[STREAM_ENV_STOKES_NARROW] + chains[STREAM_ENV_STOKES_BROAD]
    beta_as = chains[STREAM_ENV_ANTISTOKES_NARROW] + chains[STREAM_ENV_ANTISTOKES_BROAD]
    return beta_s, beta_as


def _schedule_pieces(
    schedule: Schedule, grid: SimGrid, per_tag: dict[str, tuple[float, float]]
) -> list[tuple[int, float, float]]:
    bounds = schedule.sample_bounds(grid.sample_rate, grid.n_samples)
    return [(i1 - i0, *per_tag[tag]) for i0, i1, tag in bounds]


def simulate_scheduled_quadratures(
    osc: OscillatorParams,
    rates: DerivedRates,
    grid: SimGrid,
    schedule: Schedule,
    workers: int = 1,
) -> QuadTrajectory:
    """Wigner trajectory whose rates switch with the drive schedule: resonant
    segments use (gamma_plus, gamma_minus), detuned segments collapse both
    quadratures to gamma_eff at the thermal variance; the chain state is
    continuous across switches (the schedule guard covers settling).  The two
    independent chains run on up to `workers` threads."""
    _check_synthesizable(rates)
    var_x, var_y = rates.quadrature_variances()
    var_0 = (2.0 * rates.n_bar + 1.0) / 4.0
    streams = (
        (STREAM_WIGNER_X, 0.5 * rates.gamma_plus, var_x),
        (STREAM_WIGNER_Y, 0.5 * rates.gamma_minus, var_y),
    )

    def chain(stream):
        sid, decay, var = stream
        pieces = _schedule_pieces(schedule, grid, {
            RESONANT: (decay, var),
            DETUNED: (0.5 * rates.gamma_eff, var_0),
        })
        return ou_chain_piecewise(pieces, grid.dt, stream_rng(grid.seed, sid))

    x, y = thread_map(chain, streams, workers)
    return QuadTrajectory(x=x, y=y, grid=grid, rates=rates)


def simulate_scheduled_envelopes(
    osc: OscillatorParams,
    rates: DerivedRates,
    grid: SimGrid,
    schedule: Schedule,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Component-backend envelopes with per-segment drive switching (s -> 0 in
    detuned segments, gamma_eff unchanged).

    Each envelope is filled in place with its narrow component, then its
    broad component is added; the two envelopes run on up to `workers`
    threads, so at most that many chains are ever in flight."""
    _check_synthesizable(rates)
    _check_weights(rates)
    resonant = _envelope_component_table(rates)
    detuned = _envelope_component_table(DerivedRates.from_target(rates.gamma_eff, 0.0, rates.n_bar))

    def envelope(sids):
        z = np.empty(grid.n_samples, dtype=complex)
        for k, sid in enumerate(sids):
            # circular complex OU of power p: each quadrature carries p/2,
            # the real part drawn before the imaginary part
            halves = _schedule_pieces(schedule, grid, {
                tag: (decay, 0.5 * power)
                for tag, (decay, power) in ((RESONANT, resonant[sid]), (DETUNED, detuned[sid]))
            })
            rng = stream_rng(grid.seed, sid)
            ou_chain_piecewise(halves, grid.dt, rng, out=z.real, add=k > 0)
            ou_chain_piecewise(halves, grid.dt, rng, out=z.imag, add=k > 0)
        return z

    beta_s, beta_as = thread_map(
        envelope,
        (
            (STREAM_ENV_STOKES_NARROW, STREAM_ENV_STOKES_BROAD),
            (STREAM_ENV_ANTISTOKES_NARROW, STREAM_ENV_ANTISTOKES_BROAD),
        ),
        workers,
    )
    return beta_s, beta_as
