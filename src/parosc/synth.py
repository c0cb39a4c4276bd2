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

Both backends follow the drive schedule: resonant segments carry the
parametric rates, detuned segments the reference rates (s = 0, gamma_eff
unchanged).  Each has one entry point, simulate_scheduled_quadratures and
simulate_scheduled_envelopes, which synthesize any contiguous piece of a
record and return its plain arrays: the quadratures (x, y) and the
envelopes (beta_stokes, beta_antistokes).  Every real chain is an
OUChain: the exact OU discretization (no step-size bias), started from a
stationary draw and drawn in pieces that consume the same normals in the
same order as one draw.  ou_step is the scalar form of that update.  The
chain runs its recursion as a scaled cumulative sum in chunks that do not
depend on how it is split (OUChain).  numpy's cumulative sum holds the
GIL, but the normal draws, most of a chain's time, release it, so the
streams overlap on threads.
Every stochastic stream is derived from the grid seed through named
SeedSequence spawn keys, so trajectories are bit-reproducible and
independent streams stay independent under any execution order.

A complex component stream draws its real part for the whole record, then
its imaginary part.  Its imaginary chain has a generator of its own on the
same stream id that first discards the normals the real chain uses, so a
record synthesized one piece at a time draws both parts of each piece
together and still gets the normals of that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import numpy.random  # numpy would load it on first use, inside a run

from .errors import ParametricInstabilityError, QuantumSqueezingRegimeError
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

# An IMAG chain's skip discards the REAL chain's normals this many at a time.
_DRAW_BLOCK = 1 << 16
# Samples per chunk of an OU chain's scaled cumulative sum, at most: each
# decay's powers hold 2*_CHUNK doubles (256 KiB).  Below _ALPHA_MIN a
# chain keeps no memory (OUChain).
_CHUNK = 1 << 14
_ALPHA_MIN = math.exp(-600.0)

RESONANT = "resonant"
DETUNED = "detuned"

# The two parts of a complex component stream, in its draw order: the real
# part over the whole record, then the imaginary part.
REAL = "real"
IMAG = "imag"


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible generator for a named stream of a run."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class SimGrid:
    """Uniform sampling grid with a reduced intermediate carrier.

    The carrier (rad/s) stands in for the mechanical frequency in the sampled
    record; the physics only depends on rates and offsets, so the baseband
    reduction is exact.  A grid may cover any contiguous piece of a record:
    `start` is the record index of its first sample.
    """

    sample_rate: float
    duration: float
    carrier: float
    seed: int
    start: int = 0

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

    def segment(self, i0: int, i1: int) -> "SimGrid":
        """The part of this grid holding its samples [i0, i1)."""
        return replace(self, duration=(i1 - i0) / self.sample_rate, start=self.start + i0)


@dataclass(frozen=True)
class Schedule:
    """Periodic drive segments tiling [0, duration), plus the settling guard
    discarded after each switch before samples count as usable.  Segment k
    spans [k*period, (k+1)*period), the last one running on to duration,
    and carries tags[k % len(tags)]; nothing is held per segment."""

    period: float
    duration: float
    guard: float
    tags: tuple[str, ...]

    @property
    def n_segments(self) -> int:
        """Whole periods in the duration; the last segment takes the rest."""
        return int(math.floor(self.duration / self.period + 1e-9))

    def n_samples(self, sample_rate: float) -> int:
        """Length of the record the schedule tiles."""
        return int(round(self.duration * sample_rate))

    def bounds(self, k: int, sample_rate: float, n_samples: int) -> tuple[int, int, str]:
        """(start_index, stop_index, tag) of segment k; the last segment
        stops at n_samples."""
        i0 = int(round(k * self.period * sample_rate))
        i1 = n_samples if k == self.n_segments - 1 else int(round((k + 1) * self.period * sample_rate))
        return i0, i1, self.tags[k % len(self.tags)]

    def sample_bounds(self, sample_rate: float, n_samples: int):
        """Iterator of the bounds of every segment, covering all n_samples."""
        return (self.bounds(k, sample_rate, n_samples) for k in range(self.n_segments))

    def usable_slices(self, sample_rate: float, n_samples: int, tail_guard: float = 0.0):
        """Iterator of (tag, index range) of every segment's guard-trimmed
        usable part, in record order.

        The settling guard trims each segment head; tail_guard (seconds)
        optionally trims the tail as well, e.g. by a filter's half support so
        demodulated statistics cannot leak across a drive switch.
        """
        guard_n = int(math.ceil(self.guard * sample_rate))
        tail_n = int(math.ceil(tail_guard * sample_rate))
        for i0, i1, tag in self.sample_bounds(sample_rate, n_samples):
            lo = i0 + guard_n
            hi = i1 if i1 >= n_samples else i1 - tail_n
            if lo < hi:
                yield tag, slice(lo, hi)


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


@lru_cache(maxsize=8)
def _ou_powers(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(alpha**-k, alpha**k) for k = 0 .. L, L the chunk length of an OU
    chain at _ALPHA_MIN < alpha < 1: _CHUNK, cut so that alpha**-L stays
    below 1/_ALPHA_MIN = e**600.  Shared read-only between calls."""
    n = _CHUNK if alpha > _ALPHA_MIN ** (1.0 / _CHUNK) else int(600.0 / -math.log(alpha))
    k = np.arange(n + 1, dtype=float)
    rise, fall = np.power(alpha, -k), np.power(alpha, k)
    rise.flags.writeable = fall.flags.writeable = False
    return rise, fall


class OUChain:
    """Exact OU chain (the ou_step recursion, vectorized) drawn in
    consecutive pieces whose (decay, variance) may differ, the state carried
    continuously across pieces.  The first sample is a stationary draw of
    the first piece.

    The recursion y[n] = alpha*y[n-1] + w[n] runs in chunks: one starts
    where (decay, variance) last changed and then every L samples
    (_ou_powers).  Within the chunk anchored at sample c,
    y[n] = alpha**(n-c) * (y[c] + sum over c < k <= n of alpha**(c-k)*w[k]),
    a scaled cumulative sum.  The chain carries the running sum and the
    offset in the chunk, so a call that starts mid-chunk continues the same
    sequential sum: drawing a chain in any split of its pieces consumes the
    same normals in the same order and gives the chain drawn whole, to the
    bit.  At alpha below e**-600 the term alpha*y[n-1] is far below the
    rounding of w[n] and y[n] = w[n].  The first draw discards `skip`
    normals of the generator, _DRAW_BLOCK at a time, before it takes any."""

    def __init__(self, rng: np.random.Generator, dt: float):
        self.rng = rng
        self.dt = dt
        self.state: float | None = None  # the last sample drawn
        self.skip = 0
        self._params: tuple[float, float] | None = None  # (decay, var) of the chunk
        self._sum = 0.0  # the chunk's running sum at its last sample drawn
        self._offset = 0  # samples drawn since the chunk's anchor

    def draw(
        self, n: int, decay: float, var: float, out: np.ndarray | None = None, add: bool = False
    ) -> np.ndarray:
        """The next n samples, written into `out` when given (added to its
        contents when `add`)."""
        if out is None:
            out, add = np.empty(n), False
        if n == 0:
            return out
        if self.skip:
            discard = np.empty(min(self.skip, _DRAW_BLOCK))
            for b0 in range(0, self.skip, _DRAW_BLOCK):
                self.rng.standard_normal(out=discard[: min(_DRAW_BLOCK, self.skip - b0)])
            self.skip = 0
        alpha = math.exp(-decay * self.dt)
        sigma_w = math.sqrt(var * (1.0 - alpha * alpha))
        i0 = 0
        if self.state is None:
            self.state = math.sqrt(var) * self.rng.standard_normal()
            out[0] = out[0] + self.state if add else self.state
            i0 = 1
        if (decay, var) != self._params:
            self._params, self._offset = (decay, var), 0
        rise, fall = _ou_powers(alpha) if alpha > _ALPHA_MIN else (None, None)
        chunk = _CHUNK if rise is None else len(rise) - 1
        buf = np.empty(min(n - i0, _CHUNK))
        while i0 < n:
            if self._offset == chunk:
                self._offset = 0
            if self._offset == 0:
                self._sum = self.state
            m = min(n - i0, chunk - self._offset)
            block = self.rng.standard_normal(out=buf[:m])
            block *= sigma_w
            if rise is not None:
                k = self._offset + 1
                block *= rise[k : k + m]
                block[0] += self._sum
                np.cumsum(block, out=block)
                self._sum = block[-1]
                block *= fall[k : k + m]
                self._offset += m
            self.state = block[-1]
            if add:
                out[i0 : i0 + m] += block
            else:
                out[i0 : i0 + m] = block
            i0 += m
        return out


class Streams:
    """The random streams of one record of n_samples samples: one generator
    per stream id and the OU chains drawn from them, and the tables the
    record's stages use on every piece.  A record synthesized one piece at
    a time passes the same Streams to every piece's call, so each stream
    continues where the previous piece left it."""

    def __init__(self, seed: int, dt: float, n_samples: int):
        self.seed = seed
        self.dt = dt
        self.n_samples = n_samples
        self._rngs: dict[int, np.random.Generator] = {}
        self._chains: dict[tuple[int, str], OUChain] = {}
        self._tables: dict[tuple, np.ndarray] = {}

    def table(self, make, *args) -> np.ndarray:
        """make(*args), made on the first call for these arguments and held
        as long as the Streams: a table that every piece of the record uses
        (a mixing phasor) is made once per record and goes with it."""
        key = (make, *args)
        if key not in self._tables:
            self._tables[key] = make(*args)
        return self._tables[key]

    @classmethod
    def for_grid(cls, grid: "SimGrid", streams: "Streams | None" = None) -> "Streams":
        """`streams` when given, else fresh streams of the grid as a record."""
        return cls(grid.seed, grid.dt, grid.n_samples) if streams is None else streams

    def rng(self, sid: int) -> np.random.Generator:
        if sid not in self._rngs:
            self._rngs[sid] = stream_rng(self.seed, sid)
        return self._rngs[sid]

    def chain(self, sid: int, part: str = REAL) -> OUChain:
        """The OU chain of a stream.  A complex stream's IMAG chain draws
        from a second generator of the stream id, past the n_samples normals
        its REAL chain takes over the record: the normals that follow them
        in the stream."""
        key = (sid, part)
        if key not in self._chains:
            if part == REAL:
                chain = OUChain(self.rng(sid), self.dt)
            else:
                chain = OUChain(stream_rng(self.seed, sid), self.dt)
                chain.skip = self.n_samples
            self._chains[key] = chain
        return self._chains[key]


def _check_synthesizable(rates: DerivedRates) -> None:
    if rates.s >= 1.0 or rates.gamma_minus <= 0.0:
        raise ParametricInstabilityError(
            f"s = {rates.s:.6g} >= 1: parametric instability, synthesis refused"
        )


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
    if w.quantum_squeezed:
        raise QuantumSqueezingRegimeError(
            f"broad anti-Stokes weight {w.antistokes_broad:.6g} < 0: "
            f"quantum-squeezing regime (s > 2*n_bar, s = {rates.s:.6g}, "
            f"n_bar = {rates.n_bar:.6g}); time-domain synthesis is refused, "
            "use the analytic spectra instead"
        )


def _schedule_pieces(schedule: Schedule | None, grid: SimGrid) -> list[tuple[int, str]]:
    """(n_samples, tag) of the drive segments' parts on the grid, which
    every chain of a synthesis call shares; without a schedule the grid is
    one resonant segment.  Rounded starts put the grid's first sample in
    segment start // (period*fs) or the next, so the search starts one
    segment before, in case the division rounds up: a call computes the
    bounds of the segments it overlaps and of at most two more."""
    if schedule is None:
        return [(grid.n_samples, RESONANT)]
    fs, lo, hi = grid.sample_rate, grid.start, grid.start + grid.n_samples
    pieces = []
    for k in range(max(int(lo // (schedule.period * fs)) - 1, 0), schedule.n_segments):
        i0, i1, tag = schedule.bounds(k, fs, hi)
        if i0 >= hi:
            break
        if i1 > lo:
            pieces.append((min(i1, hi) - max(i0, lo), tag))
    return pieces


def _draw_pieces(chain: OUChain, pieces, per_tag, out: np.ndarray, add: bool = False) -> np.ndarray:
    """Draw the chain over the pieces into out, each at its tag's (decay, var)."""
    pos = 0
    for n, tag in pieces:
        chain.draw(n, *per_tag[tag], out=out[pos : pos + n], add=add)
        pos += n
    return out


def simulate_scheduled_quadratures(
    osc: OscillatorParams,
    rates: DerivedRates,
    grid: SimGrid,
    schedule: Schedule | None = None,
    workers: int = 1,
    streams: Streams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Wigner quadratures (x, y), in quanta units, whose rates switch with
    the drive schedule: resonant segments use (gamma_plus, gamma_minus),
    detuned segments collapse both quadratures to gamma_eff at the thermal
    variance; the chain state is continuous across switches (the schedule
    guard covers settling).  The two independent chains run on up to
    `workers` threads.

    Without a schedule the whole grid is resonant.  The grid may be any
    contiguous piece of the record; `streams` then carries both chains from
    the previous piece."""
    _check_synthesizable(rates)
    streams = Streams.for_grid(grid, streams)
    var_x, var_y = rates.quadrature_variances()
    detuned = (0.5 * rates.gamma_eff, (2.0 * rates.n_bar + 1.0) / 4.0)
    pieces = _schedule_pieces(schedule, grid)
    # chains are looked up here, not on the pool's threads
    quadratures = (
        (streams.chain(STREAM_WIGNER_X), (0.5 * rates.gamma_plus, var_x)),
        (streams.chain(STREAM_WIGNER_Y), (0.5 * rates.gamma_minus, var_y)),
    )

    def draw(quadrature):
        chain, resonant = quadrature
        per_tag = {RESONANT: resonant, DETUNED: detuned}
        return _draw_pieces(chain, pieces, per_tag, np.empty(grid.n_samples))

    x, y = thread_map(draw, quadratures, workers)
    return x, y


def simulate_scheduled_envelopes(
    osc: OscillatorParams,
    rates: DerivedRates,
    grid: SimGrid,
    schedule: Schedule | None = None,
    workers: int = 1,
    streams: Streams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Component-backend envelopes (beta_stokes, beta_antistokes) with
    per-segment drive switching (s -> 0 in detuned segments, gamma_eff
    unchanged); without a schedule the whole grid is resonant.

    Each envelope is the sum of two independent complex OU components whose
    PSDs add up to the closed-form sideband spectrum exactly; the four
    component processes are mutually independent.  Refuses negative component
    weights (s > 2*n_bar).

    Each component stream's real and imaginary parts are drawn by its REAL
    and IMAG chains (Streams.chain), which give the normals of drawing the
    real part over the whole record before the imaginary part; each
    envelope part is filled with its narrow component, then its broad
    component is added.  The two envelopes run on up to `workers` threads.
    The grid may be any contiguous piece of the record; `streams` then
    carries the chains from the previous piece."""
    _check_synthesizable(rates)
    _check_weights(rates)
    streams = Streams.for_grid(grid, streams)
    resonant = _envelope_component_table(rates)
    detuned = _envelope_component_table(DerivedRates.from_target(rates.gamma_eff, 0.0, rates.n_bar))
    pieces = _schedule_pieces(schedule, grid)

    # chains are looked up here, not on the pool's threads
    chains = {(sid, p): streams.chain(sid, p) for sid in resonant for p in (REAL, IMAG)}

    def fill(out, sids, p):
        for k, sid in enumerate(sids):
            # circular complex OU of power p: each quadrature carries p/2
            per_tag = {RESONANT: resonant[sid], DETUNED: detuned[sid]}
            per_tag = {tag: (decay, 0.5 * power) for tag, (decay, power) in per_tag.items()}
            _draw_pieces(chains[sid, p], pieces, per_tag, out, add=k > 0)
        return out

    def envelope(sids):
        z = np.empty(grid.n_samples, dtype=complex)
        fill(z.real, sids, REAL)
        fill(z.imag, sids, IMAG)
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
