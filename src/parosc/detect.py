"""Heterodyne record composition and phase-coherent lock-in demodulation.

The record carrier Omega_c is the reduced stand-in for half the parametric
drive frequency, so demodulation mixes at Omega_c.  Shot noise is white and
Gaussian (flat one-sided PSD); spurious electronic peaks are available only
as an injected test tone for exercising fit exclusion masks.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft
from scipy import signal

from .errors import AliasingError, FilterDesignError, ScheduleError
from .parallel import thread_map
from .synth import (
    DETUNED,
    RESONANT,
    STREAM_SHOT_COMPONENT,
    STREAM_SHOT_WIGNER,
    Frame,
    QuadTrajectory,
    Record,
    Schedule,
    Segment,
    SimGrid,
    single_segment_schedule,
    stream_rng,
)

# Samples per carrier-mixing block (cache-sized), per shot-noise buffer, and
# the FFT length and blocks per call of the lock-in filter's overlap-save.
_MIX_BLOCK = 1 << 16
_NOISE_STRETCH = 16 * _MIX_BLOCK
_FIR_FFT = 1 << 13
_FIR_BATCH = 32

# A switch's settling transient must not eat into more than this fraction of
# its segment, otherwise the schedule is rejected as unusable.
MAX_GUARD_FRACTION = 0.25


@dataclass(frozen=True)
class DetectionParams:
    """Detector gain/noise plus lock-in settings.

    gain converts quadrature quanta to detector units; shot_psd is the flat
    one-sided noise floor in detector units^2/Hz.  lowpass_cutoff (Hz) is the
    lock-in filter passband edge; it must clear the LO offset plus the
    mechanical band and stay below the carrier.
    """

    gain: float = 1.0
    shot_psd: float = 0.0
    demod_phase: float = 0.0
    lowpass_cutoff: float = 0.0
    schedule_period: float = 5.0

    def __post_init__(self):
        if self.shot_psd < 0:
            raise ValueError(f"shot_psd must be >= 0, got {self.shot_psd}")


@dataclass
class DemodOutput:
    """Lock-in quadrature channels after mixing, low-pass and decimation.

    edge_guard is the filter half-support in seconds; usable slices trim it
    from segment tails so channel statistics cannot leak across a switch.
    """

    ch_x: np.ndarray
    ch_y: np.ndarray
    sample_rate: float
    demod_phase: float
    schedule: Schedule
    edge_guard: float = 0.0

    def usable_slices(self, tag: str) -> list[slice]:
        return self.schedule.usable_slices(
            tag, self.sample_rate, len(self.ch_x), tail_guard=self.edge_guard
        )


def schedule_drive(grid: SimGrid, period: float, gamma_minus: float) -> Schedule:
    """Alternating detuned/resonant half-periods tiling the record.

    Starts detuned (the reference class), switching every `period` seconds;
    a trailing partial period is absorbed into the last segment so the tiling
    covers [0, duration).  The settling guard 10/gamma_minus after each switch
    must fit within MAX_GUARD_FRACTION of a period.
    """
    if not period > 0:
        raise ScheduleError(f"period must be > 0, got {period}")
    if period >= grid.duration:
        raise ScheduleError(
            f"period {period} s >= duration {grid.duration} s: "
            "no resonant data would be acquired"
        )
    n_full = int(math.floor(grid.duration / period + 1e-9))
    if n_full < 2:
        raise ScheduleError(
            f"duration {grid.duration} s fits only one {period} s segment: "
            "missing resonant data"
        )
    guard = 10.0 / gamma_minus
    if guard > MAX_GUARD_FRACTION * period:
        raise ScheduleError(
            f"settling guard {guard:.3g} s exceeds {MAX_GUARD_FRACTION:.0%} of the "
            f"{period} s segment (gamma_minus = {gamma_minus:.4g} rad/s); "
            "lengthen the period or broaden the mode"
        )
    segments = []
    for k in range(n_full):
        start = k * period
        end = grid.duration if k == n_full - 1 else (k + 1) * period
        tag = DETUNED if k % 2 == 0 else RESONANT
        segments.append(Segment(start, end, tag))
    return Schedule(segments=tuple(segments), guard=guard)


def _check_nyquist(grid: SimGrid, delta_lo: float) -> None:
    f_upper = (grid.carrier + delta_lo) / (2.0 * math.pi)
    if f_upper >= grid.sample_rate / 2.0:
        raise AliasingError(
            f"upper sideband at {f_upper:.6g} Hz exceeds Nyquist "
            f"{grid.sample_rate / 2.0:.6g} Hz"
        )


def carrier_phasors(n: int, omega: float, dt: float, phase: float = 0.0):
    """Yield (i0, i1, exp(i(omega*t + phase))) with t = arange(i0, i1)*dt for
    each _MIX_BLOCK block of an n-sample record.

    The block phasor exp(i*omega*k*dt) is evaluated once per call and each
    block rotates it by the scalar exp(i(omega*i0*dt + phase)), so mixing
    costs one complex multiply per sample.  The result agrees with the direct
    exp to the rounding already present in omega*t.  Each yielded array is
    fresh, so callers may scale it in place.
    """
    block = np.exp(1j * (omega * dt * np.arange(min(n, _MIX_BLOCK))))
    for i0 in range(0, n, _MIX_BLOCK):
        i1 = min(i0 + _MIX_BLOCK, n)
        yield i0, i1, block[: i1 - i0] * cmath.exp(1j * (omega * i0 * dt + phase))


def _record_with_shot_noise(
    n: int, blocks, shot_psd: float, sample_rate: float, rng: np.random.Generator, workers: int
) -> np.ndarray:
    """n-sample record from `blocks`, an iterator of (i0, i1, values) over
    consecutive _MIX_BLOCK blocks, plus white shot noise of one-sided density
    shot_psd.  The noise of each _NOISE_STRETCH samples is drawn into one
    stretch-sized buffer, on a second thread when workers > 1, while that
    stretch is mixed; the sum is the same either way."""
    out = np.empty(n)

    def mix(n_blocks):
        for i0, i1, values in islice(blocks, n_blocks):
            out[i0:i1] = values

    if not shot_psd > 0.0:
        mix(None)
        return out
    sigma = math.sqrt(shot_psd * sample_rate / 2.0)
    noise = np.empty(min(n, _NOISE_STRETCH))

    def draw(part):
        rng.standard_normal(out=part)
        part *= sigma

    for s0 in range(0, n, _NOISE_STRETCH):
        part = noise[: min(_NOISE_STRETCH, n - s0)]
        jobs = (partial(mix, _NOISE_STRETCH // _MIX_BLOCK), partial(draw, part))
        thread_map(lambda job: job(), jobs, workers)
        out[s0 : s0 + len(part)] += part
    return out


def compose_heterodyne_wigner(
    traj: QuadTrajectory,
    det: DetectionParams,
    delta_lo: float,
    schedule: Schedule | None = None,
    frame_phase: float = 0.0,
    lo_phase: float = 0.0,
    workers: int = 1,
) -> Record:
    """Real heterodyne record from a Wigner-backend trajectory.

    samples = 2*gain*[X cos(Wc t + phi) + Y sin(Wc t + phi)]*cos(dLO t + theta)
    plus white shot noise; both motional sidebands appear at Wc +- dLO,
    phase coherent, and carry identical spectra (the symmetric record).
    """
    grid = traj.grid
    _check_nyquist(grid, delta_lo)
    if schedule is None:
        schedule = single_segment_schedule(grid.duration)
    n = grid.n_samples

    def blocks():
        for (i0, i1, car), (_, _, lo) in zip(
            carrier_phasors(n, grid.carrier, grid.dt, frame_phase),
            carrier_phasors(n, delta_lo, grid.dt, lo_phase),
        ):
            beat = car.real * traj.x[i0:i1]
            beat += car.imag * traj.y[i0:i1]
            beat *= lo.real
            beat *= 2.0 * det.gain
            yield i0, i1, beat

    out = _record_with_shot_noise(
        n, blocks(), det.shot_psd, grid.sample_rate, stream_rng(grid.seed, STREAM_SHOT_WIGNER), workers
    )
    return Record(
        samples=out,
        sample_rate=grid.sample_rate,
        schedule=schedule,
        frame=Frame(carrier=grid.carrier, delta_lo=delta_lo, lo_phase=lo_phase),
    )


def compose_heterodyne_components(
    beta_stokes: np.ndarray,
    beta_antistokes: np.ndarray,
    det: DetectionParams,
    grid: SimGrid,
    delta_lo: float,
    schedule: Schedule | None = None,
    lo_phase: float = 0.0,
    workers: int = 1,
) -> Record:
    """Real heterodyne record from the component-backend envelopes.

    samples = gain*Re{beta_S exp(i(Wc+dLO)t)} + gain*Re{beta_AS exp(i(Wc-dLO)t)}
    plus shot noise.  The one-sided PSD around each sideband centre equals the
    closed-form sideband spectrum scaled by gain^2/2 (factor documented so
    fitted weight ratios stay gain-independent).
    """
    _check_nyquist(grid, delta_lo)
    if schedule is None:
        schedule = single_segment_schedule(grid.duration)
    n = grid.n_samples

    def blocks():
        for (i0, i1, up), (_, _, dn) in zip(
            carrier_phasors(n, grid.carrier + delta_lo, grid.dt, lo_phase),
            carrier_phasors(n, grid.carrier - delta_lo, grid.dt, -lo_phase),
        ):
            up *= beta_stokes[i0:i1]
            dn *= beta_antistokes[i0:i1]
            up += dn
            yield i0, i1, det.gain * up.real

    out = _record_with_shot_noise(
        n, blocks(), det.shot_psd, grid.sample_rate, stream_rng(grid.seed, STREAM_SHOT_COMPONENT), workers
    )
    return Record(
        samples=out,
        sample_rate=grid.sample_rate,
        schedule=schedule,
        frame=Frame(carrier=grid.carrier, delta_lo=delta_lo, lo_phase=lo_phase),
    )


def add_test_tone(rec: Record, freq_hz: float, amplitude: float, phase: float = 0.0) -> Record:
    """Copy of the record with a coherent spurious tone added (for exercising
    the fitter's exclusion masks)."""
    t = np.arange(rec.n_samples) / rec.sample_rate
    samples = rec.samples + amplitude * np.cos(2.0 * math.pi * freq_hz * t + phase)
    return Record(samples=samples, sample_rate=rec.sample_rate, schedule=rec.schedule, frame=rec.frame)


def design_lockin_fir(
    sample_rate: float,
    cutoff_hz: float,
    carrier: float,
    passband_edge_hz: float,
    decimate: int = 1,
    stopband_db: float = 60.0,
    passband_ripple_db: float = 0.1,
) -> np.ndarray:
    """Linear-phase FIR for the lock-in low-pass.

    Flat (ripple < passband_ripple_db) up to passband_edge_hz, >= stopband_db
    attenuation from the stopband edge onwards.  The stopband edge is the
    tighter of the decimated Nyquist and the mixing-image band 2*fc - cutoff.
    Raises FilterDesignError when the constraints cannot be met.
    """
    f_carrier = carrier / (2.0 * math.pi)
    nyq = sample_rate / 2.0
    f_stop = 2.0 * f_carrier - cutoff_hz
    if decimate > 1:
        f_stop = min(f_stop, sample_rate / (2.0 * decimate))
    if not passband_edge_hz < cutoff_hz < f_stop:
        raise FilterDesignError(
            f"need passband edge {passband_edge_hz:.6g} Hz < cutoff {cutoff_hz:.6g} Hz "
            f"< stopband edge {f_stop:.6g} Hz at sample rate {sample_rate:.6g} Hz"
        )
    # Kaiser sized for a bit more than the requested attenuation, transition
    # from the cutoff to the stopband edge.
    width = f_stop - cutoff_hz
    numtaps, beta = signal.kaiserord(stopband_db + 5.0, width / nyq)
    numtaps |= 1
    taps = signal.firwin(numtaps, (cutoff_hz + f_stop) / 2.0, window=("kaiser", beta), fs=sample_rate)
    freqs, resp = signal.freqz(taps, worN=4096, fs=sample_rate)
    mag = np.abs(resp)
    pass_sel = freqs <= passband_edge_hz
    ripple = np.max(np.abs(20.0 * np.log10(np.maximum(mag[pass_sel], 1e-12))))
    stop_sel = freqs >= f_stop
    atten = -np.max(20.0 * np.log10(np.maximum(mag[stop_sel], 1e-300)))
    if ripple > passband_ripple_db or atten < stopband_db:
        raise FilterDesignError(
            f"designed filter misses spec: ripple {ripple:.3g} dB "
            f"(limit {passband_ripple_db}), stopband {atten:.3g} dB "
            f"(limit {stopband_db})"
        )
    return taps


def demod_baseband(
    rec: Record,
    det: DetectionParams,
    passband_edge_hz: float | None = None,
    decimate: int = 1,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Complex baseband 2 * lowpass(rec * exp(+i*carrier*t)) at zero net delay.

    The two lock-in channels at any demodulation phase theta are
    Re(e^{i theta} z) and Im(e^{i theta} z), so the baseband can be computed
    once and shared between phase search and channel extraction.  The
    low-pass is a zero-padded 'same'-mode FFT convolution (overlap-save) whose
    batches of blocks run on up to `workers` threads.
    Returns (baseband, filter_taps).
    """
    if passband_edge_hz is None:
        passband_edge_hz = rec.frame.delta_lo / (2.0 * math.pi) * 1.05
    taps = design_lockin_fir(
        rec.sample_rate, det.lowpass_cutoff, rec.frame.carrier, passband_edge_hz, decimate
    )
    n, m = rec.n_samples, len(taps)
    nfft = sp_fft.next_fast_len(max(_FIR_FFT, 4 * m))
    step = nfft - (m - 1)
    n_blocks = -(-n // step)
    # padded[h + k] holds the mixed sample k; block b reads
    # padded[b*step : b*step + nfft] and keeps its last `step` outputs
    padded = np.zeros(n_blocks * step + m - 1, dtype=complex)
    h = m // 2
    for i0, i1, ph in carrier_phasors(n, rec.frame.carrier, 1.0 / rec.sample_rate):
        ph *= rec.samples[i0:i1]
        np.multiply(ph, 2.0, out=padded[h + i0 : h + i1])
    frames = sliding_window_view(padded, nfft)[::step]
    response = sp_fft.fft(taps, nfft)
    z = np.empty(n_blocks * step, dtype=complex)

    def filter_batch(b0):
        b1 = min(b0 + _FIR_BATCH, n_blocks)
        spec = sp_fft.fft(frames[b0:b1], axis=1)
        spec *= response
        y = sp_fft.ifft(spec, axis=1, overwrite_x=True)
        z[b0 * step : b1 * step] = y[:, m - 1 :].ravel()

    thread_map(filter_batch, range(0, n_blocks, _FIR_BATCH), workers)
    return z[:n], taps


def lockin_demodulate(
    rec: Record,
    det: DetectionParams,
    passband_edge_hz: float | None = None,
    decimate: int = 1,
    baseband: tuple[np.ndarray, np.ndarray] | None = None,
) -> DemodOutput:
    """Phase-coherent demodulation at the record carrier.

    ch_x = lowpass(2*rec*cos(Wc t + theta)), ch_y with the sine reference.
    Both channels come from a single complex baseband product rotated by the
    demodulation phase, which is exactly equivalent and filter-consistent.
    """
    if baseband is None:
        baseband = demod_baseband(rec, det, passband_edge_hz, decimate)
    z, taps = baseband
    rotated = z[::decimate] * np.exp(1j * det.demod_phase)
    return DemodOutput(
        ch_x=rotated.real.copy(),
        ch_y=rotated.imag.copy(),
        sample_rate=rec.sample_rate / decimate,
        demod_phase=det.demod_phase,
        schedule=rec.schedule,
        edge_guard=(len(taps) // 2) / rec.sample_rate,
    )


def optimize_demod_phase(
    rec: Record,
    det: DetectionParams,
    passband_edge_hz: float | None = None,
    n_grid: int = 180,
    tol: float = 1e-3,
    baseband: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Demodulation phase minimizing one channel's variance on resonant data.

    Scans n_grid phases over [0, pi) and refines the minimum by golden-section
    search to `tol` radians.  The cosine channel at the returned phase carries
    the squeezed quadrature, the orthogonal channel the anti-squeezed one.
    Warns (and still returns the grid argmin) when the variance is flat in
    phase, i.e. s ~ 0 and the phase is undefined.
    """
    if baseband is None:
        baseband = demod_baseband(rec, det, passband_edge_hz)
    z, taps = baseband
    slices = rec.schedule.usable_slices(
        RESONANT, rec.sample_rate, rec.n_samples,
        tail_guard=(len(taps) // 2) / rec.sample_rate,
    )
    if not slices:
        raise ScheduleError("no resonant-drive segments to optimize the phase on")
    parts = [z[s] for s in slices]
    n_tot = sum(len(p) for p in parts)
    m1 = sum(np.sum(p) for p in parts) / n_tot
    m2 = sum(np.sum(p * p) for p in parts) / n_tot
    power = sum(np.sum(np.abs(p) ** 2) for p in parts) / n_tot

    def variance(theta: float) -> float:
        # var(Re(e^{i theta} z)) through the exact second-moment identity
        rot = np.exp(1j * theta)
        mean = (rot * m1).real
        return 0.5 * (power + (rot * rot * m2).real) - mean * mean

    grid = np.linspace(0.0, math.pi, n_grid, endpoint=False)
    values = np.array([variance(th) for th in grid])
    depth = (values.max() - values.min()) / max(values.mean(), 1e-300)
    # the sampling noise of the second moment produces a depth of order
    # 1/sqrt(N_eff) even at s = 0; only a clearly larger modulation (s of a
    # few percent and up at typical record lengths) defines a phase
    if depth < 0.1:
        warnings.warn(
            "variance is flat in the demodulation phase (s ~ 0): "
            "phase undefined, returning the grid argmin",
            stacklevel=2,
        )
        return float(grid[int(np.argmin(values))])
    k = int(np.argmin(values))
    step = math.pi / n_grid
    a = grid[k] - step
    b = grid[k] + step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = variance(c), variance(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = variance(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = variance(d)
    return float(((a + b) / 2.0) % math.pi)
