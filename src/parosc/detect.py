"""Heterodyne record composition and phase-coherent lock-in demodulation.

The record carrier Omega_c is the reduced stand-in for half the parametric
drive frequency, so demodulation mixes at Omega_c.  Shot noise is white and
Gaussian (flat one-sided PSD).

The stages hand on plain arrays, with the SimGrid of the record piece they
cover: the compose functions turn the synthesized arrays into record
samples, and demod_baseband feeds those into a Baseband (lockin_baseband,
made before the record's first piece), which only mixes, filters and
decimates: it hands on the decimated baseband samples each piece completes
and holds no more of them.  The caller cuts those pieces at their usable
slices (spectral.slice_parts), in record order, feeding each part to the
complex Welch estimate of its drive class and, on resonant drive, adding it
to the phase sums (add_phase_sums), as it comes.  Once the record is fed,
optimize_demod_phase reads theta* from the phase sums and
lockin_demodulate the channel spectra at theta* from the Welch sums.

With workers > 1, beside the synthesis streams (synth) and the Welch rows
(spectral), a piece's shot-noise draw runs beside its carrier mixing and
the lock-in filters its overlap-save blocks in batches side by side.  The
mixing is one call over the piece, on the calling thread in Baseband.feed.

Every mixing table belongs to its record's Streams (Streams.table): the
Wigner composition and the lock-in of one record mix at the carrier from
one array, made once for the record and gone with it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AliasingError, FilterDesignError, ScheduleError
from .parallel import thread_map
from .spectral import Psd, Welch
from .synth import (
    DETUNED,
    RESONANT,
    STREAM_SHOT_COMPONENT,
    STREAM_SHOT_WIGNER,
    Schedule,
    SimGrid,
    Streams,
)

# Samples per carrier-mixing block (cache-sized), and the shortest FFT
# length and the blocks per call of the lock-in filter's overlap-save (its
# FFT length is the power of two at least this and four filter lengths).
_MIX_BLOCK = 1 << 16
_FIR_FFT = 1 << 13
_FIR_BATCH = 16

# A switch's settling transient must not eat into more than this fraction of
# its segment, otherwise the schedule is rejected as unusable.
MAX_GUARD_FRACTION = 0.25
# The most drive segments a record may hold (about six days of record at
# the default 5 s period).  A schedule is computed segment by segment, so
# this bounds the record, not a structure held in memory.
MAX_SEGMENTS = 100_000

# The sampling noise of the second moment gives the channel variance a
# modulation depth over phase of order 1/sqrt(N_eff) even at s = 0; only a
# clearly larger depth (s of a few percent and up at typical record
# lengths) defines a demodulation phase.
FLAT_PHASE_DEPTH = 0.1

# The lock-in filter's design limits: at most this passband ripple, at least
# this stopband attenuation (dB), at most this many taps (the defaults: 381).
PASSBAND_RIPPLE_DB = 0.1
STOPBAND_DB = 60.0
MAX_TAPS = 1 << 16


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
    lowpass_cutoff: float = 0.0

    def __post_init__(self):
        if self.shot_psd < 0:
            raise ValueError(f"shot_psd must be >= 0, got {self.shot_psd}")


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
    if grid.duration / period > MAX_SEGMENTS:
        raise ScheduleError(
            f"duration {grid.duration:.6g} s holds more than {MAX_SEGMENTS} "
            f"drive segments of {period:.6g} s"
        )
    schedule = Schedule(period=period, duration=grid.duration, guard=10.0 / gamma_minus,
                        tags=(DETUNED, RESONANT))
    if schedule.n_segments < 2:
        raise ScheduleError(
            f"duration {grid.duration} s fits only one {period} s segment: "
            "missing resonant data"
        )
    if schedule.guard > MAX_GUARD_FRACTION * period:
        raise ScheduleError(
            f"settling guard {schedule.guard:.3g} s exceeds {MAX_GUARD_FRACTION:.0%} of the "
            f"{period} s segment (gamma_minus = {gamma_minus:.4g} rad/s); "
            "lengthen the period or broaden the mode"
        )
    return schedule


def _check_nyquist(grid: SimGrid, delta_lo: float) -> None:
    f_upper = (grid.carrier + delta_lo) / (2.0 * math.pi)
    if f_upper >= grid.sample_rate / 2.0:
        raise AliasingError(
            f"upper sideband at {f_upper:.6g} Hz exceeds Nyquist "
            f"{grid.sample_rate / 2.0:.6g} Hz"
        )


def _block_phasor(omega: float, dt: float, n: int) -> np.ndarray:
    """The block phasor exp(i*omega*k*dt), k < n, read-only."""
    phasor = np.exp(1j * (omega * dt * np.arange(n)))
    phasor.flags.writeable = False
    return phasor


def _record_phasors(streams: Streams, n: int, omega: float, dt: float, phase: float, start: int):
    """Yield (i0, i1, exp(i(omega*t + phase))) with t = arange(i0, i1)*dt for
    the samples [start, start + n) of a record, cut at the record's
    _MIX_BLOCK boundaries.

    The block phasor exp(i*omega*k*dt) is evaluated once per record, held
    by the record's Streams (_phasor_table) and gone with it, and
    each piece rotates its part of it by the scalar
    exp(i(omega*b*dt + phase)) of its block start b, so mixing costs one
    complex multiply per sample and a record mixed one piece at a time gets
    the phasors of the whole record.  The result agrees with the direct exp
    to the rounding already present in omega*t.  Each yielded array is
    fresh, so callers may scale it in place."""
    block = _phasor_table(streams, omega, dt, start + n)
    return _rotated_blocks(block, n, omega, dt, phase, start)


def _phasor_table(streams: Streams, omega: float, dt: float, end: int) -> np.ndarray:
    """The record's block phasor at omega, long enough for its samples
    [0, end) and at most _MIX_BLOCK: one array per record, whoever asks."""
    return streams.table(_block_phasor, omega, dt, min(max(streams.n_samples, end), _MIX_BLOCK))


def _rotated_blocks(block: np.ndarray, n: int, omega: float, dt: float, phase: float, start: int):
    end = start + n
    i0 = start
    while i0 < end:
        b = i0 - i0 % _MIX_BLOCK
        i1 = min(b + _MIX_BLOCK, end)
        yield i0, i1, block[i0 - b : i1 - b] * cmath.exp(1j * (omega * b * dt + phase))
        i0 = i1


def _mix_into(out: np.ndarray, mix, shot_psd: float, sample_rate: float,
              rng: np.random.Generator, workers: int) -> None:
    """Fill out by calling mix() once, which writes the record samples of
    its piece into out, and add white shot noise of one-sided density
    shot_psd drawn from rng into one buffer.  Without noise mix() runs on
    the calling thread; with it, mix() and the draw run side by side, on
    two pool threads when workers > 1.  The sum is the same either way."""
    if not shot_psd > 0.0:
        return mix()
    sigma = math.sqrt(shot_psd * sample_rate / 2.0)
    noise = np.empty(len(out))

    def draw():
        np.multiply(rng.standard_normal(out=noise), sigma, out=noise)

    thread_map(lambda job: job(), (mix, draw), workers)
    out += noise


def compose_heterodyne_wigner(
    x: np.ndarray,
    y: np.ndarray,
    det: DetectionParams,
    grid: SimGrid,
    delta_lo: float,
    frame_phase: float = 0.0,
    workers: int = 1,
    streams: Streams | None = None,
) -> np.ndarray:
    """Samples of the real heterodyne record of the Wigner-backend
    quadratures x, y on the grid.

    samples = 2*gain*[X cos(Wc t + phi) + Y sin(Wc t + phi)]*cos(dLO t)
    plus white shot noise; both motional sidebands appear at Wc +- dLO,
    phase coherent, and carry identical spectra (the symmetric record).
    The grid may be any contiguous piece of the record (grid.start); the
    result then holds that piece's samples, `streams` carrying the shot
    noise from the previous one.
    """
    _check_nyquist(grid, delta_lo)
    start = grid.start
    out = np.empty(grid.n_samples)
    streams = Streams.for_grid(grid, streams)

    def mix():
        # Each block is computed in its place in out and in its fresh
        # phasors.  The two phasor streams are stepped in turn, not zipped:
        # zip would hold the last pair while the next is made.
        los = _record_phasors(streams, len(out), delta_lo, grid.dt, 0.0, start)
        for i0, i1, car in _record_phasors(streams, len(out), grid.carrier, grid.dt, frame_phase,
                                           start):
            lo = next(los)[2]
            j0, j1 = i0 - start, i1 - start
            beat = np.multiply(car.real, x[j0:j1], out=out[j0:j1])
            beat += np.multiply(car.imag, y[j0:j1], out=car.imag)
            beat *= lo.real
            beat *= 2.0 * det.gain
            del car, lo  # before the next block's phasors are made

    _mix_into(out, mix, det.shot_psd, grid.sample_rate, streams.rng(STREAM_SHOT_WIGNER), workers)
    return out


def compose_heterodyne_components(
    beta_stokes: np.ndarray,
    beta_antistokes: np.ndarray,
    det: DetectionParams,
    grid: SimGrid,
    delta_lo: float,
    workers: int = 1,
    streams: Streams | None = None,
) -> np.ndarray:
    """Samples of the real heterodyne record of the component-backend
    envelopes on the grid.

    samples = gain*Re{beta_S exp(i(Wc+dLO)t)} + gain*Re{beta_AS exp(i(Wc-dLO)t)}
    plus shot noise.  The one-sided PSD around each sideband centre equals the
    closed-form sideband spectrum scaled by gain^2/2 (factor documented so
    fitted weight ratios stay gain-independent).

    The grid may be any contiguous piece of the record (grid.start); the
    result then holds that piece's samples, `streams` carrying the shot
    noise from the previous one.  Each sample is the Re(beta) cos sweep,
    plus the -Im(beta) sin sweep, plus the shot noise, added in that order.
    """
    _check_nyquist(grid, delta_lo)
    start = grid.start
    samples = np.empty(grid.n_samples)
    streams = Streams.for_grid(grid, streams)

    def mix():
        # Re{beta e^{i phi}} = Re(beta) cos(phi) - Im(beta) sin(phi); each
        # block is computed in its place in samples and in its fresh phasors,
        # the phasor streams stepped in turn as in compose_heterodyne_wigner
        dns = _record_phasors(streams, len(samples), grid.carrier - delta_lo, grid.dt, 0.0, start)
        for i0, i1, up in _record_phasors(streams, len(samples), grid.carrier + delta_lo, grid.dt,
                                          0.0, start):
            dn = next(dns)[2]
            j0, j1 = i0 - start, i1 - start
            b_s, b_as = beta_stokes[j0:j1], beta_antistokes[j0:j1]
            mixed = np.multiply(up.real, b_s.real, out=samples[j0:j1])
            mixed += np.multiply(dn.real, b_as.real, out=dn.real)
            mixed *= det.gain
            quad = np.multiply(up.imag, b_s.imag, out=up.imag)
            quad += np.multiply(dn.imag, b_as.imag, out=dn.imag)
            quad *= -det.gain
            mixed += quad
            del up, dn, quad  # before the next block's phasors are made

    _mix_into(samples, mix, det.shot_psd, grid.sample_rate, streams.rng(STREAM_SHOT_COMPONENT),
              workers)
    return samples


def _freqz_response(taps: np.ndarray) -> np.ndarray:
    """The response on scipy.signal.freqz's grid of 4096 points below
    Nyquist: every r-th bin of an FFT at least as long as the filter."""
    r = -(-len(taps) // 8192)
    return np.fft.rfft(taps, 8192 * r)[: 4096 * r : r]


def design_lockin_fir(
    sample_rate: float,
    cutoff_hz: float,
    carrier: float,
    passband_edge_hz: float,
    decimate: int = 1,
) -> np.ndarray:
    """Linear-phase FIR for the lock-in low-pass.

    Flat (ripple < PASSBAND_RIPPLE_DB) up to passband_edge_hz, >= STOPBAND_DB
    attenuation from the stopband edge onwards.  The stopband edge is the
    tighter of the decimated Nyquist and the mixing-image band 2*fc - cutoff.
    Raises FilterDesignError when the constraints or MAX_TAPS cannot be met.
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
    # from the cutoff to the stopband edge: scipy.signal.kaiserord's two
    # formulas (beta as for more than 50 dB).
    width = f_stop - cutoff_hz
    atten_db = STOPBAND_DB + 5.0
    beta = 0.1102 * (atten_db - 8.7)
    numtaps = int(math.ceil((atten_db - 7.95) / 2.285 / (math.pi * (width / nyq)) + 1))
    numtaps |= 1
    if numtaps > MAX_TAPS:
        raise FilterDesignError(f"the filter needs {numtaps} taps, more than {MAX_TAPS}")
    # scipy.signal.firwin's Kaiser-windowed sinc at the mid-transition
    # cutoff (a fraction of Nyquist), scaled to unit gain at DC
    cutoff = ((cutoff_hz + f_stop) / 2.0) / nyq
    m = np.arange(numtaps) - 0.5 * (numtaps - 1)
    taps = cutoff * np.sinc(cutoff * m) * np.kaiser(numtaps, beta)
    taps /= np.sum(taps)
    freqs = np.linspace(0.0, math.pi, 4096, endpoint=False) * (sample_rate / (2.0 * math.pi))
    mag = np.abs(_freqz_response(taps))
    pass_sel = freqs <= passband_edge_hz
    ripple = np.max(np.abs(20.0 * np.log10(np.maximum(mag[pass_sel], 1e-12))))
    stop_sel = freqs >= f_stop
    if not np.any(stop_sel):
        raise FilterDesignError(
            f"stopband edge {f_stop:.6g} Hz leaves no response point below "
            f"the Nyquist frequency {nyq:.6g} Hz"
        )
    atten = -np.max(20.0 * np.log10(np.maximum(mag[stop_sel], 1e-300)))
    if ripple > PASSBAND_RIPPLE_DB or atten < STOPBAND_DB:
        raise FilterDesignError(
            f"designed filter misses spec: ripple {ripple:.3g} dB "
            f"(limit {PASSBAND_RIPPLE_DB}), stopband {atten:.3g} dB "
            f"(limit {STOPBAND_DB})"
        )
    return taps


class Baseband:
    """Lock-in baseband of one record, fed one piece of the record at a time.

    z[j] is the complex baseband 2*lowpass(rec*exp(+i*carrier*t)) at record
    sample j*decimate, at zero net delay.  The low-pass is a zero-padded
    'same'-mode FFT convolution (overlap-save) whose blocks sit on the
    record's sample grid: each piece is mixed and appended to the unfiltered
    tail the blocks so far left, every block whose input is complete is
    filtered, and the tail (at least m-1 samples for m taps) is carried to
    the next piece.  Feeding a record in pieces therefore gives what feeding
    it whole gives.

    Of the full-rate baseband only the decimated samples are kept, and only
    until they are handed on: `feed` returns the ones its piece completed.
    The carrier table is the record's (streams), taken when the Baseband is
    made.
    """

    def __init__(self, taps: np.ndarray, sample_rate: float, carrier: float, schedule: Schedule,
                 decimate: int, streams: Streams):
        m = len(taps)
        self.taps = taps
        self.n_samples = schedule.n_samples(sample_rate)
        self.sample_rate = sample_rate
        self.carrier = carrier
        self.schedule = schedule
        self.decimate = decimate
        self._axis = lockin_axis(schedule, sample_rate, m, decimate)
        self.n_decimated = self._axis[1]
        self._nfft = 1 << (max(_FIR_FFT, 4 * m) - 1).bit_length()
        self._step = self._nfft - (m - 1)
        self._n_blocks = -(-self.n_samples // self._step)
        self._response = np.fft.fft(taps, self._nfft)
        self._phasor = _phasor_table(streams, carrier, 1.0 / sample_rate, self.n_samples)
        # padded[h + k] holds the mixed sample k (h = m//2 leading zeros);
        # block b reads padded[b*step : b*step + nfft] and keeps its last
        # `step` outputs; _tail is padded[_block*step : h + _fed]
        self._tail = np.zeros(m // 2, dtype=complex)
        self._block = 0
        self._fed = 0
        self._handed = 0  # decimated samples handed on so far

    def usable_slices(self):
        """Iterator of (tag, index range of z) per drive segment in record
        order, trimmed by the settling guard at the head and by the filter
        half support at the tail, so no statistic leaks across a switch."""
        return self.schedule.usable_slices(*self._axis)

    def feed(self, samples: np.ndarray, start: int, workers: int) -> np.ndarray:
        """Mix and filter the record samples [start, start + len(samples)),
        which must follow the samples fed so far, and return the decimated
        baseband samples this completes: z[j0 : j0 + len], where j0 counts
        the samples returned before.  The overlap-save blocks whose input
        is complete are filtered in batches of
        min(_FIR_BATCH, ceil(ready / workers)) blocks, on up to `workers`
        threads, so a short piece still splits evenly between them."""
        if start != self._fed or start + len(samples) > self.n_samples:
            raise ValueError(
                f"record piece [{start}, {start + len(samples)}) does not continue "
                f"the {self._fed} of {self.n_samples} samples fed"
            )
        m, step, nfft = len(self.taps), self._step, self._nfft
        self._fed += len(samples)
        kept = len(self._tail)
        size = kept + len(samples)
        if self._fed == self.n_samples:
            # the last blocks read the zero padding past the record's end
            size = (self._n_blocks - self._block) * step + m - 1
        buf = np.empty(size, dtype=complex)
        buf[:kept] = self._tail
        buf[kept + len(samples) :] = 0.0
        dt = 1.0 / self.sample_rate
        for i0, i1, ph in _rotated_blocks(self._phasor, len(samples), self.carrier, dt, 0.0, start):
            ph *= samples[i0 - start : i1 - start]
            np.multiply(ph, 2.0, out=buf[kept + i0 - start : kept + i1 - start])
        n_ready = max(0, (size - (m - 1)) // step)
        # the decimated samples of the full-rate outputs [j0*d, done)
        d, j0 = self.decimate, self._handed
        done = min((self._block + n_ready) * step, self.n_samples)
        z = np.empty(-(-done // d) - j0, complex)
        if n_ready:
            frames = sliding_window_view(buf, nfft)[::step]
            batch = min(_FIR_BATCH, -(-n_ready // workers))

            def filter_batch(b0):
                b1 = min(b0 + batch, n_ready)
                spec = np.fft.fft(frames[b0:b1], axis=1)
                spec *= self._response
                y = np.fft.ifft(spec, axis=1, out=spec)[:, m - 1 :]
                for r, row in enumerate(y):  # no flattened copy of the batch
                    # the decimated samples of the chunk at record sample g0
                    g0 = (self._block + b0 + r) * step
                    row = row[: max(0, self.n_samples - g0)]
                    j = -(-g0 // d)
                    kept_row = row[j * d - g0 :: d]
                    z[j - j0 : j - j0 + len(kept_row)] = kept_row

            thread_map(filter_batch, range(0, n_ready, batch), workers)
        self._tail = buf[n_ready * step :].copy()
        self._block += n_ready
        self._handed += len(z)
        return z


def lockin_axis(schedule: Schedule, sample_rate: float, n_taps: int,
                decimate: int) -> tuple[float, int, float]:
    """(sample rate, length, tail guard in seconds) of the lock-in output of
    the record the schedule tiles at sample_rate, filtered by n_taps taps
    and decimated: ceil(n/decimate) samples, whose usable slices
    (Schedule.usable_slices) also lose the filter's half length at their
    tail."""
    n_samples = schedule.n_samples(sample_rate)
    return sample_rate / decimate, -(-n_samples // decimate), (n_taps // 2) / sample_rate


def lockin_baseband(grid: SimGrid, det: DetectionParams, passband_edge_hz: float, decimate: int,
                    schedule: Schedule, streams: Streams) -> Baseband:
    """The Baseband of the record the schedule tiles at the grid's sample
    rate and carrier, with the lock-in FIR designed for det's cutoff and
    the passband edge and the carrier table of the record's streams: made
    before the record's first piece, so its usable slices are known before
    any baseband sample is."""
    taps = design_lockin_fir(
        grid.sample_rate, det.lowpass_cutoff, grid.carrier, passband_edge_hz, decimate
    )
    return Baseband(taps, grid.sample_rate, grid.carrier, schedule, decimate, streams)


def demod_baseband(baseband: Baseband, samples: np.ndarray, grid: SimGrid,
                   workers: int) -> np.ndarray:
    """Feed the record samples on the grid, the whole record or the piece of
    it at grid.start, into the lock-in baseband; return the decimated
    baseband samples the piece completed (Baseband.feed).  The two lock-in
    channels at any demodulation phase theta are Re(e^{i theta} z) and
    Im(e^{i theta} z), so sums over the baseband's usable slices serve both
    the phase choice and the channel spectra.
    """
    return baseband.feed(samples, grid.start, workers)


def lockin_demodulate(spectra: dict[str, Welch], demod_phase: float) -> dict[tuple[str, str], Psd]:
    """Phase-coherent demodulation at the record carrier, as spectra.

    ch_x = lowpass(2*rec*cos(Wc t + theta)), ch_y with the sine reference,
    are Re and Im of the record's complex baseband (demod_baseband) rotated
    by the demodulation phase theta = demod_phase, which is exactly
    equivalent and filter-consistent; the baseband's decimation applies.
    The channels themselves are never formed: their one-sided Welch
    densities over the usable slices of each drive class come from
    spectra[tag], the class's complex Welch sums of those slices
    (Welch.channel_psds).  Returns {(channel, tag): Psd} for the channels
    "x", "y" of every class in spectra, in its order, x before y.  Call it
    once the record is fed whole.
    """
    psds = {}
    for tag, welch in spectra.items():
        psds[("x", tag)], psds[("y", tag)] = welch.channel_psds(demod_phase)
    return psds


def add_phase_sums(sums: tuple, z: np.ndarray) -> tuple:
    """The phase sums (sum z, sum z^2, sum |z|^2, count) with the samples z
    added; a record's sums start at (0.0, 0.0, 0.0, 0)."""
    s1, s2, s_abs, n = sums
    return (
        s1 + np.sum(z),
        # neither sum forms a product array; |z|^2 over the float pairs: no
        # square root, no threaded BLAS call
        s2 + np.einsum("i,i->", z, z),
        s_abs + np.einsum("i,i->", z.view(float), z.view(float)),
        n + len(z),
    )


def optimize_demod_phase(sums: tuple) -> tuple[float, float]:
    """Demodulation phase minimizing one channel's variance on resonant data,
    and the depth of that variance's modulation over phase.

    Over the resonant usable samples of the decimated baseband z, the ones
    the quadrature spectra are estimated from, with m1 = <z>, m2 = <z^2>,
    P = <|z|^2> and c = m2 - m1^2, the cosine channel's variance is
    var(theta) = [(P - |m1|^2) + Re(e^{2i theta} c)] / 2, smallest at
    theta* = (pi - arg c)/2 mod pi.  The cosine channel at theta* carries the
    squeezed quadrature, the orthogonal channel the anti-squeezed one.
    The depth is (max - min)/mean of var(theta); below FLAT_PHASE_DEPTH the
    variance is flat in phase, i.e. s ~ 0 and theta* is only the formal
    minimum.  The sums are those of add_phase_sums over the parts of the
    resonant usable slices, added part by part as the record is fed, so
    theta* depends on where the pieces are cut at the rounding level only;
    call it once the record is fed whole.
    """
    s1, s2, s_abs, n_tot = sums
    if not n_tot:
        raise ScheduleError("no resonant-drive segments to optimize the phase on")
    m1 = s1 / n_tot
    c = s2 / n_tot - m1 * m1
    theta = (math.pi - cmath.phase(c)) / 2.0 % math.pi
    depth = 2.0 * abs(c) / max(s_abs / n_tot - abs(m1) ** 2, 1e-300)
    return theta, depth
