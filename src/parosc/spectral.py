"""Welch PSD estimation with a strict normalization contract.

Densities are always units^2/Hz and integrate to the sample variance
(one-sided for real inputs, two-sided for complex ones), so fitted
Lorentzian areas carry physical meaning in quanta.

One estimator, the `Welch` accumulator, serves a single record and the
disjoint chunks of a schedule alike: the mean of the power rows of every
segment of every chunk, normalized once.  `Welch.feed` takes one chunk at
a time, so a record streamed in pieces is never held whole;
`welch_psd_chunks` feeds a list of chunks in order.  `UsableSlices`
assembles a streamed record's usable slices, tagged by drive class in
record order, from the pieces in one buffer grown to the longest slice.
Each chunk's rows are computed `workers` at a time, one per thread, but summed in
segment order, and that chunk sum is added to the running sum, so the
estimate does not depend on the thread count.  The working set is one
segment per thread, not the record: each row is detrended, windowed,
transformed and squared in buffers allocated once per chunk.  The window
and its lag correlations are computed once per (window, segment length,
hop) and shared read-only between calls.

For complex input z the accumulator also sums the pseudo-spectrum
B_k = sum Z_k Z_{-k} beside the power A_k = sum |Z_k|^2, the two
second-order spectra of an improper complex signal (Picinbono & Bondon,
IEEE Trans. Signal Process. 45, 411, 1997).  From them
`Welch.channel_psds(theta)` gives the one-sided spectra of the real
channels Re(e^{i theta} z) and Im(e^{i theta} z) at any theta,
1/4 (A_k + A_{-k} +- 2 Re(e^{2i theta} B_k)), without the channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft
from scipy import signal, special

from .errors import SpectralError
from .parallel import thread_map

DEFAULT_WINDOW = "hann"
DEFAULT_OVERLAP = 0.5
# Past about 75 % overlap a tapered window gains almost no effective
# averages, while the strided segment array grows as 1/(1 - overlap).
MAX_OVERLAP = 0.9

# Windowed periodograms correlate neighbouring frequency bins (the kernel
# spans ~ENBW bins); statistics that assume independent bins should use every
# k-th bin instead.
BIN_STEP_BY_WINDOW = {"boxcar": 1, "hann": 2, "hamming": 2, "blackman": 3}

# PSD CSV rows formatted per write: formatting a whole heterodyne PSD
# (125,001 rows on the defaults) at once holds about 14 MiB of Python
# floats and text.
_CSV_ROWS = 4096


def bin_step_for(window: str) -> int:
    if window not in BIN_STEP_BY_WINDOW:
        raise SpectralError(f"window {window!r} has no known bin step")
    return BIN_STEP_BY_WINDOW[window]


@dataclass(frozen=True)
class Psd:
    """Frequency axis (Hz) plus spectral density (units^2/Hz).

    rbw is the frequency resolution (segment-length reciprocal).
    n_averages counts averaged periodograms; effective_averages corrects
    that count for segment overlap and is what uncertainty models should use.
    """

    freqs: np.ndarray
    density: np.ndarray
    rbw: float
    n_averages: int
    effective_averages: float
    window: str
    onesided: bool

    def integral(self) -> float:
        """sum(density * df); equals the input variance within window tolerance."""
        return float(np.sum(self.density) * self.rbw)

    def band(self, f_lo: float, f_hi: float) -> "Psd":
        """Restrict to freqs in [f_lo, f_hi]."""
        sel = (self.freqs >= f_lo) & (self.freqs <= f_hi)
        return replace(self, freqs=self.freqs[sel], density=self.density[sel])


@lru_cache(maxsize=8)
def _window_terms(window: str, segment_len: int, hop: int) -> tuple[np.ndarray, float, tuple[float, ...]]:
    """The window values (read-only), their power sum and the normalized
    window correlation rho_m at each overlapping lag m*hop, m = 1, 2, ..."""
    win_vals = signal.get_window(window, segment_len)
    win_vals.flags.writeable = False
    power_sum = float(np.sum(win_vals**2))
    rhos = tuple(
        float(np.sum(win_vals[: segment_len - lag] * win_vals[lag:])) / power_sum
        for lag in range(hop, segment_len, hop)
    )
    return win_vals, power_sum, rhos


def _overlap_variance_factor(rhos: tuple[float, ...], n_segments: int) -> float:
    """Variance inflation of the segment average caused by segment overlap.

    Standard Welch result: 1 + 2 * sum_m (1 - m/K) * rho_m^2 with
    rho_m the normalized window correlation at lag m*hop.
    """
    factor = 1.0
    for m, rho in enumerate(rhos[: n_segments - 1], start=1):
        factor += 2.0 * (1.0 - m / n_segments) * rho**2
    return factor


class Welch:
    """Welch's averaged modified periodogram with window power normalization,
    pooled over disjoint record chunks fed one at a time: the mean of every
    segment's power row.

    Real inputs produce a one-sided density (doubled except at DC/Nyquist);
    complex inputs produce a two-sided density on an fftshifted axis, and
    the one-sided densities of their real channels at any rotation
    (channel_psds).  Per-segment mean removal (detrend="constant")
    suppresses the DC bin; detrend=False keeps the spectrum right at zero
    frequency.
    """

    def __init__(
        self, sample_rate: float, segment_len: int, overlap_frac: float, window: str,
        detrend: str | bool,
    ):
        if not 0.0 <= overlap_frac < 1.0:
            raise SpectralError(f"overlap_frac must lie in [0, 1), got {overlap_frac}")
        if not (detrend == "constant" or detrend is False):
            raise SpectralError(f"detrend must be 'constant' or False, got {detrend!r}")
        self.sample_rate = sample_rate
        self.segment_len = segment_len
        self.window = window
        self.detrend = detrend
        self.hop = segment_len - int(segment_len * overlap_frac)
        self._win_vals, self._win_power, self._rhos = _window_terms(window, segment_len, self.hop)
        self._complex: bool | None = None
        self._total: np.ndarray | None = None
        # B_k for k = 0 .. segment_len // 2 (B_{-k} = B_k), complex input only
        self._pseudo: np.ndarray | None = None
        self._n_segments = 0
        self._effective = 0.0

    def feed(self, chunk: np.ndarray, workers: int) -> None:
        """Add the power rows of the chunk's segments to the running sum,
        and for complex input their pseudo-spectrum rows to theirs: the
        rows are computed `workers` at a time, one per thread, summed in
        segment order, and that chunk sum is added.  The first chunk fixes
        real or complex input and later ones must match; a chunk shorter
        than two segments is skipped."""
        complex_input = np.iscomplexobj(chunk)
        seg_len = self.segment_len
        half = seg_len // 2 + 1
        if self._total is None:
            self._complex = complex_input
            self._total = np.zeros(seg_len if complex_input else half)
            if complex_input:
                self._pseudo = np.zeros(half, complex)
        elif complex_input != self._complex:
            raise SpectralError("chunks of one estimate must be all real or all complex")
        if len(chunk) < seg_len + self.hop:
            return
        transform = sp_fft.fft if complex_input else sp_fft.rfft
        segments = sliding_window_view(chunk, seg_len)[:: self.hop]
        # Records are long and segments too: the rows are computed `workers`
        # at a time, each in one of `workers` slots, and each group is summed
        # in segment order before the next group reuses the slots.
        windowed = np.empty((workers, seg_len), complex if complex_input else float)
        rows = np.empty((workers, len(self._total)))
        pseudo_rows = np.empty((workers, half), complex) if complex_input else None

        def power_row(k):
            j = k % workers
            if self.detrend == "constant":
                np.subtract(segments[k], segments[k].mean(), out=windowed[j])
                windowed[j] *= self._win_vals
            else:
                np.multiply(segments[k], self._win_vals, out=windowed[j])
            spec = transform(windowed[j])
            if complex_input:
                # Z_k Z_{-k}: Z_{-k} is spec[seg_len - k] for k > 0
                np.multiply(spec[0], spec[0], out=pseudo_rows[j, :1])
                np.multiply(spec[1:half], spec[:0:-1][: half - 1], out=pseudo_rows[j, 1:])
            np.square(spec.real, out=rows[j])
            rows[j] += np.square(spec.imag, out=spec.imag)
            return j

        total = np.zeros(len(self._total))
        pseudo = np.zeros(half, complex) if complex_input else None
        for k0 in range(0, len(segments), workers):
            for j in thread_map(power_row, range(k0, min(k0 + workers, len(segments))), workers):
                total += rows[j]
                if complex_input:
                    pseudo += pseudo_rows[j]
        self._total += total
        if complex_input:
            self._pseudo += pseudo
        self._n_segments += len(segments)
        self._effective += len(segments) / _overlap_variance_factor(self._rhos, len(segments))

    def psd(self) -> Psd:
        """The normalized mean of every row fed; raises SpectralError when
        no chunk held two segments."""
        if self._complex:
            return self._normalized(sp_fft.fftshift(self._total), onesided=False)
        return self._normalized(self._total, onesided=True)

    def channel_psds(self, theta: float) -> tuple[Psd, Psd]:
        """The one-sided densities of the real channels Re(e^{i theta} z) and
        Im(e^{i theta} z) of the complex chunks fed: their power rows are
        1/4 (A_k + A_{-k} +- 2 Re(e^{2i theta} B_k)), which is what feeding
        the channels themselves sums, to rounding.  Raises SpectralError
        for real input and when no chunk held two segments."""
        if not self._complex:
            raise SpectralError("channel spectra need complex chunks")
        power = self._total
        half = len(self._pseudo)
        both = power[:half] + np.concatenate((power[:1], power[:0:-1][: half - 1]))
        cross = 2.0 * (np.exp(2j * theta) * self._pseudo).real
        return (
            self._normalized(0.25 * (both + cross), onesided=True),
            self._normalized(0.25 * (both - cross), onesided=True),
        )

    def _normalized(self, total: np.ndarray, onesided: bool) -> Psd:
        """The Psd of a row sum over every segment fed: a one-sided sum has
        bins 0 .. segment_len // 2, a two-sided one is fftshifted."""
        if not self._n_segments:
            raise SpectralError(
                f"no chunk holds two Welch segments of {self.segment_len} samples"
            )
        seg_len, fs = self.segment_len, self.sample_rate
        density = total / self._n_segments
        density /= fs * self._win_power
        if onesided:
            freqs = sp_fft.rfftfreq(seg_len, 1.0 / fs)
            # fold negative frequencies onto all bins but DC and Nyquist
            density[1 : None if seg_len % 2 else -1] *= 2.0
        else:
            freqs = sp_fft.fftshift(sp_fft.fftfreq(seg_len, 1.0 / fs))
        return Psd(
            freqs=freqs,
            density=density,
            rbw=fs / seg_len,
            n_averages=self._n_segments,
            effective_averages=self._effective,
            window=self.window,
            onesided=onesided,
        )


class UsableSlices:
    """The usable slices of a record ((drive class, index range) in record
    order, all disjoint), assembled from consecutive pieces of the record
    in one buffer.  The buffer is replaced by a longer one when a slice
    needs it, so it is sized on first use and ends at the longest slice.
    feed(piece) yields (class, samples) for each slice the piece completes,
    in record order: use the samples before the generator resumes, and
    exhaust it before the next piece."""

    def __init__(self, slices, dtype):
        self._slices = iter(slices)
        self._next = next(self._slices, None)
        self._buf = np.empty(0, dtype)
        self._fed = 0

    def feed(self, piece: np.ndarray):
        j0 = self._fed
        j1 = self._fed = j0 + len(piece)
        while self._next is not None and self._next[1].start < j1:
            tag, s = self._next
            if len(self._buf) < s.stop - s.start:
                self._buf = np.empty(s.stop - s.start, self._buf.dtype)
            lo, hi = max(s.start, j0), min(s.stop, j1)
            self._buf[lo - s.start : hi - s.start] = piece[lo - j0 : hi - j0]
            if s.stop > j1:
                return
            self._next = next(self._slices, None)
            yield tag, self._buf[: s.stop - s.start]


def welch_psd_chunks(
    chunks: list[np.ndarray],
    sample_rate: float,
    segment_len: int,
    overlap_frac: float = DEFAULT_OVERLAP,
    window: str = DEFAULT_WINDOW,
    workers: int = 1,
    detrend: str | bool = "constant",
) -> Psd:
    """The Welch estimate over the chunks, fed in list order.  Chunks
    shorter than two segments are skipped; raises SpectralError when none
    remains."""
    welch = Welch(sample_rate, segment_len, overlap_frac, window, detrend)
    for chunk in chunks:
        welch.feed(chunk, workers)
    return welch.psd()


def write_psd_csv(psd: Psd, path, config_hash: str | None = None) -> None:
    """Two-column CSV (freq_hz, psd) with the estimation metadata in the header,
    preceded by a ``# config=<hash>`` line when config_hash is given."""
    with open(path, "w", encoding="utf-8") as fh:
        if config_hash is not None:
            fh.write(f"# config={config_hash}\n")
        fh.write(
            f"# rbw_hz={psd.rbw:.12g} window={psd.window} "
            f"n_averages={psd.n_averages} "
            f"effective_averages={psd.effective_averages:.12g} "
            f"onesided={int(psd.onesided)}\n"
        )
        fh.write("freq_hz,psd\n")
        table = np.stack([psd.freqs, psd.density], axis=-1)
        for i0 in range(0, len(table), _CSV_ROWS):
            rows = table[i0 : i0 + _CSV_ROWS]
            fh.write(("%.12g,%.12g\n" * len(rows)) % tuple(rows.ravel().tolist()))


def read_psd_csv(path) -> Psd:
    """Inverse of write_psd_csv: the leading ``#`` lines (the optional
    ``# config=<hash>`` line and the estimation metadata) are read as
    key=value pairs, then the column header and the rows."""
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline()
        while line.startswith("#"):
            meta.update(item.split("=", 1) for item in line.lstrip("# ").split())
            line = fh.readline()
        rows = [line.strip().split(",") for line in fh if line.strip()]
    freqs = np.array([float(r[0]) for r in rows])
    density = np.array([float(r[1]) for r in rows])
    return Psd(
        freqs=freqs,
        density=density,
        rbw=float(meta["rbw_hz"]),
        n_averages=int(meta["n_averages"]),
        effective_averages=float(meta["effective_averages"]),
        window=meta["window"],
        onesided=bool(int(meta["onesided"])),
    )


def chi2_indistinguishable(a: Psd, b: Psd, level: float = 0.01) -> tuple[bool, float]:
    """Chi-square test that two averaged PSDs estimate the same spectrum.

    Per-bin sigma follows the chi-square statistics of averaged periodograms
    (sigma = S / sqrt(effective_averages)); bins are thinned to effective
    independence before summing (the window kernel correlates neighbours).
    Returns (indistinguishable, p_value): indistinguishable when the test does
    not reject at `level`.
    """
    if len(a.freqs) != len(b.freqs):
        raise SpectralError("PSDs must share a frequency axis")
    step = bin_step_for(a.window)
    da = a.density[::step]
    db = b.density[::step]
    mean = 0.5 * (da + db)
    var = mean**2 * (1.0 / a.effective_averages + 1.0 / b.effective_averages)
    z2 = (da - db) ** 2 / var
    stat = float(np.sum(z2))
    dof = len(z2)
    p = float(special.chdtrc(dof, stat))  # the chi-square survival function
    return p > level, p
