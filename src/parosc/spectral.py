"""Welch PSD estimation with a strict normalization contract.

Densities are always units^2/Hz and integrate to the sample variance
(one-sided for real inputs, two-sided for complex ones), so fitted
Lorentzian areas carry physical meaning in quanta.

One estimator, the `Welch` accumulator, serves a single record and the
disjoint chunks of a schedule alike: the mean of the power rows of every
segment of every chunk, normalized once.  `Welch.feed` takes a chunk
whole or in consecutive pieces, the last of which ends it, so neither a
record nor a chunk streamed in pieces is ever held whole: the estimate
carries only the chunk's unconsumed tail, from its next segment's start
(at most segment + (workers - 1) * hop + piece samples), its row slots and
its row sum, all dropped when the chunk ends.  `welch_psd_chunks` feeds a
list of whole chunks in order.  `slice_parts` cuts a streamed record's
pieces at its usable slices, tagged by drive class in record order, so
each part goes straight to its class's estimate, the part that ends a
slice ending that chunk: both records reach their estimates that way, and
no slice is ever assembled.

A chunk's rows are computed `workers` at a time, one per thread, as their
segments complete, but summed in segment order into the chunk sum, and
that chunk sum is added to the running sum when the chunk ends, so the
estimate depends neither on the thread count nor on how the chunks are
cut.  The working set is one spectrum row per thread, not the record:
each segment is transformed straight from its view of the chunk into one
of the chunk's `workers` row slots, and detrended and windowed there, in
the frequency domain.  Every window here is a sum of at most three
cosines, so multiplying a segment by it is a 1-, 3- or 5-tap convolution
of the segment's DFT (Harris, Proc. IEEE 66, 51, 1978), done in place in
runs of `_WINDOW_RUN` bins; a segment's mean lives only in bin 0 of its
unwindowed DFT, which the constant detrend zeroes.  So no estimate holds
a window or a windowed copy of a segment, only the window's taps.

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

import numpy as np
import numpy.fft  # numpy would load it on first use, inside a run
from numpy.lib.stride_tricks import sliding_window_view

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

# Each window as a sum of cosines, a_k*cos(k*x) for x from -pi to pi: the
# coefficients scipy.signal.get_window uses.
_COSINE_TERMS = {
    "boxcar": (1.0,),
    "hann": (0.5, 0.5),
    "hamming": (0.54, 1.0 - 0.54),
    "blackman": (0.42, 0.50, 0.08),
}

# PSD CSV rows formatted per write: formatting a whole heterodyne PSD
# (125,001 rows on the defaults) at once holds about 14 MiB of Python
# floats and text.
_CSV_ROWS = 4096


# Bins a row is windowed in at a time: the run and its 2 * (taps - 1)
# neighbours are the only scratch windowing makes.
_WINDOW_RUN = 4096


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


def _periodic_window(window: str, length: int) -> np.ndarray:
    """The DFT-even (periodic) window of the given length, summed as
    scipy.signal.get_window(window, length) sums it, so with its bytes: the
    cosine terms in order over length + 1 points from -pi to pi, the last
    point dropped, each term formed in one scratch array.  Lengths 0 and 1
    give ones."""
    if window not in _COSINE_TERMS:
        raise SpectralError(f"window {window!r} is not one of {', '.join(_COSINE_TERMS)}")
    if length <= 1:
        return np.ones(length)
    fac = np.linspace(-np.pi, np.pi, length + 1)
    win = np.zeros(length + 1)
    t = np.empty(length + 1)
    for k, a in enumerate(_COSINE_TERMS[window]):
        np.multiply(k, fac, out=t)
        np.cos(t, out=t)
        t *= a
        win += t
    return win[:-1]


def _window_terms(window: str, segment_len: int, hop: int) -> tuple[tuple[float, ...], float, tuple[float, ...]]:
    """The window's taps, its power sum and the normalized window
    correlation rho_m at each overlapping lag m*hop, m = 1, 2, ...  The
    taps (c_0, c_1, ...) window a segment's DFT as
    Y[k] = c_0 X[k] + sum_j c_j (X[k - j] + X[k + j]): at the periodic
    window's x_n = -pi + 2 pi n / N, a_j cos(j x_n) is
    (-1)^j a_j / 2 (e^{2 pi i j n / N} + e^{-2 pi i j n / N}).  The sums
    are taken over the window's values, which are not kept."""
    win_vals = _periodic_window(window, segment_len)
    power_sum = float(np.sum(win_vals**2))
    rhos = tuple(
        float(np.sum(win_vals[: segment_len - lag] * win_vals[lag:])) / power_sum
        for lag in range(hop, segment_len, hop)
    )
    a = _COSINE_TERMS[window]
    taps = (a[0], *((-1) ** j * a[j] / 2.0 for j in range(1, len(a))))
    # a window of one sample is a one (_periodic_window), not its cosine sum
    return taps if segment_len > 1 else (1.0,), power_sum, rhos


def _window_row(row: np.ndarray, taps: tuple[float, ...], segment_len: int) -> None:
    """Window a segment's DFT row in place: Y[k] = c_0 X[k] +
    sum_j c_j (X[k - j] + X[k + j]), the DFT of the windowed segment.  A
    real segment's row holds bins 0 .. segment_len // 2 and the bins beyond
    them are its conjugates (X[-k] = X[N - k]^*); a complex segment's row
    holds every bin and wraps around.  The row is rewritten in runs of
    _WINDOW_RUN bins, each run's originals and its neighbours copied into
    one small scratch array first, so no row-length temporary is made."""
    if taps == (1.0,):
        return
    span = len(taps) - 1
    n_bins = len(row)

    def original(k):
        k %= segment_len
        return row[k] if k < n_bins else row[segment_len - k].conjugate()

    ext = np.empty(_WINDOW_RUN + 2 * span, complex)
    ext[:span] = [original(k) for k in range(-span, 0)]
    beyond = [original(k) for k in range(n_bins, n_bins + span)]
    acc = np.empty(2 * _WINDOW_RUN)
    # the taps are real, so they act on the real and imaginary parts alike:
    # a shift of j bins is 2 j floats of the float view
    flat = ext.view(float)
    for b0 in range(0, n_bins, _WINDOW_RUN):
        run = min(_WINDOW_RUN, n_bins - b0)
        # ext[:span] holds the originals of bins b0 - span .. b0 - 1; add
        # those of bins b0 .. b0 + run + span - 1, past the row from beyond
        inside = min(run + span, n_bins - b0)
        ext[span : span + inside] = row[b0 : b0 + inside]
        ext[span + inside : 2 * span + run] = beyond[: run + span - inside]
        out = row[b0 : b0 + run].view(float)
        np.multiply(flat[2 * span : 2 * (span + run)], taps[0], out=out)
        for j, c in enumerate(taps[1:], start=1):
            a = acc[: 2 * run]
            np.add(flat[2 * (span - j) : 2 * (span - j + run)],
                   flat[2 * (span + j) : 2 * (span + j + run)], out=a)
            a *= c
            out += a
        ext[:span] = ext[run : run + span]


def _overlap_variance_factor(rhos: tuple[float, ...], n_segments: int) -> float:
    """Variance inflation of the segment average caused by segment overlap.

    Standard Welch result: 1 + 2 * sum_m (1 - m/K) * rho_m^2 with
    rho_m the normalized window correlation at lag m*hop.
    """
    factor = 1.0
    for m, rho in enumerate(rhos[: n_segments - 1], start=1):
        factor += 2.0 * (1.0 - m / n_segments) * rho**2
    return factor


class _Chunk:
    """The chunk a Welch estimate is being fed, held from its first piece to
    its last: a buffer whose first `held` samples are its unconsumed tail,
    from its next segment's start; the `workers` slots its rows are computed
    in; and its row sums and segment count so far."""

    def __init__(self):
        self.buf: np.ndarray | None = None
        self.held = 0
        self.slots: tuple | None = None
        self.total: np.ndarray | None = None
        self.pseudo: np.ndarray | None = None
        self.segments = 0


class Welch:
    """Welch's averaged modified periodogram with window power normalization,
    pooled over disjoint record chunks fed one at a time, each whole or in
    consecutive pieces: the mean of every segment's power row.

    Real inputs produce a one-sided density (doubled except at DC/Nyquist);
    complex inputs produce a two-sided density on an fftshifted axis, and
    the one-sided densities of their real channels at any rotation
    (channel_psds).  Per-segment mean removal (detrend="constant")
    suppresses the DC bin; detrend=False keeps the spectrum right at zero
    frequency.  The mean removal and the window act on each segment's
    DFT, not on the segment: the mean is bin 0 and the window a
    convolution of the bins (_window_row), so the estimate keeps only the
    window's taps, its power sum and its overlap correlations.
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
        self._taps, self._win_power, self._rhos = _window_terms(window, segment_len, self.hop)
        self._complex: bool | None = None
        self._total: np.ndarray | None = None
        # B_k for k = 0 .. segment_len // 2 (B_{-k} = B_k), complex input only
        self._pseudo: np.ndarray | None = None
        self._n_segments = 0
        self._effective = 0.0
        self._chunk = _Chunk()

    def feed(self, piece: np.ndarray, workers: int, last: bool = True) -> None:
        """Feed the next piece of the current chunk; `last` ends the chunk,
        so a whole chunk is one piece fed with the default.  The power rows
        of the chunk's segments (and for complex input their
        pseudo-spectrum rows) are computed `workers` at a time, one per
        thread, as their segments complete, and the rest when the chunk
        ends; they are summed in segment order into the chunk's sums.  The
        unconsumed tail, at most segment + (workers - 1) * hop + piece
        samples, is carried to the next piece.  When the chunk ends its
        sums, segment count and effective averages are added to the
        estimate's, unless it held fewer than two segments: such a chunk is
        skipped.  So each row comes from the same samples and is summed in
        the same order however the chunk is cut.  The first piece fixes
        real or complex input and later ones must match."""
        complex_input = np.iscomplexobj(piece)
        seg_len, hop = self.segment_len, self.hop
        half = seg_len // 2 + 1
        if self._total is None:
            self._complex = complex_input
            self._total = np.zeros(seg_len if complex_input else half)
            if complex_input:
                self._pseudo = np.zeros(half, complex)
        elif complex_input != self._complex:
            raise SpectralError("chunks of one estimate must be all real or all complex")
        chunk = self._chunk
        if last and not chunk.held:
            buf = piece
        else:
            # the tail and the piece, in the chunk's buffer
            need = chunk.held + len(piece)
            if chunk.buf is None or len(chunk.buf) < need:
                grown = np.empty(max(need, seg_len + (workers - 1) * hop + len(piece)), piece.dtype)
                if chunk.held:
                    grown[: chunk.held] = chunk.buf[: chunk.held]
                chunk.buf = grown
            chunk.buf[chunk.held : need] = piece
            buf = chunk.buf[:need]
        n_ready = (len(buf) - seg_len) // hop + 1 if len(buf) >= seg_len else 0
        if not last:
            n_ready -= n_ready % workers
        if n_ready:
            segments = sliding_window_view(buf, seg_len)[: (n_ready - 1) * hop + 1 : hop]
            self._add_rows(chunk, segments, workers)
        if not last:
            chunk.held = len(buf) - n_ready * hop
            chunk.buf[: chunk.held] = buf[n_ready * hop :]  # moved left in place
            return
        self._chunk = _Chunk()
        n = chunk.segments
        if n >= 2:
            self._total += chunk.total
            if self._complex:
                self._pseudo += chunk.pseudo
            self._n_segments += n
            self._effective += n / _overlap_variance_factor(self._rhos, n)

    def _add_rows(self, chunk: _Chunk, segments: np.ndarray, workers: int) -> None:
        """Add the rows of the segments to the chunk's sums, in segment
        order.  The rows are computed `workers` at a time, each in one of
        the chunk's `workers` slots: the segment is transformed from its
        view of the chunk into the slot, then detrended and windowed there
        (_window_row), and each group is summed before the next reuses the
        slots."""
        complex_input = self._complex
        seg_len = self.segment_len
        half = seg_len // 2 + 1
        if chunk.slots is None:
            chunk.total = np.zeros(len(self._total))
            chunk.pseudo = np.zeros(half, complex) if complex_input else None
            chunk.slots = (
                np.empty((workers, len(self._total)), complex),
                np.empty((workers, half), complex) if complex_input else None,
            )
        spectra, pseudo_rows = chunk.slots
        transform = np.fft.fft if complex_input else np.fft.rfft

        def power_row(k):
            j = k % workers
            spec = transform(segments[k], out=spectra[j])
            if self.detrend == "constant":
                spec[0] = 0.0  # the segment's mean, which no other bin holds
            _window_row(spec, self._taps, seg_len)
            if complex_input:
                # Z_k Z_{-k}: Z_{-k} is spec[seg_len - k] for k > 0
                np.multiply(spec[0], spec[0], out=pseudo_rows[j, :1])
                np.multiply(spec[1:half], spec[:0:-1][: half - 1], out=pseudo_rows[j, 1:])
            # the power row |Z_k|^2 in the real part of the spectrum
            power = np.square(spec.real, out=spec.real)
            power += np.square(spec.imag, out=spec.imag)
            return j

        for k0 in range(0, len(segments), workers):
            for j in thread_map(power_row, range(k0, min(k0 + workers, len(segments))), workers):
                chunk.total += spectra[j].real
                if complex_input:
                    chunk.pseudo += pseudo_rows[j]
        chunk.segments += len(segments)

    def psd(self) -> Psd:
        """The normalized mean of every row fed; raises SpectralError when
        no chunk held two segments."""
        if self._complex:
            return self._normalized(np.fft.fftshift(self._total), onesided=False)
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
            freqs = np.fft.rfftfreq(seg_len, 1.0 / fs)
            # fold negative frequencies onto all bins but DC and Nyquist
            density[1 : None if seg_len % 2 else -1] *= 2.0
        else:
            freqs = np.fft.fftshift(np.fft.fftfreq(seg_len, 1.0 / fs))
        return Psd(
            freqs=freqs,
            density=density,
            rbw=fs / seg_len,
            n_averages=self._n_segments,
            effective_averages=self._effective,
            window=self.window,
            onesided=onesided,
        )


def slice_parts(slices, pieces):
    """Cut a record's consecutive pieces at its usable slices: yield
    (tag, part, last) for every non-empty part of a slice of the
    (tag, index range) walk `slices` (in record order, disjoint), in
    record order, `last` on the part that ends its slice.  Each part is a
    view of its piece, which is let go before the next piece is asked for,
    so a caller that lets go of each part holds no piece while the next is
    made.  A Welch estimate takes the parts as they come
    (Welch.feed(part, workers, last)).  A slice the pieces do not reach the
    end of yields no last part."""
    tag, s = next(slices, (None, None))
    j0 = 0
    for piece in pieces:
        j1 = j0 + len(piece)
        while s is not None and max(s.start, j0) < j1:
            last = s.stop <= j1
            yield tag, piece[max(s.start, j0) - j0 : s.stop - j0], last
            if not last:
                break
            tag, s = next(slices, (None, None))
        j0 = j1
        del piece


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
    p = _chi2_tail(dof, stat)
    return p > level, p


def _chi2_tail(dof: int, stat: float) -> float:
    """The chi-square survival function P(X > stat) of dof degrees of
    freedom: the regularized upper incomplete gamma function Q(a, x) at
    a = dof/2, x = stat/2.  Below x = a + 1 it is 1 - P(a, x) from P's
    power series, above it Q's continued fraction (modified Lentz), each
    times the front factor x**a e**-x / Gamma(a) taken in logarithms,
    whose rounding leaves a relative error of about 1e-15 * dof."""
    a, x = 0.5 * dof, 0.5 * stat
    if not x > 0.0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    eps, tiny = 2.0**-53, 1e-300
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, 100_000):
            term *= x / (a + n)
            total += term
            if term < total * eps:
                break
        return 1.0 - total * front
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for n in range(1, 100_000):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) < eps:
            break
    return h * front
