"""PSD estimation: normalization contract, resolution policy, persistence."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft
from scipy import signal

from conftest import joined_slices
from parosc.errors import SpectralError
from parosc.fitting import fit_quadrature, fit_single_pair
from parosc.spectral import (
    BIN_STEP_BY_WINDOW,
    Psd,
    Welch,
    _window_terms,
    bin_step_for,
    chi2_indistinguishable,
    read_psd_csv,
    slice_parts,
    welch_psd_chunks,
    write_psd_csv,
)
from parosc.synth import OUChain, stream_rng

TWO_PI = 2.0 * math.pi


def fed(chunks, sample_rate, segment_len, overlap_frac=0.5, window="hann", workers=1):
    """The Welch accumulator's estimate with the chunks fed one at a time."""
    welch = Welch(sample_rate, segment_len, overlap_frac, window, "constant")
    for chunk in chunks:
        welch.feed(chunk, workers)
    return welch.psd()


def assert_same_psd(a, b):
    assert np.array_equal(a.freqs, b.freqs)
    assert np.array_equal(a.density, b.density)
    assert (a.rbw, a.n_averages, a.effective_averages, a.window, a.onesided) == (
        b.rbw, b.n_averages, b.effective_averages, b.window, b.onesided
    )


class TestWelchNormalization:
    def test_sine_at_bin_center_integrates_to_half(self):
        fs = 10_000.0
        nperseg = 10_000
        t = np.arange(200_000) / fs
        x = np.sin(TWO_PI * 100.0 * t)
        psd = welch_psd_chunks([x], fs, nperseg)
        sel = np.abs(psd.freqs - 100.0) < 5.0
        power = np.sum(psd.density[sel]) * psd.rbw
        assert power == pytest.approx(0.5, rel=5e-3)

    @pytest.mark.realization
    def test_white_noise_flat_density(self):
        fs = 5_000.0
        rng = stream_rng(123, 0)
        x = rng.standard_normal(400_000)
        psd = welch_psd_chunks([x], fs, 4096)
        expected = 2.0 / fs  # one-sided density for unit variance
        interior = psd.density[5:-5]
        sigma_bin = expected / math.sqrt(psd.effective_averages)
        z = (np.mean(interior) - expected) / (sigma_bin / math.sqrt(len(interior) / bin_step_for("hann")))
        assert abs(z) < 3.0

    @pytest.mark.realization
    def test_parseval_integral_matches_variance(self):
        fs = 5_000.0
        rng = stream_rng(7, 0)
        x = rng.standard_normal(330_000)
        psd = welch_psd_chunks([x], fs, 4096)
        assert psd.n_averages >= 64
        assert psd.integral() == pytest.approx(np.var(x), rel=0.01)

    @pytest.mark.realization
    def test_parseval_complex_two_sided(self):
        fs = 2_000.0
        rng = stream_rng(8, 0)
        z = rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000)
        psd = welch_psd_chunks([z], fs, 2048)
        assert not psd.onesided
        assert psd.integral() == pytest.approx(np.var(z), rel=0.01)

    @pytest.mark.realization
    def test_ou_lorentzian_area_within_two_percent(self):
        fs = 4_000.0
        gamma = TWO_PI * 20.0
        x = OUChain(stream_rng(99, 0), 1.0 / fs).draw(1_600_000, gamma / 2.0, 1.0)
        psd = welch_psd_chunks([x], fs, 8192)
        # central-band integral plus analytic tail of the fitted Lorentzian
        fit = fit_single_band_area(psd)
        assert fit == pytest.approx(1.0, rel=0.02)

    def test_two_segment_minimum_enforced(self):
        with pytest.raises(SpectralError):
            welch_psd_chunks([np.zeros(1000)], 100.0, 1000)

    def test_two_sided_symmetry_for_real_data(self):
        fs = 1_000.0
        rng = stream_rng(5, 0)
        x = rng.standard_normal(50_000)
        psd = welch_psd_chunks([x.astype(complex)], fs, 1024)
        freqs, density = psd.freqs, psd.density
        for k in range(1, 500):
            idx_pos = np.argmin(np.abs(freqs - k * psd.rbw))
            idx_neg = np.argmin(np.abs(freqs + k * psd.rbw))
            assert density[idx_pos] == pytest.approx(density[idx_neg], rel=1e-10)


def fit_single_band_area(psd):
    """Lorentzian area of a single zero-centred line via the quadrature fit.
    The lowest bins are left out: Welch's per-segment mean removal suppresses
    them, which a clean Lorentzian model must not be asked to fit."""
    fit = fit_quadrature(psd.band(3.5 * psd.rbw, np.inf), 0.0, 300.0)
    # the model's mirror lines at +-0 each carry half of this area
    return fit.derived["sigma2"][0]


class TestWelchMatchesScipy:
    @pytest.mark.parametrize(
        "n, seg, overlap, window, complex_input, detrend",
        [
            (100_000, 2000, 0.5, "hann", False, "constant"),
            (100_000, 2001, 0.5, "hann", False, False),
            (50_000, 999, 0.3, "blackman", True, "constant"),
            (60_000, 1000, 0.0, "boxcar", True, False),
            (80_000, 1500, 0.5, "hamming", False, "constant"),
            (50_000, 1024, 0.5, "hann", True, "constant"),
            (70_000, 1001, 0.5, "blackman", False, False),
        ],
    )
    def test_density_matches_signal_welch(self, n, seg, overlap, window, complex_input, detrend):
        rng = stream_rng(21, 0)
        x = rng.standard_normal(n) + 0.3
        if complex_input:
            x = x + 1j * rng.standard_normal(n)
        psd = welch_psd_chunks([x], 1234.0, seg, overlap, window, detrend=detrend)
        freqs, density = signal.welch(
            x, fs=1234.0, window=window, nperseg=seg, noverlap=int(seg * overlap),
            detrend=detrend, return_onesided=not complex_input, scaling="density",
        )
        if complex_input:
            freqs, density = np.fft.fftshift(freqs), np.fft.fftshift(density)
        np.testing.assert_allclose(psd.freqs, freqs, rtol=1e-14, atol=0.0)
        # same terms summed in another order: float64 rounding only
        np.testing.assert_allclose(psd.density, density, rtol=0.0, atol=1e-12 * density.max())


def hann_power_rows(segments, detrend):
    """The power rows of a stack of segments (last axis) in the estimator's
    arithmetic, all at once: each segment's DFT, bin 0 zeroed by the
    constant detrend, windowed by the Hann taps (0.5, -0.25) as
    Y[k] = 0.5 X[k] - 0.25 (X[k - 1] + X[k + 1]) on the real and imaginary
    parts, taking X[-k] = X[N - k]^* past a real row's stored bins and
    wrapping around a complex row, then squared."""
    seg = segments.shape[-1]
    spec = (sp_fft.fft if np.iscomplexobj(segments) else sp_fft.rfft)(segments, axis=-1)
    if detrend == "constant":
        spec[..., 0] = 0.0
    k = np.arange(-1, spec.shape[-1] + 1) % seg
    stored = k < spec.shape[-1]
    # C order, so that np.mean over the rows sums them in segment order
    ext = np.ascontiguousarray(np.where(stored, spec[..., np.where(stored, k, 0)],
                                        np.conj(spec[..., np.where(stored, 0, seg - k)])))

    def windowed(part):
        y = part[..., 1:-1] * 0.5
        y += (part[..., :-2] + part[..., 2:]) * -0.25
        return y

    return np.square(windowed(ext.real)) + np.square(windowed(ext.imag))


class TestWelchBatches:
    @staticmethod
    def whole_stack_density(x, seg, overlap, detrend):
        """The unbatched arithmetic: every segment's row at once
        (hann_power_rows), then averaged with np.mean."""
        hop = seg - int(seg * overlap)
        win = signal.get_window("hann", seg)
        segments = sliding_window_view(x, seg, axis=-1)[..., ::hop, :]
        density = np.mean(hann_power_rows(segments, detrend), axis=-2)
        density /= 1234.0 * float(np.sum(win**2))
        if np.iscomplexobj(x):
            return sp_fft.fftshift(density, axes=-1)
        density[..., 1 : None if seg % 2 else -1] *= 2.0
        return density

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("detrend", ["constant", False])
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
    def test_batches_equal_whole_stack_bitwise(self, kind, detrend, overlap):
        seg = 500
        hop = seg - int(seg * overlap)
        n_segments = 14
        n = seg + (n_segments - 1) * hop + 7
        rng = stream_rng(23, 0)
        x = rng.standard_normal(n) + 0.3
        if kind == "complex":
            x = x + 1j * rng.standard_normal(n)
        psd = welch_psd_chunks([x], 1234.0, seg, overlap, "hann", detrend=detrend)
        assert psd.n_averages == n_segments
        assert np.array_equal(psd.density, self.whole_stack_density(x, seg, overlap, detrend))


    def test_working_set_is_a_few_segments(self):
        # a 40-segment record: the whole stack would hold about 40 segment
        # lengths at once, segment at a time holds about 2.5 (the transform
        # of one segment, windowed in place, and the power and density rows)
        seg = 20_000
        x = stream_rng(24, 0).standard_normal(40 * seg)
        welch_psd_chunks([x], 1234.0, seg, 0.0, "hann")  # numpy's FFT plan
        tracemalloc.start()
        try:
            welch_psd_chunks([x], 1234.0, seg, 0.0, "hann")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * seg * x.itemsize

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("window", ["boxcar", "hann", "blackman"])
    def test_no_estimate_holds_a_window(self, window, complex_input):
        # a chunk in progress holds its tail, its row slots and the row
        # sums; neither the estimate nor a module table holds a window or
        # a windowed copy of a segment (8 * seg bytes each)
        seg, workers = 65_536, 2
        x = stream_rng(26, 0).standard_normal(3 * seg)
        if complex_input:
            x = x + 1j * stream_rng(26, 1).standard_normal(3 * seg)
        tracemalloc.start()
        try:
            welch = Welch(1234.0, seg, 0.5, window, "constant")
            built, _ = tracemalloc.get_traced_memory()
            welch.feed(x, workers, last=False)
            fed, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bins = seg if complex_input else seg // 2 + 1
        half = seg // 2 + 1
        sums = 2 * bins * 8 + (2 * half * 16 if complex_input else 0)
        slots = workers * bins * 16 + (workers * half * 16 if complex_input else 0)
        held = fed - welch._chunk.buf.nbytes - sums - slots
        assert built < seg, built
        assert held < 2 * seg, held


class TestChunkPooling:
    def test_pooled_average_matches_long_record(self):
        fs = 2_000.0
        rng = stream_rng(11, 0)
        x = rng.standard_normal(100_000)
        whole = welch_psd_chunks([x], fs, 2000, overlap_frac=0.0)
        chunks = welch_psd_chunks([x[:50_000], x[50_000:]], fs, 2000, overlap_frac=0.0)
        assert chunks.n_averages == whole.n_averages
        np.testing.assert_allclose(chunks.density, whole.density, rtol=1e-12)
        assert_same_psd(fed([x], fs, 2000, overlap_frac=0.0), whole)
        assert_same_psd(fed([x[:50_000], x[50_000:]], fs, 2000, overlap_frac=0.0), chunks)

    def test_short_chunks_skipped(self):
        fs = 2_000.0
        rng = stream_rng(12, 0)
        good = rng.standard_normal(20_000)
        psd = welch_psd_chunks([good, np.zeros(100)], fs, 2000)
        assert psd.n_averages >= 2
        assert_same_psd(fed([good, np.zeros(100)], fs, 2000), psd)
        assert_same_psd(fed([good], fs, 2000), psd)

    def test_all_chunks_short_raises(self):
        with pytest.raises(SpectralError):
            welch_psd_chunks([np.zeros(10)], 100.0, 1000)
        welch = Welch(100.0, 1000, 0.5, "hann", "constant")
        with pytest.raises(SpectralError, match="no chunk holds two"):
            welch.psd()
        welch.feed(np.zeros(10), 1)
        with pytest.raises(SpectralError, match="no chunk holds two"):
            welch.psd()

    def test_real_and_complex_chunks_do_not_mix(self):
        welch = Welch(100.0, 100, 0.5, "hann", "constant")
        welch.feed(np.zeros(1000), 1)
        with pytest.raises(SpectralError, match="all real or all complex"):
            welch.feed(np.zeros(1000, dtype=complex), 1)

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_pooled_sum_bitwise(self, workers, complex_input):
        # the pooled estimate is one mean over every segment of every chunk:
        # each chunk's power rows summed in segment order, the chunk sums
        # added in list order, then / N, / (fs * sum w^2) and the fold
        fs, seg, hop = 1234.0, 500, 250
        rng = stream_rng(14, 0)
        chunks = [rng.standard_normal(n) + 0.3 for n in (1_750, 3_333, 2_600)]
        if complex_input:
            chunks = [c + 1j * rng.standard_normal(len(c)) for c in chunks]
        win = signal.get_window("hann", seg)
        pooled = np.zeros(seg if complex_input else seg // 2 + 1)
        n_segments = 0
        for chunk in chunks:
            total = np.zeros_like(pooled)
            for row in hann_power_rows(sliding_window_view(chunk, seg)[::hop], "constant"):
                total += row
                n_segments += 1
            pooled += total
        pooled /= n_segments
        pooled /= fs * float(np.sum(win**2))
        if complex_input:
            pooled = sp_fft.fftshift(pooled)
        else:
            pooled[1:-1] *= 2.0
        psd = welch_psd_chunks(chunks, fs, seg, 0.5, "hann", workers=workers)
        assert psd.n_averages == n_segments == 6 + 12 + 9
        assert np.array_equal(psd.density, pooled)
        assert_same_psd(fed(chunks, fs, seg, workers=workers), psd)

    @pytest.mark.parametrize(
        "option, message",
        [({"overlap_frac": 1.5}, "overlap_frac must lie in"), ({"detrend": "linear"}, "detrend must be")],
    )
    def test_bad_option_raises_its_own_message(self, option, message):
        x = stream_rng(15, 0).standard_normal(10_000)
        with pytest.raises(SpectralError, match=message):
            welch_psd_chunks([x], 100.0, 1000, **option)

    def test_worker_count_does_not_change_result(self):
        fs = 2_000.0
        rng = stream_rng(13, 0)
        x = rng.standard_normal(60_000) + 1j * rng.standard_normal(60_000)
        chunks = [x[:17_000], x[17_000:17_500], x[17_500:41_000], x[41_000:]]
        one = welch_psd_chunks(chunks, fs, 2000, workers=1)
        two = welch_psd_chunks(chunks, fs, 2000, workers=2)
        assert_same_psd(one, two)
        for workers in (1, 2):
            assert_same_psd(fed(chunks, fs, 2000, workers=workers), one)
        assert (one.n_averages, one.effective_averages) == (two.n_averages, two.effective_averages)


class TestStreamedChunks:
    """A chunk fed in consecutive pieces, the last one ending it, gives the
    estimate of the chunk fed whole, bit for bit, however it is cut, for
    every window (1, 3 and 5 taps) and even and odd segments."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        complex_input=st.booleans(),
        workers=st.sampled_from((1, 2)),
        overlap=st.sampled_from((0.0, 0.5, 0.75)),
        detrend=st.sampled_from(("constant", False)),
        window=st.sampled_from(sorted(BIN_STEP_BY_WINDOW)),
        seg=st.sampled_from((16, 17)),
    )
    def test_any_cut_gives_the_whole_chunks(self, data, complex_input, workers, overlap, detrend,
                                            window, seg):
        # 1-4 chunks, some shorter than two segments; each cut into 1-6
        # pieces at random and near segment starts (so inside the carried
        # tail), with empty pieces and pieces shorter than one hop
        hop = seg - int(seg * overlap)
        short = seg + hop - 1
        lengths = data.draw(st.lists(st.integers(0, 8 * seg) | st.sampled_from((0, seg, short)),
                                     min_size=1, max_size=4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        chunks = [rng.standard_normal(n) + 0.3 for n in lengths]
        if complex_input:
            chunks = [c + 1j * rng.standard_normal(len(c)) for c in chunks]
        whole = Welch(1234.0, seg, overlap, window, detrend)
        streamed = Welch(1234.0, seg, overlap, window, detrend)
        for chunk in chunks:
            n = len(chunk)
            near_starts = st.sampled_from([k * hop + d for k in range(n // hop + 1) for d in (-1, 0, 1)
                                           if 0 <= k * hop + d <= n])
            cuts = data.draw(st.lists(st.integers(0, n) | near_starts, max_size=5))
            edges = [0, *sorted(cuts), n]
            for i, (a, b) in enumerate(zip(edges[:-1], edges[1:]), start=2):
                streamed.feed(chunk[a:b], workers, i == len(edges))
            whole.feed(chunk, workers)
        if not any(n >= short + 1 for n in lengths):
            for welch in (whole, streamed):
                with pytest.raises(SpectralError, match="no chunk holds two"):
                    welch.psd()
            return
        assert_same_psd(streamed.psd(), whole.psd())
        if complex_input:
            for a, b in zip(streamed.channel_psds(0.4), whole.channel_psds(0.4)):
                assert_same_psd(a, b)


class TestChannelSpectra:
    """Welch.channel_psds(theta) from the power and pseudo-spectrum sums of
    complex chunks equals the Welch estimate of the real channels
    Re(e^{i theta} z) and Im(e^{i theta} z) themselves."""

    FS = 1_000.0

    @staticmethod
    def improper_chunks():
        # a complex AR(1) record whose quadratures differ in variance and
        # bandwidth (an improper signal) with a nonzero mean, cut into three
        # chunks; the middle one is shorter than two segments of 512
        rng = stream_rng(31, 0)
        n = 20_000
        x = signal.lfilter([1.0], [1.0, -0.9], rng.standard_normal(n))
        y = signal.lfilter([1.0], [1.0, -0.5], 0.4 * rng.standard_normal(n))
        z = (x + 1j * y) * np.exp(0.7j) + (0.3 - 0.2j)
        return [z[:9_000], z[9_000:9_700], z[9_700:]]

    @staticmethod
    def accumulated(chunks, segment_len, detrend, workers=1):
        welch = Welch(TestChannelSpectra.FS, segment_len, 0.5, "hann", detrend)
        for chunk in chunks:
            welch.feed(chunk, workers)
        return welch

    @pytest.mark.parametrize("segment_len", [512, 511])
    @pytest.mark.parametrize("detrend", ["constant", False])
    def test_equals_welch_of_the_rotated_channels(self, segment_len, detrend):
        chunks = self.improper_chunks()
        assert len(chunks[1]) < 2 * segment_len
        welch = self.accumulated(chunks, segment_len, detrend)
        for theta in (0.0, 0.3, 1.2, 2.9):
            rotated = [c * np.exp(1j * theta) for c in chunks]
            for psd, part in zip(welch.channel_psds(theta), ("real", "imag")):
                direct = welch_psd_chunks(
                    [getattr(r, part) for r in rotated], self.FS, segment_len, 0.5, "hann",
                    detrend=detrend,
                )
                assert np.array_equal(psd.freqs, direct.freqs)
                assert (psd.rbw, psd.n_averages, psd.effective_averages, psd.window, psd.onesided) == (
                    direct.rbw, direct.n_averages, direct.effective_averages, direct.window, True
                )
                np.testing.assert_allclose(psd.density, direct.density, rtol=1e-12, atol=0)

    def test_worker_count_does_not_change_result(self):
        chunks = self.improper_chunks()
        results = [self.accumulated(chunks, 511, "constant", workers).channel_psds(1.2)
                   for workers in (1, 2, 5)]
        for other in results[1:]:
            for a, b in zip(results[0], other):
                assert_same_psd(a, b)

    def test_real_input_has_no_channels(self):
        welch = self.accumulated([stream_rng(32, 0).standard_normal(5_000)], 512, "constant")
        with pytest.raises(SpectralError, match="complex"):
            welch.channel_psds(0.3)


class TestUsableSlices:
    """The parts slice_parts cuts a record's pieces into join, per slice,
    to the whole record's slices, bit for bit and in record order, however
    the record is cut; `last` marks each slice's final part only."""

    N = 50
    SLICES = [("a", slice(3, 10)), ("b", slice(12, 20)), ("a", slice(25, 40)),
              ("b", slice(41, 42)), ("b", slice(45, 50))]

    def _record(self, dtype):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(self.N)
        return x if dtype is float else x + 1j * rng.standard_normal(self.N)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize(
        "cuts",
        [
            [0, 50],  # one piece spanning every slice
            list(range(51)),  # one-sample pieces
            [0, 3, 10, 12, 20, 25, 40, 41, 42, 45, 50],  # at every slice start and stop
            [0, 0, 11, 11, 33, 33, 50, 50],  # empty pieces: first, between slices, inside one, last
            [0, 26, *range(27, 40, 2), 50],  # one slice across many pieces
            [0, 11, 43, 50],  # pieces completing several slices each
        ],
    )
    def test_slices_of_any_cut_are_the_whole_records(self, dtype, cuts):
        record = self._record(dtype)
        pieces = (record[a:b] for a, b in zip(cuts[:-1], cuts[1:]))
        got = joined_slices(slice_parts(iter(self.SLICES), pieces))
        assert got == [(tag, record[s].tobytes()) for tag, s in self.SLICES]


class TestWindowIndependence:
    @pytest.mark.realization
    def test_fitted_area_agrees_between_windows(self):
        fs = 25_000.0
        gamma = TWO_PI * 20.0
        n = 1_000_000
        x = OUChain(stream_rng(21, 0), 1.0 / fs).draw(n, gamma / 2.0, 1.0)
        t = np.arange(n) / fs
        record = x * np.cos(TWO_PI * 1100.0 * t) * math.sqrt(2.0)
        results = {}
        for window in ("hann", "blackman"):
            psd = welch_psd_chunks([record], fs, 25_000, window=window)
            fit = fit_quadrature(psd, 1100.0, 300.0)
            results[window] = fit.derived["sigma2"]
        a, b = results["hann"], results["blackman"]
        joint = math.hypot(a[1], b[1])
        assert abs(a[0] - b[0]) <= 3.0 * joint


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        psd = Psd(
            freqs=np.linspace(0.0, 10.0, 11), density=np.linspace(1.0, 2.0, 11),
            rbw=1.0, n_averages=17, effective_averages=15.5,
            window="hann", onesided=True,
        )
        path = tmp_path / "psd.csv"
        write_psd_csv(psd, path)
        loaded = read_psd_csv(path)
        np.testing.assert_allclose(loaded.freqs, psd.freqs, rtol=1e-12)
        np.testing.assert_allclose(loaded.density, psd.density, rtol=1e-12)
        assert loaded.rbw == psd.rbw
        assert loaded.n_averages == psd.n_averages
        assert loaded.window == psd.window
        assert loaded.onesided == psd.onesided

    def test_body_bytes_are_the_per_row_format(self, tmp_path):
        freqs = np.array([0.0, 1.5, -2.25, 3.0, 1e300, 5e-324, 6.0, 7.0])
        density = np.array([np.nan, np.inf, -np.inf, -0.0, 1.0 / 3.0, 2.5e-310, 1e300, -1e-300])
        psd = Psd(
            freqs=freqs, density=density, rbw=1.0, n_averages=2, effective_averages=2.0,
            window="hann", onesided=True,
        )
        path = tmp_path / "psd.csv"
        write_psd_csv(psd, path)
        body = path.read_text().split("freq_hz,psd\n", 1)[1]
        assert body == "".join(map("{:.12g},{:.12g}\n".format, freqs.tolist(), density.tolist()))

    def test_config_line_precedes_plain_csv(self, tmp_path):
        psd = Psd(
            freqs=np.linspace(0.0, 10.0, 11), density=np.linspace(1.0, 2.0, 11) / 3.0,
            rbw=1.0, n_averages=17, effective_averages=15.5,
            window="hann", onesided=True,
        )
        plain = tmp_path / "plain.csv"
        tagged = tmp_path / "tagged.csv"
        write_psd_csv(psd, plain)
        write_psd_csv(psd, tagged, config_hash="0123456789abcdef")
        assert tagged.read_bytes() == b"# config=0123456789abcdef\n" + plain.read_bytes()

    def test_round_trip_of_run_artifact(self, tmp_path):
        # the files run_single writes carry the config line before the
        # metadata line
        from parosc.pipeline import write_psd_csv_with_hash

        psd = Psd(
            freqs=np.linspace(0.0, 10.0, 11), density=np.linspace(1.0, 2.0, 11) / 3.0,
            rbw=1.0, n_averages=17, effective_averages=15.5,
            window="hann", onesided=True,
        )
        path = tmp_path / "tagged.csv"
        write_psd_csv_with_hash(psd, path, "0123456789abcdef")
        loaded = read_psd_csv(path)
        np.testing.assert_allclose(loaded.freqs, psd.freqs, rtol=1e-12)
        np.testing.assert_allclose(loaded.density, psd.density, rtol=1e-12)
        assert (loaded.rbw, loaded.n_averages, loaded.effective_averages) == (1.0, 17, 15.5)
        assert (loaded.window, loaded.onesided) == ("hann", True)


class TestChiSquareComparison:
    @pytest.mark.realization
    def test_identical_spectra_not_rejected(self):
        fs = 2_000.0
        x = OUChain(stream_rng(31, 0), 1.0 / fs).draw(400_000, TWO_PI * 10.0, 1.0)
        y = OUChain(stream_rng(32, 0), 1.0 / fs).draw(400_000, TWO_PI * 10.0, 1.0)
        a = welch_psd_chunks([x], fs, 2000)
        b = welch_psd_chunks([y], fs, 2000)
        same, p = chi2_indistinguishable(a, b)
        assert same, f"false rejection, p = {p}"

    @pytest.mark.realization
    def test_different_spectra_rejected(self):
        fs = 2_000.0
        x = OUChain(stream_rng(33, 0), 1.0 / fs).draw(400_000, TWO_PI * 10.0, 1.0)
        y = OUChain(stream_rng(34, 0), 1.0 / fs).draw(400_000, TWO_PI * 10.0, 1.3)
        a = welch_psd_chunks([x], fs, 2000)
        b = welch_psd_chunks([y], fs, 2000)
        same, p = chi2_indistinguishable(a, b)
        assert not same

    def test_p_value_is_the_chi2_tail(self):
        # within 1e-11 relative of scipy's chi-square tail and of a 50-digit one
        from scipy.stats import chi2

        from oracles import chi2_tail

        rng = stream_rng(35, 0)
        for _ in range(200):
            n_bins = int(rng.integers(4, 400))
            k_a, k_b = rng.uniform(5.0, 500.0, size=2)
            spectrum = rng.uniform(0.5, 2.0, size=n_bins)

            def estimate(k):
                # scatter from half to one and a half times the chi-square one
                noise = rng.standard_normal(n_bins) * rng.uniform(0.5, 1.5) / math.sqrt(k)
                return Psd(
                    freqs=np.arange(n_bins, dtype=float), density=spectrum * (1.0 + noise),
                    rbw=1.0, n_averages=int(k), effective_averages=k, window="hann", onesided=True,
                )

            a, b = estimate(k_a), estimate(k_b)
            da, db = a.density[::2], b.density[::2]
            var = (0.5 * (da + db)) ** 2 * (1.0 / k_a + 1.0 / k_b)
            stat = float(np.sum((da - db) ** 2 / var))
            _, p = chi2_indistinguishable(a, b)
            assert p == pytest.approx(float(chi2.sf(stat, len(da))), rel=1e-11, abs=0.0)
            assert p == pytest.approx(chi2_tail(len(da), stat), rel=1e-11, abs=0.0)


class TestWindows:
    @pytest.mark.parametrize("window", sorted(BIN_STEP_BY_WINDOW))
    def test_equal_scipy_get_window(self, window):
        # the closed-form power sum and overlap correlations equal the sums
        # over scipy's periodic window, at short and long, odd and even
        # lengths and every hop: the power sum to 1e-14 relative, each
        # rho_m (a lagged sum over the power sum) to 1e-14 of the power sum
        cases = [(n, hop) for n in range(1, 12) for hop in range(1, n + 1)]
        cases += [(n, n - n // 2) for n in (39, 1000, 1001, 4375, 17_501, 31_250, 250_000)]
        for length, hop in cases:
            win = signal.get_window(window, length)
            power = float(np.sum(win**2))
            rhos = [float(np.sum(win[: length - lag] * win[lag:])) / power
                    for lag in range(hop, length, hop)]
            _, got_power, got_rhos = _window_terms(window, length, hop)
            assert got_power == pytest.approx(power, rel=1e-14, abs=0.0), (length, hop)
            assert len(got_rhos) == len(rhos), (length, hop)
            np.testing.assert_allclose(got_rhos, rhos, rtol=0.0, atol=1e-14,
                                       err_msg=f"{length}, {hop}")

    @pytest.mark.parametrize("window", sorted(BIN_STEP_BY_WINDOW))
    def test_window_sums_its_terms_in_place(self, window):
        # the sums are taken in closed form, term by term, so no window is
        # formed: under a tenth of a window's bytes is allocated
        length = 250_000
        tracemalloc.start()
        try:
            _window_terms(window, length, length // 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * length, peak / (8 * length)

    def test_unknown_window_raises(self):
        with pytest.raises(SpectralError, match="'flattop' is not one of"):
            _window_terms("flattop", 16, 8)


class TestBinStep:
    @pytest.mark.parametrize("window", ["flattop", "blackmanharris", "nosuch"])
    def test_unknown_window_raises(self, window):
        with pytest.raises(SpectralError, match="no known bin step"):
            bin_step_for(window)
