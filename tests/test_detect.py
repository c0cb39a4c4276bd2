"""Record composition, lock-in demodulation, demodulation phase and scheduling."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import fast_config
from parosc.config import RunConfig
from parosc.detect import (
    _MIX_BLOCK,
    FLAT_PHASE_DEPTH,
    STOPBAND_DB,
    DetectionParams,
    add_phase_sums,
    carrier_phasors,
    compose_heterodyne_components,
    compose_heterodyne_wigner,
    demod_baseband,
    design_lockin_fir,
    lockin_demodulate,
    optimize_demod_phase,
    schedule_drive,
)
from parosc.errors import AliasingError, FilterDesignError, ScheduleError
from parosc.fitting import fit_single_pair
from parosc.model import DerivedRates, OscillatorParams
from parosc.spectral import UsableSlices, Welch, welch_psd_chunks
from parosc.synth import (
    DETUNED,
    RESONANT,
    SimGrid,
    Streams,
    simulate_scheduled_envelopes,
    simulate_scheduled_quadratures,
)

TWO_PI = 2.0 * math.pi

OSC = OscillatorParams(omega_m=TWO_PI * 530e3, gamma_m=1e-3, n_bar=5.8)
FS = 25e3
CARRIER = TWO_PI * 5e3
DELTA_LO = TWO_PI * 1.1e3
# a lock-in passband edge 5% above the LO offset
EDGE = DELTA_LO / TWO_PI * 1.05
DET = DetectionParams(gain=1.0, shot_psd=0.002, lowpass_cutoff=2.5e3)


def rates_for(s, n_bar=5.8):
    return DerivedRates.from_target(TWO_PI * 20.0, s, n_bar)


def grid_for(duration, seed, fs=FS):
    return SimGrid(sample_rate=fs, duration=duration, carrier=CARRIER, seed=seed)


def constant_quadratures(grid, x_value, y_value):
    n = grid.n_samples
    return np.full(n, x_value), np.full(n, y_value)


def of_class(tag, slices):
    """The index ranges of the (tag, range) walk that carry tag, in order."""
    return [s for seg_tag, s in slices if seg_tag == tag]


def sum_slices(bb, zs, spectra=(), workers=1):
    """Feed the decimated pieces zs of bb's record through its usable
    slices as the pipeline does: each complete slice to its class's Welch
    in spectra, if any, and each resonant one to the phase sums, which are
    returned."""
    slices = UsableSlices(bb.usable_slices(), complex)
    sums = (0.0, 0.0, 0.0, 0)
    for z in zs:
        for tag, piece in slices.feed(z):
            if tag in spectra:
                spectra[tag].feed(piece, workers)
            if tag == RESONANT:
                sums = add_phase_sums(sums, piece)
    return sums


class TestScheduleDrive:
    def test_hundred_seconds_five_second_period(self):
        grid = grid_for(100.0, 1)
        schedule = schedule_drive(grid, 5.0, TWO_PI * 10.0)
        bounds = list(schedule.sample_bounds(FS, grid.n_samples))
        assert schedule.n_segments == len(bounds) == 20
        tags = [tag for _, _, tag in bounds]
        assert tags.count(DETUNED) == 10
        assert tags.count(RESONANT) == 10
        assert tags[0] == DETUNED
        # segments tile [0, duration) without overlap
        for a, b in zip(bounds, bounds[1:]):
            assert a[1] == b[0]
        assert bounds[0][0] == 0
        assert bounds[-1][1] == schedule.n_samples(FS) == grid.n_samples

    def test_period_equal_to_duration_rejected(self):
        with pytest.raises(ScheduleError, match="resonant"):
            schedule_drive(grid_for(10.0, 1), 10.0, TWO_PI * 10.0)

    def test_narrow_mode_guard_rejected(self):
        # gamma_minus = 2pi*1 Hz -> settling 1.6 s, too much of a 5 s segment
        with pytest.raises(ScheduleError, match="guard"):
            schedule_drive(grid_for(100.0, 1), 5.0, TWO_PI * 1.0)

    def test_guard_trimming(self):
        grid = grid_for(20.0, 1)
        schedule = schedule_drive(grid, 5.0, TWO_PI * 10.0)
        slices = of_class(RESONANT, schedule.usable_slices(grid.sample_rate, grid.n_samples))
        assert len(slices) == 2
        guard_n = math.ceil(schedule.guard * grid.sample_rate)
        assert slices[0].start == int(5.0 * grid.sample_rate) + guard_n

    @staticmethod
    def _listed_slices(grid, period, guard, tag):
        """A class's usable slices as the schedule once listed them: every
        drive segment's (start, end, tag), the last running on to the
        duration, its bounds rounded, then its head trimmed by the guard."""
        n = int(math.floor(grid.duration / period + 1e-9))
        segments = [
            (k * period, grid.duration if k == n - 1 else (k + 1) * period,
             DETUNED if k % 2 == 0 else RESONANT)
            for k in range(n)
        ]
        guard_n = int(math.ceil(guard * grid.sample_rate))
        out = []
        for k, (start, end, seg_tag) in enumerate(segments):
            i0 = int(round(start * grid.sample_rate))
            i1 = grid.n_samples if k == n - 1 else int(round(end * grid.sample_rate))
            if seg_tag == tag and i0 + guard_n < i1:
                out.append(slice(i0 + guard_n, i1))
        return out

    def test_max_segments_schedule_holds_nothing_per_segment(self):
        # on the defaults at the longest record MAX_SEGMENTS admits, the
        # schedule, its slice iterator and the slice assembler allocate
        # under 1 MiB together (42.5 MiB when they were lists of segments
        # and slices); each class's first and last slices are the listed
        # ones
        import tracemalloc
        from collections import deque
        from itertools import islice

        from parosc.config import RunConfig
        from parosc.detect import MAX_SEGMENTS

        config = RunConfig.defaults().with_overrides(duration="499000s")
        grid, rates = config.grid(seed=0), config.derived_rates()
        period = config.values["schedule_period"]
        assert MAX_SEGMENTS - 500 < grid.duration / period <= MAX_SEGMENTS
        tracemalloc.start()
        try:
            schedule = schedule_drive(grid, period, rates.gamma_minus)
            UsableSlices(schedule.usable_slices(grid.sample_rate, grid.n_samples), float)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        for tag in (DETUNED, RESONANT):
            listed = self._listed_slices(grid, period, schedule.guard, tag)
            walk = (s for seg_tag, s in schedule.usable_slices(grid.sample_rate, grid.n_samples)
                    if seg_tag == tag)
            first = list(islice(walk, 3))
            last = deque(walk, maxlen=3)
            assert first == listed[:3], tag
            assert list(last) == listed[-3:], tag


class TestCarrierPhasors:
    def test_matches_direct_exp_over_full_default_record(self):
        # 100 s at 250 kHz: 25 M samples, the last block only partly filled
        fs, omega, phase = 250e3, TWO_PI * 50e3 + DELTA_LO, 0.7
        n = int(100.0 * fs)
        assert n % _MIX_BLOCK != 0
        dt = 1.0 / fs
        worst = 0.0
        covered = 0
        for i0, i1, ph in carrier_phasors(n, omega, dt, phase):
            assert i0 == covered
            covered = i1
            direct = np.exp(1j * (omega * (np.arange(i0, i1) * dt) + phase))
            worst = max(worst, float(np.max(np.abs(ph - direct))))
        assert covered == n
        assert worst < 1e-8

    def test_short_record_single_partial_block(self):
        blocks = list(carrier_phasors(10, 3.0, 0.1, -0.2))
        assert len(blocks) == 1
        i0, i1, ph = blocks[0]
        assert (i0, i1) == (0, 10)
        np.testing.assert_allclose(ph, np.exp(1j * (3.0 * 0.1 * np.arange(10) - 0.2)), atol=1e-15)


class TestComposeWigner:
    @pytest.mark.realization
    def test_zero_gain_gives_pure_shot_floor(self):
        grid = grid_for(60.0, 2)
        quad = simulate_scheduled_quadratures(OSC, rates_for(0.5), grid)
        det = DetectionParams(gain=0.0, shot_psd=0.002, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO)
        psd = welch_psd_chunks([samples], grid.sample_rate, 12_500)
        interior = psd.density[10:-10]
        assert np.mean(interior) == pytest.approx(0.002, rel=0.02)

    def test_constant_quadrature_gives_two_equal_lines(self):
        grid = grid_for(20.0, 3)
        quad = constant_quadratures(grid, 1.0, 0.0)
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO)
        psd = welch_psd_chunks([samples], grid.sample_rate, 25_000)
        f_up = (CARRIER + DELTA_LO) / TWO_PI
        f_dn = (CARRIER - DELTA_LO) / TWO_PI
        powers = []
        for f0 in (f_up, f_dn):
            sel = np.abs(psd.freqs - f0) < 10.0
            powers.append(np.sum(psd.density[sel]) * psd.rbw)
        # 2 cos(a)cos(b) splits one unit-amplitude quadrature into two lines
        # of amplitude 1 each -> power 1/2 per line
        assert powers[0] == pytest.approx(0.5, rel=1e-3)
        assert powers[1] == pytest.approx(0.5, rel=1e-3)

    def test_aliasing_guard(self):
        grid = SimGrid(sample_rate=11e3, duration=1.0, carrier=TWO_PI * 5e3, seed=4)
        quad = constant_quadratures(grid, 1.0, 0.0)
        with pytest.raises(AliasingError):
            compose_heterodyne_wigner(*quad, DET, grid, TWO_PI * 1.1e3)

    @pytest.mark.realization
    def test_energy_bookkeeping(self):
        grid = grid_for(120.0, 5)
        x, y = simulate_scheduled_quadratures(OSC, rates_for(0.5), grid)
        det = DetectionParams(gain=1.3, shot_psd=0.0, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(x, y, det, grid, DELTA_LO)
        expected = det.gain**2 * (np.var(x) + np.var(y))
        assert np.var(samples) == pytest.approx(expected, rel=0.01)

    @pytest.mark.realization
    def test_wigner_record_is_sideband_symmetric(self):
        # full synthesis, n_bar = 5.8, s = 0: both sideband areas equal within
        # the fit's statistical error; asymmetry needs the component backend
        grid = grid_for(120.0, 6)
        quad = simulate_scheduled_quadratures(OSC, rates_for(0.0), grid)
        samples = compose_heterodyne_wigner(*quad, DET, grid, DELTA_LO)
        psd = welch_psd_chunks([samples], grid.sample_rate, 25_000)
        f_c = CARRIER / TWO_PI
        f_lo = DELTA_LO / TWO_PI
        fit = fit_single_pair(psd, (f_c + f_lo, f_c - f_lo), 300.0)
        r, r_sig = fit.derived["ratio"]
        assert abs(r - 1.0) < 2.0 * r_sig


class TestComposeComponents:
    def test_single_sideband_when_antistokes_absent(self):
        grid = grid_for(30.0, 7)
        rates = rates_for(0.5)
        beta_s, _ = simulate_scheduled_envelopes(OSC, rates, grid)
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_components(
            beta_s, np.zeros_like(beta_s), det, grid, DELTA_LO
        )
        psd = welch_psd_chunks([samples], grid.sample_rate, 25_000)
        f_c = CARRIER / TWO_PI
        f_lo = DELTA_LO / TWO_PI
        up = np.sum(psd.density[np.abs(psd.freqs - (f_c + f_lo)) < 300.0])
        dn = np.sum(psd.density[np.abs(psd.freqs - (f_c - f_lo)) < 300.0])
        # residual power in the empty window is the Lorentzian tail of the
        # occupied sideband 2*delta_lo away
        assert dn < 1e-3 * up

    @pytest.mark.realization
    def test_record_variance_carries_half_envelope_power(self):
        grid = grid_for(120.0, 8)
        rates = rates_for(0.5)
        beta_s, beta_as = simulate_scheduled_envelopes(OSC, rates, grid)
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_components(beta_s, beta_as, det, grid, DELTA_LO)
        expected = 0.5 * (np.mean(np.abs(beta_s) ** 2) + np.mean(np.abs(beta_as) ** 2))
        assert np.var(samples) == pytest.approx(expected, rel=0.01)

    def test_gain_invariance_of_fitted_ratios(self):
        grid = grid_for(60.0, 9)
        rates = rates_for(0.5)
        beta_s, beta_as = simulate_scheduled_envelopes(OSC, rates, grid)
        f_c = CARRIER / TWO_PI
        f_lo = DELTA_LO / TWO_PI
        results = []
        for gain in (1.0, 2.0):
            # shot amplitude scales with gain so the records are exact
            # multiples of each other
            det = DetectionParams(gain=gain, shot_psd=0.002 * gain**2, lowpass_cutoff=2.5e3)
            samples = compose_heterodyne_components(beta_s, beta_as, det, grid, DELTA_LO)
            psd = welch_psd_chunks([samples], grid.sample_rate, 25_000)
            fit = fit_single_pair(psd, (f_c + f_lo, f_c - f_lo), 300.0)
            results.append(fit.derived["ratio"][0])
        assert results[1] == pytest.approx(results[0], rel=1e-9)


class TestLockinFilter:
    def test_design_meets_spec(self):
        taps = design_lockin_fir(FS, 2.5e3, CARRIER, 1.2e3, decimate=4)
        from scipy.signal import freqz

        freqs, resp = freqz(taps, worN=8192, fs=FS)
        mag = np.abs(resp)
        passband = mag[freqs <= 1.2e3]
        ripple_db = np.max(np.abs(20 * np.log10(passband)))
        assert ripple_db < 0.1
        f_stop = FS / (2 * 4)
        stop = mag[freqs >= f_stop]
        assert np.max(20 * np.log10(np.maximum(stop, 1e-300))) < -60.0
        assert len(taps) % 2 == 1  # integer group delay

    def test_design_equals_scipy_firwin(self):
        # the taps of scipy's firwin at kaiserord's size, byte for byte: on
        # the defaults, on the fast grid, undecimated on the fast grid, and
        # past 8192 taps, where freqz sums the response as a polynomial
        from scipy.signal import firwin, kaiserord

        designs = []
        for cfg in (RunConfig.defaults(), fast_config(), fast_config(decimate="1")):
            v = cfg.values
            edge = cfg.passband_edge_hz(cfg.derived_rates())
            designs.append((v["sample_rate"], v["lowpass_cutoff"], v["carrier"], edge, v["decimate"]))
        designs.append((FS, 3114.0, CARRIER, 1.2e3, 4))
        for fs, cutoff, carrier, edge, decimate in designs:
            f_stop = 2.0 * carrier / TWO_PI - cutoff
            if decimate > 1:
                f_stop = min(f_stop, fs / (2.0 * decimate))
            numtaps, beta = kaiserord(STOPBAND_DB + 5.0, (f_stop - cutoff) / (fs / 2.0))
            expected = firwin(numtaps | 1, (cutoff + f_stop) / 2.0, window=("kaiser", beta), fs=fs)
            taps = design_lockin_fir(fs, cutoff, carrier, edge, decimate)
            assert taps.tobytes() == expected.tobytes(), len(expected)
        assert len(taps) > 8192

    def test_refused_design_names_its_figures(self):
        # a wide transition band: Kaiser's formula undersizes the filter,
        # and the response on freqz's grid misses the stopband attenuation
        with pytest.raises(FilterDesignError) as info:
            design_lockin_fir(250e3, 20e3, TWO_PI * 70e3, 10e3)
        assert str(info.value) == (
            "designed filter misses spec: ripple 0.00973 dB (limit 0.1), "
            "stopband 57.4 dB (limit 60.0)"
        )

    def test_stopband_above_nyquist_names_both(self):
        # undecimated, the mixing image's edge 2*fc - cutoff can lie above
        # Nyquist, where no response point tests the stopband
        with pytest.raises(FilterDesignError) as info:
            design_lockin_fir(250e3, 30e3, TWO_PI * 80e3, 10e3)
        assert str(info.value) == (
            "stopband edge 130000 Hz leaves no response point below the Nyquist frequency 125000 Hz"
        )

    def test_unsatisfiable_constraints_raise(self):
        with pytest.raises(FilterDesignError):
            design_lockin_fir(FS, 5.5e3, CARRIER, 5.4e3)  # cutoff above image edge
        with pytest.raises(FilterDesignError):
            design_lockin_fir(FS, 1.0e3, CARRIER, 1.5e3)  # edge above cutoff
        with pytest.raises(FilterDesignError, match="taps, more than"):
            # a 1 Hz transition band at 25 kHz needs about 99,000 taps
            design_lockin_fir(FS, 3124.0, CARRIER, 1.2e3, decimate=4)


class TestDemodBaseband:
    @pytest.mark.parametrize("n", [1_000, 50_021])
    def test_matches_direct_same_mode_convolution(self, n):
        # overlap-save over several blocks, and a record shorter than one
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(n)
        grid = grid_for(n / FS, 0)
        det = DetectionParams(lowpass_cutoff=2.5e3)
        mixed = 2.0 * samples * np.exp(1j * CARRIER * np.arange(n) / FS)
        for decimate in (1, 4):
            bb, z = demod_baseband(samples, grid, det, 1.2e3, decimate=decimate)
            direct = np.convolve(mixed, bb.taps, mode="same")[::decimate]
            assert z.shape == direct.shape
            # the carrier phasors carry the rounding of omega*t (~1e-11 here)
            np.testing.assert_allclose(z, direct, rtol=0, atol=1e-9 * np.max(np.abs(direct)))

    def test_worker_count_does_not_change_result(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal(400_000)
        grid = grid_for(16.0, 0)
        det = DetectionParams(lowpass_cutoff=2.5e3)
        # more workers than cores: the batches write disjoint slices of one array
        _, one = demod_baseband(samples, grid, det, 1.2e3, decimate=4, workers=1)
        _, many = demod_baseband(samples, grid, det, 1.2e3, decimate=4, workers=5)
        assert np.array_equal(one, many)


class TestSegmentStreaming:
    """Records composed and demodulated one piece at a time agree bit for
    bit with the whole-record computation, for pieces cut at the drive
    segment bounds only and for pieces cut inside the segments too."""

    # 3 s segments of 75 000 samples: every segment edge falls inside a
    # mixing block and inside an overlap-save block
    GRID = SimGrid(sample_rate=FS, duration=12.0, carrier=CARRIER, seed=43)
    # piece lengths within a segment; None cuts at the segment bounds only
    CUTS = (None, 20_000, 7_777)

    def _setup(self):
        rates = rates_for(0.5)
        return rates, schedule_drive(self.GRID, 3.0, rates.gamma_minus)

    def _pieces(self, schedule, cut=None):
        """The record's grid pieces: each drive segment cut into pieces of
        `cut` samples, the last one shorter."""
        pieces = []
        for i0, i1, _ in schedule.sample_bounds(FS, self.GRID.n_samples):
            step = cut or i1 - i0
            pieces += [self.GRID.segment(b0, min(b0 + step, i1)) for b0 in range(i0, i1, step)]
        return pieces

    @staticmethod
    def _spectra():
        return {tag: Welch(FS / 4, 1750, 0.5, "hann", "constant") for tag in (DETUNED, RESONANT)}

    def test_wigner_record_and_baseband(self):
        # the handed-on pieces of the baseband, theta* and the channel
        # spectra are the whole record's, bit for bit
        rates, schedule = self._setup()
        det = DetectionParams(gain=1.0, shot_psd=0.002, lowpass_cutoff=2.5e3)
        whole_quad = simulate_scheduled_quadratures(OSC, rates, self.GRID, schedule)
        whole_samples = compose_heterodyne_wigner(
            *whole_quad, det, self.GRID, DELTA_LO, frame_phase=0.4
        )
        whole, whole_z = demod_baseband(
            whole_samples, self.GRID, det, 1.2e3, decimate=4, schedule=schedule,
        )
        whole_spectra = self._spectra()
        theta = optimize_demod_phase(sum_slices(whole, [whole_z], whole_spectra))
        whole_psds = lockin_demodulate(whole_spectra, theta[0])
        for cut in self.CUTS:
            pieces = self._pieces(schedule, cut)
            streams = Streams(self.GRID.seed, self.GRID.dt, self.GRID.n_samples)
            samples, zs, streamed = [], [], None
            for piece in pieces:
                quad = simulate_scheduled_quadratures(
                    OSC, rates, piece, schedule, streams=streams
                )
                samples.append(compose_heterodyne_wigner(
                    *quad, det, piece, DELTA_LO, frame_phase=0.4, workers=2, streams=streams,
                ))
                streamed, z = demod_baseband(
                    samples[-1], piece, det, 1.2e3, decimate=4, workers=2, into=streamed,
                    schedule=schedule,
                )
                zs.append(z)
            for piece in pieces[1:]:
                assert piece.start % _MIX_BLOCK and piece.start % streamed._step, cut
            np.testing.assert_array_equal(np.concatenate(samples), whole_samples, str(cut))
            np.testing.assert_array_equal(np.concatenate(zs), whole_z, str(cut))
            spectra = self._spectra()
            assert optimize_demod_phase(sum_slices(streamed, zs, spectra, workers=2)) == theta, cut
            for key, psd in lockin_demodulate(spectra, theta[0]).items():
                np.testing.assert_array_equal(psd.density, whole_psds[key].density, str(key))

    def test_component_record_one_segment_at_a_time(self):
        # each piece's envelopes, then its piece of the record: the pieces
        # are the whole-record composition, bit for bit
        rates, schedule = self._setup()
        det = DetectionParams(gain=1.3, shot_psd=0.002, lowpass_cutoff=2.5e3)
        beta_s, beta_as = simulate_scheduled_envelopes(OSC, rates, self.GRID, schedule)
        whole = compose_heterodyne_components(beta_s, beta_as, det, self.GRID, DELTA_LO)
        for cut in self.CUTS:
            pieces = self._pieces(schedule, cut)
            streams = Streams(self.GRID.seed, self.GRID.dt, self.GRID.n_samples)
            samples = []
            for piece in pieces:
                env = simulate_scheduled_envelopes(OSC, rates, piece, schedule, streams=streams)
                samples.append(compose_heterodyne_components(
                    *env, det, piece, DELTA_LO, workers=2, streams=streams,
                ))
                assert len(samples[-1]) == piece.n_samples
            np.testing.assert_array_equal(np.concatenate(samples), whole, str(cut))

    def test_shot_noise_past_the_old_stretch(self):
        # a record longer than 2**20 samples, composed in one call and in
        # pipeline-block pieces, draws one shot-noise stream; a zero
        # trajectory leaves only the noise
        from parosc.pipeline import _BLOCK

        grid = grid_for(44.0, 47)
        assert grid.n_samples > 1 << 20
        whole = compose_heterodyne_wigner(*constant_quadratures(grid, 0.0, 0.0), DET, grid, DELTA_LO)
        streams = Streams(grid.seed, grid.dt, grid.n_samples)
        blocks = [grid.segment(b0, min(b0 + _BLOCK, grid.n_samples))
                  for b0 in range(0, grid.n_samples, _BLOCK)]
        pieces = [
            compose_heterodyne_wigner(
                *constant_quadratures(blk, 0.0, 0.0), DET, blk, DELTA_LO, workers=2, streams=streams,
            )
            for blk in blocks
        ]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)

    def test_pieces_must_follow_in_order(self):
        rates, schedule = self._setup()
        piece = self._pieces(schedule)[1]
        quad = simulate_scheduled_quadratures(OSC, rates, piece, schedule)
        samples = compose_heterodyne_wigner(*quad, DET, piece, DELTA_LO)
        with pytest.raises(ValueError, match="does not continue"):
            demod_baseband(samples, piece, DET, 1.2e3, schedule=schedule)


class TestLockinDemodulate:
    @staticmethod
    def _spectra(fs, segment_len):
        return {RESONANT: Welch(fs, segment_len, 0.5, "hann", "constant")}

    def test_pure_tone_mixer_identity(self):
        grid = grid_for(4.0, 10)
        t = np.arange(grid.n_samples) / grid.sample_rate
        psi = 0.7
        samples = np.cos((CARRIER + DELTA_LO) * t + psi)
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        bb, z = demod_baseband(samples, grid, det, EDGE)
        spectra = self._spectra(grid.sample_rate, 10_000)
        sum_slices(bb, [z], spectra)
        inner = slice(2000, -2000)
        f_lo = DELTA_LO / TWO_PI
        expected_x = np.cos(DELTA_LO * t + psi)
        expected_y = -np.sin(DELTA_LO * t + psi)
        # at theta = 0 the channels are Re z and Im z
        np.testing.assert_allclose(z.real[inner], expected_x[inner], atol=5e-4)
        np.testing.assert_allclose(z.imag[inner], expected_y[inner], atol=5e-4)
        psd = lockin_demodulate(spectra, 0.0)[("x", RESONANT)]
        peak = psd.freqs[int(np.argmax(psd.density))]
        assert peak == pytest.approx(f_lo, abs=2 * psd.rbw)

    def test_channels_are_the_rotated_baseband(self):
        # the channel spectra are the Welch estimates of the rotated
        # baseband's real and imaginary parts over the usable slices, to
        # the rounding of the transforms (relative to the spectrum's peak:
        # the stopband bins lie 1e-8 below it)
        grid = grid_for(4.0, 14)
        quad = simulate_scheduled_quadratures(OSC, rates_for(0.5), grid)
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        bb, z = demod_baseband(compose_heterodyne_wigner(*quad, det, grid, DELTA_LO), grid, det, EDGE)
        spectra = self._spectra(grid.sample_rate, 5_000)
        sum_slices(bb, [z], spectra)
        assert len(z) > _MIX_BLOCK
        for theta in (0.0, 0.9, 2.9):
            psds = lockin_demodulate(spectra, theta)
            rotated = z * np.exp(1j * theta)
            for name, channel in (("x", rotated.real), ("y", rotated.imag)):
                direct = welch_psd_chunks(
                    [channel[s] for s in of_class(RESONANT, bb.usable_slices())],
                    grid.sample_rate, 5_000,
                )
                got = psds[(name, RESONANT)]
                assert (got.n_averages, got.effective_averages) == (
                    direct.n_averages, direct.effective_averages
                )
                np.testing.assert_array_equal(got.freqs, direct.freqs)
                np.testing.assert_allclose(
                    got.density, direct.density, rtol=1e-12, atol=1e-12 * np.max(direct.density)
                )

    def test_lockin_allocates_no_channel(self):
        # the channels are never formed: the call allocates far less than
        # one channel of the record
        import tracemalloc

        grid = grid_for(4.0, 14)
        quad = simulate_scheduled_quadratures(OSC, rates_for(0.5), grid)
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        bb, z = demod_baseband(compose_heterodyne_wigner(*quad, det, grid, DELTA_LO), grid, det, EDGE)
        spectra = self._spectra(grid.sample_rate, 5_000)
        sum_slices(bb, [z], spectra)
        channel_bytes = 8 * len(z)
        tracemalloc.start()
        try:
            lockin_demodulate(spectra, 0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < channel_bytes / 4, peak / channel_bytes

    def test_linearity(self):
        grid = grid_for(10.0, 11)
        rates = rates_for(0.5)
        quad = simulate_scheduled_quadratures(OSC, rates, grid)
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        rec_a = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, frame_phase=0.0)
        rec_b = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, frame_phase=1.1)
        rot = np.exp(0.3j)
        z_a, z_b, z_sum = (demod_baseband(rec, grid, det, EDGE)[1] * rot
                           for rec in (rec_a, rec_b, rec_a + rec_b))
        np.testing.assert_allclose(z_sum.real, z_a.real + z_b.real, atol=1e-10)
        np.testing.assert_allclose(z_sum.imag, z_a.imag + z_b.imag, atol=1e-10)

    def test_phase_covariance(self):
        # rotating the record frame and the demod phase together leaves the
        # channels unchanged
        grid = grid_for(10.0, 12)
        quad = simulate_scheduled_quadratures(OSC, rates_for(0.5), grid)
        delta = 0.83
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        rec0 = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, frame_phase=0.0)
        rec1 = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, frame_phase=delta)
        bb0, z0 = demod_baseband(rec0, grid, det, EDGE)
        bb1, z1 = demod_baseband(rec1, grid, det, EDGE)
        spectra0, spectra1 = (self._spectra(grid.sample_rate, 25_000) for _ in range(2))
        sum_slices(bb0, [z0], spectra0)
        sum_slices(bb1, [z1], spectra1)
        x0, y0 = (z0 * np.exp(0.2j)).real, (z0 * np.exp(0.2j)).imag
        x1, y1 = (z1 * np.exp(1j * (0.2 + delta))).real, (z1 * np.exp(1j * (0.2 + delta))).imag
        # identical statistics: the only difference is the image sideband's
        # spectral tail leaking through the filter transition band, far below
        # the in-band signal (and far below any shot floor in practice)
        inner = slice(400, -400)
        assert np.var(x1[inner]) == pytest.approx(np.var(x0[inner]), rel=5e-3)
        assert np.var(y1[inner]) == pytest.approx(np.var(y0[inner]), rel=5e-3)
        f_lo = DELTA_LO / TWO_PI
        psd0 = lockin_demodulate(spectra0, 0.2)[("x", RESONANT)]
        psd1 = lockin_demodulate(spectra1, 0.2 + delta)[("x", RESONANT)]
        band = np.abs(psd0.freqs - f_lo) < 50.0
        np.testing.assert_allclose(psd1.density[band], psd0.density[band], rtol=5e-2)

    def test_tagged_segment_isolation(self):
        # statistics of resonant segments are untouched by replacing the
        # detuned samples, up to the (guard-buried) filter support
        grid = grid_for(20.0, 13)
        rates = rates_for(0.5)
        schedule = schedule_drive(grid, 5.0, rates.gamma_minus)
        quad = simulate_scheduled_quadratures(OSC, rates, grid)
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO)
        swapped = samples.copy()
        rng = np.random.default_rng(0)
        for i0, i1, tag in schedule.sample_bounds(FS, grid.n_samples):
            if tag == DETUNED:
                swapped[i0:i1] = rng.permutation(swapped[i0:i1])
        bb, z = demod_baseband(samples, grid, det, EDGE, schedule=schedule)
        _, z_swapped = demod_baseband(swapped, grid, det, EDGE, schedule=schedule)
        # the channel at theta = 0 is Re z
        for sl in of_class(RESONANT, bb.usable_slices()):
            np.testing.assert_allclose(z_swapped.real[sl], z.real[sl], atol=1e-12)


class TestOptimizeDemodPhase:
    def _baseband(self, frame_phase, seed=14, s=0.5, duration=40.0, shot=0.0, decimate=1):
        """The baseband of a record fed whole, and its decimated samples."""
        grid = grid_for(duration, seed)
        rates = rates_for(s)
        schedule = schedule_drive(grid, 5.0, rates.gamma_minus)
        quad = simulate_scheduled_quadratures(OSC, rates, grid)
        det = DetectionParams(gain=1.0, shot_psd=shot, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, frame_phase=frame_phase)
        return demod_baseband(samples, grid, det, EDGE, decimate=decimate, schedule=schedule)

    def test_recovers_frame_phase(self):
        # deterministic fixed-frame record: X constant, Y = 0.  The only time
        # dependence of a channel is the LO beat, whose amplitude is
        # X*cos(phi0 - theta); the variance minimum sits exactly at
        # theta = phi0 + pi/2, free of any estimator noise.
        phi0 = 0.9337
        grid = grid_for(20.0, 14)
        rates = rates_for(0.5)
        schedule = schedule_drive(grid, 5.0, rates.gamma_minus)
        quad = constant_quadratures(grid, 1.0, 0.0)
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, frame_phase=phi0)
        bb, z = demod_baseband(samples, grid, det, EDGE, schedule=schedule)
        theta, _ = optimize_demod_phase(sum_slices(bb, [z]))
        target = (phi0 + math.pi / 2) % math.pi
        assert abs((theta - target + math.pi / 2) % math.pi - math.pi / 2) < 1e-5

    @pytest.mark.realization
    def test_orthogonal_channel_variance_ratio(self):
        phi0 = 0.41
        bb, z = self._baseband(phi0, seed=15, duration=60.0)
        theta, _ = optimize_demod_phase(sum_slices(bb, [z]))
        ratios = []
        for phase in (theta, theta + math.pi / 2):
            ch_x = (z * np.exp(1j * phase)).real
            cuts = np.concatenate([ch_x[s] for s in of_class(RESONANT, bb.usable_slices())])
            ratios.append(np.var(cuts))
        assert ratios[1] / ratios[0] == pytest.approx(3.0, rel=0.15)

    @pytest.mark.realization
    def test_flat_variance_at_zero_gain(self):
        bb, z = self._baseband(0.3, seed=16, s=0.0, duration=60.0)
        _, depth = optimize_demod_phase(sum_slices(bb, [z]))
        assert depth < FLAT_PHASE_DEPTH

    def test_closed_form_is_the_variance_minimum(self):
        # complex samples with a nonzero mean, so the m1^2 term of the closed
        # form matters; the sums of one resonant slice over all of z stand
        # in for a record's phase sums
        rng = np.random.default_rng(17)
        flat_seen = sharp_seen = 0
        for _ in range(200):
            n = 2000
            squeeze = rng.uniform(0.0, 0.3)
            x = rng.normal(0.0, math.sqrt(1.0 - squeeze), n)
            y = rng.normal(0.0, math.sqrt(1.0 + squeeze), n)
            mean = complex(*rng.normal(0.0, 2.0, 2))
            z = (x + 1j * y) * np.exp(1j * rng.uniform(0.0, TWO_PI)) + mean
            sums = (np.sum(z), np.sum(z * z), np.sum(np.abs(z) ** 2), n)
            m1 = np.mean(z)
            c = np.mean(z * z) - m1 * m1
            depth = 2.0 * abs(c) / (np.mean(np.abs(z) ** 2) - abs(m1) ** 2)
            theta, got_depth = optimize_demod_phase(sums)
            assert got_depth == pytest.approx(depth, rel=1e-9)
            assert 0.0 <= theta < math.pi
            if depth < FLAT_PHASE_DEPTH:
                flat_seen += 1
                continue
            sharp_seen += 1
            best = minimize_scalar(
                lambda th: np.var((np.exp(1j * th) * z).real),
                bounds=(theta - 0.5, theta + 0.5), method="bounded",
                options={"xatol": 1e-10},
            )
            assert abs(best.x - theta) < 1e-6
        assert flat_seen > 10 and sharp_seen > 10

    def test_minimizes_the_decimated_resonant_channel_variance(self):
        # theta* is the variance minimum of exactly the channel samples the
        # quadrature spectra read: the resonant usable slices of decimated z
        bb, z = self._baseband(0.6, seed=18, duration=30.0, shot=0.002, decimate=4)
        theta, _ = optimize_demod_phase(sum_slices(bb, [z]))
        z = np.concatenate([z[s] for s in of_class(RESONANT, bb.usable_slices())])
        best = minimize_scalar(
            lambda th: np.var((np.exp(1j * th) * z).real),
            bounds=(theta - 0.5, theta + 0.5), method="bounded",
            options={"xatol": 1e-10},
        )
        assert abs(best.x - theta) < 1e-6


class TestQuadratureSpectraAtOptimum:
    @pytest.mark.realization
    def test_channel_widths_follow_gamma_plus_minus(self):
        # resonant drive, demodulated at the optimal phase: the squeezed
        # channel fits the two-peak model with the broad width, the
        # anti-squeezed channel with the narrow one
        from parosc.fitting import fit_quadrature

        rates = rates_for(0.5)
        grid = grid_for(120.0, 42)
        schedule = schedule_drive(grid, 5.0, rates.gamma_minus)
        quad = simulate_scheduled_quadratures(OSC, rates, grid)
        phi0 = 0.77
        det = DetectionParams(gain=1.0, shot_psd=0.002, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, frame_phase=phi0)
        # one Welch over the resonant slices, as the pipeline pools them: no
        # segment straddles a drive switch
        spectra = {RESONANT: Welch(grid.sample_rate / 4, 6250, 0.5, "hann", "constant")}
        bb, z = demod_baseband(samples, grid, det, EDGE, decimate=4, schedule=schedule)
        psds = lockin_demodulate(spectra, optimize_demod_phase(sum_slices(bb, [z], spectra))[0])
        f_lo = DELTA_LO / TWO_PI
        widths = {}
        for name in "xy":
            fit = fit_quadrature(psds[(name, RESONANT)], f_lo, 300.0)
            widths[name] = fit.derived["gamma_hz"]
        gamma_plus_hz = rates.gamma_plus / TWO_PI
        gamma_minus_hz = rates.gamma_minus / TWO_PI
        assert widths["x"][0] == pytest.approx(gamma_plus_hz, rel=0.10)
        assert widths["y"][0] == pytest.approx(gamma_minus_hz, rel=0.10)


class TestDetectionParams:
    def test_negative_shot_rejected(self):
        with pytest.raises(ValueError):
            DetectionParams(shot_psd=-1e-3)
