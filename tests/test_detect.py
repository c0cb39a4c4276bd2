"""Record composition, lock-in demodulation, demodulation phase and scheduling."""

import math
import weakref

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import as_record, fast_config, record_streams, single_segment_schedule
from parosc.config import RunConfig
from parosc.detect import (
    _MIX_BLOCK,
    FLAT_PHASE_DEPTH,
    STOPBAND_DB,
    DetectionParams,
    _freqz_response,
    _phasor_table,
    _record_phasors,
    compose_heterodyne_components,
    compose_heterodyne_wigner,
    demod_baseband,
    design_lockin_fir,
    lockin_baseband,
    lockin_demodulate,
    optimize_demod_phase,
    schedule_drive,
)
from parosc.errors import AliasingError, FilterDesignError, ScheduleError
from parosc.fitting import fit_single_pair
from parosc.model import DerivedRates, OscillatorParams
from parosc.spectral import Welch, slice_parts, welch_psd_chunks
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


def demod(samples, grid, det, edge, decimate=1, workers=1, schedule=None):
    """The lock-in baseband of the record on the grid (by default one
    resonant segment), fed whole, and its decimated samples."""
    schedule = schedule or single_segment_schedule(grid.duration)
    streams = Streams(grid.seed, grid.dt, schedule.n_samples(grid.sample_rate))
    bb = lockin_baseband(grid, det, edge, decimate, schedule, streams)
    return bb, demod_baseband(bb, samples, grid, workers)


def of_class(tag, slices):
    """The index ranges of the (tag, range) walk that carry tag, in order."""
    return [s for seg_tag, s in slices if seg_tag == tag]


def sum_slices(bb, zs, spectra=None, workers=1):
    """Cut the decimated pieces zs of bb's record at its usable slices as
    the pipeline does, each part to its class's Welch in spectra (by
    default a resonant one of 0.2 s Hann segments), and return the
    resonant Welch."""
    if spectra is None:
        fs = bb.sample_rate / bb.decimate
        spectra = {RESONANT: Welch(fs, int(round(0.2 * fs)), 0.5, "hann", "constant")}
    for tag, part, last in slice_parts(bb.usable_slices(), zs):
        if tag in spectra:
            spectra[tag].feed(part, workers, last)
    return spectra[RESONANT]


def assert_x_power_extremes(welch, theta, depth):
    """theta is the bounded minimum of the x channel's Welch power
    P(th) = sum_k channel_psds(th)[0].density, to 1e-6, and depth is
    (max - min)/mean of P over phase: the extremes found by bounded search,
    the mean over eight phases spanning its period."""
    def power(th):
        return np.sum(welch.channel_psds(th)[0].density)

    def extreme(sign, center):
        return minimize_scalar(lambda th: sign * power(th), bounds=(center - 0.5, center + 0.5),
                               method="bounded", options={"xatol": 1e-10})

    low, high = extreme(1.0, theta), extreme(-1.0, theta + math.pi / 2)
    assert abs(low.x - theta) < 1e-6
    mean = np.mean([power(th) for th in np.arange(8) * math.pi / 8])
    assert depth == pytest.approx((-high.fun - low.fun) / mean, rel=1e-9)


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

    def test_default_walks_end_their_slices(self):
        # on the defaults every lock-in slice, the record's last one too,
        # stops 24 decimated samples (the 381 taps' half length, 190 of
        # 250 kHz, at 31.25 kHz) before its segment ends, so none reads the
        # filter's zero padding; the heterodyne slices run to their
        # segments' ends
        config = RunConfig.defaults()
        grid, rates = config.grid(seed=0), config.derived_rates()
        schedule = schedule_drive(grid, config.values["schedule_period"], rates.gamma_minus)
        decimate = config.values["decimate"]
        bb = lockin_baseband(grid, config.detection(), config.passband_edge_hz(rates), decimate,
                             schedule, Streams(0, grid.dt, grid.n_samples))
        assert len(bb.taps) == 381 and bb.n_decimated == 3_125_000
        segment_ends = [i1 for _, i1, _ in schedule.sample_bounds(grid.sample_rate / decimate,
                                                                  bb.n_decimated)]
        lockin = list(bb.usable_slices())
        assert [s.stop for _, s in lockin] == [i1 - 24 for i1 in segment_ends]
        assert lockin[-1] == (RESONANT, slice(2_973_724, 3_124_976))
        heterodyne = list(schedule.usable_slices(grid.sample_rate, grid.n_samples))
        assert [s.stop for _, s in heterodyne] == [
            i1 for _, i1, _ in schedule.sample_bounds(grid.sample_rate, grid.n_samples)
        ]
        assert heterodyne[-1][1].stop == grid.n_samples == 25_000_000

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
        # schedule and its slice walk, cut into parts over the whole
        # record, allocate under 1 MiB together (42.5 MiB when they were
        # lists of segments and slices); each class's first and last
        # slices are the listed ones
        import tracemalloc
        from collections import deque
        from itertools import islice

        from parosc.config import RunConfig
        from parosc.detect import MAX_SEGMENTS

        config = RunConfig.defaults().with_overrides(duration="499000s")
        grid, rates = config.grid(seed=0), config.derived_rates()
        period = config.values["schedule_period"]
        assert MAX_SEGMENTS - 500 < grid.duration / period <= MAX_SEGMENTS
        # the record as three pieces that hold no samples
        n = grid.n_samples
        pieces = [np.broadcast_to(0.0, (k,)) for k in (n // 3, n // 3, n - 2 * (n // 3))]
        tracemalloc.start()
        try:
            schedule = schedule_drive(grid, period, rates.gamma_minus)
            walk = schedule.usable_slices(grid.sample_rate, n)
            n_last = sum(last for _, _, last in slice_parts(walk, pieces))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert n_last == schedule.n_segments
        for tag in (DETUNED, RESONANT):
            listed = self._listed_slices(grid, period, schedule.guard, tag)
            walk = (s for seg_tag, s in schedule.usable_slices(grid.sample_rate, grid.n_samples)
                    if seg_tag == tag)
            first = list(islice(walk, 3))
            last = deque(walk, maxlen=3)
            assert first == listed[:3], tag
            assert list(last) == listed[-3:], tag


class TestCarrierPhasors:
    @staticmethod
    def _walk(n, dt, *waves, start=0):
        """The phasor walk of the samples [start, n) of an n-sample record,
        one wave per (omega, phase), from the record's tables."""
        streams = Streams(0, dt, n)
        tables = [(_phasor_table(streams, omega, dt), omega, phase) for omega, phase in waves]
        return _record_phasors(start, n - start, dt, *tables)

    def test_matches_direct_exp_over_full_default_record(self):
        # 100 s at 250 kHz: 25 M samples, the last block only partly filled
        fs, omega, phase = 250e3, TWO_PI * 50e3 + DELTA_LO, 0.7
        n = int(100.0 * fs)
        assert n % _MIX_BLOCK != 0
        dt = 1.0 / fs
        worst = 0.0
        covered = 0
        for i0, i1, ph in self._walk(n, dt, (omega, phase)):
            assert i0 == covered
            covered = i1
            direct = np.exp(1j * (omega * (np.arange(i0, i1) * dt) + phase))
            worst = max(worst, float(np.max(np.abs(ph - direct))))
        assert covered == n
        assert worst < 1e-8

    def test_two_waves_in_one_walk_match_direct_exp(self):
        # the Wigner composition's carrier (at a frame phase) and LO waves,
        # walked together over the default record from a piece start inside
        # a block to the record's end
        fs = 250e3
        waves = ((TWO_PI * 50e3, 1.3), (DELTA_LO, 0.0))
        n, start = int(100.0 * fs), 15 * _MIX_BLOCK + 12_345
        dt = 1.0 / fs
        worst = [0.0, 0.0]
        covered = start
        for i0, i1, *phasors in self._walk(n, dt, *waves, start=start):
            assert i0 == covered and (i1 % _MIX_BLOCK == 0 or i1 == n)
            covered = i1
            t = np.arange(i0, i1) * dt
            for k, ((omega, phase), ph) in enumerate(zip(waves, phasors)):
                worst[k] = max(worst[k], float(np.max(np.abs(ph - np.exp(1j * (omega * t + phase))))))
        assert covered == n
        assert max(worst) < 1e-8, worst

    def test_short_record_single_partial_block(self):
        blocks = list(self._walk(10, 0.1, (3.0, -0.2)))
        assert len(blocks) == 1
        i0, i1, ph = blocks[0]
        assert (i0, i1) == (0, 10)
        np.testing.assert_allclose(ph, np.exp(1j * (3.0 * 0.1 * np.arange(10) - 0.2)), atol=1e-15)


class TestPhasorWalkLetsGo:
    """A block's phasors are dead once their consumer drops them, before
    the next block's are made: neither the walk nor a stage that mixes
    with it holds them (256 KiB a wave on the default blocks)."""

    def test_walk_holds_no_dropped_block(self):
        dt = 1e-3
        n = 3 * _MIX_BLOCK + 5
        walk = TestCarrierPhasors._walk(n, dt, (2.0, 0.3), (5.0, 0.0))
        blocks = 0
        for block in walk:
            refs = [weakref.ref(ph) for ph in block[2:]]
            del block
            assert [ref() for ref in refs] == [None, None], blocks
            blocks += 1
        assert blocks == 4

    def test_stages_drop_each_block_before_the_next(self, monkeypatch):
        from parosc import detect

        walk = detect._record_phasors
        alive = []

        def watched(*args):
            for block in walk(*args):
                refs = [weakref.ref(ph) for ph in block[2:]]
                yield block
                del block
                alive.append(sum(ref() is not None for ref in refs))

        monkeypatch.setattr(detect, "_record_phasors", watched)
        grid = grid_for(12.0, 5)
        blocks = -(-grid.n_samples // _MIX_BLOCK)
        assert blocks > 2
        quad = constant_quadratures(grid, 1.0, 0.5)
        samples = compose_heterodyne_wigner(*quad, DET, grid, DELTA_LO, 0.4, 2, record_streams(grid))
        compose_heterodyne_components(*(q + 0j for q in quad), DET, grid, DELTA_LO, 2,
                                      record_streams(grid))
        demod(samples, grid, DET, EDGE, workers=2)
        assert alive == [0] * 3 * blocks, alive


class TestCompositionPeak:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", ["wigner", "components"])
    def test_default_block_peak(self, backend, workers):
        # one 131,072-sample block of the default record, composed with
        # shot noise and fresh record Streams: the output and the noise
        # (1 MiB each), the record's two tables and one block's two phasors
        # (256 KiB each) peak under 3.5 MiB (6 MiB with 2^16-sample mixing
        # blocks)
        import tracemalloc

        config = RunConfig.defaults()
        grid = config.grid(seed=0)
        det, delta_lo = config.detection(), config.values["delta_lo"]
        assert det.shot_psd > 0
        n = 1 << 17
        blk = grid.segment(3 * n, 4 * n)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        beta_s, beta_as = x + 1j * y, y + 1j * x
        streams = Streams(0, grid.dt, grid.n_samples)
        tracemalloc.start()
        try:
            if backend == "wigner":
                compose_heterodyne_wigner(x, y, det, blk, delta_lo, 0.4, workers, streams)
            else:
                compose_heterodyne_components(beta_s, beta_as, det, blk, delta_lo, workers,
                                              streams)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2**20, peak / 2**20


class TestComposeWigner:
    @pytest.mark.realization
    def test_zero_gain_gives_pure_shot_floor(self):
        grid = grid_for(60.0, 2)
        quad = simulate_scheduled_quadratures(OSC, rates_for(0.5), grid, *as_record(grid))
        det = DetectionParams(gain=0.0, shot_psd=0.002, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, 0.0, 1, record_streams(grid))
        psd = welch_psd_chunks([samples], grid.sample_rate, 12_500)
        interior = psd.density[10:-10]
        assert np.mean(interior) == pytest.approx(0.002, rel=0.02)

    def test_constant_quadrature_gives_two_equal_lines(self):
        grid = grid_for(20.0, 3)
        quad = constant_quadratures(grid, 1.0, 0.0)
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, 0.0, 1, record_streams(grid))
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
            compose_heterodyne_wigner(*quad, DET, grid, TWO_PI * 1.1e3, 0.0, 1, record_streams(grid))

    @pytest.mark.realization
    def test_energy_bookkeeping(self):
        grid = grid_for(120.0, 5)
        x, y = simulate_scheduled_quadratures(OSC, rates_for(0.5), grid, *as_record(grid))
        det = DetectionParams(gain=1.3, shot_psd=0.0, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(x, y, det, grid, DELTA_LO, 0.0, 1, record_streams(grid))
        expected = det.gain**2 * (np.var(x) + np.var(y))
        assert np.var(samples) == pytest.approx(expected, rel=0.01)

    @pytest.mark.realization
    def test_wigner_record_is_sideband_symmetric(self):
        # full synthesis, n_bar = 5.8, s = 0: both sideband areas equal within
        # the fit's statistical error; asymmetry needs the component backend
        grid = grid_for(120.0, 6)
        quad = simulate_scheduled_quadratures(OSC, rates_for(0.0), grid, *as_record(grid))
        samples = compose_heterodyne_wigner(*quad, DET, grid, DELTA_LO, 0.0, 1, record_streams(grid))
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
        beta_s, _ = simulate_scheduled_envelopes(OSC, rates, grid, *as_record(grid))
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_components(
            beta_s, np.zeros_like(beta_s), det, grid, DELTA_LO, 1, record_streams(grid)
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
        beta_s, beta_as = simulate_scheduled_envelopes(OSC, rates, grid, *as_record(grid))
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_components(beta_s, beta_as, det, grid, DELTA_LO, 1,
                                                record_streams(grid))
        expected = 0.5 * (np.mean(np.abs(beta_s) ** 2) + np.mean(np.abs(beta_as) ** 2))
        assert np.var(samples) == pytest.approx(expected, rel=0.01)

    def test_gain_invariance_of_fitted_ratios(self):
        grid = grid_for(60.0, 9)
        rates = rates_for(0.5)
        beta_s, beta_as = simulate_scheduled_envelopes(OSC, rates, grid, *as_record(grid))
        f_c = CARRIER / TWO_PI
        f_lo = DELTA_LO / TWO_PI
        results = []
        for gain in (1.0, 2.0):
            # shot amplitude scales with gain so the records are exact
            # multiples of each other
            det = DetectionParams(gain=gain, shot_psd=0.002 * gain**2, lowpass_cutoff=2.5e3)
            samples = compose_heterodyne_components(beta_s, beta_as, det, grid, DELTA_LO, 1,
                                                    record_streams(grid))
            psd = welch_psd_chunks([samples], grid.sample_rate, 25_000)
            fit = fit_single_pair(psd, (f_c + f_lo, f_c - f_lo), 300.0)
            results.append(fit.derived["ratio"][0])
        assert results[1] == pytest.approx(results[0], rel=1e-9)


class TestLockinFilter:
    def test_design_meets_spec(self):
        taps = design_lockin_fir(FS, 2.5e3, CARRIER, 1.2e3, 4)
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
        # the taps of scipy's firwin at kaiserord's size, to 4 ulp of the
        # largest tap (numpy's Kaiser window rounds its exponential apart
        # from scipy's): on the defaults, on the fast grid, undecimated on
        # the fast grid, and past 8192 taps, where the response is read
        # from a longer FFT than freqz's grid
        from scipy.signal import firwin, freqz, kaiserord

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
            assert len(taps) == len(expected)
            np.testing.assert_allclose(taps, expected, rtol=0, atol=4 * np.spacing(np.max(expected)))
        assert len(taps) == 9033
        # the strided FFT bins the design is checked on are freqz's grid
        _, resp = freqz(taps, worN=4096)
        np.testing.assert_allclose(_freqz_response(taps), resp, rtol=0, atol=1e-12 * np.max(np.abs(resp)))

    def test_refused_design_names_its_figures(self):
        # a wide transition band: Kaiser's formula undersizes the filter,
        # and the response on freqz's grid misses the stopband attenuation
        with pytest.raises(FilterDesignError) as info:
            design_lockin_fir(250e3, 20e3, TWO_PI * 70e3, 10e3, 1)
        assert str(info.value) == (
            "designed filter misses spec: ripple 0.00973 dB (limit 0.1), "
            "stopband 57.4 dB (limit 60.0)"
        )

    def test_stopband_above_nyquist_names_both(self):
        # undecimated, the mixing image's edge 2*fc - cutoff can lie above
        # Nyquist, where no response point tests the stopband
        with pytest.raises(FilterDesignError) as info:
            design_lockin_fir(250e3, 30e3, TWO_PI * 80e3, 10e3, 1)
        assert str(info.value) == (
            "stopband edge 130000 Hz leaves no response point below the Nyquist frequency 125000 Hz"
        )

    def test_unsatisfiable_constraints_raise(self):
        with pytest.raises(FilterDesignError):
            design_lockin_fir(FS, 5.5e3, CARRIER, 5.4e3, 1)  # cutoff above image edge
        with pytest.raises(FilterDesignError):
            design_lockin_fir(FS, 1.0e3, CARRIER, 1.5e3, 1)  # edge above cutoff
        with pytest.raises(FilterDesignError, match="taps, more than"):
            # a 1 Hz transition band at 25 kHz needs about 99,000 taps
            design_lockin_fir(FS, 3124.0, CARRIER, 1.2e3, 4)


class TestDemodBaseband:
    @pytest.mark.parametrize("n", [1_000, 50_021])
    def test_matches_direct_same_mode_convolution(self, n):
        # overlap-save over several blocks, and a record shorter than one
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(n)
        grid = grid_for(n / FS, 0)
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        mixed = 2.0 * samples * np.exp(1j * CARRIER * np.arange(n) / FS)
        for decimate in (1, 4):
            bb, z = demod(samples, grid, det, 1.2e3, decimate=decimate)
            direct = np.convolve(mixed, bb.taps, mode="same")[::decimate]
            assert z.shape == direct.shape
            # the carrier phasors carry the rounding of omega*t (~1e-11 here)
            np.testing.assert_allclose(z, direct, rtol=0, atol=1e-9 * np.max(np.abs(direct)))

    def test_worker_count_does_not_change_result(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal(400_000)
        grid = grid_for(16.0, 0)
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        # more workers than cores: the batches write disjoint slices of one array
        _, one = demod(samples, grid, det, 1.2e3, decimate=4, workers=1)
        _, many = demod(samples, grid, det, 1.2e3, decimate=4, workers=5)
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
        # the handed-on pieces of the baseband, theta* with its depth and
        # the channel spectra at a given theta are the whole record's, bit
        # for bit
        rates, schedule = self._setup()
        det = DetectionParams(gain=1.0, shot_psd=0.002, lowpass_cutoff=2.5e3)
        whole_quad = simulate_scheduled_quadratures(OSC, rates, self.GRID, schedule, 1,
                                                    record_streams(self.GRID))
        whole_samples = compose_heterodyne_wigner(
            *whole_quad, det, self.GRID, DELTA_LO, 0.4, 1, record_streams(self.GRID)
        )
        whole, whole_z = demod(whole_samples, self.GRID, det, 1.2e3, decimate=4, schedule=schedule)
        whole_spectra = self._spectra()
        theta = optimize_demod_phase(sum_slices(whole, [whole_z], whole_spectra))
        whole_psds = lockin_demodulate(whole_spectra, theta[0])
        for cut in self.CUTS:
            pieces = self._pieces(schedule, cut)
            streams = Streams(self.GRID.seed, self.GRID.dt, self.GRID.n_samples)
            streamed = lockin_baseband(self.GRID, det, 1.2e3, 4, schedule, streams)
            samples, zs = [], []
            for piece in pieces:
                quad = simulate_scheduled_quadratures(OSC, rates, piece, schedule, 1, streams)
                samples.append(compose_heterodyne_wigner(*quad, det, piece, DELTA_LO, 0.4, 2, streams))
                zs.append(demod_baseband(streamed, samples[-1], piece, 2))
            for piece in pieces[1:]:
                assert piece.start % _MIX_BLOCK and piece.start % streamed._step, cut
            np.testing.assert_array_equal(np.concatenate(samples), whole_samples, str(cut))
            np.testing.assert_array_equal(np.concatenate(zs), whole_z, str(cut))
            spectra = self._spectra()
            got = optimize_demod_phase(sum_slices(streamed, zs, spectra, workers=2))
            assert got == theta, cut
            for key, psd in lockin_demodulate(spectra, theta[0]).items():
                np.testing.assert_array_equal(psd.density, whole_psds[key].density, str(key))

    def test_component_record_one_segment_at_a_time(self):
        # each piece's envelopes, then its piece of the record: the pieces
        # are the whole-record composition, bit for bit
        rates, schedule = self._setup()
        det = DetectionParams(gain=1.3, shot_psd=0.002, lowpass_cutoff=2.5e3)
        beta_s, beta_as = simulate_scheduled_envelopes(OSC, rates, self.GRID, schedule, 1,
                                                       record_streams(self.GRID))
        whole = compose_heterodyne_components(beta_s, beta_as, det, self.GRID, DELTA_LO, 1,
                                              record_streams(self.GRID))
        for cut in self.CUTS:
            pieces = self._pieces(schedule, cut)
            streams = Streams(self.GRID.seed, self.GRID.dt, self.GRID.n_samples)
            samples = []
            for piece in pieces:
                env = simulate_scheduled_envelopes(OSC, rates, piece, schedule, 1, streams)
                samples.append(compose_heterodyne_components(*env, det, piece, DELTA_LO, 2, streams))
                assert len(samples[-1]) == piece.n_samples
            np.testing.assert_array_equal(np.concatenate(samples), whole, str(cut))

    def test_shot_noise_past_the_old_stretch(self):
        # a record longer than 2**20 samples, composed in one call and in
        # pipeline-block pieces, draws one shot-noise stream; a zero
        # trajectory leaves only the noise
        from parosc.pipeline import _BLOCK

        grid = grid_for(44.0, 47)
        assert grid.n_samples > 1 << 20
        whole = compose_heterodyne_wigner(*constant_quadratures(grid, 0.0, 0.0), DET, grid, DELTA_LO,
                                          0.0, 1, record_streams(grid))
        streams = Streams(grid.seed, grid.dt, grid.n_samples)
        blocks = [grid.segment(b0, min(b0 + _BLOCK, grid.n_samples))
                  for b0 in range(0, grid.n_samples, _BLOCK)]
        pieces = [
            compose_heterodyne_wigner(*constant_quadratures(blk, 0.0, 0.0), DET, blk, DELTA_LO, 0.0, 2,
                                      streams)
            for blk in blocks
        ]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)

    def test_pieces_must_follow_in_order(self):
        rates, schedule = self._setup()
        piece = self._pieces(schedule)[1]
        streams = record_streams(self.GRID)
        quad = simulate_scheduled_quadratures(OSC, rates, piece, schedule, 1, streams)
        samples = compose_heterodyne_wigner(*quad, DET, piece, DELTA_LO, 0.0, 1, streams)
        with pytest.raises(ValueError, match="does not continue"):
            demod(samples, piece, DET, 1.2e3, schedule=schedule)


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
        bb, z = demod(samples, grid, det, EDGE)
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
        quad = simulate_scheduled_quadratures(OSC, rates_for(0.5), grid, *as_record(grid))
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, 0.0, 1, record_streams(grid))
        bb, z = demod(samples, grid, det, EDGE)
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
        quad = simulate_scheduled_quadratures(OSC, rates_for(0.5), grid, *as_record(grid))
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, 0.0, 1, record_streams(grid))
        bb, z = demod(samples, grid, det, EDGE)
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
        quad = simulate_scheduled_quadratures(OSC, rates, grid, *as_record(grid))
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        rec_a = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, 0.0, 1, record_streams(grid))
        rec_b = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, 1.1, 1, record_streams(grid))
        rot = np.exp(0.3j)
        z_a, z_b, z_sum = (demod(rec, grid, det, EDGE)[1] * rot
                           for rec in (rec_a, rec_b, rec_a + rec_b))
        np.testing.assert_allclose(z_sum.real, z_a.real + z_b.real, atol=1e-10)
        np.testing.assert_allclose(z_sum.imag, z_a.imag + z_b.imag, atol=1e-10)

    def test_phase_covariance(self):
        # rotating the record frame and the demod phase together leaves the
        # channels unchanged
        grid = grid_for(10.0, 12)
        quad = simulate_scheduled_quadratures(OSC, rates_for(0.5), grid, *as_record(grid))
        delta = 0.83
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        rec0 = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, 0.0, 1, record_streams(grid))
        rec1 = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, delta, 1, record_streams(grid))
        bb0, z0 = demod(rec0, grid, det, EDGE)
        bb1, z1 = demod(rec1, grid, det, EDGE)
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
        quad = simulate_scheduled_quadratures(OSC, rates, grid, *as_record(grid))
        det = DetectionParams(gain=1.0, shot_psd=0.0, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, 0.0, 1, record_streams(grid))
        swapped = samples.copy()
        rng = np.random.default_rng(0)
        for i0, i1, tag in schedule.sample_bounds(FS, grid.n_samples):
            if tag == DETUNED:
                swapped[i0:i1] = rng.permutation(swapped[i0:i1])
        bb, z = demod(samples, grid, det, EDGE, schedule=schedule)
        _, z_swapped = demod(swapped, grid, det, EDGE, schedule=schedule)
        # the channel at theta = 0 is Re z
        for sl in of_class(RESONANT, bb.usable_slices()):
            np.testing.assert_allclose(z_swapped.real[sl], z.real[sl], atol=1e-12)


class TestOptimizeDemodPhase:
    def _baseband(self, frame_phase, seed=14, s=0.5, duration=40.0, shot=0.0, decimate=1):
        """The baseband of a record fed whole, and its decimated samples."""
        grid = grid_for(duration, seed)
        rates = rates_for(s)
        schedule = schedule_drive(grid, 5.0, rates.gamma_minus)
        quad = simulate_scheduled_quadratures(OSC, rates, grid, *as_record(grid))
        det = DetectionParams(gain=1.0, shot_psd=shot, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, frame_phase, 1,
                                            record_streams(grid))
        return demod(samples, grid, det, EDGE, decimate=decimate, schedule=schedule)

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
        samples = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, phi0, 1, record_streams(grid))
        bb, z = demod(samples, grid, det, EDGE, schedule=schedule)
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
        # improper white complex samples with a nonzero mean, in a Welch
        # with and without the constant detrend (without it the mean stays
        # in bin 0): theta* minimizes the x channel's Welch power and the
        # depth is that power's modulation
        rng = np.random.default_rng(17)
        flat_seen = sharp_seen = 0
        for k in range(200):
            n = 4000
            squeeze = rng.uniform(0.0, 0.3)
            x = rng.normal(0.0, math.sqrt(1.0 - squeeze), n)
            y = rng.normal(0.0, math.sqrt(1.0 + squeeze), n)
            mean = complex(*rng.normal(0.0, 2.0, 2))
            z = (x + 1j * y) * np.exp(1j * rng.uniform(0.0, TWO_PI)) + mean
            welch = Welch(1.0, 256, 0.5, "hann", "constant" if k % 2 else False)
            welch.feed(z, 1)
            theta, depth = optimize_demod_phase(welch)
            assert 0.0 <= theta < math.pi
            assert_x_power_extremes(welch, theta, depth)
            flat_seen += depth < FLAT_PHASE_DEPTH
            sharp_seen += depth >= FLAT_PHASE_DEPTH
        assert flat_seen > 10 and sharp_seen > 10

    def test_minimizes_the_decimated_resonant_channel_variance(self):
        # theta* minimizes the x channel's Welch power over the resonant
        # usable slices of decimated z, the spectrum the quadrature fits
        # read, and the depth is that power's modulation over phase
        bb, z = self._baseband(0.6, seed=18, duration=30.0, shot=0.002, decimate=4)
        welch = sum_slices(bb, [z])
        assert_x_power_extremes(welch, *optimize_demod_phase(welch))

    def test_needs_a_resonant_chunk_of_two_segments(self):
        welch = Welch(1.0, 64, 0.5, "hann", "constant")
        welch.feed(np.ones(90, complex), 1)  # one segment
        with pytest.raises(ScheduleError, match="two Welch segments"):
            optimize_demod_phase(welch)


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
        quad = simulate_scheduled_quadratures(OSC, rates, grid, *as_record(grid))
        phi0 = 0.77
        det = DetectionParams(gain=1.0, shot_psd=0.002, lowpass_cutoff=2.5e3)
        samples = compose_heterodyne_wigner(*quad, det, grid, DELTA_LO, phi0, 1, record_streams(grid))
        # one Welch over the resonant slices, as the pipeline pools them: no
        # segment straddles a drive switch
        spectra = {RESONANT: Welch(grid.sample_rate / 4, 6250, 0.5, "hann", "constant")}
        bb, z = demod(samples, grid, det, EDGE, decimate=4, schedule=schedule)
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
            DetectionParams(gain=1.0, shot_psd=-1e-3, lowpass_cutoff=0.0)
