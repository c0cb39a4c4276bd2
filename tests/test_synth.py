"""Stochastic synthesis: exactness of the OU discretization, stationary
statistics, stream independence and the component-backend spectral contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal
from scipy.stats import ks_2samp

from conftest import as_record, record_streams, single_segment_schedule
from parosc.errors import ParametricInstabilityError, QuantumSqueezingRegimeError
from parosc.fitting import fit_quadrature
from parosc.model import DerivedRates, OscillatorParams, analytic_sideband_psd
from parosc.spectral import bin_step_for, slice_parts, welch_psd_chunks
from parosc.synth import (
    DETUNED,
    RESONANT,
    STREAM_ENV_ANTISTOKES_BROAD,
    STREAM_ENV_ANTISTOKES_NARROW,
    STREAM_ENV_STOKES_BROAD,
    STREAM_ENV_STOKES_NARROW,
    STREAM_WIGNER_X,
    STREAM_WIGNER_Y,
    _ALPHA_MIN,
    _CHUNK,
    _DRAW_BLOCK,
    OUChain,
    Schedule,
    SimGrid,
    Streams,
    ou_step,
    simulate_scheduled_envelopes,
    simulate_scheduled_quadratures,
    stream_rng,
    _envelope_component_table,
    _ou_powers,
)

from conftest import joined_slices
from oracles import ar1_variance_estimator_sigma

TWO_PI = 2.0 * math.pi

OSC = OscillatorParams(omega_m=TWO_PI * 530e3, gamma_m=1e-3, n_bar=5.8)


def rates_for(s, n_bar=5.8, gamma_eff=TWO_PI * 20.0):
    return DerivedRates.from_target(gamma_eff, s, n_bar)


def chunk_of(alpha):
    """The chunk length of an OU chain at alpha."""
    return len(_ou_powers(alpha)[0]) - 1 if alpha > _ALPHA_MIN else _CHUNK


def chain_of(pieces, dt, rng):
    """One OUChain drawn piece by piece; pieces: (n, decay, var)."""
    chain = OUChain(rng, dt)
    return np.concatenate([chain.draw(n, decay, var) for n, decay, var in pieces])


class TestOuStep:
    def test_short_step_keeps_state(self):
        assert ou_step(1.7, 10.0, 1.0, 1e-12, 0.0) == pytest.approx(1.7, rel=1e-10)

    def test_long_step_forgets_state(self):
        out = ou_step(1e6, 50.0, 2.0, 1e3, 1.0)
        assert out == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_chain_matches_scalar_recursion(self):
        # drawn whole, and in pieces starting with a one-sample piece: the
        # stationary start is the first sample of the first non-empty piece
        decay, var, dt, n = TWO_PI * 8.0, 1.3, 1e-3, 500
        rng = stream_rng(5, 0)
        x = math.sqrt(var) * rng.standard_normal()
        draws = rng.standard_normal(n - 1)
        manual = [x]
        for w in draws:
            x = ou_step(x, decay, var, dt, w)
            manual.append(x)
        for sizes in ((n,), (1, 0, 199, 300)):
            chain = chain_of([(k, decay, var) for k in sizes], dt, stream_rng(5, 0))
            np.testing.assert_allclose(chain, manual, rtol=1e-12)

    def test_blocks_equal_one_filter_over_the_same_normals(self):
        # a chain drawn whole and in uneven pieces, some of them empty, has
        # the same bytes; so does adding it into an array, and into the
        # real part of a complex one.  It agrees with one lfilter call over
        # the same normals to 1e-12 of its sigma.  Lengths around the chunk
        # length; alpha near 1 (the default gamma_minus/2 at 250 kHz),
        # alpha = 0.5 (a chunk cut short by the e**600 bound) and alpha
        # underflowed to 0.
        var = 1.3
        decays = ((TWO_PI * 8.0, 1e-4), (TWO_PI * 5.0, 4e-6), (math.log(2.0), 1.0), (1e6, 1.0))
        for decay, dt in decays:
            alpha = math.exp(-decay * dt)
            chunk = chunk_of(alpha)
            for n in (2, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 3 * chunk + 17):
                rng = stream_rng(7, 0)
                first = math.sqrt(var) * rng.standard_normal()
                w = rng.standard_normal(n - 1)
                w *= math.sqrt(var * (1.0 - alpha * alpha))
                rest, _ = signal.lfilter([1.0], [1.0, -alpha], w, zi=np.array([alpha * first]))
                filtered = np.concatenate(([first], rest))
                expected = chain_of([(n, decay, var)], dt, stream_rng(7, 0))
                assert np.max(np.abs(expected - filtered)) <= 1e-12 * math.sqrt(var), (decay, n)
                splits = ((1, n // 2 - 1, 0, n - n // 2), (n - 1, 1), (1, chunk - 1, n - chunk))
                for sizes in splits:
                    if min(sizes) < 0:
                        continue
                    chain = chain_of([(k, decay, var) for k in sizes], dt, stream_rng(7, 0))
                    assert np.array_equal(chain, expected), (decay, n, sizes)
                ones = np.ones(n)
                OUChain(stream_rng(7, 0), dt).draw(n, decay, var, out=ones, add=True)
                assert np.array_equal(ones, 1.0 + expected), (decay, n)
                z = np.full(n, 1.0 + 2.0j)
                chain = OUChain(stream_rng(7, 0), dt)
                chain.draw(1, decay, var, out=z.real[:1], add=True)
                chain.draw(n - 1, decay, var, out=z.real[1:], add=True)
                assert np.array_equal(z.real, 1.0 + expected), (decay, n)
                assert np.array_equal(z.imag, np.full(n, 2.0))

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        params=st.lists(
            st.tuples(
                st.sampled_from((1e-4, 5e-2, 0.7, 3.0, 650.0, 800.0)),  # decay * dt: alpha near 1 to 0
                st.sampled_from((0.3, 1.3)),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_any_split_gives_the_chain_drawn_whole(self, data, params):
        # pieces at random (decay, var), repeats among them, each as long
        # as up to three chunks; every piece then cut at random, at chunk
        # bounds and inside chunks, so that a parameter also switches
        # mid-chunk.  The cut chain has the bytes of the whole one, also
        # added into an array and into the real part of a complex one.
        dt = 1e-3
        pieces = []
        for decay_dt, var in params:
            chunk = chunk_of(math.exp(-decay_dt))
            n = data.draw(st.sampled_from((chunk, 2 * chunk, chunk + 1)) | st.integers(0, 3 * chunk))
            pieces.append((n, decay_dt / dt, var, chunk))
        expected = chain_of([(n, decay, var) for n, decay, var, _ in pieces], dt, stream_rng(11, 0))
        cut = []
        for n, decay, var, chunk in pieces:
            bounds = data.draw(st.lists(st.integers(0, n) | st.sampled_from(range(0, n + 1, chunk)), max_size=4))
            edges = [0, *sorted(bounds), n]
            cut += [(b - a, decay, var) for a, b in zip(edges, edges[1:])]
        assert np.array_equal(chain_of(cut, dt, stream_rng(11, 0)), expected)
        total = len(expected)
        ones, z = np.ones(total), np.full(total, 1.0 + 2.0j)
        for out in (ones, z.real):
            chain, pos = OUChain(stream_rng(11, 0), dt), 0
            for n, decay, var in cut:
                chain.draw(n, decay, var, out=out[pos : pos + n], add=True)
                pos += n
        assert np.array_equal(ones, 1.0 + expected)
        assert np.array_equal(z.real, 1.0 + expected) and np.array_equal(z.imag, np.full(total, 2.0))

    @pytest.mark.realization
    def test_million_step_variance_within_three_sigma(self):
        decay = TWO_PI * 25.0  # gamma_plus / 2 with gamma_plus = 2pi*50
        dt = 4e-6
        var = 1.0
        n = 10**6
        chain = OUChain(stream_rng(17, 0), dt).draw(n, decay, var)
        sigma = ar1_variance_estimator_sigma(n, decay, dt, var)
        assert abs(np.var(chain) - var) < 3.0 * sigma


class TestOuExactness:
    @pytest.mark.realization
    @pytest.mark.parametrize("dt", [2e-4, 2e-2])
    def test_lag_autocovariance_matches_closed_form(self, dt):
        decay, var = TWO_PI * 3.0, 1.0
        n = 250_000
        x = OUChain(stream_rng(23, int(dt * 1e6)), dt).draw(n, decay, var)
        x = x - np.mean(x)
        for lag_steps in (1, 3, 10):
            expected = var * math.exp(-decay * lag_steps * dt)
            measured = float(np.mean(x[:-lag_steps] * x[lag_steps:]))
            n_eff = n * (1.0 - math.exp(-2 * decay * dt)) / (1.0 + math.exp(-2 * decay * dt))
            tol = 5.0 * var / math.sqrt(max(n_eff, 4.0))
            assert abs(measured - expected) < tol, (dt, lag_steps)

    def test_piecewise_single_piece_equals_plain_chain(self):
        # one (decay, var) drawn in any split gives the chain drawn whole
        decay, var, dt, n = TWO_PI * 5.0, 0.7, 1e-3, 10_000
        a = OUChain(stream_rng(9, 1), dt).draw(n, decay, var)
        for sizes in ((n,), (1, 0, 999, n - 1000), (n - 1, 1)):
            b = chain_of([(k, decay, var) for k in sizes], dt, stream_rng(9, 1))
            np.testing.assert_array_equal(a, b)

    @pytest.mark.realization
    def test_piecewise_is_continuous_across_switches(self):
        dt = 1e-3
        rng = stream_rng(10, 2)
        x = chain_of([(5000, TWO_PI * 5.0, 1.0), (5000, TWO_PI * 1.0, 4.0)], dt, rng)
        # no discontinuity: the jump at the boundary obeys the new piece's
        # one-step transition, far smaller than a fresh stationary draw
        step = abs(x[5000] - x[4999])
        alpha = math.exp(-TWO_PI * 1.0 * dt)
        assert step < 8.0 * math.sqrt(4.0 * (1.0 - alpha**2))


class TestSeedDeterminism:
    def test_identical_seed_bit_identical(self):
        grid = SimGrid(sample_rate=2e3, duration=10.0, carrier=TWO_PI * 200.0, seed=77)
        a = simulate_scheduled_quadratures(OSC, rates_for(0.4), grid, *as_record(grid))
        b = simulate_scheduled_quadratures(OSC, rates_for(0.4), grid, *as_record(grid))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_streams_are_distinct(self):
        a = stream_rng(77, STREAM_WIGNER_X).standard_normal(16)
        b = stream_rng(77, STREAM_WIGNER_X + 1).standard_normal(16)
        assert not np.allclose(a, b)


class TestSimulateQuadratures:
    def test_refuses_instability(self):
        grid = SimGrid(sample_rate=2e3, duration=2.0, carrier=TWO_PI * 200.0, seed=1)
        rates = rates_for(0.5)
        object.__setattr__(rates, "s", 1.2)
        object.__setattr__(rates, "gamma_minus", -1.0)
        with pytest.raises(ParametricInstabilityError):
            simulate_scheduled_quadratures(OSC, rates, grid, *as_record(grid))

    @pytest.mark.realization
    def test_symmetric_at_zero_gain(self):
        grid = SimGrid(sample_rate=2e3, duration=120.0, carrier=TWO_PI * 200.0, seed=3)
        x, y = simulate_scheduled_quadratures(OSC, rates_for(0.0), grid, *as_record(grid))
        # subsample to effectively independent draws, then two-sample KS at 1%
        step = 300
        stat = ks_2samp(x[::step], y[::step])
        assert stat.pvalue > 0.01

    @pytest.mark.realization
    def test_variance_ratio_at_half_gain(self):
        grid = SimGrid(sample_rate=2e3, duration=400.0, carrier=TWO_PI * 200.0, seed=4)
        x, y = simulate_scheduled_quadratures(OSC, rates_for(0.5), grid, *as_record(grid))
        ratio = np.var(y) / np.var(x)
        # (1+s)/(1-s) = 3; the narrow Y chain dominates the estimator spread
        sigma = 3.0 * math.sqrt(2.0 / (400.0 * TWO_PI * 10.0 / 2.0)) * 2.0
        assert abs(ratio - 3.0) < 4.0 * sigma

    @pytest.mark.realization
    def test_cross_correlation_consistent_with_independence(self):
        grid = SimGrid(sample_rate=2e3, duration=200.0, carrier=TWO_PI * 200.0, seed=5)
        x, y = simulate_scheduled_quadratures(OSC, rates_for(0.5), grid, *as_record(grid))
        x = (x - x.mean()) / x.std()
        y = (y - y.mean()) / y.std()
        n = len(x)
        # correlation-time-aware threshold: an OU pair has ~n_eff independent
        # samples at the slower decay rate
        n_eff = n * (TWO_PI * 10.0 / 2.0) / grid.sample_rate * 2.0
        limit = 4.0 / math.sqrt(n_eff)
        for lag in (0, 7, 40):
            r = float(np.mean(x[: n - lag] * y[lag:]))
            assert abs(r) < limit, (lag, r, limit)


class TestDetunedReference:
    @pytest.mark.realization
    def test_variances_and_symmetry(self):
        # a detuned segment draws the reference chains: the s = 0 rates at an
        # unchanged gamma_eff, whatever the resonant gain
        grid = SimGrid(sample_rate=2e3, duration=300.0, carrier=TWO_PI * 200.0, seed=6)
        rates = rates_for(0.5)
        x, y = simulate_scheduled_quadratures(OSC, rates, grid, *as_record(grid, DETUNED))
        reference = DerivedRates.from_target(rates.gamma_eff, 0.0, rates.n_bar)
        ref_x, ref_y = simulate_scheduled_quadratures(OSC, reference, grid, *as_record(grid))
        np.testing.assert_array_equal(x, ref_x)
        np.testing.assert_array_equal(y, ref_y)
        thermal = (2 * 5.8 + 1) / 4.0
        n_eff = 300.0 * TWO_PI * 20.0 / 2.0
        tol = 4.0 * thermal * math.sqrt(2.0 / n_eff)
        assert abs(np.var(x) - thermal) < tol
        assert abs(np.var(y) - thermal) < tol
        assert reference.s == 0.0
        assert reference.gamma_eff == rates_for(0.5).gamma_eff


class TestSidebandEnvelopes:
    @pytest.mark.realization
    def test_zero_gain_power_ratio(self):
        grid = SimGrid(sample_rate=2e3, duration=400.0, carrier=TWO_PI * 200.0, seed=8)
        beta_s, beta_as = simulate_scheduled_envelopes(OSC, rates_for(0.0), grid, *as_record(grid))
        ratio = np.mean(np.abs(beta_s) ** 2) / np.mean(np.abs(beta_as) ** 2)
        assert ratio == pytest.approx(6.8 / 5.8, rel=0.03)

    @pytest.mark.realization
    def test_integrated_powers_at_half_gain(self):
        # closed-form totals: (2(n+1)-s^2)/(2(1-s^2)) and (2n+s^2)/(2(1-s^2))
        grid = SimGrid(sample_rate=2e3, duration=400.0, carrier=TWO_PI * 200.0, seed=9)
        beta_s, beta_as = simulate_scheduled_envelopes(OSC, rates_for(0.5), grid, *as_record(grid))
        assert np.mean(np.abs(beta_s) ** 2) == pytest.approx(8.9, rel=0.03)
        assert np.mean(np.abs(beta_as) ** 2) == pytest.approx(7.9, rel=0.03)

    def test_refuses_quantum_squeezing_regime(self):
        grid = SimGrid(sample_rate=2e3, duration=1.0, carrier=TWO_PI * 200.0, seed=10)
        rates = DerivedRates.from_target(TWO_PI * 20.0, 0.7, 0.3)
        with pytest.raises(QuantumSqueezingRegimeError, match="s > 2\\*n_bar"):
            simulate_scheduled_envelopes(OSC, rates, grid, *as_record(grid))

    @pytest.mark.realization
    def test_envelopes_mutually_independent(self):
        grid = SimGrid(sample_rate=2e3, duration=200.0, carrier=TWO_PI * 200.0, seed=11)
        beta_s, beta_as = simulate_scheduled_envelopes(OSC, rates_for(0.5), grid, *as_record(grid))
        r = np.corrcoef(np.abs(beta_s) ** 2, np.abs(beta_as) ** 2)[0, 1]
        assert abs(r) < 0.02

    @pytest.mark.realization
    def test_antistokes_psd_matches_closed_form(self):
        # binned Welch PSD of the anti-Stokes envelope versus the closed-form
        # spectrum: reduced chi-square within [0.7, 1.3] for a 100 s record.
        # Sampled at record rate so Lorentzian-tail aliasing is negligible;
        # detrending off because the line sits right at zero frequency.
        rates = rates_for(0.5)
        grid = SimGrid(sample_rate=25e3, duration=100.0, carrier=TWO_PI * 5e3, seed=12)
        _, beta_as = simulate_scheduled_envelopes(OSC, rates, grid, *as_record(grid))
        psd = welch_psd_chunks([beta_as], grid.sample_rate, 25_000, detrend=False)
        step = bin_step_for(psd.window)
        sel = np.abs(psd.freqs) <= 300.0
        freqs = psd.freqs[sel][::step]
        density = psd.density[sel][::step]
        expected = analytic_sideband_psd(
            rates.n_bar, rates.s, rates.gamma_eff, "antistokes", TWO_PI * freqs
        ).density
        z = (density - expected) / (expected / math.sqrt(psd.effective_averages))
        chi2_red = float(np.mean(z**2))
        assert 0.7 <= chi2_red <= 1.3, chi2_red


class TestScheduledSynthesis:
    @pytest.mark.realization
    def test_per_tag_statistics(self):
        from parosc.detect import schedule_drive

        rates = rates_for(0.5)
        grid = SimGrid(sample_rate=2e3, duration=200.0, carrier=TWO_PI * 200.0, seed=13)
        schedule = schedule_drive(grid, 5.0, rates.gamma_minus)
        traj_x, traj_y = simulate_scheduled_quadratures(OSC, rates, grid, schedule, 1,
                                                        record_streams(grid))
        var_x, var_y = rates.quadrature_variances()
        thermal = (2 * 5.8 + 1) / 4.0
        for tag, expected_x, expected_y in (
            ("resonant", var_x, var_y),
            ("detuned", thermal, thermal),
        ):
            slices = [s for seg_tag, s in schedule.usable_slices(grid.sample_rate, grid.n_samples)
                      if seg_tag == tag]
            x = np.concatenate([traj_x[s] for s in slices])
            y = np.concatenate([traj_y[s] for s in slices])
            assert np.var(x) == pytest.approx(expected_x, rel=0.10), tag
            assert np.var(y) == pytest.approx(expected_y, rel=0.15), tag


    def test_worker_count_does_not_change_chains(self):
        from parosc.detect import schedule_drive

        rates = rates_for(0.5)
        grid = SimGrid(sample_rate=2e3, duration=20.0, carrier=TWO_PI * 200.0, seed=17)
        schedule = schedule_drive(grid, 5.0, rates.gamma_minus)
        env = [simulate_scheduled_envelopes(OSC, rates, grid, schedule, w, record_streams(grid))
               for w in (1, 2)]
        quad = [simulate_scheduled_quadratures(OSC, rates, grid, schedule, w, record_streams(grid))
                for w in (1, 2)]
        assert np.array_equal(env[0][0], env[1][0])
        assert np.array_equal(env[0][1], env[1][1])
        assert np.array_equal(quad[0][0], quad[1][0])
        assert np.array_equal(quad[0][1], quad[1][1])

    def test_threads_computing_one_band_together_read_it_intact(self, monkeypatch):
        # both envelopes first draw at the narrow decay; when their threads
        # compute its power tables at once, the cache keeps one copy and
        # the other thread must still read its own.  The slow tables make
        # them meet every time.
        import functools
        import time

        from parosc import synth

        powers_of = synth._ou_powers.__wrapped__
        rates = rates_for(0.5)
        grid = SimGrid(sample_rate=250e3, duration=1.0, carrier=TWO_PI * 20e3, seed=17)
        schedule = single_segment_schedule(grid.duration)
        expected = simulate_scheduled_envelopes(OSC, rates, grid, schedule, 1, record_streams(grid))
        for _ in range(3):
            slow = functools.lru_cache(maxsize=8)(lambda alpha: time.sleep(0.05) or powers_of(alpha))
            monkeypatch.setattr(synth, "_ou_powers", slow)
            env = simulate_scheduled_envelopes(OSC, rates, grid, schedule, 2, record_streams(grid))
            assert np.array_equal(env[0], expected[0]) and np.array_equal(env[1], expected[1])

    def test_envelope_is_sum_of_its_component_streams(self):
        # each envelope adds the broad component to the narrow one; each
        # component draws its real part before its imaginary part
        from parosc.detect import schedule_drive
        from parosc.synth import (
            DETUNED,
            RESONANT,
            STREAM_ENV_STOKES_BROAD,
            STREAM_ENV_STOKES_NARROW,
            _envelope_component_table,
        )

        rates = rates_for(0.4)
        grid = SimGrid(sample_rate=2e3, duration=20.0, carrier=TWO_PI * 200.0, seed=19)
        schedule = schedule_drive(grid, 5.0, rates.gamma_minus)
        resonant = _envelope_component_table(rates)
        detuned = _envelope_component_table(DerivedRates.from_target(rates.gamma_eff, 0.0, rates.n_bar))
        bounds = list(schedule.sample_bounds(grid.sample_rate, grid.n_samples))
        parts = []
        for sid in (STREAM_ENV_STOKES_NARROW, STREAM_ENV_STOKES_BROAD):
            per_tag = {RESONANT: resonant[sid], DETUNED: detuned[sid]}
            halves = [(i1 - i0, per_tag[tag][0], 0.5 * per_tag[tag][1]) for i0, i1, tag in bounds]
            rng = stream_rng(grid.seed, sid)
            re = chain_of(halves, grid.dt, rng)
            im = chain_of(halves, grid.dt, rng)
            parts.append(re + 1j * im)
        beta_s, _ = simulate_scheduled_envelopes(OSC, rates, grid, schedule, 1, record_streams(grid))
        assert np.array_equal(beta_s, parts[0] + parts[1])


class TestSegmentStreaming:
    """A record synthesized one drive segment at a time draws every stream's
    normals in the order of the whole-record synthesis."""

    def test_normals_drawn_in_pieces_equal_one_draw(self):
        whole = stream_rng(31, 2).standard_normal(250_001)
        rng = stream_rng(31, 2)
        pieces = [rng.standard_normal(n) for n in (1, 99_999, 0, 125_000)]
        buffer = np.empty(25_001)
        rng.standard_normal(out=buffer)
        np.testing.assert_array_equal(np.concatenate(pieces + [buffer]), whole)

    @staticmethod
    def _segments(grid, schedule):
        bounds = schedule.sample_bounds(grid.sample_rate, grid.n_samples)
        return [grid.segment(i0, i1) for i0, i1, _ in bounds]

    def test_streamed_quadratures_equal_whole_record_chains(self):
        from parosc.detect import schedule_drive

        rates = rates_for(0.5)
        grid = SimGrid(sample_rate=2e3, duration=23.0, carrier=TWO_PI * 200.0, seed=29)
        schedule = schedule_drive(grid, 5.0, rates.gamma_minus)
        streams = Streams(grid.seed, grid.dt, grid.n_samples)
        parts = [
            simulate_scheduled_quadratures(OSC, rates, seg, schedule, 2, streams)
            for seg in self._segments(grid, schedule)
        ]
        var_x, var_y = rates.quadrature_variances()
        var_0 = (2 * 5.8 + 1) / 4.0
        bounds = list(schedule.sample_bounds(grid.sample_rate, grid.n_samples))
        for sid, decay, var, got in (
            (STREAM_WIGNER_X, 0.5 * rates.gamma_plus, var_x, [x for x, _ in parts]),
            (STREAM_WIGNER_Y, 0.5 * rates.gamma_minus, var_y, [y for _, y in parts]),
        ):
            per_tag = {RESONANT: (decay, var), DETUNED: (0.5 * rates.gamma_eff, var_0)}
            pieces = [(i1 - i0, *per_tag[tag]) for i0, i1, tag in bounds]
            whole = chain_of(pieces, grid.dt, stream_rng(grid.seed, sid))
            np.testing.assert_array_equal(np.concatenate(got), whole)

    def test_streamed_envelope_parts_equal_whole_record_envelopes(self):
        # both parts of each segment's envelopes in one call per segment
        from parosc.detect import schedule_drive

        rates = rates_for(0.4)
        grid = SimGrid(sample_rate=2e3, duration=23.0, carrier=TWO_PI * 200.0, seed=37)
        schedule = schedule_drive(grid, 5.0, rates.gamma_minus)
        beta_s, beta_as = simulate_scheduled_envelopes(OSC, rates, grid, schedule, 1,
                                                       record_streams(grid))
        streams = Streams(grid.seed, grid.dt, grid.n_samples)
        got = [
            simulate_scheduled_envelopes(OSC, rates, seg, schedule, 2, streams)
            for seg in self._segments(grid, schedule)
        ]
        np.testing.assert_array_equal(np.concatenate([g[0] for g in got]), beta_s)
        np.testing.assert_array_equal(np.concatenate([g[1] for g in got]), beta_as)

    def test_no_schedule_scan_per_synthesis_call(self, monkeypatch):
        # a call finds its segments from the period and never rounds the
        # bounds of every segment (Schedule.sample_bounds); it made one
        # such scan per call, shared by every chain of the call
        from parosc.detect import schedule_drive
        from parosc.synth import Schedule

        rates = rates_for(0.4)
        grid = SimGrid(sample_rate=2e3, duration=23.0, carrier=TWO_PI * 200.0, seed=43)
        schedule = schedule_drive(grid, 5.0, rates.gamma_minus)
        piece = grid.segment(9_000, 13_000)  # across the switch at 10 000
        scan = Schedule.sample_bounds
        calls = []

        def counted(self, *args):
            calls.append(args)
            return scan(self, *args)

        monkeypatch.setattr(Schedule, "sample_bounds", counted)
        simulate_scheduled_envelopes(OSC, rates, piece, schedule, 1, record_streams(grid))
        simulate_scheduled_quadratures(OSC, rates, piece, schedule, 1, record_streams(grid))
        assert calls == []

    @staticmethod
    def _scanned_pieces(period, duration, fs, lo, hi, tags):
        """The pieces of samples [lo, hi) as a scan of every segment
        computes them: each segment's (start, end, tag), the last running
        on to the duration, its first and last samples rounded, and the
        parts of the segments the range overlaps."""
        n = int(math.floor(duration / period + 1e-9))
        bounds = []
        for k in range(n):
            start, end = k * period, duration if k == n - 1 else (k + 1) * period
            i1 = hi if k == n - 1 else int(round(end * fs))
            bounds.append((int(round(start * fs)), i1, tags[k % len(tags)]))
        return [(min(i1, hi) - max(i0, lo), tag) for i0, i1, tag in bounds if i0 < hi and i1 > lo]

    def test_pieces_are_the_scanned_segment_parts(self):
        # the pieces are those of a scan of every segment's bounds, for
        # grids at, inside and across the segment switches, on the trailing
        # partial period and on a one-segment schedule
        from parosc.detect import schedule_drive
        from parosc.synth import Schedule, _schedule_pieces

        rates = rates_for(0.4)
        grid = SimGrid(sample_rate=2e3, duration=23.0, carrier=TWO_PI * 200.0, seed=43)
        schedule = schedule_drive(grid, 5.0, rates.gamma_minus)
        assert schedule == Schedule(5.0, 23.0, schedule.guard, (DETUNED, RESONANT))
        # the last segment, [15 s, 23 s), holds the 3 s partial period
        for lo, hi in ((0, 1), (0, 10_000), (9_999, 10_001), (10_000, 20_000), (3_000, 46_000),
                       (45_999, 46_000), (30_000, 46_000), (29_999, 30_001), (40_000, 46_000),
                       (39_999, 40_001), (31_000, 45_000)):
            want = self._scanned_pieces(5.0, 23.0, grid.sample_rate, lo, hi, schedule.tags)
            assert _schedule_pieces(schedule, grid.segment(lo, hi)) == want, (lo, hi)
        one = single_segment_schedule(23.0)
        for lo, hi in ((0, 46_000), (0, 1), (45_999, 46_000), (17_000, 31_000)):
            want = self._scanned_pieces(23.0, 23.0, grid.sample_rate, lo, hi, (RESONANT,))
            assert want == [(hi - lo, RESONANT)]
            assert _schedule_pieces(one, grid.segment(lo, hi)) == want, (lo, hi)

    def test_last_block_of_a_long_schedule_reads_few_segments(self, monkeypatch):
        # 20,000 drive segments: the synthesis call on the record's last
        # block computes the bounds of the segments it overlaps (14 for the
        # 65 s block) and of a few more, not of all of them
        from parosc.detect import schedule_drive
        from parosc.pipeline import _BLOCK
        from parosc.synth import Schedule

        rates = rates_for(0.4)
        grid = SimGrid(sample_rate=2e3, duration=100_000.0, carrier=TWO_PI * 200.0, seed=47)
        schedule = schedule_drive(grid, 5.0, rates.gamma_minus)
        assert schedule.n_segments == 20_000
        bounds = Schedule.bounds
        calls = []

        def counted(self, *args):
            calls.append(args[0])
            return bounds(self, *args)

        def full_scan(self, *args):
            raise AssertionError("full scan of the segments")

        monkeypatch.setattr(Schedule, "bounds", counted)
        monkeypatch.setattr(Schedule, "sample_bounds", full_scan)
        last = grid.segment(grid.n_samples - _BLOCK, grid.n_samples)
        x, y = simulate_scheduled_quadratures(OSC, rates, last, schedule, 1, record_streams(grid))
        assert len(x) == len(y) == _BLOCK
        assert 0 < len(calls) < 100, len(calls)
        assert min(calls) > 20_000 - 100 and max(calls) == 20_000 - 1

    def test_envelopes_draw_real_then_imag_parts_from_one_stream(self):
        # the reference draw order: each component stream's real part over
        # the whole record, then its imaginary part, from one generator
        from parosc.detect import schedule_drive

        rates = rates_for(0.4)
        grid = SimGrid(sample_rate=2e3, duration=23.0, carrier=TWO_PI * 200.0, seed=41)
        schedule = schedule_drive(grid, 5.0, rates.gamma_minus)
        bounds = list(schedule.sample_bounds(grid.sample_rate, grid.n_samples))
        tables = {
            RESONANT: _envelope_component_table(rates),
            DETUNED: _envelope_component_table(DerivedRates.from_target(rates.gamma_eff, 0.0, 5.8)),
        }

        def component(sid):
            pieces = [(i1 - i0, tables[tag][sid][0], 0.5 * tables[tag][sid][1])
                      for i0, i1, tag in bounds]
            rng = stream_rng(grid.seed, sid)
            real = chain_of(pieces, grid.dt, rng)
            return real + 1j * chain_of(pieces, grid.dt, rng)

        got = simulate_scheduled_envelopes(OSC, rates, grid, schedule, 1, record_streams(grid))
        for env, (narrow, broad) in zip(got, (
            (STREAM_ENV_STOKES_NARROW, STREAM_ENV_STOKES_BROAD),
            (STREAM_ENV_ANTISTOKES_NARROW, STREAM_ENV_ANTISTOKES_BROAD),
        )):
            a, b = component(narrow), component(broad)
            np.testing.assert_array_equal(env.real, a.real + b.real)
            np.testing.assert_array_equal(env.imag, a.imag + b.imag)


def _listed_usable_slices(schedule, rate, n, tail_guard, tag):
    """One class's usable slices as a walk per class once listed them:
    every segment's bounds rounded from k*period (the last one running on
    to sample n), its head trimmed by the guard and its tail, the last
    one's too, by the tail guard, keeping the non-empty ranges of segments
    carrying tag."""
    period, tags = schedule.period, schedule.tags
    n_seg = int(math.floor(schedule.duration / period + 1e-9))
    guard_n, tail_n = int(math.ceil(schedule.guard * rate)), int(math.ceil(tail_guard * rate))
    out = []
    for k in range(n_seg):
        i0 = int(round(k * period * rate))
        i1 = n if k == n_seg - 1 else int(round((k + 1) * period * rate))
        lo, hi = i0 + guard_n, i1 - tail_n
        if tags[k % len(tags)] == tag and lo < hi:
            out.append(slice(lo, hi))
    return out


def _merged_usable_slices(schedule, rate, n, tail_guard):
    """Every class's listed slices, merged by start into (tag, slice)."""
    merged = sorted(
        ((s, tag) for tag in set(schedule.tags)
         for s in _listed_usable_slices(schedule, rate, n, tail_guard, tag)),
        key=lambda item: item[0].start,
    )
    return [(tag, s) for s, tag in merged]


@st.composite
def walked_schedules(draw):
    """A schedule with a trailing partial period, guards, and the rate and
    length of a record it tiles, decimated as a lock-in baseband may be."""
    period = draw(st.floats(min_value=0.05, max_value=3.0))
    duration = period * (draw(st.integers(1, 12)) + draw(st.floats(min_value=0.0, max_value=0.95)))
    guard = draw(st.floats(min_value=0.0, max_value=0.6)) * period
    tail_guard = draw(st.floats(min_value=0.0, max_value=0.6)) * period
    tags = tuple(draw(st.lists(st.sampled_from((DETUNED, RESONANT, "other")), min_size=1, max_size=3)))
    sample_rate = draw(st.floats(min_value=1.0, max_value=400.0))
    decimate = draw(st.integers(1, 4))
    n = -(-int(round(duration * sample_rate)) // decimate)
    return Schedule(period, duration, guard, tags), sample_rate / decimate, n, tail_guard


class TestUsableSliceWalk:
    """One walk of the schedule, in record order, gives each class the
    slices a walk per class gave it; the parts slice_parts cuts any cut of
    the record into join to the record's own slices."""

    @settings(max_examples=200, deadline=None)
    @given(case=walked_schedules())
    def test_walk_is_the_per_class_lists_merged_by_start(self, case):
        schedule, rate, n, tail_guard = case
        want = _merged_usable_slices(schedule, rate, n, tail_guard)
        assert list(schedule.usable_slices(rate, n, tail_guard)) == want

    @settings(max_examples=200, deadline=None)
    @given(case=walked_schedules(), cut_fractions=st.lists(st.floats(0.0, 1.0), max_size=12),
           unit_cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
           dtype=st.sampled_from((float, complex)))
    def test_parts_of_any_cut_join_to_the_records(self, case, cut_fractions, unit_cuts, dtype):
        # random cuts, repeated ones giving empty pieces and a cut beside
        # each of unit_cuts a one-sample piece: per slice, the parts are
        # non-empty, come in record order, join to the record's own slice
        # and the last of them alone is marked last
        schedule, rate, n, tail_guard = case
        rng = np.random.default_rng(9)
        record = rng.standard_normal(n)
        if dtype is complex:
            record = record + 1j * rng.standard_normal(n)
        cuts = [int(f * n) for f in cut_fractions]
        cuts += [min(c + d, n) for c in (int(f * n) for f in unit_cuts) for d in (0, 1)]
        cuts = [0, *sorted(cuts), n]
        pieces = (record[a:b] for a, b in zip(cuts[:-1], cuts[1:]))
        got = joined_slices(slice_parts(schedule.usable_slices(rate, n, tail_guard), pieces))
        want = _merged_usable_slices(schedule, rate, n, tail_guard)
        assert got == [(tag, record[s].tobytes()) for tag, s in want]


class TestSpectralRoundTrip:
    @pytest.mark.realization
    def test_fitted_width_of_x_matches_gamma_plus(self):
        # welch + Lorentzian fit of the squeezed quadrature recovers the broad
        # width within 5% on a 100 s record
        rates = rates_for(0.5)
        grid = SimGrid(sample_rate=2e3, duration=100.0, carrier=TWO_PI * 200.0, seed=41)
        x, _ = simulate_scheduled_quadratures(OSC, rates, grid, *as_record(grid))
        psd = welch_psd_chunks([x], grid.sample_rate, 2000, detrend=False)
        # the lowest bins stay out of the fit, as in the Welch area test
        fit = fit_quadrature(psd.band(3.5 * psd.rbw, np.inf), 0.0, 300.0)
        gamma_plus_hz = rates.gamma_plus / TWO_PI
        assert fit.derived["gamma_hz"][0] == pytest.approx(gamma_plus_hz, rel=0.05)
