"""Profile fits and spectral models: Jacobians, noiseless recovery,
invariances and the fit-level contracts."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import lsq_linear, minimize_scalar

from parosc import fitting
from parosc.detect import DetectionParams, compose_heterodyne_components
from parosc.errors import SpectralError
from parosc.fitting import (
    MIN_BAND_BINS,
    DoublePairModel,
    QuadratureModel,
    SinglePairModel,
    _bounded_brent,
    _bounded_lstsq,
    _in_intervals,
    band_bins,
    quadrature_intervals,
    sideband_intervals,
    fit_double_pair,
    fit_quadrature,
    fit_single_pair,
    lorentzian,
)
from parosc.model import DerivedRates, OscillatorParams, sideband_weights
from parosc.spectral import Psd, welch_psd_chunks
from parosc.synth import SimGrid, simulate_scheduled_envelopes, stream_rng

TWO_PI = 2.0 * math.pi
OSC = OscillatorParams(omega_m=TWO_PI * 530e3, gamma_m=1e-3, n_bar=5.8)


def synthetic_psd(freqs, density, n_eff=100.0, window="hann"):
    rbw = float(freqs[1] - freqs[0])
    return Psd(
        freqs=freqs, density=density, rbw=rbw, n_averages=int(n_eff),
        effective_averages=n_eff, window=window, onesided=True,
    )


def make_component_psd(seed, duration=60.0, s=0.5, n_bar=5.8, shot=0.002, gain=1.0):
    rates = DerivedRates.from_target(TWO_PI * 20.0, s, n_bar)
    grid = SimGrid(sample_rate=25e3, duration=duration, carrier=TWO_PI * 5e3, seed=seed)
    beta_s, beta_as = simulate_scheduled_envelopes(OSC, rates, grid)
    det = DetectionParams(gain=gain, shot_psd=shot, lowpass_cutoff=2.5e3)
    samples = compose_heterodyne_components(beta_s, beta_as, det, grid, TWO_PI * 1.1e3)
    return welch_psd_chunks([samples], grid.sample_rate, 25_000), rates


CENTERS = (5e3 + 1.1e3, 5e3 - 1.1e3)


MODEL_CASES = pytest.mark.parametrize(
    "factory",
    [
        lambda: (SinglePairModel(6100.0, 3900.0),
                 [(0.001, 0.05), (5.0, 60.0), (0.5, 5.0), (0.5, 5.0)]),
        lambda: (DoublePairModel(6100.0, 3900.0, 20.0),
                 [(0.001, 0.05), (0.05, 0.9), (0.2, 5.0), (0.2, 5.0), (0.2, 5.0), (0.2, 5.0)]),
        lambda: (QuadratureModel(1100.0),
                 [(0.001, 0.05), (0.5, 5.0), (5.0, 60.0)]),
    ],
    ids=["single_pair", "double_pair", "quadrature"],
)


def model_freqs(model):
    return np.linspace(3500.0, 6500.0, 601) if "pair" in model.model_id else np.linspace(800.0, 1400.0, 301)


class TestJacobians:
    @MODEL_CASES
    def test_analytic_matches_central_differences(self, factory):
        model, ranges = factory()
        rng = np.random.default_rng(2024)
        freqs = model_freqs(model)
        for _ in range(20):
            p = np.array([rng.uniform(lo, hi) for lo, hi in ranges])
            analytic = model.jacobian(p, freqs)
            for j in range(len(p)):
                h = 1e-6 * max(abs(p[j]), 1e-3)
                p_hi = p.copy(); p_hi[j] += h
                p_lo = p.copy(); p_lo[j] -= h
                fd = (model.value(p_hi, freqs) - model.value(p_lo, freqs)) / (2.0 * h)
                scale = np.max(np.abs(analytic[:, j])) + 1e-12
                np.testing.assert_allclose(
                    analytic[:, j] / scale, fd / scale, atol=2e-6,
                    err_msg=f"{model.model_id} param {j}",
                )

    @MODEL_CASES
    def test_columns_are_the_jacobian_without_theta(self, factory):
        # the profile solve uses `columns`, the covariance `jacobian`: the
        # floor and area columns must be the same numbers in both
        model, ranges = factory()
        rng = np.random.default_rng(2025)
        freqs = model_freqs(model)
        for _ in range(5):
            p = np.array([rng.uniform(lo, hi) for lo, hi in ranges])
            jac = model.jacobian(p, freqs)
            assert np.array_equal(model.columns(p[model.k], freqs), np.delete(jac, model.k, axis=1))


def noiseless_psd(model, p_true):
    """The model's own density on a 1 Hz grid: a fit must return p_true."""
    freqs = np.linspace(500.0, 6500.0, 6001)
    return synthetic_psd(freqs, model.value(np.asarray(p_true), freqs))


def assert_recovered(fit, p_true):
    got = [fit.estimates[name] for name in fit.param_names]
    np.testing.assert_allclose(got, p_true, rtol=1e-6)


class TestProfileFit:
    def test_exact_model_recovery_without_noise(self):
        p_true = [0.004, 0.5, 1.175, 3.275, 0.925, 3.025]
        psd = noiseless_psd(DoublePairModel(6100.0, 3900.0, 20.0), p_true)
        fit = fit_double_pair(psd, TWO_PI * 20.0, (6100.0, 3900.0), 300.0)
        assert_recovered(fit, p_true)
        assert fit.converged

    def test_double_pair_recovery_near_the_gain_bound(self):
        p_true = [0.004, 0.9, 0.6, 4.0, 0.4, 3.5]
        psd = noiseless_psd(DoublePairModel(6100.0, 3900.0, 20.0), p_true)
        assert_recovered(fit_double_pair(psd, TWO_PI * 20.0, (6100.0, 3900.0), 300.0), p_true)

    def test_single_pair_recovery_without_noise(self):
        p_true = [0.004, 20.0, 3.4, 2.9]
        psd = noiseless_psd(SinglePairModel(6100.0, 3900.0), p_true)
        assert_recovered(fit_single_pair(psd, (6100.0, 3900.0), 300.0), p_true)

    def test_quadrature_recovery_without_noise(self):
        p_true = [0.004, 4.2, 30.0]
        psd = noiseless_psd(QuadratureModel(1100.0), p_true)
        assert_recovered(fit_quadrature(psd, 1100.0, 300.0), p_true)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def assert_brent_equals_scipy(cost, lo, hi, xatol):
    """`_bounded_brent` against scipy's bounded minimize_scalar, bit for
    bit in x, fun, nfev and success; returns its result."""
    got = x, fx, evaluations, converged = _bounded_brent(cost, lo, hi, xatol)
    ref = minimize_scalar(cost, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    assert (_bits(x), _bits(fx), evaluations, converged) == (
        _bits(ref.x), _bits(ref.fun), ref.nfev, ref.success
    )
    return got


class TestBoundedBrent:
    @pytest.mark.parametrize(
        "cost,lo,hi",
        [
            (lambda x: (x - 0.3) ** 2, 0.0, 1.0),  # a bowl
            (lambda x: math.cos(x), 1.0, 5.0),  # a bowl found by parabolas
            (lambda x: 1.0, 0.0, 1.0),  # flat
            (lambda x: x, 0.2, 0.9),  # minimum at the lower end
            (lambda x: -x, 0.2, 0.9),  # minimum at the upper end
            (lambda x: math.nan, 0.0, 1.0),  # NaN: not converged
        ],
        ids=["bowl", "cosine", "flat", "lower_end", "upper_end", "nan"],
    )
    @pytest.mark.parametrize("xatol", [1e-5, 1e-10, 1e-14])
    def test_equals_scipy_bounded(self, cost, lo, hi, xatol):
        assert_brent_equals_scipy(cost, lo, hi, xatol)

    def test_stops_unconverged_at_the_evaluation_limit(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_BRENT_EVALUATIONS", 7)
        x, fx, evaluations, converged = _bounded_brent(lambda x: x, 0.2, 0.9, 1e-10)
        ref = minimize_scalar(lambda x: x, bounds=(0.2, 0.9), method="bounded",
                              options={"xatol": 1e-10, "maxiter": 7})
        assert (_bits(x), _bits(fx), evaluations, converged) == (
            _bits(ref.x), _bits(ref.fun), 7, False
        )

    def test_every_fit_refines_as_scipy_does(self, monkeypatch):
        # the profile costs of all three models on noise-free spectra, both
        # passes of each fit
        evaluations = []

        def checked(cost, lo, hi, xatol):
            got = assert_brent_equals_scipy(cost, lo, hi, xatol)
            evaluations.append(got[2])
            return got

        monkeypatch.setattr(fitting, "_bounded_brent", checked)
        psd = noiseless_psd(SinglePairModel(6100.0, 3900.0), [0.004, 20.0, 3.4, 2.9])
        fit_single_pair(psd, (6100.0, 3900.0), 300.0)
        psd = noiseless_psd(DoublePairModel(6100.0, 3900.0, 20.0), [0.004, 0.5, 1.175, 3.275, 0.925, 3.025])
        fit_double_pair(psd, TWO_PI * 20.0, (6100.0, 3900.0), 300.0)
        psd = noiseless_psd(QuadratureModel(1100.0), [0.004, 4.2, 30.0])
        fit_quadrature(psd, 1100.0, 300.0)
        assert len(evaluations) == 6 and min(evaluations) > 1


class TestBoundedLstsq:
    def test_equals_bvls(self):
        # seeded problems whose unbounded solution breaks a bound.  Where
        # BVLS holds each bounded variable exactly at its bound the answers
        # agree bit for bit; BVLS can also leave one a rounding error off
        # it, on either side, where the restated solve holds it exactly
        rng = np.random.default_rng(31)
        solved = equal = 0
        while solved < 600:
            n = int(rng.integers(2, 6))
            a = rng.random((int(rng.integers(n + 1, 40)), n))
            b = a @ rng.normal(size=n) + 0.5 * rng.normal(size=len(a))
            lower = np.where(rng.random(n) < 0.5, 0.0, -0.1)
            if not np.any(np.linalg.lstsq(a, b, rcond=None)[0] < lower):
                continue
            solved += 1
            x = _bounded_lstsq(a, b, lower)
            ref = lsq_linear(a, b, bounds=(lower, np.inf), method="bvls").x
            assert np.all(x >= lower)
            on_bound = (x == lower) | (ref == lower)
            if np.all(ref[on_bound] == lower[on_bound]):
                assert x.tobytes() == ref.tobytes()
                equal += 1
            else:
                np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-15)
        assert equal >= 595

    def test_fits_on_a_noisy_record_bound_as_bvls_does(self, monkeypatch):
        solves = []

        def checked(a, b, lower):
            x = _bounded_lstsq(a, b, lower)
            ref = lsq_linear(a, b, bounds=(lower, np.inf), method="bvls").x
            solves.append(x.tobytes() == ref.tobytes())
            return x

        monkeypatch.setattr(fitting, "_bounded_lstsq", checked)
        psd, rates = make_component_psd(913, duration=30.0)
        fit_single_pair(psd, CENTERS, 300.0)
        fit_double_pair(psd, rates.gamma_eff, CENTERS, 300.0)
        assert len(solves) > 5 and all(solves)


class TestSelectBand:
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_density_is_refused(self, bad):
        # an overflowed Welch power once reached lstsq as
        # "SVD did not converge in Linear Least Squares"
        psd = noiseless_psd(QuadratureModel(1100.0), [0.004, 4.2, 30.0])
        psd.density[(psd.freqs > 1200.0) & (psd.freqs < 1210.0)] = bad
        with pytest.raises(SpectralError, match="non-finite density"):
            fit_quadrature(psd, 1100.0, 300.0)


class TestBandBins:
    @pytest.mark.parametrize("segment_len,sample_rate", [(17500, 25e3), (4375, 6250.0), (25_000, 25e3)])
    def test_counts_the_welch_axis(self, segment_len, sample_rate):
        freqs = np.fft.rfftfreq(segment_len, 1.0 / sample_rate)
        for margin in (0.5, 3.0, 5.0, 9.9, 10.0, 11.45, 300.0):
            for intervals in (sideband_intervals(CENTERS, margin), quadrature_intervals(1100.0, margin)):
                true = int(np.sum(_in_intervals(freqs, intervals)))
                got = band_bins(segment_len, sample_rate, intervals)
                assert got == true if true < MIN_BAND_BINS else got >= MIN_BAND_BINS


class TestFitSinglePair:
    @pytest.mark.realization
    def test_noise_only_record_flagged(self):
        rng = stream_rng(404, 0)
        freqs = np.linspace(3500.0, 6500.0, 3001)
        n_eff = 64.0
        data = 0.004 * (1.0 + rng.standard_normal(len(freqs)) / math.sqrt(n_eff))
        psd = synthetic_psd(freqs, np.abs(data), n_eff=n_eff)
        fit = fit_single_pair(psd, CENTERS, 300.0)
        assert "area_stokes_consistent_with_zero" in fit.flags
        assert "area_antistokes_consistent_with_zero" in fit.flags
        a, sig = fit.estimates["area_stokes"], fit.sigmas["area_stokes"]
        assert a < 3.0 * sig

    def test_records_the_fitted_centres(self):
        psd = noiseless_psd(SinglePairModel(*CENTERS), [0.004, 20.0, 1.6, 1.4])
        fit = fit_single_pair(psd, CENTERS, 300.0)
        assert fit.to_json_dict()["fixed"] == {
            "center_stokes_hz": CENTERS[0], "center_antistokes_hz": CENTERS[1],
        }


class TestInvariances:
    def test_scale_invariance(self):
        psd, _ = make_component_psd(913)
        scaled = replace(psd, density=psd.density * 8.0)  # exact in floats
        fit = fit_single_pair(psd, CENTERS, 300.0)
        fit_scaled = fit_single_pair(scaled, CENTERS, 300.0)
        assert fit_scaled.estimates["floor"] == pytest.approx(8.0 * fit.estimates["floor"], rel=1e-9)
        assert fit_scaled.estimates["area_stokes"] == pytest.approx(8.0 * fit.estimates["area_stokes"], rel=1e-9)
        assert fit_scaled.estimates["gamma_hz"] == pytest.approx(fit.estimates["gamma_hz"], rel=1e-9)
        assert fit_scaled.derived["ratio"][0] == pytest.approx(fit.derived["ratio"][0], rel=1e-9)

    def test_frequency_shift_invariance(self):
        psd, rates = make_component_psd(914)
        shift = 1250.0
        shifted = replace(psd, freqs=psd.freqs + shift)
        fit = fit_double_pair(psd, rates.gamma_eff, CENTERS, 300.0)
        fit_shifted = fit_double_pair(
            shifted, rates.gamma_eff, (CENTERS[0] + shift, CENTERS[1] + shift), 300.0
        )
        # residual differences come from rounding of the shifted axis
        for name in fit.estimates:
            assert fit_shifted.estimates[name] == pytest.approx(fit.estimates[name], rel=1e-3), name

    def test_double_fit_is_degenerate_at_zero_gain(self):
        # at s = 0 the broad and narrow pairs coincide: on the noise-free
        # spectrum of the s = 0 weights the widths are unresolved and the
        # normal matrix is near-singular
        w = sideband_weights(5.8, 0.0)
        p_true = [0.004, 0.0, w.stokes_broad, w.stokes_narrow, w.antistokes_broad, w.antistokes_narrow]
        psd = noiseless_psd(DoublePairModel(*CENTERS, 20.0), p_true)
        double = fit_double_pair(psd, TWO_PI * 20.0, CENTERS, 300.0)
        assert "widths_unresolved" in double.flags
        assert "degenerate_covariance" in double.flags
        assert double.degenerate_direction

    @pytest.mark.realization
    def test_single_and_double_fit_agree_at_zero_gain(self):
        """At s = 0 the single and double fits of one record agree on the
        ratio and the double fit finds no gain.  Its agreement checks rest
        on the draw of seed 915: they failed for 1 of 30 fresh seeds
        (5000-5029)."""
        psd, rates = make_component_psd(915, s=0.0, duration=80.0)
        single = fit_single_pair(psd, CENTERS, 300.0)
        double = fit_double_pair(psd, rates.gamma_eff, CENTERS, 300.0)
        r_single, sig_single = single.derived["ratio"]
        r_double, sig_double = double.derived["ratio_total"]
        joint = math.hypot(sig_single, sig_double)
        assert abs(r_single - r_double) <= max(joint, 1e-3)
        s_hat, s_sig = double.derived["s"]
        assert s_hat <= 3.0 * max(s_sig, 0.02)


class TestFitQuadrature:
    @pytest.mark.realization
    def test_recovers_width_and_area(self):
        freqs = np.linspace(800.0, 1400.0, 1201)
        model = QuadratureModel(1100.0)
        p_true = np.array([0.004, 4.2, 30.0])
        rng = stream_rng(55, 0)
        n_eff = 400.0
        clean = model.value(p_true, freqs)
        noisy = clean * (1.0 + rng.standard_normal(len(freqs)) / math.sqrt(n_eff))
        psd = synthetic_psd(freqs, noisy, n_eff=n_eff)
        fit = fit_quadrature(psd, 1100.0, 300.0)
        assert fit.derived["sigma2"][0] == pytest.approx(4.2, rel=0.05)
        assert fit.derived["gamma_hz"][0] == pytest.approx(30.0, rel=0.05)


class TestFitResultSerialization:
    def test_json_round_trip(self):
        import json

        psd, rates = make_component_psd(916, duration=30.0)
        fit = fit_double_pair(psd, rates.gamma_eff, CENTERS, 300.0)
        doc = fit.to_json_dict()
        assert set(doc) == {
            "model_id", "fixed", "estimates", "sigmas", "derived", "reduced_chi2",
            "iterations", "converged", "flags", "degenerate_direction",
        }
        text = json.dumps(doc, sort_keys=True)
        loaded = json.loads(text)
        assert loaded["model_id"] == "double_pair"
        assert set(loaded["estimates"]) == set(fit.estimates)
        assert loaded["reduced_chi2"] == pytest.approx(fit.reduced_chi2)
        assert all(s > 0 for s in loaded["sigmas"].values())
        assert loaded["degenerate_direction"] is None

    def test_degenerate_direction_recorded(self):
        # at s = 0 the broad and narrow components coincide
        p_true = [0.004, 0.0, 1.6, 1.6, 1.4, 1.4]
        psd = noiseless_psd(DoublePairModel(6100.0, 3900.0, 20.0), p_true)
        # recorded, not warned: the pipeline's warning names the repetition
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            fit = fit_double_pair(psd, TWO_PI * 20.0, (6100.0, 3900.0), 300.0)
        assert "degenerate_covariance" in fit.flags
        assert "area_" in fit.degenerate_direction
        assert fit.to_json_dict()["degenerate_direction"] == fit.degenerate_direction
