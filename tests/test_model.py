"""Closed-form physics: golden values against independent oracles, plus the
algebraic invariants of the rate/weight/ratio family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parosc.errors import AntiDampedError, ParametricInstabilityError
from parosc.model import (
    CavityPumpParams,
    DerivedRates,
    OscillatorParams,
    analytic_sideband_psd,
    gamma_eff,
    gamma_par,
    quadrature_variances,
    ratios,
    sideband_weights,
    squeeze_param,
    thresholds,
)

from oracles import (
    PAPER_DELTA_CANON,
    PAPER_DELTA_EXAMPLE,
    PAPER_EPSILON,
    PAPER_G,
    PAPER_GAMMA_M,
    PAPER_KAPPA,
    PAPER_N_BAR,
    PAPER_OMEGA_M,
    oracle_gamma_eff,
    oracle_gamma_par,
    sideband_difference_integral,
)

TWO_PI = 2.0 * math.pi

# Frozen from tests/oracles.py (mpmath, 50 digits).
GOLDEN_GAMMA_PAR_EXAMPLE = 6.911585342441677
GOLDEN_GAMMA_EFF_EPS1_D0 = 13.020834483454406
GOLDEN_GAMMA_EFF_CANON = 5.602237106103934
GOLDEN_GAMMA_PAR_CANON = 3.7936213175423915
GOLDEN_S_CANON = 0.67716186332225037


def paper_osc(n_bar=PAPER_N_BAR):
    return OscillatorParams(omega_m=PAPER_OMEGA_M, gamma_m=PAPER_GAMMA_M, n_bar=n_bar)


def paper_pump(epsilon_c=PAPER_EPSILON, delta_pump=PAPER_DELTA_CANON, g=PAPER_G):
    return CavityPumpParams(
        kappa=PAPER_KAPPA, g=g, epsilon_c=epsilon_c, delta_pump=delta_pump
    )


class TestGammaPar:
    def test_vanishes_when_single_tone(self):
        assert gamma_par(paper_pump(epsilon_c=1.0)) == 0.0
        assert gamma_par(paper_pump(epsilon_c=0.0)) == 0.0

    def test_golden_example_point(self):
        value = gamma_par(paper_pump(delta_pump=PAPER_DELTA_EXAMPLE))
        assert value == pytest.approx(GOLDEN_GAMMA_PAR_EXAMPLE, rel=1e-14)
        assert float(oracle_gamma_par(PAPER_G, PAPER_EPSILON, PAPER_DELTA_EXAMPLE, PAPER_KAPPA)) == pytest.approx(
            GOLDEN_GAMMA_PAR_EXAMPLE, rel=1e-15
        )

    def test_sign_follows_detuning(self):
        assert gamma_par(paper_pump(delta_pump=-PAPER_DELTA_CANON)) < 0.0


class TestGammaEff:
    def test_reduces_to_intrinsic_without_coupling(self):
        assert gamma_eff(paper_pump(g=0.0), paper_osc()) == PAPER_GAMMA_M

    def test_cooling_terms_do_not_cancel_at_zero_detuning(self):
        # At eps_c = 1, delta_pump = 0 the two surviving terms have different
        # denominators (kappa^2/4 versus 4*omega_m^2 + kappa^2/4), so the
        # result exceeds gamma_m; the oracle pins the exact value.
        value = gamma_eff(paper_pump(epsilon_c=1.0, delta_pump=0.0), paper_osc())
        assert value == pytest.approx(GOLDEN_GAMMA_EFF_EPS1_D0, rel=1e-14)
        assert value > PAPER_GAMMA_M
        assert float(
            oracle_gamma_eff(PAPER_GAMMA_M, PAPER_G, 1.0, 0.0, PAPER_KAPPA, PAPER_OMEGA_M)
        ) == pytest.approx(GOLDEN_GAMMA_EFF_EPS1_D0, rel=1e-15)

    def test_cancellation_when_denominators_match(self):
        # The pairwise cancellation does happen when the denominators match,
        # which at eps_c = 1, delta_pump = 0 requires omega_m -> 0.
        osc = OscillatorParams(omega_m=1e-9, gamma_m=PAPER_GAMMA_M, n_bar=PAPER_N_BAR)
        value = gamma_eff(paper_pump(epsilon_c=1.0, delta_pump=0.0), osc)
        assert value == pytest.approx(PAPER_GAMMA_M, rel=1e-12)

    def test_golden_paper_scale(self):
        value = gamma_eff(paper_pump(), paper_osc())
        assert value == pytest.approx(GOLDEN_GAMMA_EFF_CANON, rel=1e-14)

    def test_anti_damping_returned_not_raised(self):
        # delta_pump = omega_m zeroes the cooling terms and the modulation
        # tone anti-damps: the value is the flag, no exception here.
        value = gamma_eff(paper_pump(delta_pump=PAPER_OMEGA_M), paper_osc())
        assert value < 0.0


class TestSqueezeParam:
    def test_zero_without_modulation(self):
        assert squeeze_param(paper_pump(epsilon_c=1.0), paper_osc()) == 0.0

    def test_coupling_cancels_when_no_intrinsic_damping(self):
        osc = OscillatorParams(omega_m=PAPER_OMEGA_M, gamma_m=0.0, n_bar=PAPER_N_BAR)
        s1 = squeeze_param(paper_pump(g=PAPER_G), osc)
        s2 = squeeze_param(paper_pump(g=2.0 * PAPER_G), osc)
        assert s2 == pytest.approx(s1, rel=1e-14)

    def test_golden_paper_scale(self):
        assert squeeze_param(paper_pump(), paper_osc()) == pytest.approx(GOLDEN_S_CANON, rel=1e-14)

    def test_errors_in_anti_damped_regime(self):
        with pytest.raises(AntiDampedError):
            squeeze_param(paper_pump(delta_pump=PAPER_OMEGA_M), paper_osc())


class TestSidebandWeights:
    def test_zero_gain_collapses_pairs(self):
        w = sideband_weights(5.8, 0.0)
        assert w.as_tuple() == (6.8, 6.8, 5.8, 5.8)
        assert not w.quantum_squeezed

    def test_negative_broad_antistokes_flagged(self):
        w = sideband_weights(0.3, 0.7)
        assert w.antistokes_broad == pytest.approx(-0.05)
        assert w.quantum_squeezed

    def test_hand_arithmetic_point(self):
        w = sideband_weights(5.8, 0.5)
        assert w.as_tuple() == pytest.approx((6.55, 7.05, 6.05, 5.55))


class TestRatios:
    def test_no_gain_collapses_to_plain(self):
        r_plain, r_plus, r_minus = ratios(5.8, 0.0)
        assert r_plain == r_plus == r_minus == pytest.approx(6.8 / 5.8)

    def test_narrow_ratio_reaches_unity_at_instability(self):
        for n_bar in (0.7, 5.8, 42.0):
            _, _, r_minus = ratios(n_bar, 1.0)
            assert r_minus == pytest.approx(1.0)

    def test_hand_arithmetic_point(self):
        r_plain, r_plus, r_minus = ratios(5.8, 0.5)
        assert r_plain == pytest.approx(6.8 / 5.8, rel=1e-15)
        assert r_plus == pytest.approx(7.05 / 5.55, rel=1e-15)
        assert r_minus == pytest.approx(6.55 / 6.05, rel=1e-15)

    def test_infinite_at_quantum_threshold(self):
        _, r_plus, _ = ratios(0.3, 0.6)
        assert math.isinf(r_plus)


class TestQuadratureVariances:
    def test_thermal_limit(self):
        var_x, var_y = quadrature_variances(5.8, 0.0)
        assert var_x == var_y == pytest.approx((2 * 5.8 + 1) / 4)

    def test_squeeze_factor_at_paper_point(self):
        # 1/(1+s) = 0.66 at s = 1/0.66 - 1
        s = 1.0 / 0.66 - 1.0
        var_x, _ = quadrature_variances(5.8, s)
        assert var_x / ((2 * 5.8 + 1) / 4) == pytest.approx(0.66, rel=1e-12)

    def test_thermal_variance_versus_ground_state(self):
        var_x, var_y = quadrature_variances(5.8, 0.0)
        ratio = var_x / 0.25
        assert ratio == pytest.approx(2 * 5.8 + 1, rel=1e-15)
        assert 12 <= ratio <= 13  # "about a dozen times the ground state"

    def test_instability_raises(self):
        with pytest.raises(ParametricInstabilityError):
            quadrature_variances(5.8, 1.0)


class TestAnalyticSidebandPsd:
    def test_zero_gain_single_lorentzian(self):
        ge = TWO_PI * 20.0
        omega = np.linspace(-TWO_PI * 200, TWO_PI * 200, 4001)
        stokes = analytic_sideband_psd(5.8, 0.0, ge, "stokes", omega)
        anti = analytic_sideband_psd(5.8, 0.0, ge, "antistokes", omega)
        single_s = 6.8 * ge / (omega**2 + ge**2 / 4.0)
        single_a = 5.8 * ge / (omega**2 + ge**2 / 4.0)
        np.testing.assert_allclose(stokes.density, single_s, rtol=1e-12)
        np.testing.assert_allclose(anti.density, single_a, rtol=1e-12)

    def test_commutator_sum_rule_quadrature(self):
        ge = TWO_PI * 20.0
        for n_bar in (0.1, 5.8, 100.0):
            for s in (0.0, 0.5, 0.95):
                value, _ = sideband_difference_integral(n_bar, s, ge)
                assert value == pytest.approx(1.0, abs=1e-6)

    def test_pointwise_nonnegative_with_negative_weight(self):
        ge = TWO_PI * 20.0
        omega = np.linspace(-TWO_PI * 5000, TWO_PI * 5000, 200001)
        psd = analytic_sideband_psd(0.3, 0.7, ge, "antistokes", omega)
        assert sideband_weights(0.3, 0.7).antistokes_broad == pytest.approx(-0.05)
        assert np.all(psd.density >= 0.0)


class TestThresholds:
    @pytest.mark.parametrize(
        "n_bar,s,stable,squeezed",
        [(0.4, 0.9, True, True), (5.8, 0.5, True, False), (0.2, 1.1, False, True)],
    )
    def test_regime_flags(self, n_bar, s, stable, squeezed):
        report = thresholds(n_bar, s)
        assert report.stable is stable
        assert report.quantum_squeezed is squeezed

    def test_reachability_needs_low_occupancy(self):
        assert thresholds(0.4, 0.0).quantum_squeezing_reachable
        assert not thresholds(0.5, 0.0).quantum_squeezing_reachable


class TestDerivedRates:
    def test_width_identities(self):
        rates = DerivedRates.from_target(TWO_PI * 20.0, 0.37, 5.8)
        assert rates.gamma_plus / rates.gamma_eff - 1.0 == pytest.approx(rates.s, rel=1e-14)
        assert 1.0 - rates.gamma_minus / rates.gamma_eff == pytest.approx(rates.s, rel=1e-14)

    def test_from_params_matches_operations(self):
        rates = DerivedRates.from_params(paper_pump(), paper_osc())
        assert rates.s == pytest.approx(GOLDEN_S_CANON, rel=1e-14)
        assert rates.gamma_eff == pytest.approx(GOLDEN_GAMMA_EFF_CANON, rel=1e-14)
        assert rates.r_plus == pytest.approx(ratios(PAPER_N_BAR, rates.s)[1], rel=1e-14)

    def test_refuses_instability(self):
        with pytest.raises(ParametricInstabilityError):
            DerivedRates.from_target(TWO_PI * 20.0, 1.0, 5.8)

    def test_refuses_anti_damping(self):
        with pytest.raises(AntiDampedError):
            DerivedRates.from_params(paper_pump(delta_pump=PAPER_OMEGA_M), paper_osc())


# --- property tests ---------------------------------------------------------

n_bars = st.floats(min_value=1e-3, max_value=1e4)
gains = st.floats(min_value=0.0, max_value=0.99)


@given(n_bar=n_bars, s=gains)
def test_weight_differences_property(n_bar, s):
    w = sideband_weights(n_bar, s)
    tol = 1e-12 * max(1.0, n_bar)
    assert abs((w.stokes_narrow - w.antistokes_narrow) - (1.0 - s)) <= tol
    assert abs((w.stokes_broad - w.antistokes_broad) - (1.0 + s)) <= tol


@given(n_bar=n_bars, s=gains, gamma=st.floats(min_value=1e-3, max_value=1e6))
def test_width_identity_property(n_bar, s, gamma):
    rates = DerivedRates.from_target(gamma, s, n_bar)
    assert rates.gamma_plus / rates.gamma_eff - 1.0 == pytest.approx(s, abs=1e-12)
    assert 1.0 - rates.gamma_minus / rates.gamma_eff == pytest.approx(s, abs=1e-12)


@given(n_bar=st.floats(min_value=1e-2, max_value=1e3),
       s1=st.floats(min_value=0.0, max_value=0.98),
       ds=st.floats(min_value=1e-6, max_value=0.5))
def test_ratio_monotonicity_property(n_bar, s1, ds):
    s2 = min(s1 + ds, 0.99)
    _, rp1, rm1 = ratios(n_bar, s1)
    _, rp2, rm2 = ratios(n_bar, s2)
    if math.isfinite(rp1) and math.isfinite(rp2) and rp1 > 0 and rp2 > 0:
        assert rp2 > rp1
    assert rm2 < rm1


@given(n_bar=n_bars)
def test_ratios_collapse_at_zero_gain(n_bar):
    r_plain, r_plus, r_minus = ratios(n_bar, 0.0)
    assert r_plus == r_plain
    assert r_minus == r_plain


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_coupling_invariance_property(scale):
    osc = OscillatorParams(omega_m=PAPER_OMEGA_M, gamma_m=0.0, n_bar=1.0)
    base = squeeze_param(paper_pump(), osc)
    scaled = squeeze_param(paper_pump(g=PAPER_G * scale), osc)
    assert scaled == pytest.approx(base, rel=1e-9)


@settings(max_examples=25)
@given(n_bar=st.floats(min_value=0.05, max_value=50.0),
       s=st.floats(min_value=0.0, max_value=0.9))
def test_symmetrized_sidebands_match_quadrature_lorentzians(n_bar, s):
    ge = TWO_PI * 20.0
    omega = np.linspace(-TWO_PI * 500, TWO_PI * 500, 2001)
    stokes = analytic_sideband_psd(n_bar, s, ge, "stokes", omega).density
    anti = analytic_sideband_psd(n_bar, s, ge, "antistokes", omega).density
    var_x, var_y = quadrature_variances(n_bar, s)
    gp, gm = ge * (1.0 + s), ge * (1.0 - s)
    from_quadratures = var_x * gp / (omega**2 + gp**2 / 4.0) + var_y * gm / (omega**2 + gm**2 / 4.0)
    np.testing.assert_allclose(0.5 * (stokes + anti), from_quadratures, rtol=1e-11)


class TestOscillatorParams:
    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            OscillatorParams(omega_m=0.0, gamma_m=0.0, n_bar=1.0)
        with pytest.raises(ValueError):
            OscillatorParams(omega_m=1.0, gamma_m=-1.0, n_bar=1.0)
        with pytest.raises(ValueError):
            OscillatorParams(omega_m=1.0, gamma_m=0.0, n_bar=-0.1)


class TestCavityPumpParams:
    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            CavityPumpParams(kappa=0.0, g=1.0, epsilon_c=0.5, delta_pump=1.0)
        with pytest.raises(ValueError):
            CavityPumpParams(kappa=1.0, g=1.0, epsilon_c=1.5, delta_pump=1.0)
