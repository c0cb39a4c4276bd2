"""Independent oracles for golden values.

Everything here is computed with arbitrary-precision arithmetic (mpmath) or
adaptive quadrature, never through the package under test.  The frozen
constants in the test modules were produced by exactly these functions; the
tests re-evaluate the oracles to guard against silent drift.
"""

import mpmath as mp
from scipy.integrate import quad

mp.mp.dps = 50

TWO_PI = 2 * mp.pi


def oracle_gamma_par(g, epsilon_c, delta_pump, kappa):
    g, eps, d, k = map(mp.mpf, (g, epsilon_c, delta_pump, kappa))
    return 4 * g**2 * mp.sqrt(eps * (1 - eps)) * d / (d**2 + k**2 / 4)


def oracle_gamma_eff(gamma_m, g, epsilon_c, delta_pump, kappa, omega_m):
    gm, g, eps, d, k, om = map(mp.mpf, (gamma_m, g, epsilon_c, delta_pump, kappa, omega_m))
    k2 = k**2 / 4
    term = (
        eps / (d**2 + k2)
        - eps / ((d - 2 * om) ** 2 + k2)
        + (1 - eps) / ((d + 2 * om) ** 2 + k2)
        - (1 - eps) / (d**2 + k2)
    )
    return gm + g**2 * k * term


def sideband_difference_integral(n_bar, s, gamma_eff):
    """(1/2pi) * integral of (Stokes - antiStokes) over all frequencies,
    by adaptive quadrature of the closed-form difference."""
    gp = gamma_eff * (1.0 + s)
    gm = gamma_eff * (1.0 - s)

    def diff(w):
        return 0.5 * gamma_eff * (
            (1.0 - s) / (w * w + gm * gm / 4.0)
            + (1.0 + s) / (w * w + gp * gp / 4.0)
        )

    val, err = quad(diff, 0.0, mp.inf, limit=400)
    return 2.0 * val / (2.0 * mp.pi), 2.0 * err


def sideband_total_integral(n_bar, s, gamma_eff, side):
    gp = gamma_eff * (1.0 + s)
    gm = gamma_eff * (1.0 - s)
    if side == "stokes":
        w_narrow, w_broad = 1.0 + n_bar - s / 2.0, 1.0 + n_bar + s / 2.0
    else:
        w_narrow, w_broad = n_bar + s / 2.0, n_bar - s / 2.0

    def f(w):
        return 0.5 * gamma_eff * (
            w_narrow / (w * w + gm * gm / 4.0) + w_broad / (w * w + gp * gp / 4.0)
        )

    val, _ = quad(f, 0.0, mp.inf, limit=400)
    return 2.0 * val / (2.0 * mp.pi)


def ar1_variance_estimator_sigma(n, decay_rate, dt, variance):
    """Standard deviation of the sample variance of a stationary Gaussian
    AR(1) chain: var(v_hat) ~ (2 v^2 / n) (1 + a^2) / (1 - a^2)."""
    a = mp.exp(-mp.mpf(decay_rate) * mp.mpf(dt))
    return float(mp.sqrt(2 * mp.mpf(variance) ** 2 / n * (1 + a**2) / (1 - a**2)))


# Canonical parameter sets used by the golden tests (angular rad/s).
PAPER_OMEGA_M = float(TWO_PI * mp.mpf("530e3"))
PAPER_KAPPA = float(TWO_PI * mp.mpf("1.4e6"))
PAPER_Q = 6.4e6
PAPER_GAMMA_M = float(TWO_PI * mp.mpf("530e3") / mp.mpf("6.4e6"))
PAPER_G = float(TWO_PI * mp.mpf("1e3"))
PAPER_EPSILON = 0.8
PAPER_DELTA_EXAMPLE = float(TWO_PI * mp.mpf("530e3"))  # gamma_par example point
PAPER_DELTA_CANON = float(TWO_PI * mp.mpf("200e3"))  # damping-regime working point
PAPER_N_BAR = 5.8


def chi2_tail(dof, stat):
    """P(X > stat) for X chi-square of dof degrees of freedom: the
    regularized upper incomplete gamma function Q(dof/2, stat/2)."""
    return float(mp.gammainc(mp.mpf(dof) / 2, mp.mpf(stat) / 2, mp.inf, regularized=True))
