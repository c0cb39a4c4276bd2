"""Least-squares estimation of the sideband and quadrature spectra.

All models are sums of unit-area Lorentzians plus a flat floor, fitted on
density data with per-bin sigma = density / sqrt(effective averages), the
chi-square statistics of averaged periodograms.  Each model has one nonlinear
parameter (a width or the parametric gain s); the floor and the areas enter
linearly.  The shared engine profiles the linear ones out (variable
projection; Golub & Pereyra, Inverse Problems 19, R1, 2003): every trial
value of the nonlinear parameter gets its linear parameters from a bounded
weighted linear solve, and the nonlinear one is scanned on a fixed grid over
its bounds and refined by bounded Brent.  The covariance comes from the
analytic Jacobians at the optimum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import lsq_linear, minimize_scalar

from .errors import SpectralError
from .spectral import Psd, bin_step_for

MAX_MASK_FRACTION = 0.20
# points of the nonlinear parameter's grid, endpoints (its bounds) included
GRID_POINTS = 40


def lorentzian(f: np.ndarray, center: float, width_hz: float) -> np.ndarray:
    """Unit-area Lorentzian of full width `width_hz` at half maximum."""
    hw = 0.5 * width_hz
    return hw / np.pi / ((f - center) ** 2 + hw * hw)


def _dlor_dwidth(f: np.ndarray, center: float, width_hz: float) -> np.ndarray:
    hw = 0.5 * width_hz
    d2 = (f - center) ** 2
    return 0.5 * (d2 - hw * hw) / (np.pi * (d2 + hw * hw) ** 2)


def _pair(f: np.ndarray, center: float, width_hz: float) -> np.ndarray:
    """A Lorentzian at `center` plus its mirror image at -center."""
    return lorentzian(f, center, width_hz) + lorentzian(f, -center, width_hz)


def _dpair(f: np.ndarray, center: float, width_hz: float) -> np.ndarray:
    """Width derivative of `_pair`."""
    return _dlor_dwidth(f, center, width_hz) + _dlor_dwidth(f, -center, width_hz)


class SinglePairModel:
    """Floor + two Lorentzians with a shared width and independent areas,
    centred on the two motional sidebands (mirror images included so the
    model matches the folded one-sided density exactly)."""

    model_id = "single_pair"
    param_names = ("floor", "gamma_hz", "area_stokes", "area_antistokes")

    def __init__(self, center_stokes: float, center_antistokes: float):
        self.centers = (center_stokes, center_antistokes)

    def value(self, p: np.ndarray, f: np.ndarray) -> np.ndarray:
        floor, gamma, a_s, a_as = p
        c_s, c_as = self.centers
        return floor + a_s * _pair(f, c_s, gamma) + a_as * _pair(f, c_as, gamma)

    def jacobian(self, p: np.ndarray, f: np.ndarray) -> np.ndarray:
        floor, gamma, a_s, a_as = p
        c_s, c_as = self.centers
        jac = np.empty((len(f), 4))
        jac[:, 0] = 1.0
        jac[:, 1] = a_s * _dpair(f, c_s, gamma) + a_as * _dpair(f, c_as, gamma)
        jac[:, 2] = _pair(f, c_s, gamma)
        jac[:, 3] = _pair(f, c_as, gamma)
        return jac


class DoublePairModel:
    """Floor + four Lorentzian components: broad/narrow per sideband, with the
    two widths tied to a single parametric gain through the fixed reference
    width: gamma_plus = gamma_eff (1+s), gamma_minus = gamma_eff (1-s)."""

    model_id = "double_pair"
    param_names = (
        "floor",
        "s",
        "area_broad_stokes",
        "area_narrow_stokes",
        "area_broad_antistokes",
        "area_narrow_antistokes",
    )

    def __init__(self, center_stokes: float, center_antistokes: float, gamma_eff_hz: float):
        self.centers = (center_stokes, center_antistokes)
        self.gamma_eff_hz = gamma_eff_hz

    def value(self, p: np.ndarray, f: np.ndarray) -> np.ndarray:
        floor, s, a_bs, a_ns, a_bas, a_nas = p
        gp = self.gamma_eff_hz * (1.0 + s)
        gm = self.gamma_eff_hz * (1.0 - s)
        c_s, c_as = self.centers
        return (
            floor
            + a_bs * _pair(f, c_s, gp)
            + a_ns * _pair(f, c_s, gm)
            + a_bas * _pair(f, c_as, gp)
            + a_nas * _pair(f, c_as, gm)
        )

    def jacobian(self, p: np.ndarray, f: np.ndarray) -> np.ndarray:
        floor, s, a_bs, a_ns, a_bas, a_nas = p
        ge = self.gamma_eff_hz
        gp = ge * (1.0 + s)
        gm = ge * (1.0 - s)
        c_s, c_as = self.centers
        jac = np.empty((len(f), 6))
        jac[:, 0] = 1.0
        jac[:, 1] = ge * (
            a_bs * _dpair(f, c_s, gp)
            - a_ns * _dpair(f, c_s, gm)
            + a_bas * _dpair(f, c_as, gp)
            - a_nas * _dpair(f, c_as, gm)
        )
        jac[:, 2] = _pair(f, c_s, gp)
        jac[:, 3] = _pair(f, c_s, gm)
        jac[:, 4] = _pair(f, c_as, gp)
        jac[:, 5] = _pair(f, c_as, gm)
        return jac


class QuadratureModel:
    """Floor + the demodulated-channel shape: two equal Lorentzians at
    +-delta_lo sharing one area and one width."""

    model_id = "quadrature"
    param_names = ("floor", "area", "gamma_hz")

    def __init__(self, f_lo: float):
        self.f_lo = f_lo

    def value(self, p: np.ndarray, f: np.ndarray) -> np.ndarray:
        floor, area, gamma = p
        return floor + area * _pair(f, self.f_lo, gamma)

    def jacobian(self, p: np.ndarray, f: np.ndarray) -> np.ndarray:
        floor, area, gamma = p
        jac = np.empty((len(f), 3))
        jac[:, 0] = 1.0
        jac[:, 1] = _pair(f, self.f_lo, gamma)
        jac[:, 2] = area * _dpair(f, self.f_lo, gamma)
        return jac


@dataclass
class _Optimum:
    """A profile fit's optimum: the parameters, their covariance from the
    analytic Jacobian and the null-space direction when it is near-singular."""

    params: np.ndarray
    cov: np.ndarray
    reduced_chi2: float
    evaluations: int
    converged: bool
    direction: str | None


def _null_direction(a: np.ndarray, names) -> str:
    _, _, vt = np.linalg.svd(a)
    v = vt[-1]
    terms = [f"{v[i]:+.3f}*{names[i]}" for i in np.argsort(-np.abs(v))[:3]]
    return " ".join(terms)


def _sigma_for(values: np.ndarray, psd: Psd) -> np.ndarray:
    n_eff = max(psd.effective_averages, 1.0)
    floor = max(float(np.max(np.abs(values))), 1e-300) * 1e-12
    return np.maximum(np.abs(values), floor) / math.sqrt(n_eff)


def _linear_solve(model, k, theta, lower, freqs, data, sigma):
    """Parameters of `model` with its nonlinear one (index k) at `theta` and
    the linear ones from a weighted least-squares solve on their Jacobian
    columns, bounded below by `lower`.  Returns (params, weighted cost)."""
    p = np.zeros(len(model.param_names))
    p[k] = theta
    lin = np.arange(len(p)) != k
    a = model.jacobian(p, freqs)[:, lin] / sigma[:, None]
    b = data / sigma
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    if np.any(x < lower):
        x = lsq_linear(a, b, bounds=(lower, np.inf), method="bvls").x
    p[lin] = x
    r = b - a @ x
    return p, float(r @ r)


def _profile_pass(model, k, grid, lower, freqs, data, sigma):
    """Minimize the profiled cost over the nonlinear parameter: the best
    point of `grid`, refined by bounded Brent between its neighbours.
    Returns (params, cost evaluations, Brent's exit status)."""

    def cost(theta):
        return _linear_solve(model, k, theta, lower, freqs, data, sigma)[1]

    costs = [cost(t) for t in grid]
    i = int(np.argmin(costs))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    # a tiny absolute tolerance leaves Brent's relative one, sqrt(eps)*|theta|
    res = minimize_scalar(
        cost, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10 * grid[-1]}
    )
    # Brent never evaluates the bracket's ends: an optimum on a bound (s = 0)
    # is the grid point itself
    theta = res.x if res.fun < costs[i] else grid[i]
    params = _linear_solve(model, k, theta, lower, freqs, data, sigma)[0]
    return params, len(grid) + res.nfev, bool(res.success)


def _profile_fit(model, k, grid, lower, freqs, data, psd: Psd) -> _Optimum:
    """Two profile passes: the first weighted by the data, the second by the
    first pass's model.

    Weighting with the measured density biases amplitudes low by ~2/n_eff
    (upward fluctuations get down-weighted); replacing the density with the
    first-pass model prediction removes that bias at first order.  The
    covariance is (J^T J)^-1 at the optimum scaled by the reduced chi-square;
    a near-singular normal matrix falls back to the pseudo-inverse and warns
    with the null-space direction.
    """
    first, n_first, ok_first = _profile_pass(
        model, k, grid, lower, freqs, data, _sigma_for(data, psd)
    )
    sigma = _sigma_for(model.value(first, freqs), psd)
    p, n_second, ok_second = _profile_pass(model, k, grid, lower, freqs, data, sigma)
    jac = model.jacobian(p, freqs) / sigma[:, None]
    resid = (data - model.value(p, freqs)) / sigma
    normal = jac.T @ jac
    reduced_chi2 = float(resid @ resid) / max(len(freqs) - len(p), 1)
    try:
        cond = np.linalg.cond(normal)
    except np.linalg.LinAlgError:
        cond = math.inf
    direction = None
    if not np.isfinite(cond) or cond > 1e12:
        direction = _null_direction(normal, model.param_names)
        warnings.warn(
            "near-singular normal matrix at the optimum; direction: " + direction,
            stacklevel=3,
        )
        cov = np.linalg.pinv(normal) * reduced_chi2
    else:
        cov = np.linalg.inv(normal) * reduced_chi2
    return _Optimum(
        params=p,
        cov=cov,
        reduced_chi2=reduced_chi2,
        evaluations=n_first + n_second,
        converged=ok_first and ok_second,
        direction=direction,
    )


@dataclass
class FitResult:
    """Parameter estimates with 1-sigma uncertainties from the linearized
    problem, plus the physics quantities derived from them."""

    model_id: str
    param_names: tuple
    estimates: dict
    sigmas: dict
    cov: np.ndarray
    fixed: dict
    derived: dict
    reduced_chi2: float
    iterations: int
    converged: bool
    flags: list = field(default_factory=list)
    masks: tuple = ()
    provenance: dict = field(default_factory=dict)
    degenerate_direction: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "fixed": {k: float(v) for k, v in self.fixed.items()},
            "estimates": {k: float(v) for k, v in self.estimates.items()},
            "sigmas": {k: float(v) for k, v in self.sigmas.items()},
            "derived": {k: [float(v), float(s)] for k, (v, s) in self.derived.items()},
            "reduced_chi2": float(self.reduced_chi2),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "flags": list(self.flags),
            "degenerate_direction": self.degenerate_direction,
            "masks": [list(m) for m in self.masks],
            "provenance": self.provenance,
        }


def _select_band(psd: Psd, intervals, masks):
    freqs = psd.freqs
    sel = np.zeros(len(freqs), dtype=bool)
    for lo, hi in intervals:
        sel |= (freqs >= lo) & (freqs <= hi)
    band_count = int(np.sum(sel))
    if band_count < 8:
        raise SpectralError("fit band selects fewer than 8 bins")
    masked = np.zeros(len(freqs), dtype=bool)
    for lo, hi in masks:
        masked |= (freqs >= lo) & (freqs <= hi)
    masked &= sel
    if band_count and np.sum(masked) > MAX_MASK_FRACTION * band_count:
        raise SpectralError(
            f"masks cover {np.sum(masked) / band_count:.0%} of the fit band "
            f"(limit {MAX_MASK_FRACTION:.0%})"
        )
    sel &= ~masked
    step = bin_step_for(psd.window)
    idx = np.flatnonzero(sel)[::step]
    return freqs[idx], psd.density[idx]


def _build_result(model, opt: _Optimum, fixed, derived, flags, masks) -> FitResult:
    names = model.param_names
    estimates = {n: float(v) for n, v in zip(names, opt.params)}
    sig = np.sqrt(np.maximum(np.diag(opt.cov), 0.0))
    sigmas = {n: float(s) for n, s in zip(names, sig)}
    if opt.direction is not None:
        flags.append("degenerate_covariance")
    return FitResult(
        model_id=model.model_id,
        param_names=names,
        estimates=estimates,
        sigmas=sigmas,
        cov=opt.cov,
        fixed=fixed,
        derived=derived,
        reduced_chi2=opt.reduced_chi2,
        iterations=opt.evaluations,
        converged=opt.converged,
        flags=flags,
        masks=tuple(masks),
        degenerate_direction=opt.direction,
    )


def _ratio_with_sigma(cov, params, i_num, i_den):
    """Sum of the parameters at indices i_num over the sum at i_den, with its
    propagated sigma; (inf, inf) over a zero denominator."""
    num, den = params[i_num].sum(), params[i_den].sum()
    if den == 0.0:
        return math.inf, math.inf
    r = num / den
    grad = np.zeros(len(params))
    grad[i_num] = 1.0 / den
    grad[i_den] = -num / den**2
    var = float(grad @ cov @ grad)
    return r, math.sqrt(max(var, 0.0))


def _zero_area_flags(model, opt: _Optimum) -> list[str]:
    """`<area>_consistent_with_zero` for each fitted area within two sigma
    of zero, where a ratio over it is undetermined (or inf on the bound)."""
    return [
        f"{name}_consistent_with_zero"
        for idx, name in enumerate(model.param_names)
        if name.startswith("area_") and opt.params[idx] < 2.0 * math.sqrt(max(opt.cov[idx, idx], 0.0))
    ]


def _width_grid(psd: Psd, fit_margin_hz: float) -> np.ndarray:
    return np.geomspace(psd.rbw / 100.0, 2.0 * fit_margin_hz, GRID_POINTS)


def _sideband_band(psd: Psd, centers_hz, fit_margin_hz, masks):
    c_s, c_as = centers_hz
    intervals = [(c_s - fit_margin_hz, c_s + fit_margin_hz), (c_as - fit_margin_hz, c_as + fit_margin_hz)]
    return _select_band(psd, intervals, masks)


def fit_single_pair(
    psd: Psd,
    centers_hz: tuple[float, float],
    fit_margin_hz: float,
    masks=(),
) -> FitResult:
    """Shared-width two-Lorentzian fit of a motional sideband pair.

    centers_hz = (stokes, antistokes).  The width is profiled over
    [rbw/100, 2*fit_margin_hz]; the floor and the areas are >= 0.  Returns the
    effective width, the two areas, their ratio R and the occupancy
    n_bar = 1/(R-1) with propagated uncertainties.
    """
    freqs, data = _sideband_band(psd, centers_hz, fit_margin_hz, masks)
    model = SinglePairModel(*centers_hz)
    opt = _profile_fit(model, 1, _width_grid(psd, fit_margin_hz), np.zeros(3), freqs, data, psd)
    flags = _zero_area_flags(model, opt)
    r, r_sig = _ratio_with_sigma(opt.cov, opt.params, [2], [3])
    derived = {"ratio": (r, r_sig)}
    if math.isfinite(r) and r > 1.0:
        n_bar = 1.0 / (r - 1.0)
        derived["n_bar"] = (n_bar, r_sig / (r - 1.0) ** 2)
    else:
        flags.append("ratio_below_unity")
        derived["n_bar"] = (math.nan, math.nan)
    return _build_result(model, opt, {"centers_hz": 0.0}, derived, flags, masks)


def fit_double_pair(
    psd: Psd,
    gamma_eff_fixed: float,
    centers_hz: tuple[float, float],
    fit_margin_hz: float,
    masks=(),
) -> FitResult:
    """Constrained four-component sideband fit with the reference width fixed.

    gamma_eff_fixed is angular (rad/s), taken from a detuned-reference
    single_pair fit.  s is profiled over [0, 0.99]; the floor and the areas
    are >= 0, except the broad anti-Stokes area, which may go slightly
    negative: its lower bound is -0.1 x the anti-Stokes area of one
    Lorentzian of width gamma_eff per sideband.  Returns s, R_plus, R_minus
    and the component widths with uncertainties; flags each area consistent
    with zero, and a degeneracy warning when s*gamma_eff < 2*rbw (widths
    unresolved).
    """
    gamma_eff_hz = gamma_eff_fixed / (2.0 * math.pi)
    freqs, data = _sideband_band(psd, centers_hz, fit_margin_hz, masks)
    plain, _ = _linear_solve(
        SinglePairModel(*centers_hz), 1, gamma_eff_hz, np.zeros(3), freqs, data,
        _sigma_for(data, psd),
    )
    model = DoublePairModel(*centers_hz, gamma_eff_hz)
    lower = np.array([0.0, 0.0, 0.0, -0.1 * plain[3], 0.0])
    opt = _profile_fit(model, 1, np.linspace(0.0, 0.99, GRID_POINTS), lower, freqs, data, psd)
    s_hat = opt.params[1]
    s_sig = math.sqrt(max(opt.cov[1, 1], 0.0))
    flags = _zero_area_flags(model, opt)
    if s_hat * gamma_eff_hz < 2.0 * psd.rbw:
        flags.append("widths_unresolved")
    derived = {
        "s": (s_hat, s_sig),
        "r_plus": _ratio_with_sigma(opt.cov, opt.params, [2], [4]),
        "r_minus": _ratio_with_sigma(opt.cov, opt.params, [3], [5]),
        # total-area ratio: consistency handle against the single_pair fit
        "ratio_total": _ratio_with_sigma(opt.cov, opt.params, [2, 3], [4, 5]),
        "gamma_plus_hz": (gamma_eff_hz * (1.0 + s_hat), gamma_eff_hz * s_sig),
        "gamma_minus_hz": (gamma_eff_hz * (1.0 - s_hat), gamma_eff_hz * s_sig),
    }
    return _build_result(model, opt, {"gamma_eff_hz": gamma_eff_hz}, derived, flags, masks)


def fit_quadrature(
    psd: Psd,
    delta_lo_hz: float,
    fit_margin_hz: float,
    masks=(),
) -> FitResult:
    """Fit of one demodulated quadrature channel: floor plus two equal
    Lorentzians at +-delta_lo with one free area (the quadrature variance in
    channel units) and one free width, profiled over [rbw/100, 2*fit_margin_hz].

    Only the upper half [delta_lo, delta_lo + margin] is fitted: the channel
    is a modulated real process, so its density mirrors exactly around
    delta_lo and the lower half duplicates the same information (which would
    silently halve every reported variance).
    """
    freqs, data = _select_band(psd, [(delta_lo_hz, delta_lo_hz + fit_margin_hz)], masks)
    model = QuadratureModel(delta_lo_hz)
    opt = _profile_fit(model, 2, _width_grid(psd, fit_margin_hz), np.zeros(2), freqs, data, psd)
    derived = {
        "sigma2": (float(opt.params[1]), math.sqrt(max(opt.cov[1, 1], 0.0))),
        "gamma_hz": (float(opt.params[2]), math.sqrt(max(opt.cov[2, 2], 0.0))),
    }
    return _build_result(model, opt, {"delta_lo_hz": delta_lo_hz}, derived, [], masks)
