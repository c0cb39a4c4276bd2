"""Nonlinear least-squares estimation of the sideband and quadrature spectra.

All models are sums of unit-area Lorentzians plus a flat floor, fitted on
density data with per-bin sigma = density / sqrt(effective averages), the
chi-square statistics of averaged periodograms.  The shared engine is a
damped (Levenberg-Marquardt) least-squares loop with projected bounds and
analytic Jacobians.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FitConvergenceError, FitDegeneracyError, SpectralError
from .spectral import Psd, bin_step_for

MAX_MASK_FRACTION = 0.20


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
class LMOptions:
    lambda0: float = 1e-3
    lambda_reject: float = 10.0
    lambda_accept: float = 3.0
    cost_tol: float = 1e-9
    grad_tol: float = 1e-10
    max_iter: int = 500


@dataclass
class LMResult:
    params: np.ndarray
    cov: np.ndarray
    reduced_chi2: float
    iterations: int
    converged: bool
    grad_inf_norm: float
    cost: float
    n_points: int
    degenerate: bool = False


def _null_direction(a: np.ndarray, names) -> str:
    _, _, vt = np.linalg.svd(a)
    v = vt[-1]
    terms = [f"{v[i]:+.3f}*{names[i]}" for i in np.argsort(-np.abs(v))[:3]]
    return " ".join(terms)


def lm_minimize(
    model,
    p0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    freqs: np.ndarray,
    data: np.ndarray,
    sigma: np.ndarray,
    options: LMOptions | None = None,
) -> LMResult:
    """Damped least squares with projected bounds.

    Damping schedule: lambda starts at 1e-3, x10 on a rejected step, /3 on an
    accepted one.  Converges on relative cost change < 1e-9 or gradient
    infinity-norm < 1e-10.  The covariance is (J^T J)^-1 at the optimum
    scaled by the reduced chi-square; a singular normal matrix raises
    FitDegeneracyError naming the null-space direction.
    """
    opt = options or LMOptions()
    p = np.clip(np.asarray(p0, dtype=float), lower, upper)
    resid = (data - model.value(p, freqs)) / sigma
    cost = float(resid @ resid)
    cost_initial = max(cost, 1e-300)
    lam = opt.lambda0
    iterations = 0
    converged = False
    grad_norm = math.inf
    while iterations < opt.max_iter:
        jac = -model.jacobian(p, freqs) / sigma[:, None]
        grad = jac.T @ resid
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < opt.grad_tol:
            converged = True
            break
        normal = jac.T @ jac
        diag = np.diag(normal).copy()
        diag[diag <= 0.0] = 1.0
        # Parameters pinned at a bound with the gradient pushing outward are
        # frozen for this solve; the final step is projected regardless.
        free = ~(((p <= lower) & (grad > 0.0)) | ((p >= upper) & (grad < 0.0)))
        if not np.any(free):
            converged = True
            break
        accepted = False
        while iterations < opt.max_iter:
            iterations += 1
            step = np.zeros_like(p)
            try:
                sub = np.ix_(free, free)
                step[free] = np.linalg.solve(
                    normal[sub] + lam * np.diag(diag[free]), -grad[free]
                )
            except np.linalg.LinAlgError:
                raise FitDegeneracyError(
                    "singular normal matrix; null-space direction: "
                    + _null_direction(normal, model.param_names),
                    direction=_null_direction(normal, model.param_names),
                )
            candidate = np.clip(p + step, lower, upper)
            cand_resid = (data - model.value(candidate, freqs)) / sigma
            cand_cost = float(cand_resid @ cand_resid)
            if cand_cost < cost:
                lam /= opt.lambda_accept
                rel_drop = (cost - cand_cost) / max(cost, 1e-300)
                p, resid, cost = candidate, cand_resid, cand_cost
                accepted = True
                # second clause: the residual has collapsed to numerical zero
                # (exact-model data), where relative drops stay O(1) forever
                if rel_drop < opt.cost_tol or cost < 1e-18 * cost_initial:
                    converged = True
                break
            lam *= opt.lambda_reject
            if lam > 1e14:
                break
        if converged or not accepted:
            break
    if not converged and iterations >= opt.max_iter:
        raise FitConvergenceError(
            f"no convergence after {iterations} iterations (cost {cost:.6g})"
        )
    jac = -model.jacobian(p, freqs) / sigma[:, None]
    normal = jac.T @ jac
    n_free = len(p)
    dof = max(len(freqs) - n_free, 1)
    reduced_chi2 = cost / dof
    degenerate = False
    try:
        cond = np.linalg.cond(normal)
    except np.linalg.LinAlgError:
        cond = math.inf
    if not np.isfinite(cond) or cond > 1e12:
        degenerate = True
        warnings.warn(
            "near-singular normal matrix at the optimum; direction: "
            + _null_direction(normal, model.param_names),
            stacklevel=2,
        )
        cov = np.linalg.pinv(normal) * reduced_chi2
    else:
        cov = np.linalg.inv(normal) * reduced_chi2
    return LMResult(
        params=p,
        cov=cov,
        reduced_chi2=reduced_chi2,
        iterations=iterations,
        converged=converged,
        grad_inf_norm=float(np.max(np.abs(jac.T @ resid))),
        cost=cost,
        n_points=len(freqs),
        degenerate=degenerate,
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
    grad_inf_norm: float
    flags: list = field(default_factory=list)
    masks: tuple = ()
    provenance: dict = field(default_factory=dict)

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


def _sigma_for(data: np.ndarray, psd: Psd) -> np.ndarray:
    n_eff = max(psd.effective_averages, 1.0)
    floor = max(np.max(np.abs(data)), 1e-300) * 1e-12
    return np.maximum(np.abs(data), floor) / math.sqrt(n_eff)


def _lm_with_reweight(model, p0, lower, upper, freqs, data, psd: Psd) -> LMResult:
    """First pass with data-based sigmas, second with the fitted model's.

    Weighting with the measured density biases amplitudes low by ~2/n_eff
    (upward fluctuations get down-weighted); replacing the density with the
    first-pass model prediction removes that bias at first order.
    """
    sigma = _sigma_for(data, psd)
    first = lm_minimize(model, p0, lower, upper, freqs, data, sigma)
    n_eff = max(psd.effective_averages, 1.0)
    predicted = model.value(first.params, freqs)
    floor = max(float(np.max(np.abs(predicted))), 1e-300) * 1e-12
    sigma = np.maximum(np.abs(predicted), floor) / math.sqrt(n_eff)
    return lm_minimize(model, first.params, lower, upper, freqs, data, sigma)


def _peak_guess(freqs, data, center, halfwidth, floor):
    sel = (freqs >= center - halfwidth) & (freqs <= center + halfwidth)
    if not np.any(sel):
        raise SpectralError(f"no bins near expected peak at {center:.6g} Hz")
    f_sel = freqs[sel]
    d_sel = data[sel]
    k = int(np.argmax(d_sel))
    height = max(d_sel[k] - floor, floor * 1e-3 + 1e-300)
    half = floor + 0.5 * height
    above = d_sel >= half
    left = k
    while left > 0 and above[left - 1]:
        left -= 1
    right = k
    while right < len(d_sel) - 1 and above[right + 1]:
        right += 1
    width = max(f_sel[right] - f_sel[left], f_sel[1] - f_sel[0])
    area = height * math.pi * width / 2.0
    return height, width, area


def _build_result(model, lm: LMResult, fixed, derived, flags, masks) -> FitResult:
    names = model.param_names
    estimates = {n: float(v) for n, v in zip(names, lm.params)}
    sig = np.sqrt(np.maximum(np.diag(lm.cov), 0.0))
    sigmas = {n: float(s) for n, s in zip(names, sig)}
    return FitResult(
        model_id=model.model_id,
        param_names=names,
        estimates=estimates,
        sigmas=sigmas,
        cov=lm.cov,
        fixed=fixed,
        derived=derived,
        reduced_chi2=lm.reduced_chi2,
        iterations=lm.iterations,
        converged=lm.converged,
        grad_inf_norm=lm.grad_inf_norm,
        flags=flags,
        masks=tuple(masks),
    )


def _ratio_with_sigma(cov, params, i_num, i_den):
    num, den = params[i_num], params[i_den]
    if den == 0.0:
        return math.inf, math.inf
    r = num / den
    grad = np.zeros(len(params))
    grad[i_num] = 1.0 / den
    grad[i_den] = -num / den**2
    var = float(grad @ cov @ grad)
    return r, math.sqrt(max(var, 0.0))


def _zero_area_flags(model, lm: LMResult) -> list[str]:
    """`<area>_consistent_with_zero` for each fitted area within two sigma
    of zero, where a ratio over it is undetermined (or inf on the bound)."""
    return [
        f"{name}_consistent_with_zero"
        for idx, name in enumerate(model.param_names)
        if name.startswith("area_") and lm.params[idx] < 2.0 * math.sqrt(max(lm.cov[idx, idx], 0.0))
    ]


def fit_single_pair(
    psd: Psd,
    centers_hz: tuple[float, float],
    fit_margin_hz: float,
    masks=(),
) -> FitResult:
    """Shared-width two-Lorentzian fit of a motional sideband pair.

    centers_hz = (stokes, antistokes).  Returns the effective width, the two
    areas, their ratio R and the occupancy n_bar = 1/(R-1) with propagated
    uncertainties.
    """
    c_s, c_as = centers_hz
    intervals = [(c_s - fit_margin_hz, c_s + fit_margin_hz), (c_as - fit_margin_hz, c_as + fit_margin_hz)]
    freqs, data = _select_band(psd, intervals, masks)
    floor0 = float(np.median(data))
    _, w_s, a_s = _peak_guess(freqs, data, c_s, fit_margin_hz, floor0)
    _, w_as, a_as = _peak_guess(freqs, data, c_as, fit_margin_hz, floor0)
    gamma0 = max(0.5 * (w_s + w_as), psd.rbw)
    model = SinglePairModel(c_s, c_as)
    span = 2.0 * fit_margin_hz
    p0 = np.array([floor0, gamma0, a_s, a_as])
    lower = np.array([0.0, psd.rbw / 100.0, 0.0, 0.0])
    upper = np.array([10.0 * np.max(data), span, 1e4 * max(a_s, a_as), 1e4 * max(a_s, a_as)])
    lm = _lm_with_reweight(model, p0, lower, upper, freqs, data, psd)
    flags = _zero_area_flags(model, lm)
    r, r_sig = _ratio_with_sigma(lm.cov, lm.params, 2, 3)
    derived = {"ratio": (r, r_sig)}
    if math.isfinite(r) and r > 1.0:
        n_bar = 1.0 / (r - 1.0)
        derived["n_bar"] = (n_bar, r_sig / (r - 1.0) ** 2)
    else:
        flags.append("ratio_below_unity")
        derived["n_bar"] = (math.nan, math.nan)
    if lm.degenerate:
        flags.append("degenerate_covariance")
    return _build_result(model, lm, {"centers_hz": 0.0}, derived, flags, masks)


def fit_double_pair(
    psd: Psd,
    gamma_eff_fixed: float,
    centers_hz: tuple[float, float],
    fit_margin_hz: float,
    masks=(),
) -> FitResult:
    """Constrained four-component sideband fit with the reference width fixed.

    gamma_eff_fixed is angular (rad/s), taken from a detuned-reference
    single_pair fit.  Free parameters: s in [0, 0.99], the four component
    areas (the broad anti-Stokes one is allowed slightly negative, lower
    bound -0.2 x its narrow sibling's initial estimate) and the noise floor.
    Returns s, R_plus, R_minus and the component widths with uncertainties;
    flags each area consistent with zero, and a degeneracy warning when
    s*gamma_eff < 2*rbw (widths unresolved).
    """
    gamma_eff_hz = gamma_eff_fixed / (2.0 * math.pi)
    c_s, c_as = centers_hz
    intervals = [(c_s - fit_margin_hz, c_s + fit_margin_hz), (c_as - fit_margin_hz, c_as + fit_margin_hz)]
    freqs, data = _select_band(psd, intervals, masks)
    floor0 = float(np.median(data))
    _, _, a_s = _peak_guess(freqs, data, c_s, fit_margin_hz, floor0)
    _, _, a_as = _peak_guess(freqs, data, c_as, fit_margin_hz, floor0)
    model = DoublePairModel(c_s, c_as, gamma_eff_hz)
    # s starts at 0.25; each sideband's area starts split evenly
    p0 = np.array([floor0, 0.25, 0.5 * a_s, 0.5 * a_s, 0.5 * a_as, 0.5 * a_as])
    a_cap = 1e4 * max(a_s, a_as)
    lower = np.array([0.0, 0.0, 0.0, 0.0, -0.2 * (0.5 * a_as), 0.0])
    upper = np.array([10.0 * np.max(data), 0.99, a_cap, a_cap, a_cap, a_cap])
    lm = _lm_with_reweight(model, p0, lower, upper, freqs, data, psd)
    s_hat = lm.params[1]
    s_sig = math.sqrt(max(lm.cov[1, 1], 0.0))
    flags = _zero_area_flags(model, lm)
    if s_hat * gamma_eff_hz < 2.0 * psd.rbw:
        flags.append("widths_unresolved")
    r_plus, rp_sig = _ratio_with_sigma(lm.cov, lm.params, 2, 4)
    r_minus, rm_sig = _ratio_with_sigma(lm.cov, lm.params, 3, 5)
    # Total-area ratio: consistency handle against the single_pair fit.
    tot_n = lm.params[2] + lm.params[3]
    tot_d = lm.params[4] + lm.params[5]
    grad = np.array([0.0, 0.0, 1.0 / tot_d, 1.0 / tot_d, -tot_n / tot_d**2, -tot_n / tot_d**2])
    r_tot_sig = math.sqrt(max(float(grad @ lm.cov @ grad), 0.0))
    derived = {
        "s": (s_hat, s_sig),
        "r_plus": (r_plus, rp_sig),
        "r_minus": (r_minus, rm_sig),
        "ratio_total": (tot_n / tot_d, r_tot_sig),
        "gamma_plus_hz": (gamma_eff_hz * (1.0 + s_hat), gamma_eff_hz * s_sig),
        "gamma_minus_hz": (gamma_eff_hz * (1.0 - s_hat), gamma_eff_hz * s_sig),
    }
    if lm.degenerate:
        flags.append("degenerate_covariance")
    return _build_result(model, lm, {"gamma_eff_hz": gamma_eff_hz}, derived, flags, masks)


def fit_quadrature(
    psd: Psd,
    delta_lo_hz: float,
    fit_margin_hz: float,
    masks=(),
) -> FitResult:
    """Fit of one demodulated quadrature channel: floor plus two equal
    Lorentzians at +-delta_lo with one free area (the quadrature variance in
    channel units) and one free width.

    Only the upper half [delta_lo, delta_lo + margin] is fitted: the channel
    is a modulated real process, so its density mirrors exactly around
    delta_lo and the lower half duplicates the same information (which would
    silently halve every reported variance).
    """
    intervals = [(delta_lo_hz, delta_lo_hz + fit_margin_hz)]
    freqs, data = _select_band(psd, intervals, masks)
    floor0 = float(np.median(data))
    _, w0, a0 = _peak_guess(freqs, data, delta_lo_hz, fit_margin_hz, floor0)
    model = QuadratureModel(delta_lo_hz)
    p0 = np.array([floor0, a0, max(w0, psd.rbw)])
    lower = np.array([0.0, 0.0, psd.rbw / 100.0])
    upper = np.array([10.0 * np.max(data), 1e4 * a0, 2.0 * fit_margin_hz])
    lm = _lm_with_reweight(model, p0, lower, upper, freqs, data, psd)
    flags = ["degenerate_covariance"] if lm.degenerate else []
    derived = {
        "sigma2": (float(lm.params[1]), math.sqrt(max(lm.cov[1, 1], 0.0))),
        "gamma_hz": (float(lm.params[2]), math.sqrt(max(lm.cov[2, 2], 0.0))),
    }
    return _build_result(model, lm, {"delta_lo_hz": delta_lo_hz}, derived, flags, masks)
