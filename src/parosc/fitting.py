"""Least-squares estimation of the sideband and quadrature spectra.

Every fit uses one model, `LorentzianPairModel`: a flat floor plus
unit-area Lorentzian pairs, each with a free area and a width
scale * (offset + sign * theta) set by the model's one nonlinear parameter
theta (the shared width of the reference and quadrature fits, the parametric
gain s of the double fit).  `SinglePairModel`, `DoublePairModel` and
`QuadratureModel` build its three instances.  The fits run on density data
with per-bin sigma = density / sqrt(effective averages), the chi-square
statistics of averaged periodograms.  The floor and the areas enter linearly
and are profiled out (variable projection; Golub & Pereyra, Inverse
Problems 19, R1, 2003): every trial theta gets them from a weighted linear
solve on the model's `columns`, and theta is scanned on a fixed grid over
its bounds and refined by bounded Brent.  The covariance comes from the
analytic Jacobian at the optimum.

Both solvers are numpy restatements of scipy.optimize's, with their bytes,
so the package does not import scipy.optimize (and with it scipy.sparse and
scipy.spatial): `_bounded_brent` is minimize_scalar(method="bounded"), and
`_bounded_lstsq`, used when the unbounded solve breaks a lower bound,
solves the free variables of every set held at the bound as
lsq_linear(method="bvls") does and keeps the least-cost feasible one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SpectralError
from .spectral import Psd, bin_step_for

# fewest bins a fit band may select
MIN_BAND_BINS = 8
# points of the nonlinear parameter's grid, endpoints (its bounds) included
GRID_POINTS = 40
# cost evaluations after which bounded Brent stops, unconverged
MAX_BRENT_EVALUATIONS = 500

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


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


@dataclass(frozen=True)
class LorentzianPairModel:
    """Floor + Lorentzian pairs (`_pair`, mirror images included so the model
    matches the folded one-sided density exactly), each with its own area.

    Pair j sits at `pairs[j][0]` with width scale * (offset + sign_j * theta),
    sign_j = `pairs[j][1]`; theta, at index `k` of the parameters, is the one
    nonlinear parameter.  The other parameters are the floor (index 0) and
    the pair areas in pair order, all linear.
    """

    model_id: str
    param_names: tuple
    k: int
    pairs: tuple
    scale: float = 1.0
    offset: float = 0.0

    def _widths(self, theta):
        return [self.scale * (self.offset + sign * theta) for _, sign in self.pairs]

    def columns(self, theta: float, f: np.ndarray) -> np.ndarray:
        """The floor and area columns of the Jacobian at `theta`, which do
        not depend on the linear parameters (Fortran order, as `lstsq`
        takes them)."""
        cols = np.empty((len(f), 1 + len(self.pairs)), order="F")
        cols[:, 0] = 1.0
        for j, ((center, _), width) in enumerate(zip(self.pairs, self._widths(theta)), 1):
            cols[:, j] = _pair(f, center, width)
        return cols

    def value(self, p: np.ndarray, f: np.ndarray) -> np.ndarray:
        # term by term in pair order, not as one matrix product: the fitted
        # numbers depend on the summation order
        v, *areas = np.delete(p, self.k)
        for area, col in zip(areas, self.columns(p[self.k], f).T[1:]):
            v = v + area * col
        return v

    def jacobian(self, p: np.ndarray, f: np.ndarray) -> np.ndarray:
        theta = p[self.k]
        areas = np.delete(p, self.k)[1:]
        dtheta = 0.0
        for area, (center, sign), width in zip(areas, self.pairs, self._widths(theta)):
            dtheta = dtheta + (sign * area) * _dpair(f, center, width)
        jac = np.empty((len(f), len(p)))
        jac[:, np.arange(len(p)) != self.k] = self.columns(theta, f)
        jac[:, self.k] = self.scale * dtheta
        return jac


def SinglePairModel(center_stokes: float, center_antistokes: float) -> LorentzianPairModel:
    """One pair per motional sideband, with one shared width gamma_hz."""
    names = ("floor", "gamma_hz", "area_stokes", "area_antistokes")
    return LorentzianPairModel("single_pair", names, 1, ((center_stokes, 1.0), (center_antistokes, 1.0)))


def DoublePairModel(center_stokes: float, center_antistokes: float, gamma_eff_hz: float) -> LorentzianPairModel:
    """A broad and a narrow pair per sideband, the widths tied to one
    parametric gain through the fixed reference width:
    gamma_plus = gamma_eff (1+s), gamma_minus = gamma_eff (1-s)."""
    names = (
        "floor", "s", "area_broad_stokes", "area_narrow_stokes",
        "area_broad_antistokes", "area_narrow_antistokes",
    )
    pairs = ((center_stokes, 1.0), (center_stokes, -1.0), (center_antistokes, 1.0), (center_antistokes, -1.0))
    return LorentzianPairModel("double_pair", names, 1, pairs, scale=gamma_eff_hz, offset=1.0)


def QuadratureModel(f_lo: float) -> LorentzianPairModel:
    """The demodulated-channel shape: one pair at +-delta_lo, with one area
    and one width gamma_hz."""
    return LorentzianPairModel("quadrature", ("floor", "area", "gamma_hz"), 2, ((f_lo, 1.0),))


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


def _bounded_lstsq(a, b, lower):
    """The least-squares x >= lower, as the least-cost feasible candidate
    over every set of variables held at `lower` (at most 2^5 = 32 for a
    double fit).  The free variables are solved as
    scipy.optimize.lsq_linear(method="bvls") solves them, so where BVLS
    holds its bounded variables exactly at `lower` the two agree bit for
    bit; unlike BVLS, the result never lies below `lower`."""
    best, best_cost = lower, math.inf
    for held in itertools.product((False, True), repeat=a.shape[1]):
        held = np.array(held)
        free = np.flatnonzero(~held)
        x = lower * held
        if free.size:
            x[free] = np.linalg.lstsq(a[:, free], b - a.dot(x), rcond=None)[0]
        if np.all(x >= lower):
            r = b - a @ x
            cost = r @ r
            if cost < best_cost:
                best, best_cost = x, cost
    return best


def _linear_solve(model, theta, lower, freqs, data, sigma):
    """Parameters of `model` with its nonlinear one at `theta` and the linear
    ones from a weighted least-squares solve on their columns, bounded below
    by `lower`.  Returns (params, weighted cost)."""
    a = model.columns(theta, freqs) / sigma[:, None]
    b = data / sigma
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    if np.any(x < lower):
        x = _bounded_lstsq(a, b, lower)
    r = b - a @ x
    return np.insert(x, model.k, theta), float(r @ r)


def _bounded_brent(cost, a, b, xatol):
    """Minimize cost(x) over [a, b] by Brent's golden-section and parabolic
    steps: scipy.optimize.minimize_scalar(cost, bounds=(a, b),
    method="bounded", options={"xatol": xatol}) with its arithmetic (scipy's
    `_minimize_scalar_bounded`).  Returns (x, cost(x), evaluations,
    converged); stopping at MAX_BRENT_EVALUATIONS or on a NaN is not
    converging."""
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = cost(xf)
    num = 1
    fu = np.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    converged = True
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:
            # a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if np.abs(p) < np.abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e

        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = cost(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= MAX_BRENT_EVALUATIONS:
            converged = False
            break

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        converged = False
    return xf, fx, num, converged


def _profile_pass(model, grid, lower, freqs, data, sigma):
    """Minimize the profiled cost over the nonlinear parameter: the best
    point of `grid`, refined by bounded Brent between its neighbours.
    Returns (params, cost evaluations, Brent's convergence)."""

    def cost(theta):
        return _linear_solve(model, theta, lower, freqs, data, sigma)[1]

    costs = [cost(t) for t in grid]
    i = int(np.argmin(costs))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    # a tiny absolute tolerance leaves Brent's relative one, sqrt(eps)*|theta|
    x, fx, evaluations, converged = _bounded_brent(cost, lo, hi, 1e-10 * grid[-1])
    # Brent never evaluates the bracket's ends: an optimum on a bound (s = 0)
    # is the grid point itself
    theta = x if fx < costs[i] else grid[i]
    params = _linear_solve(model, theta, lower, freqs, data, sigma)[0]
    return params, len(grid) + evaluations, converged


def _profile_fit(model, grid, lower, freqs, data, psd: Psd) -> _Optimum:
    """Two profile passes: the first weighted by the data, the second by the
    first pass's model.

    Weighting with the measured density biases amplitudes low by ~2/n_eff
    (upward fluctuations get down-weighted); replacing the density with the
    first-pass model prediction removes that bias at first order.  The
    covariance is (J^T J)^-1 at the optimum scaled by the reduced chi-square;
    a near-singular normal matrix falls back to the pseudo-inverse and
    records the null-space direction.
    """
    first, n_first, ok_first = _profile_pass(model, grid, lower, freqs, data, _sigma_for(data, psd))
    sigma = _sigma_for(model.value(first, freqs), psd)
    p, n_second, ok_second = _profile_pass(model, grid, lower, freqs, data, sigma)
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
        cov = np.linalg.pinv(normal) * reduced_chi2
    else:
        cov = np.linalg.inv(normal) * reduced_chi2
    return _Optimum(p, cov, reduced_chi2, n_first + n_second, ok_first and ok_second, direction)


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
        }


def _in_intervals(freqs: np.ndarray, intervals) -> np.ndarray:
    sel = np.zeros(len(freqs), dtype=bool)
    for lo, hi in intervals:
        sel |= (freqs >= lo) & (freqs <= hi)
    return sel


def sideband_intervals(centers_hz, fit_margin_hz: float) -> list[tuple[float, float]]:
    """The sideband fits' band: fit_margin_hz either side of each centre."""
    return [(c - fit_margin_hz, c + fit_margin_hz) for c in centers_hz]


def quadrature_intervals(delta_lo_hz: float, fit_margin_hz: float) -> list[tuple[float, float]]:
    """The quadrature fit's band: the upper half of the channel's line."""
    return [(delta_lo_hz, delta_lo_hz + fit_margin_hz)]


def band_bins(segment_len: int, sample_rate: float, intervals) -> int:
    """Bins of the Welch axis rfftfreq(segment_len, 1/sample_rate) inside
    `intervals`; exact below MIN_BAND_BINS, at least MIN_BAND_BINS otherwise.
    Only the first MIN_BAND_BINS + 2 bins of each interval are built, so the
    cost does not grow with the segment."""
    step = 1.0 / (segment_len * (1.0 / sample_rate))
    last = segment_len // 2
    idx = set()
    for lo, hi in intervals:
        first = int(np.clip(np.floor(lo / step) - 1, 0, last))
        idx.update(range(first, min(first + MIN_BAND_BINS + 2, last + 1)))
    return int(np.sum(_in_intervals(np.array(sorted(idx)) * step, intervals)))


def _select_band(psd: Psd, intervals):
    freqs = psd.freqs
    sel = _in_intervals(freqs, intervals)
    if np.sum(sel) < MIN_BAND_BINS:
        raise SpectralError(f"fit band selects fewer than {MIN_BAND_BINS} bins")
    if not np.all(np.isfinite(psd.density[sel])):
        # an overflowed Welch power (a detector gain or shot noise far out of
        # range) has no least-squares fit
        raise SpectralError("fit band holds a non-finite density")
    step = bin_step_for(psd.window)
    idx = np.flatnonzero(sel)[::step]
    return freqs[idx], psd.density[idx]


def _build_result(model, opt: _Optimum, fixed, derived, flags) -> FitResult:
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


def fit_single_pair(psd: Psd, centers_hz: tuple[float, float], fit_margin_hz: float) -> FitResult:
    """Shared-width two-Lorentzian fit of a motional sideband pair.

    centers_hz = (stokes, antistokes).  The width is profiled over
    [rbw/100, 2*fit_margin_hz]; the floor and the areas are >= 0.  Returns the
    effective width, the two areas, their ratio R and the occupancy
    n_bar = 1/(R-1) with propagated uncertainties.
    """
    freqs, data = _select_band(psd, sideband_intervals(centers_hz, fit_margin_hz))
    model = SinglePairModel(*centers_hz)
    opt = _profile_fit(model, _width_grid(psd, fit_margin_hz), np.zeros(3), freqs, data, psd)
    flags = _zero_area_flags(model, opt)
    r, r_sig = _ratio_with_sigma(opt.cov, opt.params, [2], [3])
    derived = {"ratio": (r, r_sig)}
    if math.isfinite(r) and r > 1.0:
        n_bar = 1.0 / (r - 1.0)
        derived["n_bar"] = (n_bar, r_sig / (r - 1.0) ** 2)
    else:
        flags.append("ratio_below_unity")
        derived["n_bar"] = (math.nan, math.nan)
    fixed = {"center_stokes_hz": centers_hz[0], "center_antistokes_hz": centers_hz[1]}
    return _build_result(model, opt, fixed, derived, flags)


def fit_double_pair(
    psd: Psd, gamma_eff_fixed: float, centers_hz: tuple[float, float], fit_margin_hz: float
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
    freqs, data = _select_band(psd, sideband_intervals(centers_hz, fit_margin_hz))
    plain, _ = _linear_solve(
        SinglePairModel(*centers_hz), gamma_eff_hz, np.zeros(3), freqs, data, _sigma_for(data, psd)
    )
    model = DoublePairModel(*centers_hz, gamma_eff_hz)
    lower = np.array([0.0, 0.0, 0.0, -0.1 * plain[3], 0.0])
    opt = _profile_fit(model, np.linspace(0.0, 0.99, GRID_POINTS), lower, freqs, data, psd)
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
    return _build_result(model, opt, {"gamma_eff_hz": gamma_eff_hz}, derived, flags)


def fit_quadrature(psd: Psd, delta_lo_hz: float, fit_margin_hz: float) -> FitResult:
    """Fit of one demodulated quadrature channel: floor plus two equal
    Lorentzians at +-delta_lo with one free area (the quadrature variance in
    channel units) and one free width, profiled over [rbw/100, 2*fit_margin_hz].

    Only the upper half [delta_lo, delta_lo + margin] is fitted: the channel
    is a modulated real process, so its density mirrors exactly around
    delta_lo and the lower half duplicates the same information (which would
    silently halve every reported variance).
    """
    freqs, data = _select_band(psd, quadrature_intervals(delta_lo_hz, fit_margin_hz))
    model = QuadratureModel(delta_lo_hz)
    opt = _profile_fit(model, _width_grid(psd, fit_margin_hz), np.zeros(2), freqs, data, psd)
    derived = {
        "sigma2": (float(opt.params[1]), math.sqrt(max(opt.cov[1, 1], 0.0))),
        "gamma_hz": (float(opt.params[2]), math.sqrt(max(opt.cov[2, 2], 0.0))),
    }
    return _build_result(model, opt, {"delta_lo_hz": delta_lo_hz}, derived, [])
