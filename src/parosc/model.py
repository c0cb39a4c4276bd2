"""Closed-form physics of the parametrically squeezed oscillator.

All rates are angular (rad/s).  Sign convention: delta_pump > 0 denotes red
detuning of the cooling tone, so that positive delta_pump yields a positive
parametric rate.  n_bar is the steady-state occupancy under cooling and is a
direct input; it is never derived from pump power here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AntiDampedError, ParametricInstabilityError
from .spectral import Psd


@dataclass(frozen=True)
class OscillatorParams:
    """Mechanical mode: frequency, intrinsic damping and occupancy.

    omega_m and gamma_m are angular rates (rad/s).
    """

    omega_m: float
    gamma_m: float
    n_bar: float

    def __post_init__(self):
        if not self.omega_m > 0:
            raise ValueError(f"omega_m must be > 0, got {self.omega_m}")
        if self.gamma_m < 0:
            raise ValueError(f"gamma_m must be >= 0, got {self.gamma_m}")
        if self.n_bar < 0:
            raise ValueError(f"n_bar must be >= 0, got {self.n_bar}")


@dataclass(frozen=True)
class CavityPumpParams:
    """Cavity linewidth and two-tone pump configuration (angular rates).

    epsilon_c is the cooling-tone fraction of the total pump power.
    delta_pump is the mean detuning of the pump tones from cavity resonance.
    Absolute optical frequencies never appear: only differences do.
    """

    kappa: float
    g: float
    epsilon_c: float
    delta_pump: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if not 0.0 <= self.epsilon_c <= 1.0:
            raise ValueError(f"epsilon_c must lie in [0, 1], got {self.epsilon_c}")


@dataclass(frozen=True)
class SidebandWeights:
    """Numerators of the four Lorentzian sideband components, in quanta.

    antistokes_broad may be negative (quantum-squeezing regime, s > 2*n_bar);
    it is reported as-is, never clamped.
    """

    stokes_narrow: float
    stokes_broad: float
    antistokes_narrow: float
    antistokes_broad: float

    @property
    def quantum_squeezed(self) -> bool:
        return self.antistokes_broad < 0.0

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (
            self.stokes_narrow,
            self.stokes_broad,
            self.antistokes_narrow,
            self.antistokes_broad,
        )


@dataclass(frozen=True)
class RegimeReport:
    stable: bool
    quantum_squeezed: bool
    quantum_squeezing_reachable: bool


def gamma_par(pump: CavityPumpParams) -> float:
    """Parametric modulation rate 4 g^2 sqrt(eps(1-eps)) d / (d^2 + kappa^2/4).

    Total on valid parameters; the sign follows delta_pump.
    """
    d = pump.delta_pump
    return (
        4.0
        * pump.g**2
        * math.sqrt(pump.epsilon_c * (1.0 - pump.epsilon_c))
        * d
        / (d**2 + pump.kappa**2 / 4.0)
    )


def gamma_eff(pump: CavityPumpParams, osc: OscillatorParams) -> float:
    """Total amplitude damping: intrinsic plus the four-term optical part.

    The cooling tone contributes the two epsilon_c terms (evaluated at
    detunings delta_pump and delta_pump - 2*omega_m), the modulation tone the
    two (1 - epsilon_c) terms (at delta_pump + 2*omega_m and delta_pump).
    A non-positive return value flags the anti-damping regime; downstream
    synthesis must refuse it (no exception is raised here).
    """
    d = pump.delta_pump
    k2 = pump.kappa**2 / 4.0
    om2 = 2.0 * osc.omega_m
    eps = pump.epsilon_c
    optical = (
        eps / (d**2 + k2)
        - eps / ((d - om2) ** 2 + k2)
        + (1.0 - eps) / ((d + om2) ** 2 + k2)
        - (1.0 - eps) / (d**2 + k2)
    )
    return osc.gamma_m + pump.g**2 * pump.kappa * optical


def squeeze_param(pump: CavityPumpParams, osc: OscillatorParams) -> float:
    """Parametric gain s = gamma_par / gamma_eff.

    The coupling g cancels in the ratio whenever gamma_m is negligible.
    Raises AntiDampedError when gamma_eff <= 0.
    """
    ge = gamma_eff(pump, osc)
    if ge <= 0.0:
        raise AntiDampedError(
            f"gamma_eff = {ge:.6g} rad/s <= 0 (anti-damping regime); "
            "s is undefined"
        )
    return gamma_par(pump) / ge


def sideband_weights(n_bar: float, s: float) -> SidebandWeights:
    """Lorentzian numerators of the Stokes / anti-Stokes spectral components."""
    if n_bar < 0:
        raise ValueError(f"n_bar must be >= 0, got {n_bar}")
    half = 0.5 * s
    return SidebandWeights(
        stokes_narrow=1.0 + n_bar - half,
        stokes_broad=1.0 + n_bar + half,
        antistokes_narrow=n_bar + half,
        antistokes_broad=n_bar - half,
    )


def ratios(n_bar: float, s: float) -> tuple[float, float, float]:
    """Sideband asymmetries (R, R_plus, R_minus).

    R is the single-Lorentzian ratio (n_bar+1)/n_bar without parametric
    drive; R_plus and R_minus are the broad- and narrow-component ratios.
    Exactly at s = 2*n_bar the broad anti-Stokes weight vanishes and R_plus
    is reported as +inf (the quantum-squeezing threshold).
    """
    if not n_bar > 0:
        raise ValueError(f"ratios require n_bar > 0, got {n_bar}")
    half = 0.5 * s
    r_plain = (n_bar + 1.0) / n_bar
    denom_plus = n_bar - half
    if denom_plus == 0.0:
        r_plus = math.inf
    else:
        r_plus = (n_bar + 1.0 + half) / denom_plus
    r_minus = (n_bar + 1.0 - half) / (n_bar + half)
    return r_plain, r_plus, r_minus


def quadrature_variances(n_bar: float, s: float) -> tuple[float, float]:
    """Stationary quadrature variances in quanta units.

    X is the over-damped (squeezed) quadrature paired with the broad width
    gamma_plus; Y is under-damped (anti-squeezed) and pairs with gamma_minus:

        var_x = (2 n_bar + 1) / (4 (1 + s)),  var_y = (2 n_bar + 1) / (4 (1 - s))
    """
    if s >= 1.0:
        raise ParametricInstabilityError(
            f"s = {s:.6g} >= 1: stationary parametric drive is unstable"
        )
    if s < 0.0:
        raise ValueError(f"s must be >= 0, got {s}")
    base = (2.0 * n_bar + 1.0) / 4.0
    return base / (1.0 + s), base / (1.0 - s)


def analytic_sideband_psd(
    n_bar: float,
    s: float,
    gamma_eff: float,
    side: str,
    omega_grid: np.ndarray,
) -> Psd:
    """Closed-form two-Lorentzian sideband PSD evaluated on omega_grid (rad/s).

    side is "stokes" or "antistokes"; the grid holds offsets from the
    sideband centre.  Densities follow the (1/2pi) integral convention, so
    the returned per-Hz density integrates to the sideband occupancy in
    quanta.  The total curve is non-negative for
    every frequency even when the broad anti-Stokes weight is negative.
    """
    if not 0.0 <= s < 1.0:
        raise ParametricInstabilityError(f"analytic spectra require 0 <= s < 1, got {s}")
    w = sideband_weights(n_bar, s)
    if side == "stokes":
        w_narrow, w_broad = w.stokes_narrow, w.stokes_broad
    elif side == "antistokes":
        w_narrow, w_broad = w.antistokes_narrow, w.antistokes_broad
    else:
        raise ValueError(f"side must be 'stokes' or 'antistokes', got {side!r}")
    g_plus = gamma_eff * (1.0 + s)
    g_minus = gamma_eff * (1.0 - s)
    omega = np.asarray(omega_grid, dtype=float)
    density = 0.5 * gamma_eff * (
        w_narrow / (omega**2 + g_minus**2 / 4.0)
        + w_broad / (omega**2 + g_plus**2 / 4.0)
    )
    return Psd(
        freqs=omega / (2.0 * math.pi),
        density=density,
        rbw=float(np.min(np.diff(omega_grid)) / (2.0 * math.pi)) if len(np.atleast_1d(omega_grid)) > 1 else 0.0,
        n_averages=0,
        effective_averages=0.0,
        window="analytic",
        onesided=False,
    )


def thresholds(n_bar: float, s: float) -> RegimeReport:
    """Regime predicates: stability (s < 1), quantum squeezing (s > 2 n_bar),
    and whether both can hold at once (requires n_bar < 0.5)."""
    return RegimeReport(
        stable=s < 1.0,
        quantum_squeezed=s > 2.0 * n_bar,
        quantum_squeezing_reachable=n_bar < 0.5,
    )


@dataclass(frozen=True)
class DerivedRates:
    """All rates and dimensionless figures derived from one parameter set.

    gamma_plus = gamma_eff * (1 + s) pairs with the over-damped X quadrature,
    gamma_minus = gamma_eff * (1 - s) with the under-damped Y quadrature.
    Pipelines share a single instance so fits and theory overlays can never
    drift apart.
    """

    gamma_eff: float
    gamma_par: float
    s: float
    gamma_plus: float
    gamma_minus: float
    weights: SidebandWeights
    r_plain: float
    r_plus: float
    r_minus: float
    n_bar: float

    @classmethod
    def from_target(cls, gamma_eff: float, s: float, n_bar: float) -> "DerivedRates":
        """Build rates directly from (gamma_eff, s, n_bar), bypassing Eq.-level
        pump parameters.  Used for desk-scale synthesis targets."""
        if gamma_eff <= 0.0:
            raise AntiDampedError(f"gamma_eff must be > 0, got {gamma_eff}")
        if s >= 1.0:
            raise ParametricInstabilityError(
                f"s = {s:.6g} >= 1: stationary parametric drive is unstable"
            )
        if s < 0.0:
            raise ValueError(f"s must be >= 0, got {s}")
        return cls._build(gamma_eff, s * gamma_eff, s, n_bar)

    @classmethod
    def from_params(cls, pump: CavityPumpParams, osc: OscillatorParams) -> "DerivedRates":
        """Derive all rates from the physical pump/oscillator parameters.

        Raises AntiDampedError for gamma_eff <= 0 and
        ParametricInstabilityError for s >= 1.
        """
        ge = gamma_eff(pump, osc)
        if ge <= 0.0:
            raise AntiDampedError(
                f"gamma_eff = {ge:.6g} rad/s <= 0 (anti-damping regime)"
            )
        gp = gamma_par(pump)
        s = gp / ge
        if s >= 1.0:
            raise ParametricInstabilityError(
                f"s = {s:.6g} >= 1: stationary parametric drive is unstable"
            )
        if s < 0.0:
            raise ValueError(
                f"s = {s:.6g} < 0: delta_pump sign gives anti-squeezing; "
                "flip the detuning convention"
            )
        return cls._build(ge, gp, s, osc.n_bar)

    @classmethod
    def _build(cls, ge: float, gp: float, s: float, n_bar: float) -> "DerivedRates":
        """The widths, weights and ratios of checked (gamma_eff, gamma_par, s)."""
        r_plain, r_plus, r_minus = ratios(n_bar, s) if n_bar > 0 else (math.inf, math.inf, math.inf)
        return cls(
            gamma_eff=ge,
            gamma_par=gp,
            s=s,
            gamma_plus=ge * (1.0 + s),
            gamma_minus=ge * (1.0 - s),
            weights=sideband_weights(n_bar, s),
            r_plain=r_plain,
            r_plus=r_plus,
            r_minus=r_minus,
            n_bar=n_bar,
        )

    def regime(self) -> RegimeReport:
        return thresholds(self.n_bar, self.s)

    def quadrature_variances(self) -> tuple[float, float]:
        return quadrature_variances(self.n_bar, self.s)
