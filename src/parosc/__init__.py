"""Simulation and spectral analysis of a parametrically squeezed
optomechanical oscillator measured by phase-coherent heterodyne detection."""

# set first: the pipeline records it in every report
__version__ = "0.1.0"

from .errors import (
    AliasingError,
    AntiDampedError,
    ConfigError,
    FilterDesignError,
    ParametricInstabilityError,
    ParoscError,
    PipelineError,
    QuantumSqueezingRegimeError,
    ScheduleError,
    SpectralError,
)
from .model import (
    CavityPumpParams,
    DerivedRates,
    OscillatorParams,
    RegimeReport,
    SidebandWeights,
    analytic_sideband_psd,
    gamma_eff,
    gamma_par,
    quadrature_variances,
    ratios,
    sideband_weights,
    squeeze_param,
    thresholds,
)
from .spectral import Psd, Welch, chi2_indistinguishable, welch_psd_chunks
from .synth import (
    Schedule,
    SimGrid,
    ou_step,
    simulate_scheduled_envelopes,
    simulate_scheduled_quadratures,
)
from .detect import (
    DetectionParams,
    compose_heterodyne_components,
    compose_heterodyne_wigner,
    lockin_demodulate,
    optimize_demod_phase,
    schedule_drive,
)
from .fitting import FitResult, fit_double_pair, fit_quadrature, fit_single_pair
from .config import RunConfig, validate_config
from .pipeline import run_single, run_sweep_ratio_vs_s, run_sweep_variance_vs_tone_ratio
