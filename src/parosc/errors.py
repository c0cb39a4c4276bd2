"""Exception types shared across the package."""


class ParoscError(Exception):
    """Base class for all package errors."""


class AntiDampedError(ParoscError):
    """Total effective damping came out non-positive; synthesis must refuse it."""


class ParametricInstabilityError(ParoscError):
    """Requested parametric gain s >= 1 (unstable stationary drive)."""


class QuantumSqueezingRegimeError(ParoscError):
    """Synthesis refused: a sideband component weight is negative (s > 2*n_bar)."""


class ScheduleError(ParoscError):
    """Drive schedule cannot be realised on the requested grid."""


class AliasingError(ParoscError):
    """A composed tone would exceed the Nyquist frequency."""


class FilterDesignError(ParoscError):
    """Lock-in low-pass constraints unsatisfiable at the given sample rate."""


class SpectralError(ParoscError):
    """PSD estimation precondition violated (too few segments, bad band...)."""


class ConfigError(ParoscError):
    """Invalid run configuration (exit code 2 at the CLI)."""


class PipelineError(ParoscError):
    """A pipeline stage failed; the message names the stage."""
