"""Exception hierarchy for the snoise toolkit, and the number rule.

Every exception carries a short machine-readable ``code`` which the CLI
prints on stderr, so scripted callers can dispatch on failure kind without
parsing prose.  :func:`check_finite` is the number rule's home; the path and
time rules live in ``point_process``, the tolerance rule in ``quadrature``.
"""

import numpy as np


class SnoiseError(Exception):
    code = "SnoiseError"


class NonFiniteError(SnoiseError):
    """An input, or a kernel or model function's value, is NaN or infinite."""

    code = "NonFinite"


def check_finite(**named) -> None:
    """Raise :class:`NonFiniteError` naming the first of ``named`` (numbers
    or array-likes, complex allowed; ``None`` passes) that holds NaN or +-inf,
    with its first such value."""
    for name, value in named.items():
        if value is None or np.isfinite(value).all():
            continue
        bad = next(v for v in np.ravel(value) if not np.isfinite(v))
        raise NonFiniteError(f"{name} must be finite, got {bad}")


class DimensionMismatchError(SnoiseError):
    """A mark vector does not match the declared mark dimension."""

    code = "DimensionMismatch"


class NotSeparableError(SnoiseError):
    """Kernel is not of the product form x1 * H(t) over the probe set."""

    code = "NotSeparable"


class ZeroAtOriginError(SnoiseError):
    """H(0) vanishes, so the Markov classification is undefined."""

    code = "ZeroAtOrigin"


class InvalidBoundError(SnoiseError):
    """A probed jump rate lay outside [0, majorant]; thinning would bias."""

    code = "InvalidBound"


class QuadratureFailureError(SnoiseError):
    """Adaptive refinement exhausted its depth limit without converging."""

    code = "QuadratureFailure"


class UnsupportedMarksError(SnoiseError):
    """The mark distribution's integration mode cannot serve this operation."""

    code = "UnsupportedMarks"


class IntegrabilityFailureError(SnoiseError):
    """A required integrability condition failed its numerical check."""

    code = "IntegrabilityFailure"


class ExplosionGuardError(SnoiseError):
    """Event count exceeded the configured cap during simulation."""

    code = "ExplosionGuard"


class BlowUpError(SnoiseError):
    """An ODE solution exceeded the overflow guard before the horizon."""

    code = "BlowUp"


class MgfDivergesError(SnoiseError):
    """A required exponential moment is infinite or non-finite."""

    code = "MgfDiverges"


class DegenerateJumpsError(SnoiseError):
    """Jump-risk denominator vanishes; no jump risk to absorb the drift."""

    code = "DegenerateJumps"


class ParameterError(ValueError):
    """A model parameter is out of range; ``field`` names the parameter."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field} {message}")
        self.field = field


class ConfigError(SnoiseError):
    """Invalid experiment configuration; ``field`` names the offending key."""

    code = "ConfigError"

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
