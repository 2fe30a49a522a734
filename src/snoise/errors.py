"""Exception hierarchy for the snoise toolkit.

Every exception carries a short machine-readable ``code`` which the CLI
prints on stderr, so scripted callers can dispatch on failure kind without
parsing prose.
"""


class SnoiseError(Exception):
    code = "SnoiseError"


class NonFiniteError(SnoiseError):
    """A kernel or model function returned NaN or infinity."""

    code = "NonFinite"


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
