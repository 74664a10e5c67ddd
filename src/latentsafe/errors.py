"""Exception types shared across the toolkit."""


class LatentSafeError(Exception):
    """Base class for all toolkit errors."""


class EncodingError(LatentSafeError):
    """Unknown or out-of-range state, action, latent, or mediator identifier."""


class ModelError(LatentSafeError):
    """Model tables violate a structural invariant (shape, normalization, range)."""


class ConfigurationError(LatentSafeError):
    """Invalid configuration: missing policy rows, unknown identifiers, bad parameters."""


class PositivityError(LatentSafeError):
    """Behavioral support violation: a required conditioning cell has zero probability
    or was never observed. Carries the offending cell for diagnosis."""

    def __init__(self, message: str, cell=None):
        super().__init__(message)
        self.cell = cell


class EpisodeEndError(LatentSafeError):
    """A transition was requested from an augmented state with no remaining time."""


class DatasetFormError(LatentSafeError):
    """Dataset is in the wrong form (raw vs converted) for the requested operation."""


class UnsupportedEnvironmentError(LatentSafeError):
    """The environment lacks a structure (e.g. a mediator) required by the operation."""


class EnumerationSizeError(LatentSafeError):
    """Brute-force enumeration would exceed the configured size guard."""


class CertificateUnavailableError(LatentSafeError):
    """No Q row is available for the augmented state (x, k)."""

    def __init__(self, x: int, k: int):
        super().__init__(f"no fitted Q row for augmented state (x={x}, k={k})")
        self.cell = (x, k)


class FittedQConvergenceError(LatentSafeError):
    """The row cap stopped the fitted-Q pass before the table was complete.

    The residual, the largest entry of the next row, is attached for diagnosis.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
