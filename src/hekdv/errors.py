"""Exception types shared across the package."""


class HekdvError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HekdvError):
    """Malformed configuration: missing weights, bad parameters, unknown keys."""


class ZeroDenominatorError(HekdvError, ZeroDivisionError):
    """A rational function was constructed with a zero denominator."""


class NotSymmetricError(HekdvError):
    """A polynomial expected to be symmetric in the two curve points is not."""


class SingularExpansionError(HekdvError):
    """Newton lifting hit a non-unit derivative; the series branch is singular."""


class ZeroDivisorError(HekdvError):
    """Inversion of an element that is not a unit of its ring: a quotient
    ring's zero divisor, or on the symmetric square a denominator other
    than c * X1^i * X2^j * (X1 - X2)^k."""


class ModeError(HekdvError):
    """Operation requires numeric (or symbolic) curve coefficients."""


class MemoryCapExceeded(HekdvError):
    """A symbolic expansion would exceed the configured memory cap.

    The cap is controlled by the environment variable HEKDV_MEM_CAP_MB.
    """


class SeedError(HekdvError):
    """Simulation seed point rejected: off-curve, coincident, or singular."""


class SingularityAbort(HekdvError):
    """Integration aborted near the singular set; carries the partial trajectory."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class StepBudgetExhausted(SingularityAbort):
    """Integration used its step budget before reaching the requested time."""
