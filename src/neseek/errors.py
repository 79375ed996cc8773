"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps them to distinct exit codes.
"""


class NeseekError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(NeseekError, ValueError):
    """Matrix or vector shapes are inconsistent with the operation."""


class SingularMatrixError(NeseekError):
    """A linear solve hit a (numerically) singular matrix."""


class NonUniqueSolutionError(NeseekError):
    """Sylvester spectra overlap: the equation has no unique solution."""


class SynthesisError(NeseekError):
    """Gain synthesis failed (detectability, stabilizability, or CARE)."""


class DomainError(NeseekError, ValueError):
    """Operation applied outside its domain (wrong graph kind, singular D)."""


class AssumptionError(NeseekError):
    """A required standing assumption fails for the chosen strategy."""

    def __init__(self, number, message):
        super().__init__(message)
        self.number = number


class FirewallViolation(NeseekError):
    """An agent tried to read data from a non-neighbor."""


class DivergenceError(NeseekError):
    """Simulation state became non-finite."""

    def __init__(self, message, t_bad=None):
        super().__init__(message)
        self.t_bad = t_bad


class ScenarioError(NeseekError, ValueError):
    """Scenario or controller file failed to parse or validate."""


class StaleControllerError(NeseekError):
    """Controller file was synthesized from a different scenario."""
