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


class SynthesisError(NeseekError):
    """A design or certificate failed; the CLI's exit 4.

    Raised by ``linalg.solve_care`` (no stabilizing Riccati solution, or
    a gain that does not stabilize), by ``synthesis.build_controller``
    (a plant failing A3 or A4), by ``synth`` (a closed loop not Hurwitz,
    a regulator residual above its bound), as NonUniqueSolutionError by
    the regulator solve, and by ``sim`` (an RK4 step map that does not
    contract at ``--dt``).
    """


class NonUniqueSolutionError(SynthesisError):
    """Sylvester spectra overlap: the equation has no unique solution."""


class DomainError(NeseekError, ValueError):
    """Operation applied outside its domain (wrong graph kind, non-finite input)."""


class AssumptionError(NeseekError):
    """A required standing assumption fails for the chosen strategy."""

    def __init__(self, number, message):
        super().__init__(message)
        self.number = number


class DivergenceError(NeseekError):
    """Simulation state became non-finite."""

    def __init__(self, message, t_bad):
        super().__init__(message)
        self.t_bad = t_bad


class ScenarioError(NeseekError, ValueError):
    """Scenario or controller file failed to parse or validate."""


class StaleControllerError(NeseekError):
    """Controller file was synthesized from a different scenario."""
