"""Exception types shared across the package, one per exit status.

``cli.EXIT_CODES`` maps each class to the CLI's exit status, so the
status of a failure is read from its ``raise`` line: no caller converts
one type into another.  A subclass exists only for an exit status of
its own or for data its callers read.
"""


class NeseekError(Exception):
    """Base class; raised itself for an unexpected failure, the CLI's exit 1
    (a singular solve, a non-finite matrix or simulated state, a horizon too long to record)."""


class ScenarioError(NeseekError, ValueError):
    """A bad input, the CLI's exit 2: raised by the scenario and bundle
    readers, by the constructors they call (``AgentPlant``, ``CommGraph``,
    ``SimConfig`` and the rest) and by the CLI's flag and overflow gates."""


class StaleControllerError(NeseekError):
    """Controller file was synthesized from a different scenario; exit 3."""


class SynthesisError(NeseekError):
    """A design or certificate failed; the CLI's exit 4.

    Raised by ``linalg.solve_care`` (no stabilizing Riccati solution, or
    a gain that does not stabilize), by ``linalg.solve_sylvester``
    (overlapping spectra: no unique regulator solution), by ``synth``
    (a closed loop not Hurwitz, a regulator residual above its bound)
    and by ``sim`` (an RK4 step map that does not contract at ``--dt``).
    """


class AssumptionError(NeseekError):
    """A required standing assumption fails; exit 10 + ``number``."""

    def __init__(self, number, message):
        super().__init__(message)
        self.number = number
