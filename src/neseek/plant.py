"""Agent dynamics, exosystems, uncertainty, and assumption certificates.

Each agent is an uncertain LTI system

    xdot_i = A_i(mu) x_i + B_i(mu) u_i + P_i(mu) w_i,   y_i = C_i(mu) x_i

with A_i(mu) = A_i + dA_i and so on, driven by an autonomous exosystem
wdot_i = S_i w_i.  An exosystem's ``S_tilde`` and ``v0`` append a
constant channel so the affine cost term becomes exogenous.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ScenarioError

__all__ = [
    "AgentPlant",
    "Exosystem",
    "check_assumption_2",
    "check_assumption_3",
    "check_assumption_4",
    "sample_perturbation",
]

# spectral tolerance: the A2 threshold, the PBH cut Re lam >= -tol, and
# the distance below which two eigenvalues count as one
_EIG_TOL = 1e-9


@dataclass(frozen=True)
class AgentPlant:
    """Nominal matrices plus explicit perturbations (default zero)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    P: np.ndarray
    dA: np.ndarray = None
    dB: np.ndarray = None
    dC: np.ndarray = None
    dP: np.ndarray = None
    x0: np.ndarray = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ScenarioError(f"A must be square, got {A.shape}")
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if B.ndim != 2 or B.shape[0] != n:
            raise ScenarioError(f"B must have {n} rows, got {B.shape}")
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        if C.shape[1] != n:
            raise ScenarioError(f"C must have {n} columns, got {C.shape}")
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        if P.shape[0] != n:
            raise ScenarioError(f"P must have {n} rows, got {P.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "P", P)
        for name, nominal in (("dA", A), ("dB", B), ("dC", C), ("dP", P)):
            d = getattr(self, name)
            d = np.zeros_like(nominal) if d is None else np.asarray(d, dtype=float)
            if d.shape != nominal.shape:
                raise ScenarioError(f"{name} must have shape {nominal.shape}, got {d.shape}")
            object.__setattr__(self, name, d)
        x0 = np.zeros(n) if self.x0 is None else np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape != (n,):
            raise ScenarioError(f"x0 must have {n} entries, got {x0.shape}")
        object.__setattr__(self, "x0", x0)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    @property
    def q(self):
        return self.P.shape[1]

    # perturbed accessors: A_mu - A == dA exactly
    @property
    def A_mu(self):
        return self.A + self.dA

    @property
    def B_mu(self):
        return self.B + self.dB

    @property
    def C_mu(self):
        return self.C + self.dC

    @property
    def P_mu(self):
        return self.P + self.dP


@dataclass(frozen=True)
class Exosystem:
    """Autonomous disturbance generator wdot = S w.  q = 0 means none."""

    S: np.ndarray
    w0: np.ndarray

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        if S.size == 0:
            S = np.zeros((0, 0))
        else:
            S = np.atleast_2d(S)
            if S.shape[0] != S.shape[1]:
                raise ScenarioError(f"S must be square, got {S.shape}")
        q = S.shape[0]
        w0 = np.asarray(self.w0, dtype=float).reshape(-1)
        if w0.shape != (q,):
            raise ScenarioError(f"w0 must have {q} entries, got {w0.shape}")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "w0", w0)

    @property
    def q(self):
        return self.S.shape[0]

    # the constant channel appended: S_tilde = blockdiag(S, 0), v0 = (w0, 1)
    @property
    def S_tilde(self):
        return np.pad(self.S, ((0, 1), (0, 1)))

    @property
    def v0(self):
        return np.append(self.w0, 1.0)


def check_assumption_2(exo):
    """The exosystem eigenvalues with negative real part: A2 holds when none."""
    return [lam for lam in linalg.eigenvalues(exo.S) if lam.real < -_EIG_TOL]


def _real_if_real(lam):
    return lam.real if lam.imag == 0 else lam


def _unique(lams):
    """Values of ``lams`` in order, dropping repeats within tolerance of an earlier one."""
    unique = []
    for lam in lams:
        if not any(abs(lam - u) <= _EIG_TOL for u in unique):
            unique.append(lam)
    return unique


def _pbh_witnesses(A, M, stack):
    """Eigenvalues lam of A with Re lam >= -tol failing the PBH test, each once.

    The test is rank stack([A - lam I, M]) = n: ``np.hstack`` with
    M = B tests stabilizability, ``np.vstack`` with M = C detectability.
    Real eigenvalues are tested in real arithmetic.  ``lam I`` is a diagonal:
    an overflowed eigenvalue leaves no ``0 * inf``, only a diagonal ``rank`` refuses.
    """
    n = A.shape[0]
    return _unique([
        lam for lam in linalg.eigenvalues(A)
        if lam.real >= -_EIG_TOL
        and linalg.rank(stack([A - np.diag([_real_if_real(lam)] * n), M])) < n
    ])


def check_assumption_3(plant):
    """PBH stabilizability and detectability of the nominal pair.

    Returns the failing eigenvalues per property, under the keys
    ``stabilizable`` and ``detectable``: A3 holds when both are empty.
    """
    return {"stabilizable": _pbh_witnesses(plant.A, plant.B, np.hstack),
            "detectable": _pbh_witnesses(plant.A, plant.C, np.vstack)}


def _regulation_pencil_rank_ok(A, B, C, lam):
    """Eq.-(9)-style test: rank [[A - lam I, B], [C, 0]] = n + p."""
    n, m = B.shape
    p = C.shape[0]
    pencil = np.block([
        [A - np.diag([_real_if_real(lam)] * n), B],
        [C, np.zeros((p, m))],
    ])
    return linalg.rank(pencil) == n + p


def _spec_with_zero(exo):
    return _unique([complex(lam) for lam in linalg.eigenvalues(exo.S)] + [0j])


def check_assumption_4(plant, exo):
    """Eigenvalues of spec(S) plus {0} failing the rank condition: A4 holds when none."""
    return [lam for lam in _spec_with_zero(exo)
            if not _regulation_pencil_rank_ok(plant.A, plant.B, plant.C, lam)]


def sample_perturbation(plant, scale, rng):
    """Entrywise-uniform perturbation dict for all four plant matrices.

    Entries are drawn from scale * U(-1, 1); apply a draw with
    ``dataclasses.replace(plant, **draw)``.  Robustness certificates
    decide after the fact whether a draw kept the loop Hurwitz.
    """
    return {
        "dA": scale * rng.uniform(-1.0, 1.0, size=plant.A.shape),
        "dB": scale * rng.uniform(-1.0, 1.0, size=plant.B.shape),
        "dC": scale * rng.uniform(-1.0, 1.0, size=plant.C.shape),
        "dP": scale * rng.uniform(-1.0, 1.0, size=plant.P.shape),
    }
