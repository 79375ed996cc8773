"""Dense matrix kernels used by every other module.

Spectra, ranks, linear / Sylvester / Riccati solves, the matrix
exponential, and minimal polynomials.  All functions take and return
plain ``numpy.ndarray`` values and raise the typed errors from
:mod:`neseek.errors`.  Only the Sylvester and Riccati solves use SciPy,
and they import it where they call it.
"""

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    NonUniqueSolutionError,
    SingularMatrixError,
    SynthesisError,
)

__all__ = [
    "eigenvalues",
    "is_hurwitz",
    "rank",
    "solve_linear",
    "solve_sylvester",
    "solve_care",
    "expm",
    "minimal_polynomial",
]


def _as_square(M, name="M"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    return _finite(M, name)


def _finite(M, name):
    if not np.isfinite(M).all():
        raise DomainError(f"{name} has non-finite entries")
    return M


def eigenvalues(M):
    """Eigenvalues of a square real matrix, with multiplicity.

    Parameters
    ----------
    M : (n, n) array_like
        Real square matrix.

    Returns
    -------
    (n,) complex ndarray
        All eigenvalues; non-real values come in conjugate pairs.
    """
    M = _as_square(M)
    return np.linalg.eigvals(M)


def is_hurwitz(M):
    """Check whether all eigenvalues of ``M`` lie in the open left half-plane.

    Returns
    -------
    (bool, float)
        The verdict and the spectral abscissa (max real part).
    """
    M = _as_square(M)
    abscissa = float(np.max(eigenvalues(M).real)) if M.size else -np.inf
    return abscissa < 0.0, abscissa


def rank(M):
    """Numerical rank of a real or complex matrix.

    Counts the singular values exceeding max(rows, cols) * eps * the
    largest singular value.
    """
    M = _finite(np.atleast_2d(np.asarray(M)), "M")
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    tol = max(M.shape) * np.finfo(float).eps * s[0]
    return int(np.count_nonzero(s > tol))


def solve_linear(A, b):
    """Solve ``A x = b`` for nonsingular ``A``.

    Raises
    ------
    SingularMatrixError
        If ``A`` is singular within working precision; the error carries
        the condition estimate in its ``cond`` attribute.
    """
    A = _as_square(A, "A")
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= n * np.finfo(float).eps * s[0]:
        cond = np.inf if s[-1] == 0.0 else float(s[0] / s[-1])
        raise SingularMatrixError(
            f"matrix is numerically singular (cond ~ {cond:.3e})", cond=cond
        )
    return np.linalg.solve(A, b)


def solve_sylvester(A, B, C):
    """Solve ``X B - A X = C`` by the Bartels-Stewart method.

    ``A`` is n x n, ``B`` is m x m, ``C`` and the solution are n x m.
    Solvability requires spec(A) and spec(B) disjoint; here the caller
    guarantees it (A Hurwitz, B with no eigenvalue in the open left
    half-plane).  The solve is ``scipy.linalg.solve_sylvester`` on
    ``(-A) X + X B = C`` (Bartels & Stewart 1972, CACM 15(9)).

    Raises
    ------
    NonUniqueSolutionError
        If the two spectra share an eigenvalue within tolerance.
    """
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    C = np.asarray(C, dtype=float)
    n, m = A.shape[0], B.shape[0]
    if C.shape != (n, m):
        raise DimensionError(f"C must be {n}x{m}, got {C.shape}")

    eig_a = eigenvalues(A)
    eig_b = eigenvalues(B) if m else np.zeros(0, complex)
    if n and m:
        sep = np.min(np.abs(eig_a[:, None] - eig_b[None, :]))
        scale = max(1.0, np.linalg.norm(A, 2) + np.linalg.norm(B, 2))
        if sep <= 1e-9 * scale:
            raise NonUniqueSolutionError(
                f"spec(A) and spec(B) overlap (separation {sep:.3e}); "
                "the Sylvester equation has no unique solution"
            )

    import scipy.linalg  # deferred: of the commands, only `synth` loads SciPy
    return scipy.linalg.solve_sylvester(-A, B, C)


def solve_care(A, B, Qw, Rw):
    """Stabilizing state-feedback gain from the continuous Riccati equation.

    Computes the stabilizing solution P of
    ``A'P + PA - P B Rw^{-1} B' P + Qw = 0`` with
    ``scipy.linalg.solve_continuous_are`` (Laub's Schur method, 1979,
    IEEE TAC 24(6)) and returns ``K = -Rw^{-1} B' P``.  ``A + B K`` is
    certified Hurwitz before returning.

    Parameters
    ----------
    A : (n, n) array_like
    B : (n, m) array_like
    Qw : (n, n) array_like, positive semidefinite
    Rw : (m, m) array_like, positive definite

    Raises
    ------
    SynthesisError
        If the library solver finds no stabilizing solution (for example
        Hamiltonian eigenvalues on the imaginary axis), or the computed
        gain fails the Hurwitz certificate.
    """
    A = _as_square(A, "A")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Qw = _as_square(np.asarray(Qw, dtype=float), "Qw")
    Rw = _as_square(np.asarray(Rw, dtype=float), "Rw")
    n, m = B.shape
    if A.shape[0] != n or Qw.shape[0] != n or Rw.shape[0] != m:
        raise DimensionError(
            f"inconsistent CARE dimensions: A {A.shape}, B {B.shape}, "
            f"Qw {Qw.shape}, Rw {Rw.shape}"
        )

    import scipy.linalg  # deferred: of the commands, only `synth` loads SciPy
    try:
        P = scipy.linalg.solve_continuous_are(A, B, Qw, Rw)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SynthesisError(f"no stabilizing Riccati solution: {exc}") from exc
    K = -np.linalg.solve(Rw, B.T @ P)

    ok, abscissa = is_hurwitz(A + B @ K)
    if not ok:
        raise SynthesisError(
            f"computed gain does not stabilize (abscissa {abscissa:.3e})"
        )
    return K


def expm(M):
    """Matrix exponential by scaling and squaring.

    Picks s with ``||M / 2^s||_1 <= 1/2``, sums the Taylor series of
    ``exp(M / 2^s)`` to degree 18 (truncation below 0.5^19 / 19!, about
    1.6e-23 relative) and squares s times (Moler & Van Loan 2003, SIAM
    Rev. 45(1); Higham 2005, SIAM J. Matrix Anal. Appl. 26(4)).
    """
    M = _as_square(M)
    s = max(0, int(np.frexp(2.0 * np.abs(M).sum(axis=0).max(initial=0.0))[1]))
    X, I = M / 2.0**s, np.eye(M.shape[0])
    E = I
    for k in range(18, 0, -1):  # Horner: I + X (I + X/2 (... (I + X/18)))
        E = I + (X @ E) / k
    for _ in range(s):
        E = E @ E
    return E


def minimal_polynomial(M):
    """Monic minimal polynomial of ``M`` by Krylov least squares.

    Searches degrees d = 1..n for the smallest d with monic coefficients
    c such that ``||M^d + c_{d-1} M^{d-1} + ... + c_0 I|| <= 1e-8 * ||M||^d``.
    Degree n always succeeds (Cayley-Hamilton).

    Returns
    -------
    (d + 1,) ndarray
        Coefficients in ascending order of power with trailing 1, i.e.
        ``[c_0, c_1, ..., c_{d-1}, 1.0]``.
    """
    M = _as_square(M)
    n = M.shape[0]
    norm_m = np.linalg.norm(M, 2)

    powers = [np.eye(n)]
    for _ in range(n):
        powers.append(powers[-1] @ M)

    c = np.zeros(0)
    for d in range(1, n + 1):
        V = np.column_stack([powers[k].ravel() for k in range(d)])
        rhs = -powers[d].ravel()
        c, *_ = np.linalg.lstsq(V, rhs, rcond=None)
        residual = np.linalg.norm(V @ c + powers[d].ravel())
        if residual <= 1e-8 * norm_m**d:
            break
    return np.append(c, 1.0)
