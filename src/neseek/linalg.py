"""Dense matrix kernels used by every other module.

Spectra, ranks, linear / Sylvester / Riccati solves, the matrix
exponential, and minimal polynomials.  All functions take and return
plain ``numpy.ndarray`` values and raise the typed errors from
:mod:`neseek.errors`.  Everything runs on numpy alone.
"""

import numpy as np

from .errors import NeseekError, SynthesisError

__all__ = [
    "eigenvalues",
    "rank",
    "singular_cut",
    "solve_linear",
    "frobenius",
    "solve_sylvester",
    "solve_care",
    "expm",
    "minimal_polynomial",
]

# bound on the CARE residual, relative to its scale
CARE_REL_TOL = 1e-8


def _as_finite(M, name="M"):
    """``M`` as a float array, refused when an entry is not finite."""
    return _finite(np.asarray(M, dtype=float), name)


def _finite(M, name):
    if not np.isfinite(M).all():
        raise NeseekError(f"{name} has non-finite entries")
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
    M = _as_finite(M)
    return np.linalg.eigvals(M)


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


def singular_cut(n, sigma_max):
    """``n * eps * sigma_max``: an n x n matrix whose smallest singular value
    is at or below this cut is singular within working precision."""
    return n * np.finfo(float).eps * sigma_max


def solve_linear(A, b):
    """Solve ``A x = b`` for nonsingular ``A``.

    Raises
    ------
    NeseekError
        If ``A``'s smallest singular value is at or below
        ``singular_cut``; the message states the condition estimate.
    """
    A = _as_finite(A, "A")
    b = np.asarray(b, dtype=float)
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= singular_cut(A.shape[0], s[0]):
        cond = np.inf if s[-1] == 0.0 else float(s[0] / s[-1])
        raise NeseekError(f"matrix is numerically singular (cond ~ {cond:.3e})")
    return np.linalg.solve(A, b)


def frobenius(M):
    """Frobenius norm of ``M``, finite wherever the norm itself is.

    ``np.linalg.norm`` squares the entries, so it overflows on finite
    entries above about 1.3e154; only then is ``M`` scaled by a power of
    two, which is exact, before the norm is taken and scaled back.
    """
    norm = np.linalg.norm(M)
    if norm == np.inf and np.isfinite(M).all():
        exponent = np.frexp(np.max(np.abs(M)))[1]
        norm = np.ldexp(np.linalg.norm(np.ldexp(M, -exponent)), exponent)
    return norm


def _norm2_bound(M):
    """``sqrt(||M||_1 ||M||_inf)``, an upper bound on ``||M||_2`` without an SVD."""
    return float(np.sqrt(np.linalg.norm(M, 1) * np.linalg.norm(M, np.inf)))


def _diagonal_blocks(B):
    """Slices of the finest partition of ``B`` into contiguous diagonal blocks."""
    m = B.shape[0]
    rows, cols = np.nonzero(B)
    # an entry (i, j) ties every index between i and j into one block
    reach = np.arange(m)
    np.maximum.at(reach, np.minimum(rows, cols), np.maximum(rows, cols))
    ends = np.flatnonzero(np.maximum.accumulate(reach) == np.arange(m)) + 1
    return [slice(int(a), int(b)) for a, b in zip(np.r_[0, ends[:-1]], ends)]


def _complex_schur(M):
    """Complex Schur form ``M = U T U^H`` of a small matrix by deflation.

    Each step takes one eigenvector of the trailing block and completes
    it to a unitary basis; the part dropped below the diagonal is the
    eigenpair's residual, so the form is backward stable even for a
    defective ``M``.
    """
    b = M.shape[0]
    T = M.astype(complex)
    U = np.eye(b, dtype=complex)
    for k in range(b - 1):
        _, V = np.linalg.eig(T[k:, k:])
        Q, _ = np.linalg.qr(V[:, :1], mode="complete")
        T[:, k:] = T[:, k:] @ Q
        T[k:, :] = Q.conj().T @ T[k:, :]
        T[k + 1:, k] = 0.0
        U[:, k:] = U[:, k:] @ Q
    return U, T


def _shifted(A, shift):
    """``shift I - A`` in one new array, real or complex as ``shift`` is:
    ``-A`` with ``shift`` added on its diagonal."""
    M = np.negative(A, dtype=type(shift))
    diag = np.arange(A.shape[0])
    M[diag, diag] += shift
    return M


def solve_sylvester(A, B, C, eig_a):
    """Solve ``X B - A X = C`` by shifted solves on a Schur form of ``B``.

    ``A`` is n x n, ``B`` is m x m, ``C`` and the solution are n x m.
    Solvability requires spec(A) and spec(B) disjoint; here the caller
    guarantees it (A Hurwitz, B with no eigenvalue in the open left
    half-plane).  ``B`` is split into its contiguous diagonal blocks and
    each gets a complex Schur form ``U T U^H``; with ``Y = X U`` and
    ``D = C U`` every column solves
    ``(t_kk I - A) y_k = d_k - sum_{l<k} y_l t_lk``
    (Golub, Nash & Van Loan 1979, IEEE TAC 24(6)).  Columns at the same
    depth of their block that share a shift are one multi-column solve,
    so identical blocks cost one factorization per shift.

    The separation gate compares ``eig_a``, the eigenvalues of ``A``
    that the caller already has, with the diagonal of ``T``.

    Raises
    ------
    SynthesisError
        If the two spectra share an eigenvalue within tolerance.
    """
    A = _as_finite(A, "A")
    B = _as_finite(B, "B")
    C = np.asarray(C, dtype=float)
    n, m = A.shape[0], B.shape[0]

    blocks = _diagonal_blocks(B)
    U = np.zeros((m, m), complex)
    T = np.zeros((m, m), complex)
    forms = {}
    for sl in blocks:
        key = (sl.stop - sl.start, B[sl, sl].tobytes())
        if key not in forms:
            forms[key] = _complex_schur(B[sl, sl])
        U[sl, sl], T[sl, sl] = forms[key]

    if n and m:
        sep = np.min(np.abs(eig_a[:, None] - np.diag(T)[None, :]))
        scale = max(1.0, _norm2_bound(A) + _norm2_bound(B))
        if sep <= 1e-9 * scale:
            raise SynthesisError(
                f"spec(A) and spec(B) overlap (separation {sep:.3e}); "
                "the Sylvester equation has no unique solution"
            )

    D = C @ U
    Y = np.zeros((n, m), complex)
    for k in range(max((sl.stop - sl.start for sl in blocks), default=0)):
        cols = np.array([sl.start + k for sl in blocks if sl.stop - sl.start > k])
        R = D[:, cols] - Y @ T[:, cols]
        shifts = T[cols, cols]
        for shift in dict.fromkeys(shifts.tolist()):
            group = cols[shifts == shift]
            rhs = R[:, shifts == shift]
            real = shift.imag == 0 and not rhs.imag.any()
            try:
                Y[:, group] = np.linalg.solve(_shifted(A, shift.real if real else shift),
                                              rhs.real if real else rhs)
            except np.linalg.LinAlgError as exc:
                raise SynthesisError(
                    f"shifted matrix {shift:.6g} I - A is singular ({exc})"
                ) from exc
    return (Y @ U.conj().T).real


NO_CARE = "no stabilizing Riccati solution: "
SIGN_MAX_ITER = 100


def _matrix_sign(H):
    """Sign function of ``H`` by the determinant-scaled Newton iteration.

    ``Z <- (Z / c + c Z^{-1}) / 2`` with ``c = |det Z|^{1/size}``
    (Roberts 1980, Int. J. Control 32(4); Byers 1987, Linear Algebra
    Appl. 85).  Convergence is quadratic, so the step after a relative
    change of 1e-10 is returned.

    Raises
    ------
    SynthesisError
        If an iterate is singular or not finite, or the iteration does
        not settle (``H`` has eigenvalues on or near the imaginary axis).
    """
    Z = H
    size = H.shape[0]
    for _ in range(SIGN_MAX_ITER):
        try:
            Z_inv = np.linalg.inv(Z)
        except np.linalg.LinAlgError as exc:
            raise SynthesisError(NO_CARE + f"singular sign iterate ({exc})") from exc
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            c = np.exp(np.linalg.slogdet(Z)[1] / size)
            Z_next = 0.5 * (Z / c + c * Z_inv)
        if not np.isfinite(Z_next).all():
            raise SynthesisError(NO_CARE + "sign iterate is not finite")
        change = np.linalg.norm(Z_next - Z, 1)
        Z = Z_next
        if change <= 1e-10 * np.linalg.norm(Z, 1):
            return Z
    raise SynthesisError(
        NO_CARE + f"sign iteration did not converge in {SIGN_MAX_ITER} steps "
        "(Hamiltonian eigenvalues on or near the imaginary axis)"
    )


def solve_care(A, B, Qw, Rw):
    """Stabilizing state-feedback gain from the continuous Riccati equation.

    Computes the stabilizing solution P of
    ``A'P + PA - P G P + Qw = 0``, ``G = B Rw^{-1} B'``, from the matrix
    sign ``W`` of the Hamiltonian ``H = [[A, -G], [-Qw, -A']]``: its
    stable invariant subspace is the range of ``[I; P]``, so P solves
    ``[W12; W22 + I] P = -[W11 + I; W21]`` by least squares and is then
    symmetrized (Byers 1987).  Returns ``K = -Rw^{-1} B' P``.  P must
    pass a relative residual gate and ``A + B K`` is certified Hurwitz
    before returning.

    Parameters
    ----------
    A : (n, n) array_like
    B : (n, m) array_like
    Qw : (n, n) array_like, positive semidefinite
    Rw : (m, m) array_like, positive definite

    Raises
    ------
    SynthesisError
        If there is no stabilizing solution (for example Hamiltonian
        eigenvalues on the imaginary axis), P fails the residual gate,
        or the computed gain fails the Hurwitz certificate.
    """
    A = _as_finite(A, "A")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Qw = _as_finite(Qw, "Qw")
    Rw = _as_finite(Rw, "Rw")
    n = B.shape[0]

    Rw_inv_Bt = np.linalg.solve(Rw, B.T)
    # an overflowing G makes the sign iterate non-finite, which its gate refuses
    with np.errstate(over="ignore", invalid="ignore"):
        G = B @ Rw_inv_Bt
    W = _matrix_sign(np.block([[A, -G], [-Qw, -A.T]]))
    I = np.eye(n)
    P = np.linalg.lstsq(np.vstack([W[:n, n:], W[n:, n:] + I]),
                        -np.vstack([W[:n, :n] + I, W[n:, :n]]), rcond=None)[0]
    P = 0.5 * (P + P.T)

    # an overflowing residual or scale fails the gate below
    with np.errstate(over="ignore", invalid="ignore"):
        residual = frobenius(A.T @ P + P @ A - P @ G @ P + Qw)
        norm_p = frobenius(P)
        scale = 2.0 * frobenius(A) * norm_p + frobenius(G) * norm_p**2 + frobenius(Qw)
    if not (scale < np.inf and residual <= CARE_REL_TOL * scale):
        raise SynthesisError(
            NO_CARE + f"residual {residual:.3e} exceeds "
            f"{CARE_REL_TOL:g} * scale {scale:.3e}"
        )
    K = -Rw_inv_Bt @ P

    abscissa = float(np.max(eigenvalues(A + B @ K).real))
    if not abscissa < 0.0:
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
    M = _as_finite(M)
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
    M = _as_finite(M)
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
