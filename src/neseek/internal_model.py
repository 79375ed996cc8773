"""p-copy internal models: companion realizations of a minimal polynomial.

The internal model of an extended exosystem S_tilde is one companion
pair (beta, sigma) of its minimal polynomial, replicated once per output
channel: G1 = blockdiag(beta, ..., beta), G2 = blockdiag(sigma, ..., sigma).
The pair (G1, G2) is the model; s and p follow from the shapes.
"""

import numpy as np

from . import linalg
from .errors import DimensionError, DomainError

__all__ = ["companion_pair", "build_p_copy", "verify_internal_model"]


def companion_pair(minpoly):
    """Bottom-companion realization of a monic polynomial.

    ``minpoly`` lists coefficients in ascending powers with a trailing
    1.0 (monic), e.g. lambda^3 + w^2 lambda is ``[0, w^2, 0, 1]``.
    Returns (beta, sigma) with sigma = (0, ..., 0, 1)'; the pair is
    controllable by construction.
    """
    coeffs = np.asarray(minpoly, dtype=float).reshape(-1)
    if coeffs.size < 2:
        raise DimensionError("polynomial must have degree >= 1")
    if not abs(coeffs[-1] - 1.0) <= 1e-12:
        raise DomainError(f"polynomial must be monic, leading coefficient {coeffs[-1]}")
    s = coeffs.size - 1
    beta = np.zeros((s, s))
    if s > 1:
        beta[:-1, 1:] = np.eye(s - 1)
    beta[-1, :] = -coeffs[:-1]
    sigma = np.zeros((s, 1))
    sigma[-1, 0] = 1.0
    return beta, sigma


def build_p_copy(S_tilde, p):
    """Internal model ``(G1, G2)`` of ``S_tilde``, one companion copy per channel."""
    if p < 1:
        raise DimensionError("p must be at least 1")
    beta, sigma = companion_pair(linalg.minimal_polynomial(S_tilde))
    return np.kron(np.eye(p), beta), np.kron(np.eye(p), sigma)


def _controllable(beta, sigma):
    s = beta.shape[0]
    krylov = np.hstack([np.linalg.matrix_power(beta, k) @ sigma for k in range(s)])
    return linalg.rank(krylov) == s


def verify_internal_model(G1, G2, S_tilde):
    """Does (G1, G2) incorporate a p-copy internal model of S_tilde?

    p is the column count of G2 and s the degree of
    minimal_polynomial(S_tilde).  True iff the shapes fit and every
    diagonal block's characteristic polynomial matches that polynomial
    coefficient-wise within 1e-8 and every (beta, sigma) pair is
    controllable.
    """
    want = linalg.minimal_polynomial(S_tilde)
    s, p = want.size - 1, G2.shape[1]
    if G1.shape != (p * s, p * s) or G2.shape != (p * s, p):
        return False
    for k in range(p):
        rows = slice(k * s, (k + 1) * s)
        beta, sigma = G1[rows, rows], G2[rows, k:k + 1]
        # np.poly returns descending coefficients; compare ascending monic
        char = np.poly(beta)[::-1]
        if np.max(np.abs(char - want)) > 1e-8:
            return False
        if not _controllable(beta, sigma):
            return False
    return True
