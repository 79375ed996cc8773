"""p-copy internal models: companion realizations of a minimal polynomial.

The internal model of an extended exosystem S_tilde is one companion
pair (beta, sigma) of its minimal polynomial, replicated once per output
channel: G1 = blockdiag(beta, ..., beta), G2 = blockdiag(sigma, ..., sigma).
The pair (G1, G2) is the model; s and p follow from the shapes.
"""

import numpy as np

from . import linalg

__all__ = ["companion_pair", "build_p_copy"]


def companion_pair(minpoly):
    """Bottom-companion realization of a monic polynomial of degree >= 1.

    ``minpoly`` lists coefficients in ascending powers with a trailing
    1.0 (monic), e.g. lambda^3 + w^2 lambda is ``[0, w^2, 0, 1]``.
    Returns (beta, sigma) with sigma = (0, ..., 0, 1)'; the pair is
    controllable by construction.
    """
    coeffs = np.asarray(minpoly, dtype=float).reshape(-1)
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
    beta, sigma = companion_pair(linalg.minimal_polynomial(S_tilde))
    return np.kron(np.eye(p), beta), np.kron(np.eye(p), sigma)
