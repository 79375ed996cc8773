import numpy as np
import pytest

from neseek.errors import (
    DimensionError,
    NonUniqueSolutionError,
    SingularMatrixError,
    SynthesisError,
)
from neseek.linalg import (
    eigenvalues,
    is_hurwitz,
    minimal_polynomial,
    rank,
    solve_care,
    solve_linear,
    solve_sylvester,
)

OMEGA = np.pi / 10.0


def test_eigenvalues_companion():
    ev = np.sort(eigenvalues([[0.0, 1.0], [-2.0, -3.0]]).real)
    assert np.allclose(ev, [-2.0, -1.0], atol=1e-12)


def test_eigenvalues_trace_det_consistency():
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = rng.standard_normal((8, 8))
        ev = eigenvalues(M)
        assert abs(ev.sum().real - np.trace(M)) <= 1e-8 * np.linalg.norm(M)
        assert abs(ev.sum().imag) <= 1e-8 * np.linalg.norm(M)
        det = np.linalg.det(M)
        assert abs(np.prod(ev).real - det) <= 1e-6 * max(1.0, abs(det))


def test_eigenvalues_block_diagonal_split():
    # Spectrum of a block diagonal is the union of the block spectra.
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((3, 3))
    M = np.zeros((7, 7))
    M[:4, :4] = A
    M[4:, 4:] = B
    got = np.sort_complex(eigenvalues(M))
    want = np.sort_complex(np.concatenate([eigenvalues(A), eigenvalues(B)]))
    assert np.max(np.abs(got - want)) <= 1e-6


def test_eigenvalues_rejects_nonsquare():
    with pytest.raises(DimensionError):
        eigenvalues(np.zeros((2, 3)))


def test_is_hurwitz_stable():
    ok, abscissa = is_hurwitz([[0.0, 1.0], [-2.0, -3.0]])
    assert ok
    assert abs(abscissa - (-1.0)) <= 1e-12


def test_is_hurwitz_unstable():
    ok, abscissa = is_hurwitz([[1.0]])
    assert not ok
    assert abscissa == pytest.approx(1.0)


def test_rank_deficient():
    assert rank([[1.0, 2.0], [2.0, 4.0]]) == 1


def test_rank_invariances():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 11))
        M = rng.standard_normal((n, m))
        # Force occasional rank deficiency.
        if n > 1 and rng.random() < 0.3:
            M[-1] = M[0]
        D = rng.standard_normal((n, n))
        while abs(np.linalg.det(D)) < 1e-3:
            D = rng.standard_normal((n, n))
        r = rank(M)
        assert rank(M.T) == r
        assert rank(D @ M) == r


def _embedded_rank(M):
    """Rank of a complex matrix through its real 2x-size embedding."""
    re, im = M.real, M.imag
    return rank(np.block([[re, -im], [im, re]])) // 2


def test_rank_complex_matches_real_embedding():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        r = int(rng.integers(0, min(n, m) + 1))
        left = rng.standard_normal((n, r))
        right = rng.standard_normal((r, m))
        if rng.random() < 0.75:
            left = left + 1j * rng.standard_normal((n, r))
            right = right + 1j * rng.standard_normal((r, m))
        else:
            # complex dtype, zero imaginary part
            left = left.astype(complex)
        M = left @ right
        assert np.iscomplexobj(M)
        assert rank(M) == r
        assert _embedded_rank(M) == r


def test_solve_linear_exact():
    x = solve_linear([[4.0, -2.0], [-2.0, 4.0]], (2.0, 6.0))
    assert np.allclose(x, [5.0 / 3.0, 7.0 / 3.0], atol=1e-12)


def test_solve_linear_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear([[1.0, 1.0], [1.0, 1.0]], (1.0, 2.0))


def test_solve_sylvester_scalar():
    # X B - A X = C with A = [-1], B = [0]: X = -C.
    X = solve_sylvester(np.array([[-1.0]]), np.array([[0.0]]),
                        np.array([[-1.0]]))
    assert np.allclose(X, [[-1.0]], atol=1e-12)


def test_solve_sylvester_column():
    A = -np.eye(2)
    B = np.zeros((1, 1))
    C = np.array([[1.0], [2.0]])
    X = solve_sylvester(A, B, C)
    assert np.allclose(X, C, atol=1e-12)


def test_solve_sylvester_shared_spectrum():
    with pytest.raises(NonUniqueSolutionError):
        solve_sylvester(np.array([[0.0]]), np.array([[0.0]]),
                        np.array([[1.0]]))


def test_solve_sylvester_residual_bound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        # Well-separated spectra: A shifted left, B shifted right.
        A = rng.standard_normal((n, n)) - 3.0 * np.eye(n)
        B = rng.standard_normal((m, m)) + 3.0 * np.eye(m)
        C = rng.standard_normal((n, m))
        X = solve_sylvester(A, B, C)
        res = np.linalg.norm(X @ B - A @ X - C)
        bound = 1e-8 * (np.linalg.norm(A) + np.linalg.norm(B)
                        + np.linalg.norm(C))
        assert res <= bound


def _kronecker_sylvester(A, B, C):
    """Reference solve of X B - A X = C as one dense vectorized system."""
    n, m = A.shape[0], B.shape[0]
    # column-major vec: vec(X B - A X) = (B' kron I - I kron A) vec(X)
    M = np.kron(B.T, np.eye(n)) - np.kron(np.eye(m), A)
    x = np.linalg.solve(M, C.flatten(order="F"))
    return x.reshape((n, m), order="F")


def test_solve_sylvester_matches_kronecker_reference():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n)) - 3.0 * np.eye(n)
        B = rng.standard_normal((m, m)) + 3.0 * np.eye(m)
        C = rng.standard_normal((n, m))
        X = solve_sylvester(A, B, C)
        X_ref = _kronecker_sylvester(A, B, C)
        assert np.linalg.norm(X - X_ref) <= 1e-10 * np.linalg.norm(X_ref)


def test_solve_care_scalar_integrator():
    K = solve_care(np.array([[0.0]]), np.array([[1.0]]),
                   np.array([[1.0]]), np.array([[1.0]]))
    assert np.allclose(K, [[-1.0]], atol=1e-10)


def test_solve_care_already_stable_zero_cost():
    K = solve_care(np.array([[-1.0]]), np.array([[1.0]]),
                   np.array([[0.0]]), np.array([[1.0]]))
    assert np.allclose(K, [[0.0]], atol=1e-10)


def test_solve_care_double_integrator_stabilizes():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    K = solve_care(A, B, np.eye(2), np.array([[1.0]]))
    ok, _ = is_hurwitz(A + B @ K)
    assert ok


def test_solve_care_hurwitz_postcondition_random():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        try:
            K = solve_care(A, B, np.eye(n), np.eye(m))
        except SynthesisError:
            continue
        ok, _ = is_hurwitz(A + B @ K)
        assert ok


def test_solve_care_imaginary_axis_hamiltonian():
    # Undetectable unstable mode: Qw = 0 leaves an axis eigenvalue pair.
    with pytest.raises(SynthesisError):
        solve_care(np.array([[0.0]]), np.array([[1.0]]),
                   np.array([[0.0]]), np.array([[1.0]]))


def test_minimal_polynomial_zero_matrix():
    c = minimal_polynomial(np.zeros((3, 3)))
    assert np.allclose(c, [0.0, 1.0], atol=1e-12)


def test_minimal_polynomial_rotation_with_constant():
    S = np.zeros((3, 3))
    S[:2, :2] = [[0.0, OMEGA], [-OMEGA, 0.0]]
    c = minimal_polynomial(S)
    assert np.allclose(c, [0.0, OMEGA**2, 0.0, 1.0], atol=1e-10)


def test_minimal_polynomial_identity():
    c = minimal_polynomial(np.eye(2))
    assert np.allclose(c, [-1.0, 1.0], atol=1e-12)


def test_minimal_polynomial_divides_characteristic():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n))
        c = minimal_polynomial(M)
        char = np.poly(M)[::-1]  # ascending powers
        _, rem = np.polydiv(char[::-1], c[::-1])
        assert np.max(np.abs(rem)) < 1e-8 if rem.size else True
        # Evaluating the polynomial at M annihilates it.
        val = np.zeros((n, n))
        power = np.eye(n)
        for coef in c:
            val = val + coef * power
            power = power @ M
        assert np.linalg.norm(val) <= 1e-8 * max(1.0, np.linalg.norm(M)) ** (
            len(c) - 1
        )
