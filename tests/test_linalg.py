import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from neseek import linalg
from neseek.errors import NeseekError, SynthesisError
from conftest import is_hurwitz
from neseek.linalg import (
    eigenvalues,
    expm,
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
    with pytest.raises(NeseekError, match="numerically singular"):
        solve_linear([[1.0, 1.0], [1.0, 1.0]], (1.0, 2.0))


def test_solve_sylvester_scalar():
    # X B - A X = C with A = [-1], B = [0]: X = -C.
    X = solve_sylvester(np.array([[-1.0]]), np.array([[0.0]]),
                        np.array([[-1.0]]), eigenvalues([[-1.0]]))
    assert np.allclose(X, [[-1.0]], atol=1e-12)


def test_solve_sylvester_column():
    A = -np.eye(2)
    B = np.zeros((1, 1))
    C = np.array([[1.0], [2.0]])
    X = solve_sylvester(A, B, C, eigenvalues(A))
    assert np.allclose(X, C, atol=1e-12)


def test_solve_sylvester_shared_spectrum():
    with pytest.raises(SynthesisError, match="overlap"):
        solve_sylvester(np.array([[0.0]]), np.array([[0.0]]),
                        np.array([[1.0]]), eigenvalues([[0.0]]))


def test_solve_sylvester_residual_bound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        # Well-separated spectra: A shifted left, B shifted right.
        A = rng.standard_normal((n, n)) - 3.0 * np.eye(n)
        B = rng.standard_normal((m, m)) + 3.0 * np.eye(m)
        C = rng.standard_normal((n, m))
        X = solve_sylvester(A, B, C, eigenvalues(A))
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
        X = solve_sylvester(A, B, C, eigenvalues(A))
        X_ref = _kronecker_sylvester(A, B, C)
        assert np.linalg.norm(X - X_ref) <= 1e-10 * np.linalg.norm(X_ref)


def _rotation(w):
    return np.array([[0.0, w], [-w, 0.0]])


def test_solve_sylvester_ramp_exosystem_matches_kronecker_reference():
    # a ramp exosystem (nilpotent Jordan block) in a random orthogonal
    # basis, so its Schur form is not diagonal, next to rotations and a
    # constant channel; two rotation blocks are equal and share shifts
    rng = np.random.default_rng(29)
    for size in (2, 3, 4):
        Q, _ = np.linalg.qr(rng.standard_normal((size, size)))
        ramp = Q @ np.diag(np.ones(size - 1), 1) @ Q.T
        blocks = [ramp, _rotation(OMEGA), _rotation(OMEGA), _rotation(1.3),
                  np.zeros((1, 1))]
        m = sum(b.shape[0] for b in blocks)
        B = np.zeros((m, m))
        k = 0
        for b in blocks:
            B[k:k + b.shape[0], k:k + b.shape[0]] = b
            k += b.shape[0]
        n = 9
        A = rng.standard_normal((n, n)) - 4.0 * np.eye(n)
        C = rng.standard_normal((n, m))
        X = solve_sylvester(A, B, C, eigenvalues(A))
        X_ref = _kronecker_sylvester(A, B, C)
        assert np.linalg.norm(X - X_ref) <= 1e-10 * np.linalg.norm(X_ref)
        assert np.linalg.norm(X @ B - A @ X - C) <= 1e-12 * np.linalg.norm(C)


def test_solve_sylvester_takes_the_callers_spectrum():
    A = np.diag([-1.0, -2.0])
    B = np.zeros((1, 1))
    C = np.ones((2, 1))
    assert np.allclose(solve_sylvester(A, B, C, eig_a=np.array([-1.0, -2.0])),
                       [[1.0], [0.5]], atol=1e-15)
    # a spectrum that overlaps spec(B) trips the separation gate
    with pytest.raises(SynthesisError, match="overlap"):
        solve_sylvester(A, B, C, eig_a=np.array([0.0, -2.0]))
    # one that misses an eigenvalue spec(A) shares with spec(B) passes the
    # gate, and the singular shifted solve reports the overlap
    with pytest.raises(SynthesisError, match=r"I - A is singular \("):
        solve_sylvester(np.zeros((1, 1)), B, np.ones((1, 1)), eig_a=np.array([-1.0]))


@pytest.mark.parametrize("B, dtype", [(_rotation(OMEGA), complex), (np.zeros((1, 1)), float)],
                         ids=["complex-shifts", "real-shift"])
def test_solve_sylvester_holds_one_shifted_matrix_per_solve(B, dtype):
    # each shifted solve allocates shift I - A once, as -A with the shift
    # on its diagonal; forming it next to an n x n identity peaked at
    # about 1.5 such matrices
    rng = np.random.default_rng(41)
    n = 300
    A = rng.standard_normal((n, n)) / np.sqrt(n) - 3.0 * np.eye(n)
    C = rng.standard_normal((n, B.shape[0]))
    eig_a = eigenvalues(A)
    tracemalloc.start()
    try:
        X = solve_sylvester(A, B, C, eig_a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    shifted = n * n * np.dtype(dtype).itemsize
    assert peak <= 1.25 * shifted, peak / shifted
    assert np.linalg.norm(X @ B - A @ X - C) <= 1e-12 * np.linalg.norm(C)


def test_solve_care_matches_scipy():
    # Both solvers are backward stable; their gains differ by the CARE's
    # conditioning times rounding, far below 1e-8 on these pairs.
    rng = np.random.default_rng(2024)
    for _ in range(240):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        K = solve_care(A, B, np.eye(n), np.eye(m))
        K_ref = -B.T @ scipy.linalg.solve_continuous_are(A, B, np.eye(n), np.eye(m))
        assert np.linalg.norm(K - K_ref) <= 1e-8 * np.linalg.norm(K_ref)


def test_solve_care_weighted_matches_scipy():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        Qw = np.diag(rng.uniform(0.1, 100.0, n))
        Rw = np.diag(rng.uniform(0.1, 10.0, m))
        K = solve_care(A, B, Qw, Rw)
        P = scipy.linalg.solve_continuous_are(A, B, Qw, Rw)
        K_ref = -np.linalg.solve(Rw, B.T @ P)
        assert np.linalg.norm(K - K_ref) <= 1e-8 * np.linalg.norm(K_ref)


def test_solve_care_residual_gate(monkeypatch):
    rng = np.random.default_rng(3)
    A, B = rng.standard_normal((4, 4)), rng.standard_normal((4, 2))
    monkeypatch.setattr(linalg, "CARE_REL_TOL", 0.0)
    with pytest.raises(SynthesisError, match="^no stabilizing Riccati solution: residual"):
        solve_care(A, B, np.eye(4), np.eye(2))


def test_solve_care_undamped_modes_do_not_converge():
    # Qw = 0 leaves two undamped rotations with unrelated frequencies on
    # the imaginary axis: the scaled iteration never settles
    A = np.zeros((4, 4))
    A[:2, :2], A[2:, 2:] = _rotation(0.3), _rotation(1.7)
    with pytest.raises(SynthesisError, match="^no stabilizing Riccati solution: "
                                             "sign iteration did not converge"):
        solve_care(A, np.zeros((4, 1)), np.zeros((4, 4)), np.eye(1))


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


def test_solve_care_refuses_a_gain_that_does_not_stabilize(monkeypatch):
    # the sign of -H spans the anti-stabilizing subspace: P = 1 - sqrt(2)
    # solves the Riccati equation, but A + B K = sqrt(2) is unstable
    sign = linalg._matrix_sign
    monkeypatch.setattr(linalg, "_matrix_sign", lambda H: -sign(H))
    with pytest.raises(SynthesisError,
                       match=r"^computed gain does not stabilize \(abscissa 1\.414e\+00\)$"):
        solve_care(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))


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


@pytest.mark.parametrize("norm_cap, tol", [(0.5, 1e-14), (30.0, 1e-11)])
def test_expm_matches_scipy(norm_cap, tol):
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 31))
        M = rng.standard_normal((n, n))
        M *= rng.uniform(0.0, norm_cap) / np.linalg.norm(M, 1)
        ref = scipy.linalg.expm(M)
        assert np.linalg.norm(expm(M) - ref, 1) <= tol * np.linalg.norm(ref, 1)


@pytest.mark.parametrize("h", [1e-4, 0.1, 1.0, 7.5, 50.0])
def test_expm_rotation_generator(h):
    theta = 1.3
    R = expm(theta * h * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    c, s = np.cos(theta * h), np.sin(theta * h)
    assert np.allclose(R, [[c, s], [-s, c]], rtol=0.0, atol=1e-13)


def test_expm_nilpotent_jordan_block_is_exact():
    N = np.diag([1.0, 1.0, 1.0], 1)
    assert np.array_equal(expm(N), np.eye(4) + N + N @ N / 2 + N @ N @ N / 6)


def test_expm_zero_and_empty():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    assert expm(np.zeros((0, 0))).shape == (0, 0)


NAN = np.array([[np.nan]])
NAN_INPUTS = [
    ("eigenvalues", lambda: eigenvalues(NAN)),
    ("solve_care", lambda: solve_care(NAN, np.eye(1), np.eye(1), np.eye(1))),
    ("rank", lambda: rank(NAN)),
    ("solve_linear", lambda: solve_linear(NAN, np.ones(1))),
    ("solve_sylvester", lambda: solve_sylvester(NAN, np.eye(1), np.ones((1, 1)),
                                                np.array([-1.0]))),
    ("minimal_polynomial", lambda: minimal_polynomial(NAN)),
    ("expm", lambda: expm(NAN)),
]


@pytest.mark.parametrize("case, call", NAN_INPUTS, ids=[c for c, _ in NAN_INPUTS])
def test_nan_input_raises_domain_error(case, call):
    with pytest.raises(NeseekError, match="non-finite"):
        call()
