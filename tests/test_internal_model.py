import numpy as np
import pytest

from neseek.errors import DomainError
from neseek.internal_model import build_p_copy, companion_pair, verify_internal_model
from neseek.linalg import minimal_polynomial

OMEGA = np.pi / 10.0


def sensor_s_tilde():
    S = np.zeros((3, 3))
    S[:2, :2] = [[0.0, OMEGA], [-OMEGA, 0.0]]
    return S


def test_companion_integrator():
    beta, sigma = companion_pair([0.0, 1.0])
    assert np.array_equal(beta, [[0.0]])
    assert np.array_equal(sigma, [[1.0]])


def test_companion_oscillator_with_constant():
    beta, sigma = companion_pair([0.0, OMEGA**2, 0.0, 1.0])
    want = np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, -OMEGA**2, 0.0],
    ])
    assert np.allclose(beta, want, atol=1e-15)
    assert np.array_equal(sigma, [[0.0], [0.0], [1.0]])


def test_companion_double_chain():
    beta, sigma = companion_pair([0.0, 0.0, 1.0])
    assert np.array_equal(beta, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(sigma, [[0.0], [1.0]])


def test_companion_rejects_non_monic():
    with pytest.raises(DomainError):
        companion_pair([1.0, 2.0, 3.0])


def test_companion_controllable():
    rng = np.random.default_rng(79)
    for _ in range(20):
        s = int(rng.integers(1, 6))
        coeffs = np.append(rng.standard_normal(s), 1.0)
        beta, sigma = companion_pair(coeffs)
        K = np.hstack([
            np.linalg.matrix_power(beta, k) @ sigma for k in range(s)
        ])
        assert np.linalg.matrix_rank(K) == s


def test_p_copy_constant_only():
    G1, G2 = build_p_copy(np.zeros((1, 1)), 2)
    assert np.array_equal(G1, np.zeros((2, 2)))
    assert np.array_equal(G2, np.eye(2))
    # s = 1 copy state per channel
    assert G1.shape[0] // G2.shape[1] == 1


def test_p_copy_scalar_constant():
    G1, G2 = build_p_copy(np.zeros((1, 1)), 1)
    assert np.array_equal(G1, [[0.0]])
    assert np.array_equal(G2, [[1.0]])


def test_p_copy_sensor_exosystem():
    G1, G2 = build_p_copy(sensor_s_tilde(), 2)
    assert G1.shape == (6, 6)
    assert G2.shape == (6, 2)
    beta, _ = companion_pair([0.0, OMEGA**2, 0.0, 1.0])
    assert np.allclose(G1[:3, :3], beta, atol=1e-12)
    assert np.allclose(G1[3:, 3:], beta, atol=1e-12)
    assert np.array_equal(G1[:3, 3:], np.zeros((3, 3)))
    # G2 keeps the per-channel unit columns.
    assert np.array_equal(G2[:3, 0], [0.0, 0.0, 1.0])
    assert np.array_equal(G2[3:, 1], [0.0, 0.0, 1.0])
    assert np.array_equal(G2[:3, 1], np.zeros(3))


def test_p_copy_dimension_rule():
    rng = np.random.default_rng(83)
    for _ in range(10):
        q = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        S = np.zeros((q + 1, q + 1))
        S[:q, :q] = rng.standard_normal((q, q))
        G1, G2 = build_p_copy(S, p)
        s = len(minimal_polynomial(S)) - 1
        assert G1.shape == (p * s, p * s)
        assert G2.shape == (p * s, p)


def test_p_copy_spectrum_repeats():
    S = sensor_s_tilde()
    G1, _ = build_p_copy(S, 2)
    beta, _ = companion_pair(minimal_polynomial(S))
    want = np.sort_complex(np.tile(np.linalg.eigvals(beta), 2))
    got = np.sort_complex(np.linalg.eigvals(G1))
    assert np.max(np.abs(got - want)) <= 1e-8


def test_verify_accepts_construction():
    for S, p in ((np.zeros((1, 1)), 2), (sensor_s_tilde(), 2),
                 (np.zeros((2, 2)), 3)):
        assert verify_internal_model(*build_p_copy(S, p), S)


def test_verify_rejects_zeroed_block_row():
    S = sensor_s_tilde()
    G1, G2 = build_p_copy(S, 2)
    G1 = G1.copy()
    G1[2, :] = 0.0  # wrong characteristic polynomial in block 1
    assert not verify_internal_model(G1, G2, S)


def test_verify_constant_only_form():
    assert verify_internal_model(np.zeros((2, 2)), np.eye(2), np.zeros((1, 1)))


@pytest.mark.parametrize("pick", [
    lambda G1, G2: (G1, np.zeros_like(G2)),
    lambda G1, G2: (G1[:4, :4], G2[:4]),
    lambda G1, G2: (G1, np.hstack([G2, G2[:, :1]])),
], ids=["uncontrollable", "s too small", "p inconsistent"])
def test_verify_rejects_misfit_shapes_and_pairs(pick):
    # s comes from S_tilde's minimal polynomial and p from G2's columns
    S = sensor_s_tilde()
    assert not verify_internal_model(*pick(*build_p_copy(S, 2)), S)
