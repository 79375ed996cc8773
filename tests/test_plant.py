import dataclasses

import numpy as np
import pytest

from neseek.errors import DimensionError, DomainError
from neseek.plant import (
    AgentPlant,
    Exosystem,
    check_assumption_2,
    check_assumption_3,
    check_assumption_4,
    check_scaled_rank,
    sample_perturbation,
)

OMEGA = np.pi / 10.0
ROT = np.array([[0.0, OMEGA], [-OMEGA, 0.0]])


def friction_plant():
    # Double integrator with velocity damping, position measured.
    return AgentPlant(
        A=np.array([[0.0, 1.0], [0.0, -0.2]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[1.0, 0.0]]),
        P=np.array([[0.0], [1.0]]),
    )


@pytest.mark.parametrize("make, message", [
    (lambda: dataclasses.replace(friction_plant(), x0=np.zeros(3)),
     r"^x0 must have 2 entries, got \(3,\)"),
    (lambda: dataclasses.replace(friction_plant(), x0=np.zeros(1)),
     r"^x0 must have 2 entries, got \(1,\)"),
    (lambda: Exosystem(S=ROT, w0=np.zeros(3)), r"^w0 must have 2 entries, got \(3,\)"),
    (lambda: Exosystem(S=ROT, w0=np.zeros(0)), r"^w0 must have 2 entries, got \(0,\)"),
], ids=["long x0", "short x0", "long w0", "empty w0"])
def test_start_state_of_the_wrong_size(make, message):
    # the start state lives on the plant and the exosystem, where both
    # integrators read it
    with pytest.raises(DimensionError, match=message):
        make()


def test_extend_rotation():
    ext = Exosystem(S=ROT, w0=np.array([1.0, 0.0]))
    want = np.zeros((3, 3))
    want[:2, :2] = ROT
    assert np.array_equal(ext.S_tilde, want)
    assert np.array_equal(ext.v0, [1.0, 0.0, 1.0])


def test_extend_constant_disturbance():
    ext = Exosystem(S=np.zeros((1, 1)), w0=np.array([2.0]))
    assert np.array_equal(ext.S_tilde, np.zeros((2, 2)))
    assert np.array_equal(ext.v0, [2.0, 1.0])


def test_extend_disturbance_free():
    ext = Exosystem(S=np.zeros((0, 0)), w0=np.zeros(0))
    assert ext.S_tilde.shape == (1, 1)
    assert np.array_equal(ext.S_tilde, [[0.0]])
    assert np.array_equal(ext.v0, [1.0])


@pytest.mark.parametrize("S, w0, S_tilde, v0", [
    (np.zeros((0, 0)), np.zeros(0), [[0.0]], [1.0]),
    (ROT, [0.5, -2.0],
     [[0.0, OMEGA, 0.0], [-OMEGA, 0.0, 0.0], [0.0, 0.0, 0.0]], [0.5, -2.0, 1.0]),
    ([[0.0, 1.0], [0.0, 0.0]], [3.0, 0.25],
     [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [3.0, 0.25, 1.0]),
], ids=["q = 0", "rotation", "ramp"])
def test_extension_is_derived_bitwise(S, w0, S_tilde, v0):
    # S_tilde = blockdiag(S, 0) and v0 = (w0, 1), bit for bit
    exo = Exosystem(S=S, w0=w0)
    for got, want in ((exo.S_tilde, S_tilde), (exo.v0, v0)):
        assert got.dtype == np.float64
        assert got.shape == np.shape(want)
        assert got.tobytes() == np.asarray(want, dtype=float).tobytes()


def test_extend_spectrum_gains_only_zero():
    rng = np.random.default_rng(59)
    for _ in range(10):
        q = int(rng.integers(1, 5))
        S = rng.standard_normal((q, q))
        ext = Exosystem(S=S, w0=rng.standard_normal(q))
        got = np.sort_complex(np.linalg.eigvals(ext.S_tilde))
        want = np.sort_complex(
            np.concatenate([np.linalg.eigvals(S), [0.0 + 0.0j]])
        )
        assert np.max(np.abs(got - want)) <= 1e-8


def test_assumption_2_rotation():
    ok, offending = check_assumption_2(
        Exosystem(S=ROT, w0=np.array([1.0, 0.0]))
    )
    assert ok
    assert len(offending) == 0


def test_assumption_2_decaying_mode():
    ok, offending = check_assumption_2(
        Exosystem(S=np.array([[-1.0]]), w0=np.array([1.0]))
    )
    assert not ok
    assert np.allclose(np.asarray(offending).real, [-1.0])


def test_assumption_2_nilpotent():
    ok, _ = check_assumption_2(
        Exosystem(S=np.array([[0.0, 1.0], [0.0, 0.0]]), w0=np.zeros(2))
    )
    assert ok


def test_assumption_3_friction_plant():
    report = check_assumption_3(friction_plant())
    assert report["stabilizable"]
    assert report["detectable"]


def test_assumption_3_uncontrollable_unstable():
    plant = AgentPlant(
        A=np.eye(2),
        B=np.array([[1.0], [0.0]]),
        C=np.eye(2),
        P=np.zeros((2, 0)),
    )
    report = check_assumption_3(plant)
    assert not report["stabilizable"]
    lams = np.asarray(report["witnesses"]["stabilizable"])
    assert np.allclose(lams.real, 1.0)


def test_assumption_3_hurwitz_needs_no_input():
    plant = AgentPlant(
        A=-np.eye(2),
        B=np.zeros((2, 1)),
        C=np.eye(2),
        P=np.zeros((2, 0)),
    )
    assert check_assumption_3(plant)["stabilizable"]


def test_assumption_4_friction_plant():
    plant = friction_plant()
    exo = Exosystem(S=ROT, w0=np.array([1.0, 0.0]))
    ok, failing = check_assumption_4(plant, exo)
    assert ok
    assert len(failing) == 0


def test_assumption_4_no_control_authority():
    plant = AgentPlant(
        A=np.zeros((1, 1)),
        B=np.zeros((1, 1)),
        C=np.ones((1, 1)),
        P=np.zeros((1, 0)),
    )
    exo = Exosystem(S=np.zeros((0, 0)), w0=np.zeros(0))
    ok, failing = check_assumption_4(plant, exo)
    assert not ok
    assert np.allclose(np.asarray(failing), [0.0])


def test_assumption_4_square_invertible_pencil():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, 1))
        C = rng.standard_normal((1, n))
        pencil = np.block([[A, B], [C, np.zeros((1, 1))]])
        if abs(np.linalg.det(pencil)) < 1e-6:
            continue
        plant = AgentPlant(A=A, B=B, C=C, P=np.zeros((n, 0)))
        exo = Exosystem(S=np.zeros((0, 0)), w0=np.zeros(0))
        ok, _ = check_assumption_4(plant, exo)
        assert ok


def test_scaled_rank_identity_matches_a4():
    plant = friction_plant()
    exo = Exosystem(S=ROT, w0=np.array([1.0, 0.0]))
    assert check_scaled_rank(plant, exo, np.eye(1)) == \
        check_assumption_4(plant, exo)[0]


def test_scaled_rank_consensus_weight():
    # D = 2 (1 + |N_i|) I is the diagonal weight the gradient map
    # applies to each agent's own output.
    plant = friction_plant()
    exo = Exosystem(S=ROT, w0=np.array([1.0, 0.0]))
    assert check_scaled_rank(plant, exo, 2.0 * 3.0 * np.eye(1))


def test_scaled_rank_rejects_singular_scale():
    plant = friction_plant()
    exo = Exosystem(S=ROT, w0=np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        check_scaled_rank(plant, exo, np.zeros((1, 1)))


def test_scaled_rank_invariance_property():
    # Nonsingular output scalings never change the pencil rank.
    rng = np.random.default_rng(67)
    plant = friction_plant()
    exo = Exosystem(S=ROT, w0=np.array([1.0, 0.0]))
    assert check_assumption_4(plant, exo)[0]
    for _ in range(100):
        D = rng.standard_normal((1, 1))
        while abs(D[0, 0]) < 1e-3:
            D = rng.standard_normal((1, 1))
        assert check_scaled_rank(plant, exo, D)


def test_perturbed_accessors_exact():
    rng = np.random.default_rng(71)
    plant = friction_plant()
    deltas = sample_perturbation(plant, 0.05, rng)
    bumped = dataclasses.replace(plant, **deltas)
    # The perturbation is stored, not re-derived, so the accessor is
    # exactly nominal + delta.
    assert np.array_equal(bumped.dA, deltas["dA"])
    assert np.array_equal(bumped.A_mu, plant.A + deltas["dA"])
    assert np.array_equal(bumped.B_mu, plant.B + deltas["dB"])
    assert np.array_equal(bumped.C_mu, plant.C + deltas["dC"])
    assert np.array_equal(bumped.P_mu, plant.P + deltas["dP"])
    # Nominal accessors keep the unperturbed values.
    assert np.array_equal(bumped.A, plant.A)


def test_sample_perturbation_scale_and_shapes():
    rng = np.random.default_rng(73)
    plant = friction_plant()
    for scale in (0.0, 0.02, 1.0):
        d = sample_perturbation(plant, scale, rng)
        assert d["dA"].shape == plant.A.shape
        assert d["dB"].shape == plant.B.shape
        assert d["dC"].shape == plant.C.shape
        assert d["dP"].shape == plant.P.shape
        for M in d.values():
            assert np.max(np.abs(M)) <= scale


def test_sample_perturbation_deterministic_under_seed():
    plant = friction_plant()
    d1 = sample_perturbation(plant, 0.1, np.random.default_rng(7))
    d2 = sample_perturbation(plant, 0.1, np.random.default_rng(7))
    for key in d1:
        assert np.array_equal(d1[key], d2[key])


def test_plant_shape_validation():
    with pytest.raises(DimensionError):
        AgentPlant(
            A=np.zeros((2, 2)),
            B=np.zeros((3, 1)),
            C=np.zeros((1, 2)),
            P=np.zeros((2, 0)),
        )
