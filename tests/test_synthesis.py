import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from neseek.errors import (
    AssumptionError,
    DimensionError,
    NonUniqueSolutionError,
    SynthesisError,
)
from neseek.game import assemble_pseudo_gradient, cost_from_targets, solve_ne
from neseek.graph import CommGraph, neighbors
from neseek.internal_model import build_p_copy, verify_internal_model
from neseek.linalg import eigenvalues, is_hurwitz
from neseek.plant import (
    AgentPlant,
    Exosystem,
    check_assumption_3,
    sample_perturbation,
)
from neseek.synthesis import (
    STRATEGIES,
    ClosedLoopSystem,
    Controller,
    SynthesisWeights,
    assemble_closed_loop,
    augmented_stabilizer,
    build_controller,
    certify_stability,
    observer_gain,
    solve_regulator,
    steady_state,
    worst_agent,
)

from conftest import (
    GENERAL_WEIGHTS,
    SENSOR_A,
    SENSOR_B,
    SENSOR_C,
    SENSOR_P,
    SENSOR_S,
    sensor_scenario_doc,
)
from neseek.cli import main
from neseek.scenario import load_controllers, load_scenario, parse_scenario

OMEGA = np.pi / 10.0
ROT = np.array([[0.0, OMEGA], [-OMEGA, 0.0]])


def axis_plant():
    # One axis of the sensor-network agent: position/velocity with
    # damping, position measured, the rotation's first channel forcing
    # the velocity.
    return AgentPlant(
        A=np.array([[0.0, 1.0], [0.0, -0.2]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[1.0, 0.0]]),
        P=np.array([[0.0, 0.0], [1.0, 0.0]]),
    )


def axis_exo():
    return Exosystem(S=ROT, w0=np.array([1.0, 0.0]))


def isolated_setup(target=(-1.0,), disturbed=True):
    """Single agent, scalar output axis."""
    g = CommGraph(1, directed=True, edges=[])
    game = cost_from_targets([np.asarray(target)], g)
    plant = axis_plant()
    if disturbed:
        exo = axis_exo()
    else:
        plant = AgentPlant(A=plant.A, B=plant.B, C=plant.C,
                           P=np.zeros((2, 0)))
        exo = Exosystem(S=np.zeros((0, 0)), w0=np.zeros(0))
    return game, plant, exo


def test_observer_gain_already_stable():
    L = observer_gain(-np.eye(2), np.eye(2))
    ok, _ = is_hurwitz(-np.eye(2) - L @ np.eye(2))
    assert ok


def test_observer_gain_axis_plant():
    plant = axis_plant()
    Cw = 4.0 * plant.C
    L = observer_gain(plant.A, Cw)
    ok, abscissa = is_hurwitz(plant.A - L @ Cw)
    assert ok
    assert abscissa < 0.0


def test_observer_gain_undetectable():
    with pytest.raises(SynthesisError) as err:
        observer_gain(np.eye(2), np.zeros((1, 2)))
    assert "1" in str(err.value)


def test_observer_gain_agrees_with_assumption_3():
    # eigenvalues +-1j come out with real part about -1e-16; A3 treats
    # them as marginal and so must the observer design
    A = np.array([[-1.0, 2.0], [-1.0, 1.0]])
    Cw = np.zeros((1, 2))
    res = check_assumption_3(AgentPlant(A=A, B=np.eye(2), C=Cw))
    assert not res["detectable"]
    with pytest.raises(SynthesisError, match="not detectable"):
        observer_gain(A, Cw)


def test_augmented_stabilizer_scalar_integrator():
    K1, K2 = augmented_stabilizer(
        np.zeros((1, 1)), np.ones((1, 1)), 2.0 * np.ones((1, 1)),
        np.zeros((1, 1)), np.ones((1, 1)),
    )
    closed = np.block([[K1, K2], [np.array([[2.0]]), np.zeros((1, 1))]])
    ok, _ = is_hurwitz(closed)
    assert ok


def test_augmented_stabilizer_axis_plant():
    plant = axis_plant()
    Cw = 4.0 * plant.C
    S_tilde = Exosystem(S=ROT, w0=np.array([1.0, 0.0])).S_tilde
    G1, G2 = build_p_copy(S_tilde, plant.p)
    K1, K2 = augmented_stabilizer(plant.A, plant.B, Cw, G1, G2)
    closed = np.block([
        [plant.A + plant.B @ K1, plant.B @ K2],
        [G2 @ Cw, G1],
    ])
    assert closed.shape == (5, 5)
    ok, _ = is_hurwitz(closed)
    assert ok


def test_augmented_stabilizer_no_control_authority():
    with pytest.raises(SynthesisError) as err:
        augmented_stabilizer(
            np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1)),
            np.zeros((1, 1)), np.ones((1, 1)),
        )
    assert "0" in str(err.value)


def test_digraph_controller_dimensions():
    game, plant, exo = isolated_setup()
    c = build_controller(plant, game.costs[0], exo)
    # The controller state stacks the n-dimensional observer part and
    # the p*s internal model: 2 + 1*3 for one axis.
    assert c.ctrl_dim == 5
    assert c.s == 3
    assert c.L.shape == (2, 1)
    assert c.G2.shape == (3, 1)
    assert c.K.shape == (1, 5)


def test_digraph_template_fidelity():
    # The error-feedback template eta' = M1 eta + M2 e, u = K eta is no
    # longer stored; its blocks must appear in the assembled loop.
    game, plant, exo = isolated_setup()
    # The observer's plant copy is the nominal plant and Rw comes from
    # the cost; neither is stored in the controller.
    c = build_controller(plant, game.costs[0], exo)
    cl = assemble_closed_loop(game, (plant,), (exo,), (c,), "digraph")
    Rw = game.costs[0].R_ii + game.costs[0].R_ii.T
    n = plant.n
    x, eta = cl.x_slices[0], cl.ctrl_slices[0]
    M1 = cl.A_c[eta, eta]
    upper_left = plant.A + plant.B @ c.K1 - c.L @ (Rw @ plant.C)
    assert np.array_equal(M1[:n, :n], upper_left)
    assert np.array_equal(M1[:n, n:], plant.B @ c.K2)
    assert np.array_equal(M1[n:, :n], np.zeros((c.ctrl_dim - n, n)))
    assert np.array_equal(M1[n:, n:], c.G1)
    # eta reads e = Rw C x through M2 = [L; G2]
    M2 = np.vstack([c.L, c.G2])
    assert np.array_equal(cl.A_c[eta, x], M2 @ (Rw @ plant.C))
    assert np.array_equal(cl.A_c[x, eta], plant.B @ c.K)
    assert np.array_equal(c.K, np.hstack([c.K1, c.K2]))


def test_digraph_internal_model_embedded():
    game, plant, exo = isolated_setup()
    c = build_controller(plant, game.costs[0], exo)
    cl = assemble_closed_loop(game, (plant,), (exo,), (c,), "digraph")
    zeta = slice(cl.ctrl_slices[0].start + plant.n, cl.ctrl_slices[0].stop)
    assert verify_internal_model(cl.A_c[zeta, zeta], c.G2, exo.S_tilde)


def test_digraph_disturbance_free_form():
    game, plant, exo = isolated_setup(disturbed=False)
    c = build_controller(plant, game.costs[0], exo)
    # S-tilde = [0]: the internal model collapses to the integrator pair.
    assert np.array_equal(c.G1, np.zeros((1, 1)))
    assert np.array_equal(c.G2, np.eye(1))
    assert c.ctrl_dim == 3


def test_general_controller_dimensions():
    game, plant, exo = isolated_setup()
    c = build_controller(plant, game.costs[0], exo)
    assert c.K1.shape == (1, 2)
    assert c.K2.shape == (1, 3)
    assert c.G1.shape == (3, 3)
    assert c.ctrl_dim == 5


def test_general_disturbance_free_integrator_law():
    game, plant, exo = isolated_setup(disturbed=False)
    c = build_controller(plant, game.costs[0], exo)
    assert np.array_equal(c.G1, np.zeros((1, 1)))
    assert np.array_equal(c.G2, np.eye(1))


def test_strategies_share_gains():
    # A controller is exactly its five gains; one result assembles under
    # both strategies, which the closed loop records.
    game, plant, exo = isolated_setup()
    c = build_controller(plant, game.costs[0], exo)
    assert [f.name for f in dataclasses.fields(Controller)] == \
        ["L", "G1", "G2", "K1", "K2"]
    for kind in STRATEGIES:
        cl = assemble_closed_loop(game, (plant,), (exo,), (c,), kind)
        assert cl.strategy == kind
        assert cl.controllers[0] is c
        ok, _ = certify_stability(cl)
        assert ok


def test_weights_override_changes_gains():
    game, plant, exo = isolated_setup()
    base = build_controller(plant, game.costs[0], exo)
    heavy = build_controller(
        plant, game.costs[0], exo, SynthesisWeights(observer_q=100.0)
    )
    assert not np.array_equal(base.L, heavy.L)
    Rw = game.costs[0].R_ii + game.costs[0].R_ii.T
    ok, _ = is_hurwitz(plant.A - heavy.L @ (Rw @ plant.C))
    assert ok


def test_cost_plant_dimension_mismatch():
    game, plant, exo = isolated_setup(target=(-1.0, 0.0))
    # Cost built for a 2-dimensional output, plant measures 1.
    with pytest.raises(DimensionError):
        build_controller(plant, game.costs[0], exo)


def test_build_controller_rejects_unstabilizable_plant():
    # the mode at +1 is unstable and the input cannot reach it
    game, _, exo = isolated_setup(disturbed=False)
    plant = AgentPlant(A=np.diag([1.0, -1.0]), B=np.array([[0.0], [1.0]]),
                       C=np.array([[1.0, 0.0]]), P=np.zeros((2, 0)))
    with pytest.raises(SynthesisError,
                       match=r"^\(A, B\) not stabilizable at eigenvalue 1\.0$"):
        build_controller(plant, game.costs[0], exo)


def test_assemble_rejects_cycle():
    g = CommGraph(2, directed=True, edges=[(1, 2), (2, 1)])
    game = cost_from_targets([np.zeros(1), np.zeros(1)], g)
    plants = [axis_plant(), axis_plant()]
    exos = [axis_exo() for _ in range(2)]
    controllers = [
        build_controller(plants[i], game.costs[i], exos[i])
        for i in range(2)
    ]
    with pytest.raises(AssumptionError) as err:
        assemble_closed_loop(game, plants, exos, controllers, "digraph")
    assert err.value.number == 5


def test_assemble_rejects_disconnected():
    g = CommGraph(2, directed=False, edges=[])
    game = cost_from_targets([np.zeros(1), np.zeros(1)], g)
    plants = [axis_plant(), axis_plant()]
    exos = [axis_exo() for _ in range(2)]
    controllers = [
        build_controller(plants[i], game.costs[i], exos[i])
        for i in range(2)
    ]
    with pytest.raises(AssumptionError) as err:
        assemble_closed_loop(game, plants, exos, controllers, "general")
    assert err.value.number == 6


def test_assemble_rejects_wrong_controller_kind():
    game, plant, exo = isolated_setup()
    c = build_controller(plant, game.costs[0], exo)
    with pytest.raises(DimensionError) as err:
        assemble_closed_loop(game, (plant,), (exo,), (c,), "centralized")
    assert "centralized" in str(err.value)
    # gains designed for a three-state plant: the observer would have
    # the wrong size, so assembly names the agent and the first gain
    wider = AgentPlant(
        A=scipy.linalg.block_diag(plant.A, [[-1.0]]),
        B=np.vstack([plant.B, [[1.0]]]),
        C=np.hstack([plant.C, [[0.0]]]),
        P=np.vstack([plant.P, [[0.0, 0.0]]]),
    )
    other = build_controller(wider, game.costs[0], exo)
    assert other.n == 3
    with pytest.raises(DimensionError) as err:
        assemble_closed_loop(game, (plant,), (exo,), (other,), "digraph")
    assert "agent 1" in str(err.value) and "L" in str(err.value)


def test_assemble_rejects_disturbance_dimension_mismatch():
    game, plant, exo = isolated_setup()
    narrow = AgentPlant(A=plant.A, B=plant.B, C=plant.C,
                        P=np.array([[0.0], [1.0]]))
    c = build_controller(narrow, game.costs[0], exo)
    with pytest.raises(DimensionError) as err:
        assemble_closed_loop(game, (narrow,), (exo,), (c,), "digraph")
    assert "disturbance" in str(err.value)


def test_assemble_rejects_output_dimension_mismatch():
    # the controller fits its p = 1 plant, but the game's cost is for p = 2
    game, plant, exo = isolated_setup()
    c = build_controller(plant, game.costs[0], exo)
    wide_game, _, _ = isolated_setup(target=(-1.0, 0.0))
    with pytest.raises(DimensionError, match=(
            r"^agent 1: plant has 1 outputs but its cost has output dimension 2$")):
        assemble_closed_loop(wide_game, (plant,), (exo,), (c,), "digraph")


def _misfit_K1(controllers, i):
    """``controllers`` with agent i's K1 one column short."""
    return [dataclasses.replace(c, K1=c.K1[:, :-1]) if k == i else c
            for k, c in enumerate(controllers, start=1)]


@pytest.mark.parametrize("call, message", [
    (lambda s: assemble_closed_loop(s.game, s.plants[:4], s.exos, s.controllers, "digraph"),
     "^plants, exosystems, controllers must match agent count$"),
    (lambda s: assemble_closed_loop(s.game, s.plants, s.exos + s.exos[:1], s.controllers,
                                    "digraph"),
     "^plants, exosystems, controllers must match agent count$"),
    (lambda s: assemble_closed_loop(s.game, s.plants, s.exos,
                                    s.controllers + s.controllers[:1], "digraph"),
     "^plants, exosystems, controllers must match agent count$"),
    (lambda s: assemble_closed_loop(s.game, s.plants, s.exos, s.controllers[:4], "digraph"),
     "^plants, exosystems, controllers must match agent count$"),
    (lambda s: assemble_closed_loop(s.game, s.plants, s.exos, _misfit_K1(s.controllers, 2),
                                    "digraph"),
     r"^agent 2: controller gain K1: shape \(2, 3\), plant implies \(2, 4\)$"),
    (lambda s: steady_state(s.reg, s.cl, s.cl.v0[:-1]),
     r"^v must have \d+ entries, got \(\d+,\)$"),
], ids=["assemble: four plants for five agents", "assemble: six exosystems for five agents",
        "assemble: six controllers for five agents", "assemble: four controllers for five agents",
        "assemble: agent 2's K1 one column short", "steady_state: short v"])
def test_loop_inputs_of_the_wrong_size(call, message, sensor_digraph):
    with pytest.raises(DimensionError, match=message):
        call(sensor_digraph)


def test_single_agent_block_matches_stacked(sensor_digraph):
    # Agent 1 has no neighbors, so its diagonal block of the stacked
    # matrix equals a standalone assembly of the same agent.
    s = sensor_digraph
    g1 = CommGraph(1, directed=True, edges=[])
    game1 = cost_from_targets([np.array([-1.0, 0.0])], g1)
    c1 = build_controller(s.plants[0], game1.costs[0], s.exos[0])
    cl1 = assemble_closed_loop(game1, (s.plants[0],), (s.exos[0],),
                               (c1,), "digraph")
    k = cl1.dim_z
    assert np.array_equal(s.cl.A_c[:k, :k], cl1.A_c)


def test_dag_relabel_zero_pattern():
    rng = np.random.default_rng(89)
    for _ in range(5):
        n_agents = int(rng.integers(2, 6))
        perm = rng.permutation(n_agents) + 1
        edges = []
        for a in range(1, n_agents + 1):
            for b in range(a + 1, n_agents + 1):
                if rng.random() < 0.5:
                    edges.append((int(perm[a - 1]), int(perm[b - 1])))
        g = CommGraph(n_agents, directed=True, edges=edges)
        game = cost_from_targets(
            [rng.standard_normal(1) for _ in range(n_agents)], g
        )
        plants = [axis_plant() for _ in range(n_agents)]
        exos = [axis_exo() for _ in range(n_agents)]
        controllers = [
            build_controller(plants[i], game.costs[i], exos[i])
            for i in range(n_agents)
        ]
        cl = assemble_closed_loop(game, plants, exos, controllers, "digraph")
        # z-blocks permuted by the topological order: everything above
        # the block diagonal must be exactly zero.
        order = list(cl.topo_order)
        block = [
            slice(cl.x_slices[i].start,
                  cl.ctrl_slices[i].stop)
            for i in range(n_agents)
        ]
        for pos_i, agent_i in enumerate(order):
            for agent_j in order[pos_i + 1:]:
                sub = cl.A_c[block[agent_i - 1], block[agent_j - 1]]
                assert np.array_equal(sub, np.zeros_like(sub))


def test_strategies_differ_only_in_observer_coupling(sensor_digraph):
    # The sensor DAG is weakly connected, so both strategies assemble on
    # it from the same gains: the general law adds exactly the blocks
    # xi_i <- xi_j = -L_i R_ij C_j and leaves everything else alone.
    s = sensor_digraph
    cl_g = assemble_closed_loop(s.game, s.plants, s.exos, s.controllers,
                                "general")
    cl_d = s.cl
    for name in ("P_c", "C_c", "Q_c", "S_hat", "C_out", "v0", "x_slices",
                 "ctrl_slices", "v_slices", "out_slices"):
        assert np.array_equal(getattr(cl_g, name), getattr(cl_d, name))
    xi = [slice(sl.start, sl.start + c.n)
          for sl, c in zip(cl_d.ctrl_slices, s.controllers)]
    expected = np.zeros_like(cl_d.A_c)
    for i, c in enumerate(s.controllers, start=1):
        for j in neighbors(s.game.graph, i):
            R_ij = s.game.costs[i - 1].R_ij[j]
            expected[xi[i - 1], xi[j - 1]] = -c.L @ (R_ij @ s.plants[j - 1].C)
    assert np.any(expected)
    assert np.array_equal(cl_g.A_c - cl_d.A_c, expected)


def test_certify_sensor_loops(sensor_digraph, sensor_general):
    for s in (sensor_digraph, sensor_general):
        ok, abscissa = certify_stability(s.cl)
        assert ok
        assert abscissa < 0.0


def test_certify_spectral_split():
    game, plant, exo = isolated_setup()
    c = build_controller(plant, game.costs[0], exo)
    cl = assemble_closed_loop(game, (plant,), (exo,), (c,), "digraph")
    Rw = game.costs[0].R_ii + game.costs[0].R_ii.T
    observer_part = eigenvalues(plant.A - c.L @ (Rw @ plant.C))
    stabilized = np.block([
        [plant.A + plant.B @ c.K1, plant.B @ c.K2],
        [c.G2 @ (Rw @ plant.C), c.G1],
    ])
    want = np.sort_complex(
        np.concatenate([observer_part, eigenvalues(stabilized)])
    )
    got = np.sort_complex(eigenvalues(cl.A_c))
    assert np.max(np.abs(got - want)) <= 1e-6


def test_certify_zeroed_gain_unstable():
    game, plant, exo = isolated_setup(disturbed=False)
    c = build_controller(plant, game.costs[0], exo)
    for kind in ("general", "digraph"):
        # K = [K1 K2] is derived, so zeroing K1 and K2 zeroes it too
        dead = dataclasses.replace(
            c, K1=np.zeros_like(c.K1), K2=np.zeros_like(c.K2)
        )
        assert not dead.K.any()
        cl = assemble_closed_loop(game, (plant,), (exo,), (dead,), kind)
        ok, _ = certify_stability(cl)
        assert not ok


def test_certify_small_perturbation_stays_stable(sensor_digraph):
    rng = np.random.default_rng(97)
    s = sensor_digraph
    plants = tuple(
        dataclasses.replace(p, **sample_perturbation(p, 1e-6, rng))
        for p in s.plants
    )
    cl = assemble_closed_loop(s.game, plants, s.exos, s.controllers, "digraph")
    ok, abscissa = certify_stability(cl)
    assert ok
    _, nominal = certify_stability(s.cl)
    assert abs(abscissa - nominal) < 1e-3


def scalar_loop(A_c, P_c, C_c, Q_c):
    return ClosedLoopSystem(
        strategy="general",
        A_c=np.array([[A_c]]),
        P_c=np.array([[P_c]]),
        C_c=np.array([[C_c]]),
        Q_c=np.array([[Q_c]]),
        S_hat=np.array([[0.0]]),
        v0=np.array([1.0]),
        C_out=np.array([[1.0]]),
        x_slices=(slice(0, 1),),
        ctrl_slices=(slice(1, 1),),
        v_slices=(slice(0, 1),),
        out_slices=(slice(0, 1),),
    )


def test_solve_regulator_scalar_reports_failure():
    # A deliberately wrong Q_c: the equations still solve, and the
    # nonzero error residual is reported rather than raised.
    reg = solve_regulator(scalar_loop(-1.0, 1.0, 1.0, 1.0))
    assert np.allclose(reg.X_c, [[1.0]], atol=1e-12)
    assert reg.residual_err == pytest.approx(2.0, abs=1e-12)


def test_solve_regulator_zero_data():
    reg = solve_regulator(scalar_loop(-1.0, 0.0, 1.0, 0.0))
    assert np.array_equal(reg.X_c, np.zeros((1, 1)))
    assert reg.residual_dyn == 0.0
    assert reg.residual_err == 0.0


def test_solve_regulator_shared_spectrum():
    with pytest.raises(NonUniqueSolutionError):
        solve_regulator(scalar_loop(0.0, 1.0, 1.0, 0.0))


def test_solve_regulator_sensor_residuals(sensor_digraph, sensor_general):
    for s in (sensor_digraph, sensor_general):
        reg = s.reg
        assert reg.residual_dyn <= 1e-8 * max(1.0, reg.scale_dyn)
        assert reg.residual_err <= 1e-8 * max(1.0, reg.scale_err)


def test_steady_state_matches_ne(sensor_digraph, sensor_general):
    for s in (sensor_digraph, sensor_general):
        _, _, y_ss = steady_state(s.reg, s.cl, s.cl.v0)
        assert np.max(np.abs(y_ss - solve_ne(s.pg))) <= 1e-6


def test_steady_state_isolated_reaches_target():
    game, plant, exo = isolated_setup(disturbed=False)
    c = build_controller(plant, game.costs[0], exo)
    cl = assemble_closed_loop(game, (plant,), (exo,), (c,), "digraph")
    reg = solve_regulator(cl)
    x_ss, u_ss, y_ss = steady_state(reg, cl, cl.v0)
    assert np.allclose(y_ss, [-1.0], atol=1e-8)
    # Constant exogenous data: the steady state is an equilibrium.
    assert np.linalg.norm(plant.A @ x_ss + plant.B @ u_ss) <= 1e-8


def test_steady_state_dynamics_residual(sensor_digraph):
    # x_ss lives on the invariant subspace: its drift under the plant
    # dynamics equals the X_c-propagated exosystem motion.
    s = sensor_digraph
    v = s.cl.v0
    z_dot = s.reg.X_c @ (s.cl.S_hat @ v)
    x_ss, u_ss, _ = steady_state(s.reg, s.cl, v)
    m = s.plants[0].m
    for i, plant in enumerate(s.plants):
        x_i = x_ss[4 * i:4 * (i + 1)]
        u_i = u_ss[m * i:m * (i + 1)]
        w_i = v[s.cl.v_slices[i]][:plant.q]
        drift = plant.A @ x_i + plant.B @ u_i + plant.P @ w_i
        assert np.linalg.norm(
            z_dot[s.cl.x_slices[i]] - drift
        ) <= 1e-8


@pytest.fixture(scope="module")
def chain20():
    """20 sensor agents on the chain DAG i -> i+1, i -> i+2."""
    n = 20
    edges = ([(i, i + 1) for i in range(1, n)]
             + [(i, i + 2) for i in range(1, n - 1)])
    rng = np.random.default_rng(20)
    targets = [rng.uniform(-2.0, 2.0, size=2) for _ in range(n)]
    plants = tuple(
        AgentPlant(A=SENSOR_A, B=SENSOR_B, C=SENSOR_C, P=SENSOR_P,
                   x0=np.concatenate([rng.uniform(-2.0, 2.0, size=2),
                                      np.zeros(2)]))
        for _ in range(n)
    )
    exos = tuple(Exosystem(S=SENSOR_S, w0=np.array([1.0, 0.0]))
                 for _ in range(n))
    return n, edges, targets, plants, exos


@pytest.mark.parametrize("strategy", ["digraph", "general"])
def test_chain20_certifies(chain20, strategy):
    # 20 agents give dz = 280 and dv = 60; a dense vectorized regulator
    # system of size (dz dv)^2 would take 2.26 GB.
    n, edges, targets, plants, exos = chain20
    if strategy == "general":
        edges = sorted(set(edges) | {(b, a) for a, b in edges})
    graph = CommGraph(n, directed=strategy == "digraph", edges=edges)
    game = cost_from_targets(targets, graph)
    weights = GENERAL_WEIGHTS if strategy == "general" else SynthesisWeights()
    controllers = [
        build_controller(plants[i], game.costs[i], exos[i], weights)
        for i in range(n)
    ]
    cl = assemble_closed_loop(game, plants, exos, controllers, strategy)
    assert cl.A_c.shape == (280, 280) and cl.S_hat.shape == (60, 60)
    ok, _ = certify_stability(cl)
    assert ok
    reg = solve_regulator(cl)
    assert reg.residual_dyn <= 1e-8 * reg.scale_dyn
    assert reg.residual_err <= 1e-8 * reg.scale_err
    _, _, y_ss = steady_state(reg, cl, cl.v0)
    y_star = solve_ne(assemble_pseudo_gradient(game))
    assert np.max(np.abs(y_ss - y_star)) <= 1e-6


def _perfbench_scenarios():
    """perfbench's seeded scenario generator, loaded read-only from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("perfbench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _separated_abscissa(plant, cost, c):
    """Abscissa of one agent's loop by the separation principle.

    The observer error and the state-feedback loop decouple, so the
    agent's spectrum is spec(A - L Rw C) with spec of the stabilized
    plant/internal-model cascade; no eigensolve of the coupled block.
    """
    Rw = cost.R_ii + cost.R_ii.T
    observer = plant.A - c.L @ (Rw @ plant.C)
    cascade = np.block([[plant.A + plant.B @ c.K1, plant.B @ c.K2],
                        [c.G2 @ (Rw @ plant.C), c.G1]])
    return max(np.max(eigenvalues(observer).real),
               np.max(eigenvalues(cascade).real))


@pytest.mark.parametrize("n", [70, 100])
def test_chain_digraph_synth_certifies_by_agent_blocks(n, tmp_path, capsys):
    # The dense eigensolve of these block-triangular loops put their
    # abscissa at +0.046 (N = 70) and +0.191 (N = 100); each agent's
    # diagonal block is at -0.6163.
    doc = _perfbench_scenarios().chain(n, "digraph", 1,
                                      {"dt": 1e-3, "t_end": 5.0, "record_stride": 100})
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "ctrl.json"
    assert main(["synth", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    abscissa = json.loads(out.read_text())["certificates"]["abscissa"]
    scn = load_scenario(path)
    controllers = load_controllers(out, scn)["controllers"]
    oracle = max(_separated_abscissa(p, cost, c) for p, cost, c
                 in zip(scn.plants, scn.game.costs, controllers))
    assert abs(abscissa - oracle) <= 1e-12
    assert round(abscissa, 4) == -0.6163


def test_digraph_spectra_split_by_agent(sensor_digraph, sensor_general):
    cl = sensor_digraph.cl
    assert len(cl.spectra) == 5
    split, dense = np.concatenate(cl.spectra), eigenvalues(cl.A_c)
    assert split.shape == dense.shape
    # each set lies near the other: the dense solve spreads the
    # eigenvalues repeated across the five equal blocks by up to ~1e-4
    gap = np.abs(split[:, None] - dense[None, :])
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-3
    assert len(sensor_general.cl.spectra) == 1
    assert worst_agent(sensor_general.cl) is None
    # an entry above the block triangle voids the split: one dense spectrum
    A_c = cl.A_c.copy()
    first, last = cl.topo_order[0] - 1, cl.topo_order[-1] - 1
    A_c[cl.x_slices[first].start, cl.x_slices[last].start] = 1e-3
    assert len(dataclasses.replace(cl, A_c=A_c).spectra) == 1


def test_worst_agent_names_the_unstable_block(tmp_path, capsys):
    # agent 3's stated dA turns its velocity damping into growth
    doc = sensor_scenario_doc("digraph")
    doc["agents"][2]["dA"] = {"shape": [4, 4],
                              "data": np.diag([0.0, 0.0, 3.0, 3.0]).ravel().tolist()}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["synth", str(path), "--out", str(tmp_path / "c.json")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and " at agent 3); adjust the synthesis weights" in err[0], err


def test_chain100_general_regulator_residuals():
    doc = _perfbench_scenarios().chain(100, "general", 1,
                                      {"dt": 1e-3, "t_end": 5.0, "record_stride": 100})
    scn = parse_scenario(doc)
    controllers = [build_controller(p, cost, e, scn.weights) for p, cost, e
                   in zip(scn.plants, scn.game.costs, scn.exos)]
    cl = assemble_closed_loop(scn.game, scn.plants, scn.exos, controllers, "general")
    assert cl.A_c.shape == (1400, 1400) and cl.S_hat.shape == (300, 300)
    assert certify_stability(cl)[0]
    reg = solve_regulator(cl)
    assert reg.residual_dyn <= 1e-8 * reg.scale_dyn
    assert reg.residual_err <= 1e-8 * reg.scale_err
