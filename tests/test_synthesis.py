import dataclasses
import json

import numpy as np
import pytest

from neseek.errors import SynthesisError
from neseek.game import assemble_pseudo_gradient, cost_from_targets, solve_ne
from neseek.graph import CommGraph, check_acyclic, neighbors
from neseek.internal_model import build_p_copy
from neseek.linalg import eigenvalues
from neseek.plant import (
    AgentPlant,
    Exosystem,
    check_assumption_3,
    check_assumption_4,
    sample_perturbation,
)
from neseek.synthesis import (
    STRATEGIES,
    ClosedLoopSystem,
    Controller,
    SynthesisWeights,
    _augmented_stabilizer,
    _observer_gain,
    assemble_closed_loop,
    build_controller,
    certify_stability,
    solve_regulator,
    worst_agent,
)

from conftest import (
    GENERAL_WEIGHTS,
    SENSOR_A,
    SENSOR_B,
    SENSOR_C,
    SENSOR_P,
    SENSOR_S,
    _mat,
    chain_loop,
    ctrl_slices,
    is_hurwitz,
    perfbench_scenarios,
    sensor_scenario_doc,
    steady_state,
    verify_internal_model,
)
from neseek.cli import main
from neseek.scenario import load_controllers, load_scenario

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
    L = _observer_gain(-np.eye(2), np.eye(2), SynthesisWeights())
    ok, _ = is_hurwitz(-np.eye(2) - L @ np.eye(2))
    assert ok


def test_observer_gain_axis_plant():
    plant = axis_plant()
    Cw = 4.0 * plant.C
    L = _observer_gain(plant.A, Cw, SynthesisWeights())
    ok, abscissa = is_hurwitz(plant.A - L @ Cw)
    assert ok
    assert abscissa < 0.0


def undisturbed_setup(A, B, C):
    """One agent with plant (A, B, C), no disturbance, and a scalar target."""
    game, _, exo = isolated_setup(disturbed=False)
    plant = AgentPlant(A=A, B=B, C=C, P=np.zeros((np.atleast_2d(A).shape[0], 0)))
    return plant, game.costs[0], exo


def synth_alone(tmp_path, capsys, plant):
    """``synth``'s exit status and stderr lines on ``plant`` as the one,
    undisturbed agent of a scenario; a refusal writes no bundle."""
    doc = {"name": "alone", "strategy": "digraph",
           "graph": {"directed": True, "edges": []},
           "agents": [{"A": _mat(plant.A), "B": _mat(plant.B), "C": _mat(plant.C),
                       "x0": [0.0] * plant.n}],
           "exosystems": [{"S": _mat(np.zeros((0, 0))), "w0": []}],
           "cost": {"targets": [[0.0] * plant.p]}}
    path, out = tmp_path / "alone.json", tmp_path / "ctrl.json"
    path.write_text(json.dumps(doc))
    code = main(["synth", str(path), "--out", str(out)])
    assert code == 0 or not out.exists()
    return code, capsys.readouterr().err.splitlines()


def test_observer_gain_undetectable():
    # the mode at 1 is unstable and C = 0 cannot see it; synth refuses
    # the plant by A3, and a direct call is refused by the CARE's gates
    plant, cost, exo = undisturbed_setup(np.eye(2), np.eye(2), np.zeros((1, 2)))
    for design in (lambda: build_controller(plant, cost, exo, SynthesisWeights()),
                   lambda: _observer_gain(plant.A, plant.C, SynthesisWeights())):
        with pytest.raises(SynthesisError,
                           match=r"^no stabilizing Riccati solution: residual .* exceeds "):
            design()


def test_observer_gain_agrees_with_assumption_3(tmp_path, capsys):
    # eigenvalues +-1j come out with real part about -1e-16; A3 treats
    # them as marginal, so synth, which runs the same check, refuses the
    # plant, and a direct call is refused by the CARE's gates
    A = np.array([[-1.0, 2.0], [-1.0, 1.0]])
    plant, cost, exo = undisturbed_setup(A, np.eye(2), np.zeros((1, 2)))
    assert check_assumption_3(plant)["detectable"]
    assert synth_alone(tmp_path, capsys, plant) == (
        13, ["error: assumptions [3, 4] fail; run the check command for details"])
    for design in (lambda: build_controller(plant, cost, exo, SynthesisWeights()),
                   lambda: _observer_gain(A, plant.C, SynthesisWeights())):
        with pytest.raises(SynthesisError,
                           match=r"^no stabilizing Riccati solution: residual .* exceeds "):
            design()


def test_augmented_stabilizer_scalar_integrator():
    K1, K2 = _augmented_stabilizer(
        np.zeros((1, 1)), np.ones((1, 1)), 2.0 * np.ones((1, 1)),
        np.zeros((1, 1)), np.ones((1, 1)), SynthesisWeights(),
    )
    closed = np.block([[K1, K2], [np.array([[2.0]]), np.zeros((1, 1))]])
    ok, _ = is_hurwitz(closed)
    assert ok


def test_augmented_stabilizer_axis_plant():
    plant = axis_plant()
    Cw = 4.0 * plant.C
    S_tilde = Exosystem(S=ROT, w0=np.array([1.0, 0.0])).S_tilde
    G1, G2 = build_p_copy(S_tilde, plant.p)
    K1, K2 = _augmented_stabilizer(plant.A, plant.B, Cw, G1, G2, SynthesisWeights())
    closed = np.block([
        [plant.A + plant.B @ K1, plant.B @ K2],
        [G2 @ Cw, G1],
    ])
    assert closed.shape == (5, 5)
    ok, _ = is_hurwitz(closed)
    assert ok


def test_augmented_stabilizer_no_control_authority():
    # B = 0 cannot reach the integrator's mode at 0; synth refuses the
    # plant by A3, and a direct call is refused by the CARE's gates
    plant, cost, exo = undisturbed_setup(0.0, 0.0, 1.0)
    singular = r"^no stabilizing Riccati solution: singular sign iterate \(Singular matrix\)$"
    with pytest.raises(SynthesisError, match=singular):
        build_controller(plant, cost, exo, SynthesisWeights())
    with pytest.raises(SynthesisError, match=singular):
        _augmented_stabilizer(
            np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1)),
            np.zeros((1, 1)), np.ones((1, 1)), SynthesisWeights(),
        )


def test_build_controller_refuses_a_plant_failing_only_assumption_4(tmp_path, capsys):
    # stable and so stabilizable and detectable, but C = 0 leaves the
    # pencil rank-deficient at the constant channel's mode 0
    plant, cost, exo = undisturbed_setup(-1.0, 1.0, 0.0)
    assert check_assumption_3(plant) == {"stabilizable": [], "detectable": []}
    assert np.allclose(check_assumption_4(plant, exo), [0.0])
    assert synth_alone(tmp_path, capsys, plant) == (
        14, ["error: assumptions [4] fail; run the check command for details"])
    # called directly, the augmented pair has no stabilizing gain
    with pytest.raises(SynthesisError, match=r"^no stabilizing Riccati solution: "
                                             r"singular sign iterate \(Singular matrix\)$"):
        build_controller(plant, cost, exo, SynthesisWeights())


def test_digraph_controller_dimensions():
    game, plant, exo = isolated_setup()
    c = build_controller(plant, game.costs[0], exo, SynthesisWeights())
    # The controller state stacks the n-dimensional observer part and
    # the p*s internal model: 2 + 1*3 for one axis.
    assert c.ctrl_dim == 5
    assert c.G1.shape[0] // plant.p == 3
    assert c.L.shape == (2, 1)
    assert c.G2.shape == (3, 1)
    assert np.hstack([c.K1, c.K2]).shape == (1, 5)


def test_digraph_template_fidelity():
    # The error-feedback template eta' = M1 eta + M2 e, u = K eta is no
    # longer stored; its blocks must appear in the assembled loop.
    game, plant, exo = isolated_setup()
    # The observer's plant copy is the nominal plant and Rw comes from
    # the cost; neither is stored in the controller.
    c = build_controller(plant, game.costs[0], exo, SynthesisWeights())
    cl = assemble_closed_loop(game, (plant,), (exo,), (c,), "digraph")
    Rw = game.costs[0].R_ii + game.costs[0].R_ii.T
    n = plant.n
    x, eta = cl.x_slices[0], ctrl_slices(cl)[0]
    M1 = cl.A_c[eta, eta]
    upper_left = plant.A + plant.B @ c.K1 - c.L @ (Rw @ plant.C)
    assert np.array_equal(M1[:n, :n], upper_left)
    assert np.array_equal(M1[:n, n:], plant.B @ c.K2)
    assert np.array_equal(M1[n:, :n], np.zeros((c.ctrl_dim - n, n)))
    assert np.array_equal(M1[n:, n:], c.G1)
    # eta reads e = Rw C x through M2 = [L; G2]
    M2 = np.vstack([c.L, c.G2])
    assert np.array_equal(cl.A_c[eta, x], M2 @ (Rw @ plant.C))
    assert np.array_equal(cl.A_c[x, eta], plant.B @ np.hstack([c.K1, c.K2]))


def test_digraph_internal_model_embedded():
    game, plant, exo = isolated_setup()
    c = build_controller(plant, game.costs[0], exo, SynthesisWeights())
    cl = assemble_closed_loop(game, (plant,), (exo,), (c,), "digraph")
    zeta = slice(ctrl_slices(cl)[0].start + plant.n, ctrl_slices(cl)[0].stop)
    assert verify_internal_model(cl.A_c[zeta, zeta], c.G2, exo.S_tilde)


def test_digraph_disturbance_free_form():
    game, plant, exo = isolated_setup(disturbed=False)
    c = build_controller(plant, game.costs[0], exo, SynthesisWeights())
    # S-tilde = [0]: the internal model collapses to the integrator pair.
    assert np.array_equal(c.G1, np.zeros((1, 1)))
    assert np.array_equal(c.G2, np.eye(1))
    assert c.ctrl_dim == 3


def test_general_controller_dimensions():
    game, plant, exo = isolated_setup()
    c = build_controller(plant, game.costs[0], exo, SynthesisWeights())
    assert c.K1.shape == (1, 2)
    assert c.K2.shape == (1, 3)
    assert c.G1.shape == (3, 3)
    assert c.ctrl_dim == 5


def test_general_disturbance_free_integrator_law():
    game, plant, exo = isolated_setup(disturbed=False)
    c = build_controller(plant, game.costs[0], exo, SynthesisWeights())
    assert np.array_equal(c.G1, np.zeros((1, 1)))
    assert np.array_equal(c.G2, np.eye(1))


def test_strategies_share_gains():
    # A controller is exactly its five gains; one result assembles and
    # certifies under both strategies.
    game, plant, exo = isolated_setup()
    c = build_controller(plant, game.costs[0], exo, SynthesisWeights())
    assert [f.name for f in dataclasses.fields(Controller)] == \
        ["L", "G1", "G2", "K1", "K2"]
    for kind in STRATEGIES:
        cl = assemble_closed_loop(game, (plant,), (exo,), (c,), kind)
        ok, _ = certify_stability(cl)
        assert ok


def test_weights_override_changes_gains():
    game, plant, exo = isolated_setup()
    base = build_controller(plant, game.costs[0], exo, SynthesisWeights())
    heavy = build_controller(
        plant, game.costs[0], exo, SynthesisWeights(observer_q=100.0)
    )
    assert not np.array_equal(base.L, heavy.L)
    Rw = game.costs[0].R_ii + game.costs[0].R_ii.T
    ok, _ = is_hurwitz(plant.A - heavy.L @ (Rw @ plant.C))
    assert ok


def test_cost_plant_dimension_mismatch(tmp_path, capsys):
    # a cost for two outputs on a plant that measures one is refused where
    # the scenario is read; build_controller trusts its inputs
    doc = sensor_scenario_doc("digraph")
    doc["agents"][0]["C"] = {"shape": [1, 4], "data": [1.0, 0.0, 0.0, 0.0]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (["check", str(path)], ["synth", str(path), "--out", str(tmp_path / "c.json")]):
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: agents[1]: output dimension 1 does not match cost dimension 2"]
    assert not (tmp_path / "c.json").exists()


def test_build_controller_rejects_unstabilizable_plant(tmp_path, capsys):
    # the mode at +1 is unstable and the input cannot reach it: synth
    # refuses the plant by A3, and a direct call by the CARE's gates
    game, _, exo = isolated_setup(disturbed=False)
    plant = AgentPlant(A=np.diag([1.0, -1.0]), B=np.array([[0.0], [1.0]]),
                       C=np.array([[1.0, 0.0]]), P=np.zeros((2, 0)))
    assert synth_alone(tmp_path, capsys, plant) == (
        13, ["error: assumptions [3, 4] fail; run the check command for details"])
    with pytest.raises(SynthesisError, match=r"^no stabilizing Riccati solution: "
                                             r"singular sign iterate \(Singular matrix\)$"):
        build_controller(plant, game.costs[0], exo, SynthesisWeights())


@pytest.mark.parametrize("call, message", [
    (lambda s: steady_state(s.reg, s.cl, s.controllers, s.cl.v0[:-1]),
     r"^v must have \d+ entries, got \(\d+,\)$"),
], ids=["steady_state: short v"])
def test_loop_inputs_of_the_wrong_size(call, message, sensor_digraph):
    with pytest.raises(ValueError, match=message):
        call(sensor_digraph)


def test_single_agent_block_matches_stacked(sensor_digraph):
    # Agent 1 has no neighbors, so its diagonal block of the stacked
    # matrix equals a standalone assembly of the same agent.
    s = sensor_digraph
    g1 = CommGraph(1, directed=True, edges=[])
    game1 = cost_from_targets([np.array([-1.0, 0.0])], g1)
    c1 = build_controller(s.plants[0], game1.costs[0], s.exos[0], SynthesisWeights())
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
            build_controller(plants[i], game.costs[i], exos[i], SynthesisWeights())
            for i in range(n_agents)
        ]
        cl = assemble_closed_loop(game, plants, exos, controllers, "digraph")
        # z-blocks permuted by the topological order: everything above
        # the block diagonal must be exactly zero.
        ok, order = check_acyclic(g)
        assert ok
        # so the loop's own split is one block per agent, each after
        # the agents it reads
        assert sorted(cl.components) == [(i,) for i in range(n_agents)]
        position = {agents[0] + 1: k for k, agents in enumerate(cl.components)}
        assert all(position[j] < position[i] for j, i in edges)
        block = [
            slice(cl.x_slices[i].start,
                  ctrl_slices(cl)[i].stop)
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
                 "v_slices", "out_slices"):
        assert np.array_equal(getattr(cl_g, name), getattr(cl_d, name))
    xi = [slice(sl.start, sl.start + c.n)
          for sl, c in zip(ctrl_slices(cl_d), s.controllers)]
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
    c = build_controller(plant, game.costs[0], exo, SynthesisWeights())
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
    c = build_controller(plant, game.costs[0], exo, SynthesisWeights())
    for kind in ("general", "digraph"):
        # u = K1 xi + K2 zeta: zeroing K1 and K2 zeroes the feedback
        dead = dataclasses.replace(
            c, K1=np.zeros_like(c.K1), K2=np.zeros_like(c.K2)
        )
        assert not np.hstack([dead.K1, dead.K2]).any()
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
        A_c=np.array([[A_c]]),
        P_c=np.array([[P_c]]),
        C_c=np.array([[C_c]]),
        Q_c=np.array([[Q_c]]),
        S_hat=np.array([[0.0]]),
        z0=np.zeros(1),
        v0=np.array([1.0]),
        C_out=np.array([[1.0]]),
        x_slices=(slice(0, 1),),
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
    with pytest.raises(SynthesisError, match="overlap"):
        solve_regulator(scalar_loop(0.0, 1.0, 1.0, 0.0))


def test_solve_regulator_sensor_residuals(sensor_digraph, sensor_general):
    for s in (sensor_digraph, sensor_general):
        reg = s.reg
        assert reg.residual_dyn <= 1e-8 * max(1.0, reg.scale_dyn)
        assert reg.residual_err <= 1e-8 * max(1.0, reg.scale_err)


def test_steady_state_matches_ne(sensor_digraph, sensor_general):
    for s in (sensor_digraph, sensor_general):
        _, _, y_ss = steady_state(s.reg, s.cl, s.controllers, s.cl.v0)
        assert np.max(np.abs(y_ss - solve_ne(s.pg))) <= 1e-6


def test_steady_state_isolated_reaches_target():
    game, plant, exo = isolated_setup(disturbed=False)
    c = build_controller(plant, game.costs[0], exo, SynthesisWeights())
    cl = assemble_closed_loop(game, (plant,), (exo,), (c,), "digraph")
    reg = solve_regulator(cl)
    x_ss, u_ss, y_ss = steady_state(reg, cl, (c,), cl.v0)
    assert np.allclose(y_ss, [-1.0], atol=1e-8)
    # Constant exogenous data: the steady state is an equilibrium.
    assert np.linalg.norm(plant.A @ x_ss + plant.B @ u_ss) <= 1e-8


def test_steady_state_dynamics_residual(sensor_digraph):
    # x_ss lives on the invariant subspace: its drift under the plant
    # dynamics equals the X_c-propagated exosystem motion.
    s = sensor_digraph
    v = s.cl.v0
    z_dot = s.reg.X_c @ (s.cl.S_hat @ v)
    x_ss, u_ss, _ = steady_state(s.reg, s.cl, s.controllers, v)
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
    _, _, y_ss = steady_state(reg, cl, controllers, cl.v0)
    y_star = solve_ne(assemble_pseudo_gradient(game))
    assert np.max(np.abs(y_ss - y_star)) <= 1e-6


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


def synth_chain_dag(n, strategy, tmp_path, capsys):
    """(stored abscissa, per-agent oracle) of ``synth`` on perfbench's
    ``chain(n)`` DAG, directed, under ``strategy``."""
    scenarios = perfbench_scenarios()
    doc = scenarios.chain(n, strategy, 1, {"dt": 1e-3, "t_end": 5.0, "record_stride": 100})
    doc["graph"] = {"directed": True,
                    "edges": [list(e) for e in scenarios.chain_with_skips(n)]}
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
    return abscissa, oracle


@pytest.mark.parametrize("n", [70, 100])
def test_chain_digraph_synth_certifies_by_agent_blocks(n, tmp_path, capsys):
    # The dense eigensolve of these block-triangular loops put their
    # abscissa at +0.046 (N = 70) and +0.191 (N = 100); each agent's
    # diagonal block is at -0.6163.
    abscissa, oracle = synth_chain_dag(n, "digraph", tmp_path, capsys)
    assert abs(abscissa - oracle) <= 1e-12
    assert round(abscissa, 4) == -0.6163


@pytest.mark.parametrize("n", [5, 20, 50])
def test_chain_dag_general_synth_certifies_by_agent_blocks(n, tmp_path, capsys):
    # The general loop on the directed chain is block-triangular by agent
    # too, read from A_c.  The dense eigensolve stored -0.8645, -0.8079
    # and -0.7310 (N = 5, 20, 50); each agent's diagonal block is at
    # -0.86603.
    abscissa, oracle = synth_chain_dag(n, "general", tmp_path, capsys)
    assert abs(abscissa - oracle) <= 1e-12
    assert round(abscissa, 5) == -0.86603


def test_digraph_spectra_split_by_agent(sensor_digraph, sensor_general):
    cl = sensor_digraph.cl
    assert len(cl.spectra) == 5
    split, dense = np.concatenate(cl.spectra), eigenvalues(cl.A_c)
    assert split.shape == dense.shape
    # each set lies near the other: the dense solve spreads the
    # eigenvalues repeated across the five equal blocks by up to ~1e-4
    gap = np.abs(split[:, None] - dense[None, :])
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-3
    # bitwise the per-agent slices, in agent order on this DAG
    assert cl.components == tuple((i,) for i in range(5))
    for e, x, c in zip(cl.spectra, cl.x_slices, ctrl_slices(cl)):
        assert e.tobytes() == eigenvalues(cl.A_c[x.start:c.stop, x.start:c.stop]).tobytes()
    # the undirected general loop is one block, bitwise the dense spectrum
    assert sensor_general.cl.components == (tuple(range(5)),)
    assert sensor_general.cl.spectra[0].tobytes() == eigenvalues(sensor_general.cl.A_c).tobytes()
    assert worst_agent(sensor_general.cl) is None
    # agent 1 reading agent 5 closes the cycle 1 -> 3 -> 5 -> 1 of the
    # DAG's edges 1 -> 3 and 3 -> 5: agents 1, 3 and 5 become one block,
    # which is not a run of consecutive agents
    A_c = cl.A_c.copy()
    A_c[cl.x_slices[0].start, cl.x_slices[4].start] = 1e-3
    cycled = dataclasses.replace(cl, A_c=A_c)
    assert cycled.components == ((0, 2, 4), (1,), (3,))
    rows = np.r_[cl.x_slices[0].start:ctrl_slices(cl)[0].stop,
                 cl.x_slices[2].start:ctrl_slices(cl)[2].stop,
                 cl.x_slices[4].start:ctrl_slices(cl)[4].stop]
    assert cycled.spectra[0].tobytes() == eigenvalues(A_c[np.ix_(rows, rows)]).tobytes()


def test_worst_agent_names_the_unstable_block(tmp_path, capsys):
    # agent 3's stated dA turns its velocity damping into growth
    doc = sensor_scenario_doc("digraph")
    doc["agents"][2]["dA"] = {"shape": [4, 4],
                              "data": np.diag([0.0, 0.0, 3.0, 3.0]).ravel().tolist()}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["synth", str(path), "--out", str(tmp_path / "c.json")]) == 4
    err = capsys.readouterr().err.splitlines()
    # the stated perturbation is named, not the weights, which cannot undo it
    assert len(err) == 1 and err[0].endswith(
        " at agent 3) with the stated perturbations of agent 3 (dA)"), err


def cycle_and_tail_doc(edges):
    """General-strategy scenario of four undisturbed one-axis agents on the
    digraph ``edges``; each agent has its own damping and input gain, so
    the loop's eigenvalues are simple and well apart."""
    return {"name": "cycle-and-tail", "strategy": "general",
            "graph": {"directed": True, "edges": edges},
            "agents": [{"A": _mat([[0.0, 1.0], [0.0, -0.2 - 0.5 * k]]),
                        "B": _mat([[0.0], [1.0 + k]]), "C": _mat([[1.0, 0.0]]),
                        "x0": [float(k), 0.0]} for k in range(4)],
            "exosystems": [{"S": _mat(np.zeros((0, 0))), "w0": []}] * 4,
            "cost": {"targets": [[float(k)] for k in range(4)]}}


@pytest.mark.parametrize("edges, components", [
    ([[1, 2], [2, 1], [2, 3], [3, 4]], ((0, 1), (2,), (3,))),
    ([[1, 3], [3, 1], [1, 2], [2, 4]], ((0, 2), (1,), (3,))),
], ids=["consecutive cycle", "cycle of agents 1 and 3"])
def test_general_loop_on_a_cycle_with_a_tail_splits_by_component(
        edges, components, tmp_path, capsys):
    # the 2-cycle is one diagonal block of A_c, and each tail agent one
    path, out = tmp_path / "scenario.json", tmp_path / "ctrl.json"
    path.write_text(json.dumps(cycle_and_tail_doc(edges)))
    assert main(["synth", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    scn = load_scenario(path)
    cl = assemble_closed_loop(scn.game, scn.plants, scn.exos,
                              load_controllers(out, scn)["controllers"], "general")
    assert cl.components == components
    split, dense = np.concatenate(cl.spectra), eigenvalues(cl.A_c)
    assert split.shape == dense.shape
    gap = np.abs(split[:, None] - dense[None, :])
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-10
    assert json.loads(out.read_text())["certificates"]["abscissa"] == certify_stability(cl)[1]


@pytest.mark.parametrize("agent, named", [(1, "agents 1, 2"), (4, "agent 4")])
def test_worst_agent_names_every_agent_of_the_unstable_block(agent, named, tmp_path, capsys):
    # the stated dA turns the agent's damping into growth; its block is
    # the 2-cycle {1, 2} or the tail agent 4
    doc = cycle_and_tail_doc([[1, 2], [2, 1], [2, 3], [3, 4]])
    doc["agents"][agent - 1]["dA"] = _mat([[0.0, 0.0], [0.0, 5.0]])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["synth", str(path), "--out", str(tmp_path / "c.json")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith(
        f" at {named}) with the stated perturbations of agent {agent} (dA)"), err


def test_worst_agent_breaks_a_tie_by_the_lowest_agent():
    # on the path 3 -> 2 -> 1 agent 2's block comes before agent 1's in
    # topological order; both read one neighbor, so with the same stated
    # dA their unstable blocks are equal and their abscissas tie
    g = CommGraph(3, directed=True, edges=[(3, 2), (2, 1)])
    game = cost_from_targets([np.zeros(1)] * 3, g)
    plants = [dataclasses.replace(axis_plant(), dA=np.diag([0.0, 3.0] if i < 2 else [0.0, 0.0]))
              for i in range(3)]
    exos = [axis_exo()] * 3
    controllers = [build_controller(p, cost, e, SynthesisWeights())
                   for p, cost, e in zip(plants, game.costs, exos)]
    cl = assemble_closed_loop(game, plants, exos, controllers, "digraph")
    assert cl.components == ((2,), (1,), (0,))
    abscissas = [np.max(e.real) for e in cl.spectra]
    assert abscissas[1] == abscissas[2] > 0
    assert worst_agent(cl) == (1,)


def test_chain100_general_regulator_residuals():
    cl = chain_loop(100, "general")
    assert cl.A_c.shape == (1400, 1400) and cl.S_hat.shape == (300, 300)
    assert certify_stability(cl)[0]
    reg = solve_regulator(cl)
    assert reg.residual_dyn <= 1e-8 * reg.scale_dyn
    assert reg.residual_err <= 1e-8 * reg.scale_err
