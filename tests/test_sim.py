import csv
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from neseek.errors import (
    DimensionError,
    DivergenceError,
    DomainError,
    FirewallViolation,
)
from neseek.game import cost_from_targets
from neseek.graph import CommGraph
from neseek.plant import AgentPlant, Exosystem, sample_perturbation
from neseek.sim import (
    NeighborView,
    SimConfig,
    Trajectory,
    convergence_metrics,
    simulate,
    simulate_distributed,
    write_csv,
)
from neseek.synthesis import ClosedLoopSystem, assemble_closed_loop

OMEGA = np.pi / 10.0


def toy_loop(a):
    """Scalar closed loop z' = a z with a trivial single-agent game."""
    g = CommGraph(1, directed=True, edges=[])
    game = cost_from_targets([np.zeros(1)], g)
    plant = AgentPlant(A=np.array([[a]]), B=np.zeros((1, 1)),
                       C=np.eye(1), P=np.zeros((1, 0)))
    exo = Exosystem(S=np.zeros((0, 0)), w0=np.zeros(0))
    return ClosedLoopSystem(
        strategy="general",
        A_c=np.array([[a]]),
        P_c=np.zeros((1, 1)),
        C_c=np.array([[1.0]]),
        Q_c=np.zeros((1, 1)),
        S_hat=np.array([[0.0]]),
        v0=np.array([1.0]),
        C_out=np.array([[1.0]]),
        x_slices=(slice(0, 1),),
        ctrl_slices=(slice(1, 1),),
        v_slices=(slice(0, 1),),
        out_slices=(slice(0, 1),),
        game=game,
        plants=(plant,),
        exos=(exo,),
        controllers=(None,),
    )


def test_sim_config_validation():
    with pytest.raises(DomainError):
        SimConfig(dt=0.0, t_end=1.0)
    with pytest.raises(DomainError):
        SimConfig(dt=-1e-3, t_end=1.0)
    with pytest.raises(DomainError):
        SimConfig(dt=1e-3, t_end=1e-4)
    with pytest.raises(DomainError):
        SimConfig(dt=1e-3, t_end=1.0, record_stride=0)
    with pytest.raises(DomainError):
        SimConfig(dt=1e-3, t_end=1.0, record_stride=1.5)


def test_scalar_decay_matches_exponential():
    tr = simulate(toy_loop(-1.0), SimConfig(dt=1e-3, t_end=1.0),
                  z0=np.array([1.0]))
    assert abs(tr.x[0][-1, 0] - np.exp(-1.0)) <= 1e-6


def test_fourth_order_convergence():
    errors = []
    steps = [0.2, 0.1, 0.05, 0.025]
    for dt in steps:
        tr = simulate(toy_loop(-1.0), SimConfig(dt=dt, t_end=1.0),
                      z0=np.array([1.0]))
        errors.append(abs(tr.x[0][-1, 0] - np.exp(-1.0)))
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert slope >= 3.5


def test_divergence_reports_first_bad_time():
    with pytest.raises(DivergenceError) as err:
        simulate(toy_loop(100.0), SimConfig(dt=1e-3, t_end=10.0),
                 z0=np.array([1.0]))
    assert err.value.t_bad is not None
    assert 0.0 < err.value.t_bad < 10.0


def test_record_stride_times():
    tr = simulate(toy_loop(-1.0), SimConfig(dt=0.1, t_end=1.0,
                                            record_stride=3),
                  z0=np.array([1.0]))
    assert np.allclose(tr.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)


def test_trajectory_length_validation():
    with pytest.raises(Exception):
        Trajectory(
            times=np.zeros(3),
            x=(np.zeros((2, 1)),),
            ctrl=(np.zeros((3, 1)),),
            y=(np.zeros((3, 1)),),
            e=(np.zeros((3, 1)),),
            w=(np.zeros((3, 0)),),
            y_star=np.zeros(1),
        )


def test_output_is_measured_state(sensor_digraph):
    tr = simulate(sensor_digraph.cl, SimConfig(dt=1e-3, t_end=2.0,
                                               record_stride=10))
    C = sensor_digraph.plants[0].C
    for i in range(5):
        assert np.allclose(tr.y[i], tr.x[i] @ C.T, atol=1e-12)


def test_exogenous_rotation_exact(sensor_digraph):
    cfg = SimConfig(dt=1e-3, t_end=20.0, record_stride=100)
    tr = simulate(sensor_digraph.cl, cfg)
    S = sensor_digraph.exos[0].S
    w0 = sensor_digraph.exos[0].w0
    for k in range(0, len(tr.times), 20):
        ref = scipy.linalg.expm(S * tr.times[k]) @ w0
        for i in range(5):
            assert np.max(np.abs(tr.w[i][k] - ref)) <= 1e-9


def test_disturbance_persists(sensor_digraph):
    tr = simulate(sensor_digraph.cl, SimConfig(dt=1e-3, t_end=20.0,
                                               record_stride=100))
    norms = np.linalg.norm(tr.w[0], axis=1)
    assert np.min(norms) >= 0.9 * np.linalg.norm(sensor_digraph.exos[0].w0)


def stacked_state(tr, cl):
    """Recorded z, rebuilt from the per-agent plant and controller series."""
    Z = np.empty((len(tr.times), cl.dim_z))
    for sl, arr in zip(cl.x_slices + cl.ctrl_slices, tr.x + tr.ctrl):
        Z[:, sl] = arr
    return Z


def reference_rk4(cl, dt, n_steps, stride):
    """Per-step RK4 loop on the stacked loop, recording like simulate()."""
    E_half = scipy.linalg.expm(cl.S_hat * (dt / 2.0))
    E_full = E_half @ E_half
    A, P = cl.A_c, cl.P_c
    z, v = cl.initial_state(), cl.v0
    rows = [z]
    for k in range(1, n_steps + 1):
        vh, vf = E_half @ v, E_full @ v
        k1 = A @ z + P @ v
        k2 = A @ (z + 0.5 * dt * k1) + P @ vh
        k3 = A @ (z + 0.5 * dt * k2) + P @ vh
        k4 = A @ (z + dt * k3) + P @ vf
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = vf
        if k % stride == 0 or k == n_steps:
            rows.append(z)
    return np.array(rows)


def test_constant_channel_stays_one(sensor_digraph):
    cl = sensor_digraph.cl
    # widen each agent's recorded w to its whole extended block [w; 1]
    wide = dataclasses.replace(cl, exos=tuple(
        SimpleNamespace(q=sl.stop - sl.start) for sl in cl.v_slices
    ))
    # 2000 steps at stride 70 also applies a final partial stride
    tr = simulate(wide, SimConfig(dt=1e-3, t_end=2.0, record_stride=70))
    assert tr.times[-1] == pytest.approx(2.0)
    for w in tr.w:
        assert np.array_equal(w[:, -1], np.ones(len(tr.times)))


@pytest.mark.parametrize("stride", [100, 300])  # 300 ends on a partial stride
def test_propagator_matches_reference_loop(stride, sensor_digraph):
    cl = sensor_digraph.cl
    tr = simulate(cl, SimConfig(dt=1e-3, t_end=5.0, record_stride=stride))
    Z_ref = reference_rk4(cl, 1e-3, 5000, stride)
    assert Z_ref.shape == (len(tr.times), cl.dim_z)
    assert np.max(np.abs(stacked_state(tr, cl) - Z_ref)) <= 1e-10


def test_record_stride_invariance(sensor_digraph):
    t_bad = []
    for stride in (1, 7, 1000):
        with pytest.raises(DivergenceError) as err:
            simulate(toy_loop(100.0),
                     SimConfig(dt=1e-3, t_end=10.0, record_stride=stride),
                     z0=np.array([1.0]))
        t_bad.append(err.value.t_bad)
    assert t_bad[0] == t_bad[1] == t_bad[2]
    assert 7.0 < t_bad[0] < 7.2

    cl = sensor_digraph.cl
    every = simulate(cl, SimConfig(dt=1e-2, t_end=3.0, record_stride=1))
    third = simulate(cl, SimConfig(dt=1e-2, t_end=3.0, record_stride=3))
    assert np.array_equal(third.times, every.times[::3])
    assert np.max(np.abs(stacked_state(third, cl)
                         - stacked_state(every, cl)[::3])) <= 1e-12
    assert np.max(np.abs(np.hstack(third.w) - np.hstack(every.w)[::3])) \
        <= 1e-12


def test_neighbor_view_firewall():
    y_all = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
    view = NeighborView(1, {2}, y_all)
    assert np.array_equal(view.output(2), [2.0])
    with pytest.raises(FirewallViolation):
        view.output(3)
    with pytest.raises(FirewallViolation):
        view.observer_output(2)  # no observer data supplied
    gated = NeighborView(1, {2}, y_all, cxi_all=y_all)
    assert np.array_equal(gated.observer_output(2), [2.0])
    with pytest.raises(FirewallViolation):
        gated.observer_output(1)


def test_distributed_single_agent_matches_stacked():
    g = CommGraph(1, directed=True, edges=[])
    game = cost_from_targets([np.array([-1.0])], g)
    plant = AgentPlant(
        A=np.array([[0.0, 1.0], [0.0, -0.2]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[1.0, 0.0]]),
        P=np.array([[0.0, 0.0], [1.0, 0.0]]),
    )
    exo = Exosystem(S=np.array([[0.0, OMEGA], [-OMEGA, 0.0]]),
                    w0=np.array([1.0, 0.0]))
    from neseek.synthesis import build_controller

    c = build_controller(plant, game.costs[0], exo)
    cl = assemble_closed_loop(game, (plant,), (exo,), (c,), "digraph")
    cfg = SimConfig(dt=1e-3, t_end=5.0, record_stride=50)
    tr_stacked = simulate(cl, cfg)
    tr_dist = simulate_distributed(game, (plant,), (exo,), (c,), "digraph", cfg)
    # Same arithmetic, different loop organization: agreement to within
    # a few ulp of accumulated reordering.
    assert np.max(np.abs(tr_dist.y_stacked() - tr_stacked.y_stacked())) \
        <= 1e-12
    assert np.max(np.abs(tr_dist.e_stacked() - tr_stacked.e_stacked())) \
        <= 1e-12


def test_distributed_rejects_unknown_strategy(sensor_digraph):
    s = sensor_digraph
    with pytest.raises(DimensionError) as err:
        simulate_distributed(s.game, s.plants, s.exos, s.controllers,
                             "centralized", SimConfig(dt=1e-3, t_end=1e-3))
    assert "centralized" in str(err.value)


@pytest.mark.parametrize("strategy", ["digraph", "general"])
def test_distributed_matches_stacked_sensor(strategy, sensor_digraph,
                                            sensor_general):
    s = sensor_digraph if strategy == "digraph" else sensor_general
    cfg = SimConfig(dt=1e-3, t_end=5.0, record_stride=100)
    tr_stacked = simulate(s.cl, cfg)
    tr_dist = simulate_distributed(s.game, s.plants, s.exos,
                                   s.controllers, strategy, cfg)
    dy = np.max(np.abs(tr_dist.y_stacked() - tr_stacked.y_stacked()))
    de = np.max(np.abs(tr_dist.e_stacked() - tr_stacked.e_stacked()))
    assert dy <= 1e-9
    assert de <= 1e-9
    assert np.allclose(tr_dist.times, tr_stacked.times, atol=1e-12)


def test_distributed_matches_stacked_perturbed(sensor_general):
    rng = np.random.default_rng(101)
    s = sensor_general
    bumped = tuple(
        p.with_perturbation(**sample_perturbation(p, 0.02, rng))
        for p in s.plants
    )
    cl = assemble_closed_loop(s.game, bumped, s.exos, s.controllers,
                              "general")
    cfg = SimConfig(dt=1e-3, t_end=2.0, record_stride=50)
    tr_stacked = simulate(cl, cfg)
    tr_dist = simulate_distributed(s.game, bumped, s.exos, s.controllers,
                                   "general", cfg)
    dy = np.max(np.abs(tr_dist.y_stacked() - tr_stacked.y_stacked()))
    assert dy <= 1e-9


def test_metrics_on_invariant_subspace(sensor_digraph):
    s = sensor_digraph
    z0 = s.reg.X_c @ s.cl.v0
    tr = simulate(s.cl, SimConfig(dt=1e-3, t_end=5.0, record_stride=10),
                  z0=z0)
    m = convergence_metrics(tr, tol=1e-3)
    assert m["T_conv"] == 0.0
    assert m["final_output_gap"] <= 1e-9
    assert m["steady_oscillation"] <= 1e-9


def test_metrics_diverging_trajectory():
    tr = simulate(toy_loop(3.0), SimConfig(dt=1e-3, t_end=3.0),
                  z0=np.array([1.0]))
    m = convergence_metrics(tr, tol=1e-3)
    assert m["T_conv"] is None
    assert m["final_output_gap"] > 1.0


def test_metrics_sensor_run(sensor_digraph):
    tr = simulate(sensor_digraph.cl,
                  SimConfig(dt=1e-3, t_end=40.0, record_stride=100))
    m = convergence_metrics(tr, tol=1e-3)
    assert m["T_conv"] is not None
    assert 0.0 < m["T_conv"] < 40.0
    assert m["final_output_gap"] < 1e-3
    assert m["max_error_tail"] < 1e-3


def test_csv_header_and_roundtrip(tmp_path, sensor_digraph):
    tr = simulate(sensor_digraph.cl,
                  SimConfig(dt=1e-3, t_end=1.0, record_stride=200))
    path = tmp_path / "run.csv"
    write_csv(tr, path)
    text = path.read_text().splitlines()
    header = text[0].split(", ")
    assert header[0] == "t"
    assert header[1] == "y_1_1"
    assert header[2] == "y_1_2"
    assert header[11] == "e_1_1"
    assert header[21] == "w_1_1"
    assert len(header) == 1 + 10 + 10 + 10
    assert len(text) == 1 + len(tr.times)
    with open(path) as fh:
        rows = list(csv.reader(fh, skipinitialspace=True))
    got = np.array([[float(v) for v in row] for row in rows[1:]])
    # repr() formatting round-trips every float exactly.
    assert np.array_equal(got[:, 0], tr.times)
    assert np.array_equal(got[:, 1:11], tr.y_stacked())
    assert np.array_equal(got[:, 11:21], tr.e_stacked())
    assert np.array_equal(got[:, 21:31], np.hstack(tr.w))
    # every field is the repr of its float, in column order
    want = np.column_stack([tr.times, *tr.y, *tr.e, *tr.w])
    for line, values in zip(text[1:], want):
        assert line.split(", ") == [repr(float(v)) for v in values]
    # a zero-row trajectory writes the header alone
    empty = dataclasses.replace(
        tr, times=tr.times[:0], x=tuple(a[:0] for a in tr.x),
        ctrl=tuple(a[:0] for a in tr.ctrl), y=tuple(a[:0] for a in tr.y),
        e=tuple(a[:0] for a in tr.e), w=tuple(a[:0] for a in tr.w),
    )
    write_csv(empty, path)
    assert path.read_text().splitlines() == text[:1]
