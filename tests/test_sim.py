import csv
import dataclasses
import io
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from neseek.errors import NeseekError, ScenarioError
from neseek.game import (
    LocalCost,
    NetworkGame,
    assemble_pseudo_gradient,
    cost_from_targets,
    solve_ne,
)
from neseek.graph import CommGraph, neighbors
from neseek.plant import AgentPlant, Exosystem, sample_perturbation
from neseek.sim import (
    BLOCK_ROWS,
    SimConfig,
    _exo_steppers,
    _rk4_map,
    csv_rows,
    propagate,
    rk4_dt_limit,
    rk4_radius,
    series_metrics,
    write_records,
)
from neseek.synthesis import (
    ClosedLoopSystem,
    SynthesisWeights,
    assemble_closed_loop,
    build_controller,
    certify_stability,
    solve_regulator,
)

from conftest import _build, _mat, chain_loop, sensor_scenario_doc, steady_state
from reference_loop import (
    FirewallViolation,
    NeighborView,
    Trajectory,
    simulate,
    simulate_distributed,
)
from neseek.cli import main
from neseek.scenario import load_controllers, load_scenario

OMEGA = np.pi / 10.0


def toy_loop(a):
    """Scalar closed loop z' = a z, z(0) = 1, of one agent with no disturbance."""
    return ClosedLoopSystem(
        A_c=np.array([[a]]),
        P_c=np.zeros((1, 1)),
        C_c=np.array([[1.0]]),
        Q_c=np.zeros((1, 1)),
        S_hat=np.array([[0.0]]),
        z0=np.ones(1),
        v0=np.array([1.0]),
        C_out=np.array([[1.0]]),
        x_slices=(slice(0, 1),),
        v_slices=(slice(0, 1),),
        out_slices=(slice(0, 1),),
    )


def nonfinite_time(err):
    """The time named by the NeseekError of a state that became non-finite."""
    match = re.fullmatch(r"state became non-finite at t = (\S+)", str(err.value))
    assert match, str(err.value)
    return float(match.group(1))


def test_sim_config_validation():
    with pytest.raises(ScenarioError):
        SimConfig(dt=0.0, t_end=1.0, record_stride=1)
    with pytest.raises(ScenarioError):
        SimConfig(dt=-1e-3, t_end=1.0, record_stride=1)
    with pytest.raises(ScenarioError):
        SimConfig(dt=1e-3, t_end=1e-4, record_stride=1)
    with pytest.raises(ScenarioError):
        SimConfig(dt=1e-3, t_end=1.0, record_stride=0)
    with pytest.raises(ScenarioError):
        SimConfig(dt=1e-3, t_end=1.0, record_stride=1.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ScenarioError):
            SimConfig(dt=0.1, t_end=bad, record_stride=1)
        with pytest.raises(ScenarioError):
            SimConfig(dt=0.1, t_end=1.0, record_stride=bad)
        with pytest.raises(ScenarioError, match="dt must be positive and finite"):
            SimConfig(dt=bad, t_end=1.0, record_stride=1)
    with pytest.raises(ScenarioError, match="t_end must be non-negative"):
        SimConfig(dt=0.1, t_end=-0.1, record_stride=1)
    with pytest.raises(ScenarioError, match="shorter than dt"):
        SimConfig(dt=2.0, t_end=1.0, record_stride=1)
    # a horizon between steps is refused, naming the nearest one reached
    for dt, t_end, nearest in ((2.0, 5.0, "4"), (0.3, 1.0, "0.9"),
                               (1e-3, 1.0005, "1")):
        with pytest.raises(ScenarioError, match=f"nearest reachable t_end is {nearest}$"):
            SimConfig(dt=dt, t_end=t_end, record_stride=1)
    # a step count beyond float range names no nearest t_end
    for dt, t_end in ((1e-320, 100.0), (5e-324, 1.0), (1e-300, 1e300)):
        message = f"t_end {t_end!r} at dt {dt!r} is more steps than a float can count"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            SimConfig(dt=dt, t_end=t_end, record_stride=1)
    assert SimConfig(dt=0.1, t_end=0.0, record_stride=1).n_steps == 0
    assert SimConfig(dt=0.1, t_end=0.3, record_stride=1).n_steps == 3
    assert SimConfig(dt=1e-3, t_end=100.0, record_stride=1).n_steps == 100_000
    # a whole-number float stride is kept as an int that simulate can use
    cfg = SimConfig(dt=1e-3, t_end=0.01, record_stride=2.0)
    assert type(cfg.record_stride) is int and cfg.record_stride == 2
    assert len(simulate(toy_loop(-1.0), cfg).times) == 6
    with pytest.raises(ScenarioError, match="record_stride '2' is not a positive integer"):
        SimConfig(dt=1e-3, t_end=0.01, record_stride="2")
    with pytest.raises(ScenarioError, match="dt must be positive and finite, got '0.1'"):
        SimConfig(dt="0.1", t_end=1.0, record_stride=1)
    with pytest.raises(ScenarioError, match="t_end must be non-negative and finite, got None"):
        SimConfig(dt=0.1, t_end=None, record_stride=1)


def test_scalar_decay_matches_exponential():
    tr = simulate(toy_loop(-1.0), SimConfig(dt=1e-3, t_end=1.0, record_stride=1))
    assert abs(tr.Z[-1, 0] - np.exp(-1.0)) <= 1e-6


def test_fourth_order_convergence():
    errors = []
    steps = [0.2, 0.1, 0.05, 0.025]
    for dt in steps:
        tr = simulate(toy_loop(-1.0), SimConfig(dt=dt, t_end=1.0, record_stride=1))
        errors.append(abs(tr.Z[-1, 0] - np.exp(-1.0)))
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert slope >= 3.5


def test_divergence_reports_first_bad_time():
    with pytest.raises(NeseekError) as err:
        simulate(toy_loop(100.0), SimConfig(dt=1e-3, t_end=10.0, record_stride=1))
    assert 0.0 < nonfinite_time(err) < 10.0


def test_overflowing_power_is_replayed_step_by_step():
    # the unstable mode is never excited, but M^1000 overflows in it
    # (about e^1000), so each stride is replayed with single steps; at
    # t_end 70 the second block's first record is replayed too
    cl = dataclasses.replace(
        toy_loop(-1.0), A_c=np.diag([-1.0, 1000.0]), P_c=np.zeros((2, 1)),
        C_c=np.array([[1.0, 0.0]]), C_out=np.array([[1.0, 0.0]]), z0=np.array([1.0, 0.0]),
    )
    for t_end in (2.0, 70.0):
        strided = simulate(cl, SimConfig(dt=1e-3, t_end=t_end, record_stride=1000))
        every = simulate(cl, SimConfig(dt=1e-3, t_end=t_end, record_stride=1))
        assert np.array_equal(strided.times, every.times[::1000])
        x = cl.x_slices[0]
        assert np.array_equal(strided.Z[:, x], every.Z[::1000, x])
        assert np.array_equal(strided.E, every.E[::1000])
    assert BLOCK_ROWS < len(strided.times) == 71


def test_block_finiteness_check_reports_first_bad_step():
    # e^(100 t) overflows near t = 7.1, inside a block of records
    cl, cfg = toy_loop(100.0), SimConfig(dt=1e-3, t_end=10.0, record_stride=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NeseekError) as err:
            simulate(cl, cfg)
    # the same map applied one step at a time, tested after every step
    M = _rk4_map(cl.A_c, cl.P_c, *_exo_steppers(cl.S_hat, cfg.dt), cfg.dt)
    x = np.array([1.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.n_steps + 1):
            x = M @ x
            if not np.isfinite(x[:1]).all():
                break
    assert 0 < k % BLOCK_ROWS < BLOCK_ROWS - 1
    assert str(err.value) == f"state became non-finite at t = {k * cfg.dt:.6g}"


@pytest.mark.parametrize("t_end, rows", [(0.0, 1), (0.063, 64), (0.064, 65), (0.128, 129)])
def test_propagate_yields_blocks_of_the_records(t_end, rows, sensor_digraph):
    cl = sensor_digraph.cl
    cfg = SimConfig(dt=1e-3, t_end=t_end, record_stride=1)
    blocks = list(propagate(cl, cfg))
    assert [len(X) for _, X in blocks] == [
        min(BLOCK_ROWS, rows - start) for start in range(0, rows, BLOCK_ROWS)]
    times = np.concatenate([t for t, _ in blocks])
    X = np.concatenate([X for _, X in blocks])
    tr = simulate(cl, cfg)
    assert np.array_equal(times, tr.times)
    assert np.array_equal(X[:, :cl.dim_z], tr.Z)
    assert np.array_equal(X[0], np.concatenate([cl.z0, cl.v0]))


def first_block_peak(cl, cfg):
    """tracemalloc peak of computing the first block of ``propagate``."""
    tracemalloc.start()
    try:
        next(propagate(cl, cfg))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_first_block_memory_is_flat_in_the_record_count(sensor_digraph):
    # the record schedule is computed a block at a time: the first block
    # of 10^6 records costs what the first block of 10^4 does
    cl = sensor_digraph.cl
    first_block_peak(cl, SimConfig(dt=1e-3, t_end=10.0, record_stride=1))  # one-time allocations
    small = first_block_peak(cl, SimConfig(dt=1e-3, t_end=10.0, record_stride=1))
    large = first_block_peak(cl, SimConfig(dt=1e-3, t_end=1000.0, record_stride=1))
    assert large <= 2 * small, (large, small)


def test_divergence_in_a_later_blocks_first_record():
    # the record holding the first non-finite step opens a block, so
    # its stride is replayed from the last record of the block before
    cl = toy_loop(100.0)
    k = round(simulate_error_time(cl, SimConfig(dt=1e-3, t_end=10.0, record_stride=1)) / 1e-3)
    stride = next(s for s in range(2, 200) if -(-k // s) % BLOCK_ROWS == 0)
    cfg = SimConfig(dt=1e-3, t_end=10.0, record_stride=stride)
    assert round(simulate_error_time(cl, cfg) / 1e-3) == k


def test_both_integrators_report_an_unstable_step_map(sensor_digraph):
    # at dt 1 the certified loop's RK4 step map is unstable: the reference
    # loop's overflow is the same NeseekError, not a numpy warning
    s = sensor_digraph
    cfg = SimConfig(dt=1.0, t_end=2000.0, record_stride=1)
    with pytest.raises(NeseekError) as stacked:
        simulate(s.cl, cfg)
    with pytest.raises(NeseekError) as distributed:
        simulate_distributed(s.game, s.plants, s.exos, s.controllers, s.strategy, cfg)
    assert abs(nonfinite_time(stacked) - nonfinite_time(distributed)) <= cfg.dt


def simulate_error_time(cl, cfg):
    with pytest.raises(NeseekError) as err:
        simulate(cl, cfg)
    return nonfinite_time(err)


def test_record_stride_times():
    tr = simulate(toy_loop(-1.0), SimConfig(dt=0.1, t_end=1.0,
                                            record_stride=3))
    assert np.allclose(tr.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)


def test_trajectory_length_validation():
    rows = dict(Z=np.zeros((3, 2)), Y=np.zeros((3, 1)), E=np.zeros((3, 1)), W=np.zeros((3, 0)))
    Trajectory(times=np.zeros(3), **rows)
    for name in rows:
        short = dict(rows, **{name: rows[name][:2]})
        with pytest.raises(ValueError, match=f"^{name} has 2 rows, times has 3$"):
            Trajectory(times=np.zeros(3), **short)


def test_output_is_measured_state(sensor_digraph):
    tr = simulate(sensor_digraph.cl, SimConfig(dt=1e-3, t_end=2.0,
                                               record_stride=10))
    cl, C = sensor_digraph.cl, sensor_digraph.plants[0].C
    for x, out in zip(cl.x_slices, cl.out_slices):
        assert np.allclose(tr.Y[:, out], tr.Z[:, x] @ C.T, atol=1e-12)


def test_exogenous_rotation_exact(sensor_digraph):
    cfg = SimConfig(dt=1e-3, t_end=20.0, record_stride=100)
    tr = simulate(sensor_digraph.cl, cfg)
    S = sensor_digraph.exos[0].S
    w0 = sensor_digraph.exos[0].w0
    for k in range(0, len(tr.times), 20):
        ref = scipy.linalg.expm(S * tr.times[k]) @ w0
        # every agent's w_i, in agent order
        assert np.max(np.abs(tr.W[k] - np.tile(ref, 5))) <= 1e-9


def test_exo_steppers_squaring_branch(sensor_digraph):
    # a step long enough that ||S_hat dt/2||_1 > 1/2, so expm squares
    S_hat, dt = sensor_digraph.cl.S_hat, 4.0
    assert np.linalg.norm(S_hat * (dt / 2.0), 1) > 0.5
    E_half, E_full = _exo_steppers(S_hat, dt)
    assert np.allclose(E_half, scipy.linalg.expm(S_hat * (dt / 2.0)),
                       rtol=0.0, atol=1e-14)
    assert np.allclose(E_full, scipy.linalg.expm(S_hat * dt), rtol=0.0, atol=1e-14)


def test_fast_exosystem_through_the_commands(tmp_path, capsys):
    # at omega = 150 and dt = 0.01, ||S_hat dt / 2||_1 = 0.75 > 1/2, so
    # sim's exosystem steppers take expm's squaring step
    omega = 150.0
    doc = sensor_scenario_doc("digraph",
                              sim={"dt": 0.01, "t_end": 2.0, "record_stride": 1})
    for exo in doc["exosystems"]:
        exo["S"] = _mat([[0.0, omega], [-omega, 0.0]])
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(doc))
    ctrl, out = tmp_path / "ctrl.json", tmp_path / "run.csv"
    assert main(["check", str(path)]) == 0
    assert main(["synth", str(path), "--out", str(ctrl)]) == 0
    assert main(["sim", str(path), "--controllers", str(ctrl), "--out", str(out)]) == 0
    capsys.readouterr()
    header = out.read_text().splitlines()[0].split(", ")
    table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    t = table[:, 0]
    assert len(t) == 201
    for i in range(1, 6):
        w = table[:, [header.index(f"w_{i}_1"), header.index(f"w_{i}_2")]]
        assert np.max(np.abs(w - np.column_stack([np.cos(omega * t),
                                                  -np.sin(omega * t)]))) <= 1e-12


def test_disturbance_persists(sensor_digraph):
    tr = simulate(sensor_digraph.cl, SimConfig(dt=1e-3, t_end=20.0,
                                               record_stride=100))
    norms = np.linalg.norm(tr.W[:, :sensor_digraph.exos[0].q], axis=1)
    assert np.min(norms) >= 0.9 * np.linalg.norm(sensor_digraph.exos[0].w0)


def reference_rk4(cl, dt, n_steps, stride):
    """Per-step RK4 loop on the stacked loop, recording like simulate()."""
    E_half = scipy.linalg.expm(cl.S_hat * (dt / 2.0))
    E_full = E_half @ E_half
    A, P = cl.A_c, cl.P_c
    z, v = cl.z0, cl.v0
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
    # 2000 steps at stride 70 also applies a final partial stride
    cfg = SimConfig(dt=1e-3, t_end=2.0, record_stride=70)
    times, X = (np.concatenate(a) for a in zip(*propagate(cl, cfg)))
    assert times[-1] == pytest.approx(2.0)
    # each agent's last v entry is its channel, which the recorded w leaves out
    channels = [sl.stop - 1 for sl in cl.v_slices]
    V = X[:, cl.dim_z:]
    assert np.array_equal(V[:, channels], np.ones((len(times), len(channels))))
    assert np.array_equal(simulate(cl, cfg).W, np.delete(V, channels, axis=1))


@pytest.mark.parametrize("stride", [100, 300])  # 300 ends on a partial stride
def test_propagator_matches_reference_loop(stride, sensor_digraph):
    cl = sensor_digraph.cl
    tr = simulate(cl, SimConfig(dt=1e-3, t_end=5.0, record_stride=stride))
    Z_ref = reference_rk4(cl, 1e-3, 5000, stride)
    assert Z_ref.shape == (len(tr.times), cl.dim_z)
    assert np.max(np.abs(tr.Z - Z_ref)) <= 1e-10


def test_record_stride_invariance(sensor_digraph):
    t_bad = []
    for stride in (1, 7, 1000):
        with pytest.raises(NeseekError) as err:
            simulate(toy_loop(100.0),
                     SimConfig(dt=1e-3, t_end=10.0, record_stride=stride))
        t_bad.append(nonfinite_time(err))
    assert t_bad[0] == t_bad[1] == t_bad[2]
    assert 7.0 < t_bad[0] < 7.2

    cl = sensor_digraph.cl
    every = simulate(cl, SimConfig(dt=1e-2, t_end=3.0, record_stride=1))
    third = simulate(cl, SimConfig(dt=1e-2, t_end=3.0, record_stride=3))
    assert np.array_equal(third.times, every.times[::3])
    assert np.max(np.abs(third.Z - every.Z[::3])) <= 1e-12
    assert np.max(np.abs(third.W - every.W[::3])) <= 1e-12


def test_neighbor_view_firewall():
    y_all = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
    view = NeighborView(1, {2}, y_all, None)
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

    c = build_controller(plant, game.costs[0], exo, SynthesisWeights())
    cl = assemble_closed_loop(game, (plant,), (exo,), (c,), "digraph")
    cfg = SimConfig(dt=1e-3, t_end=5.0, record_stride=50)
    tr_stacked = simulate(cl, cfg)
    tr_dist = simulate_distributed(game, (plant,), (exo,), (c,), "digraph", cfg)
    # Same arithmetic, different loop organization: agreement to within
    # a few ulp of accumulated reordering.
    assert np.max(np.abs(tr_dist.Y - tr_stacked.Y)) <= 1e-12
    assert np.max(np.abs(tr_dist.E - tr_stacked.E)) <= 1e-12


@pytest.mark.parametrize("strategy", ["digraph", "general"])
def test_distributed_matches_stacked_sensor(strategy, sensor_digraph,
                                            sensor_general):
    s = sensor_digraph if strategy == "digraph" else sensor_general
    cfg = SimConfig(dt=1e-3, t_end=5.0, record_stride=100)
    tr_stacked = simulate(s.cl, cfg)
    tr_dist = simulate_distributed(s.game, s.plants, s.exos, s.controllers, s.strategy, cfg)
    dy = np.max(np.abs(tr_dist.Y - tr_stacked.Y))
    de = np.max(np.abs(tr_dist.E - tr_stacked.E))
    assert dy <= 1e-9
    assert de <= 1e-9
    assert np.allclose(tr_dist.times, tr_stacked.times, atol=1e-12)


# Four agents of unequal sizes (n, m, p, q): (2, 1, 1, 2), (3, 2, 2, 1),
# (4, 2, 2, 2) and (1, 1, 1, 0), on a DAG whose skeleton carries the
# general strategy.
HETERO_EDGES = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]


def _hetero_loop(strategy):
    """The unequal agents with stated perturbations and explicit cost blocks."""
    rng = np.random.default_rng(20260)
    nominal = [
        (np.array([[0.0, 1.0], [0.0, -0.5]]), np.array([[0.0], [1.0]]),
         np.array([[1.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])),
        (np.array([[0.0, 1.0, 0.0], [0.0, -0.3, 0.2], [0.0, 0.0, -1.0]]),
         np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
         np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
         np.array([[0.0], [1.0], [0.5]])),
        (np.block([[np.zeros((2, 2)), np.eye(2)],
                   [np.zeros((2, 2)), -np.diag([0.4, 0.1])]]),
         np.vstack([np.zeros((2, 2)), np.eye(2)]),
         np.hstack([np.eye(2), np.zeros((2, 2))]),
         np.vstack([np.zeros((2, 2)), np.eye(2)])),
        (np.array([[-0.5]]), np.array([[1.0]]), np.array([[1.0]]), np.zeros((1, 0))),
    ]
    x0s = [[1.0, -0.5], [-0.5, 0.2, 0.3], [0.4, -0.8, 0.0, 0.1], [0.6]]
    plants = tuple(
        AgentPlant(A=A, B=B, C=C, P=P, x0=x0,
                   **{name: 0.05 * rng.standard_normal(M.shape)
                      for name, M in (("dA", A), ("dB", B), ("dC", C), ("dP", P))})
        for (A, B, C, P), x0 in zip(nominal, x0s)
    )
    exos = (
        Exosystem(S=np.array([[0.0, OMEGA], [-OMEGA, 0.0]]), w0=np.array([1.0, 0.0])),
        Exosystem(S=np.zeros((1, 1)), w0=np.array([0.7])),
        Exosystem(S=np.array([[0.0, 2 * OMEGA], [-2 * OMEGA, 0.0]]),
                  w0=np.array([0.0, 0.5])),
        Exosystem(S=np.zeros((0, 0)), w0=np.zeros(0)),
    )
    dims = [1, 2, 2, 1]
    # non-symmetric R_ii with positive-definite symmetric part
    R_ii = [np.array([[1.5]]), np.array([[2.0, 0.5], [-0.3, 1.5]]),
            np.array([[1.8, -0.4], [0.2, 2.2]]), np.array([[1.2]])]
    # one p_i x p_j block per ordered pair of the skeleton
    R_pair = {(i, j): 0.3 * rng.standard_normal((dims[i - 1], dims[j - 1]))
              for a, b in HETERO_EDGES for i, j in ((a, b), (b, a))}
    edges = HETERO_EDGES if strategy == "digraph" else sorted(R_pair)
    graph = CommGraph(4, directed=strategy == "digraph", edges=edges)
    costs = tuple(
        LocalCost(R_ii=R_ii[i - 1], Q_ii=rng.standard_normal(dims[i - 1]),
                  R_ij={j: R_pair[i, j] for j in neighbors(graph, i)},
                  Q_ij={j: np.eye(dims[j - 1]) for j in neighbors(graph, i)})
        for i in range(1, 5)
    )
    game = NetworkGame(graph=graph, costs=costs)
    controllers = [build_controller(p, cost, exo, SynthesisWeights())
                   for p, cost, exo in zip(plants, costs, exos)]
    return game, plants, exos, controllers


def test_assembled_exosystem_is_the_agents_extensions(sensor_digraph):
    # S_hat and v0 are the block diagonal and the concatenation of the
    # agents' S_tilde and v0, bit for bit: q = 0, constant and rotating
    # exosystems, and the sensor network's five equal rotations; z0 holds
    # each plant's x0 and zero controller states
    game, *agents = _hetero_loop("general")
    s = sensor_digraph
    for cl, (plants, exos, controllers) in (
            (assemble_closed_loop(game, *agents, "general"), agents),
            (s.cl, (s.plants, s.exos, s.controllers))):
        assert cl.S_hat.tobytes() == scipy.linalg.block_diag(
            *(exo.S_tilde for exo in exos)).tobytes()
        assert cl.v0.tobytes() == np.concatenate([exo.v0 for exo in exos]).tobytes()
        assert [sl.stop - sl.start for sl in cl.v_slices] == [exo.q + 1 for exo in exos]
        assert cl.z0.tobytes() == np.concatenate([
            np.concatenate([p.x0, np.zeros(c.ctrl_dim)])
            for p, c in zip(plants, controllers)]).tobytes()


# 2000 steps at stride 70 end on a partial stride of 40
@pytest.mark.parametrize("strategy, stride", [
    ("digraph", 50), ("general", 50), ("general", 70),
], ids=["digraph", "general", "general, partial stride"])
def test_distributed_matches_stacked_heterogeneous(strategy, stride):
    game, plants, exos, controllers = _hetero_loop(strategy)
    cl = assemble_closed_loop(game, plants, exos, controllers, strategy)
    assert np.array_equal(cl.C_c, assemble_pseudo_gradient(game).Rbar @ cl.C_out)
    assert certify_stability(cl)[0]
    cfg = SimConfig(dt=1e-3, t_end=2.0, record_stride=stride)
    tr_stacked = simulate(cl, cfg)
    tr_dist = simulate_distributed(game, plants, exos, controllers, strategy, cfg)
    assert np.array_equal(tr_dist.times, tr_stacked.times)
    assert tr_dist.times[-1] == 2.0
    for name in ("Z", "Y", "E", "W"):
        got, want = getattr(tr_dist, name), getattr(tr_stacked, name)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-9, name
    # states stay O(1), so the 1e-9 bound is a relative one too
    assert np.max(np.abs(tr_stacked.Z)) < 10.0


@pytest.mark.parametrize("edges, abscissa", [
    ([(i, i % 5 + 1) for i in range(1, 6)], -0.0604),
    ([(i, i + 1) for i in range(1, 5)], -0.8660),
], ids=["directed 5-ring", "directed path"])
def test_general_strategy_on_digraphs(edges, abscissa):
    # the path's loop is block-triangular by agent, and each agent's
    # block is at -0.86603 (the dense eigensolve read -0.8639)
    s = _build("general", CommGraph(5, directed=True, edges=edges))
    ok, got = certify_stability(s.cl)
    assert ok and got == pytest.approx(abscissa, abs=1e-4)
    _, _, y_ss = steady_state(s.reg, s.cl, s.controllers, s.cl.v0)
    assert np.max(np.abs(y_ss - solve_ne(s.pg))) <= 1e-6
    cfg = SimConfig(dt=1e-3, t_end=2.0, record_stride=50)
    tr_stacked = simulate(s.cl, cfg)
    tr_dist = simulate_distributed(s.game, s.plants, s.exos, s.controllers, s.strategy, cfg)
    for field in ("Z", "Y", "E", "W"):
        assert np.max(np.abs(getattr(tr_stacked, field) - getattr(tr_dist, field))) <= 1e-9


def test_distributed_matches_stacked_perturbed(sensor_general):
    rng = np.random.default_rng(101)
    s = sensor_general
    bumped = tuple(
        dataclasses.replace(p, **sample_perturbation(p, 0.02, rng))
        for p in s.plants
    )
    cl = assemble_closed_loop(s.game, bumped, s.exos, s.controllers,
                              "general")
    cfg = SimConfig(dt=1e-3, t_end=2.0, record_stride=50)
    tr_stacked = simulate(cl, cfg)
    tr_dist = simulate_distributed(s.game, bumped, s.exos, s.controllers, "general", cfg)
    dy = np.max(np.abs(tr_dist.Y - tr_stacked.Y))
    assert dy <= 1e-9


@pytest.mark.parametrize("strategy, abscissa", [
    ("digraph", -0.6858), ("general", -0.3962),
], ids=["digraph", "general"])
def test_ramp_exosystem_end_to_end(strategy, abscissa, tmp_path, capsys):
    # every agent's disturbance is a ramp: S is a Jordan block at 0, so
    # the internal model holds a double integrator per output
    doc = sensor_scenario_doc(strategy, sim={"dt": 1e-3, "t_end": 2.0,
                                             "record_stride": 50})
    for exo in doc["exosystems"]:
        exo["S"], exo["w0"] = _mat([[0.0, 1.0], [0.0, 0.0]]), [0.0, 0.1]
    path = tmp_path / "ramp.json"
    path.write_text(json.dumps(doc))
    ctrl, out = tmp_path / "ctrl.json", tmp_path / "run.csv"
    assert main(["check", str(path)]) == 0
    assert main(["synth", str(path), "--out", str(ctrl)]) == 0
    assert main(["sim", str(path), "--controllers", str(ctrl), "--out", str(out)]) == 0
    capsys.readouterr()

    scn = load_scenario(path)
    controllers = load_controllers(ctrl, scn)["controllers"]
    cl = assemble_closed_loop(scn.game, scn.plants, scn.exos, controllers, strategy)
    ok, got = certify_stability(cl)
    assert ok and got == pytest.approx(abscissa, abs=1e-4)
    # the reference loop against the stacked path, as simulated and as sim wrote it
    ref = simulate_distributed(scn.game, scn.plants, scn.exos, controllers, strategy,
                               scn.sim)
    tr = simulate(cl, scn.sim)
    for name in ("Z", "Y", "E", "W"):
        assert np.max(np.abs(getattr(ref, name) - getattr(tr, name))) <= 1e-9, name
    table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert np.max(np.abs(table[:, 1:1 + ref.Y.shape[1]] - ref.Y)) <= 1e-9
    # on the regulated subspace the output is the NE, whatever the ramp's slope
    _, _, y_ss = steady_state(solve_regulator(cl), cl, controllers, cl.v0)
    assert np.max(np.abs(y_ss - solve_ne(assemble_pseudo_gradient(scn.game)))) <= 1e-6


def norms(tr, y_star):
    """Output gap ||y - y*|| and stacked error norm ||e|| of a Trajectory."""
    return np.linalg.norm(tr.Y - y_star, axis=1), np.linalg.norm(tr.E, axis=1)


def metrics(tr, y_star, tol=1e-3):
    return series_metrics(tr.times, *norms(tr, y_star), tol)


def repr_lines(tr):
    """CSV data lines of a Trajectory: t, y, e, w, each field the repr of its float."""
    table = np.column_stack([tr.times, tr.Y, tr.E, tr.W])
    return [", ".join(map(repr, row.tolist())) for row in table]


def test_metrics_on_invariant_subspace(sensor_digraph):
    s = sensor_digraph
    # started on the invariant subspace
    cl = dataclasses.replace(s.cl, z0=s.reg.X_c @ s.cl.v0)
    tr = simulate(cl, SimConfig(dt=1e-3, t_end=5.0, record_stride=10))
    m = metrics(tr, solve_ne(s.pg))
    assert m["T_conv"] == 0.0
    assert m["final_output_gap"] <= 1e-9
    assert m["steady_oscillation"] <= 1e-9


def test_metrics_diverging_trajectory():
    cl = toy_loop(3.0)
    tr = simulate(cl, SimConfig(dt=1e-3, t_end=3.0, record_stride=1))
    m = metrics(tr, np.zeros(1))  # the game of target 0 has y* = 0
    assert m["T_conv"] is None
    assert m["final_output_gap"] > 1.0


def test_metrics_sensor_run(sensor_digraph):
    tr = simulate(sensor_digraph.cl,
                  SimConfig(dt=1e-3, t_end=40.0, record_stride=100))
    m = metrics(tr, solve_ne(sensor_digraph.pg))
    assert m["T_conv"] is not None
    assert 0.0 < m["T_conv"] < 40.0
    assert m["final_output_gap"] < 1e-3
    assert m["max_error_tail"] < 1e-3


def test_metrics_peak_gap(sensor_digraph):
    tr = simulate(sensor_digraph.cl,
                  SimConfig(dt=1e-3, t_end=20.0, record_stride=10))
    y_star = solve_ne(sensor_digraph.pg)
    m = metrics(tr, y_star)
    gap, _ = norms(tr, y_star)
    assert m["peak_output_gap"] == np.max(gap)
    assert m["peak_output_gap"] >= gap[0]
    assert m["t_peak"] in tr.times


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_metrics_of_an_overflowed_tail(bad):
    # a tail holding a non-finite gap reports inf, also where inf - inf is NaN
    gap = np.ones(20)
    for tail in (gap[-1:], gap[-2:]):
        tail[:] = bad
        m = series_metrics(np.arange(20.0), gap, np.ones(20), tol=1e-3)
        assert m["steady_oscillation"] == np.inf


def test_csv_header_and_roundtrip(sensor_digraph):
    cfg = SimConfig(dt=1e-3, t_end=1.0, record_stride=200)
    fh = io.StringIO()
    write_records(sensor_digraph.cl, cfg, fh, solve_ne(sensor_digraph.pg))
    tr = simulate(sensor_digraph.cl, cfg)
    text = fh.getvalue().splitlines()
    header = text[0].split(", ")
    assert header[0] == "t"
    assert header[1] == "y_1_1"
    assert header[2] == "y_1_2"
    assert header[11] == "e_1_1"
    assert header[21] == "w_1_1"
    assert len(header) == 1 + 10 + 10 + 10
    assert len(text) == 1 + len(tr.times)
    rows = list(csv.reader(io.StringIO(fh.getvalue()), skipinitialspace=True))
    got = np.array([[float(v) for v in row] for row in rows[1:]])
    # repr() formatting round-trips every float exactly.
    assert np.array_equal(got[:, 0], tr.times)
    assert np.array_equal(got[:, 1:11], tr.Y)
    assert np.array_equal(got[:, 11:21], tr.E)
    assert np.array_equal(got[:, 21:31], tr.W)
    # every field is the repr of its float, in column order
    assert text[1:] == repr_lines(tr)


@pytest.mark.parametrize("t_end, stride", [(0.0, 1), (0.7, 1), (5.0, 10)])
def test_kept_series_are_the_trajectory_norms(t_end, stride, sensor_digraph):
    # the series sim summarizes and plots, bitwise those of simulate's Trajectory
    cl, y_star = sensor_digraph.cl, solve_ne(sensor_digraph.pg)
    cfg = SimConfig(dt=1e-3, t_end=t_end, record_stride=stride)
    times, gap, err, *err_i = write_records(cl, cfg, io.StringIO(), y_star)
    tr = simulate(cl, cfg)
    want_gap, want_err = norms(tr, y_star)
    assert times.tobytes() == tr.times.tobytes()
    assert gap.tobytes() == want_gap.tobytes()
    assert err.tobytes() == want_err.tobytes()
    assert len(err_i) == len(cl.out_slices)
    for got, out in zip(err_i, cl.out_slices):
        assert got.tobytes() == np.linalg.norm(tr.E[:, out], axis=1).tobytes()


def test_rk4_radius_is_the_step_maps_z_block_radius(sensor_general):
    cl = sensor_general.cl
    for dt in (1e-2, 0.3, 0.6):
        M = _rk4_map(cl.A_c, cl.P_c, *_exo_steppers(cl.S_hat, dt), dt)
        dz = cl.dim_z
        want = np.max(np.abs(np.linalg.eigvals(M[:dz, :dz])))
        got = rk4_radius(np.concatenate(cl.spectra), dt)
        assert abs(got - want) <= 1e-9 * want


def _rk4_stage_formula(A_c, P_c, E_half, E_full, dt):
    """The RK4 step map on [z; v] written out stage by stage, [I 0] included."""
    dz, dv = P_c.shape
    ident = np.eye(dz, dz + dv)
    k1 = np.hstack([A_c, P_c])
    P_half = np.hstack([np.zeros((dz, dz)), P_c @ E_half])
    k2 = A_c @ (ident + 0.5 * dt * k1) + P_half
    k3 = A_c @ (ident + 0.5 * dt * k2) + P_half
    k4 = A_c @ (ident + dt * k3) + np.hstack([np.zeros((dz, dz)), P_c @ E_full])
    top = ident + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.block([[top], [np.zeros((dv, dz)), E_full]])


@pytest.mark.parametrize("loop", ["sensor_digraph", "sensor_general", "chain8-digraph",
                                  "chain8-general"])
@pytest.mark.parametrize("dt", [1e-3, 0.0123])
def test_rk4_map_is_bitwise_the_stage_formula(loop, dt, request):
    # the map summed in place keeps the formula's operations and their
    # order: every entry has the same bits, signed zeros included
    if loop.startswith("chain8"):
        cl = chain_loop(8, loop.split("-")[1])
    else:
        cl = request.getfixturevalue(loop).cl
    steppers = _exo_steppers(cl.S_hat, dt)
    M = _rk4_map(cl.A_c, cl.P_c, *steppers, dt)
    want = _rk4_stage_formula(cl.A_c, cl.P_c, *steppers, dt)
    assert M.shape == want.shape and M.tobytes() == want.tobytes()


def test_rk4_map_holds_a_few_stage_sized_buffers():
    # the map itself, (dz + dv) / dz stage-sized arrays, plus the stage and
    # its argument; the stage formula above peaks near 10 stage-sized arrays
    cl = chain_loop(20, "digraph")
    dz, dv = cl.P_c.shape
    steppers = _exo_steppers(cl.S_hat, 1e-3)
    tracemalloc.start()
    try:
        _rk4_map(cl.A_c, cl.P_c, *steppers, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stage = dz * (dz + dv) * np.dtype(float).itemsize
    assert peak <= 4 * stage, peak / stage


def test_rk4_dt_limit_real_axis():
    # RK4's stability interval on the negative real axis ends at -2.7852935634
    assert rk4_dt_limit([-1.0]) == pytest.approx(2.785293563405282, rel=1e-12)
    assert rk4_dt_limit([-1.0, -4.0]) == pytest.approx(2.785293563405282 / 4, rel=1e-12)


def test_rk4_gate_of_huge_steps_and_eigenvalues():
    # T4 depends on dt lam only: the limit scales as 1 / |lam|, and neither
    # a huge eigenvalue nor a huge step raises a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (1e50, 1e80, 1e100):
            assert rk4_dt_limit([-lam]) * lam == pytest.approx(rk4_dt_limit([-1.0]), rel=1e-12)
        assert rk4_dt_limit([0.0, -1.0]) == rk4_dt_limit([-1.0])
        for dt in (1e80, 1e300):
            assert rk4_radius([-1.0, -0.5 + 2.0j], dt) == np.inf


def test_rk4_dt_limit_brackets_the_unit_radius(sensor_digraph):
    eigs = np.concatenate(sensor_digraph.cl.spectra)
    limit = rk4_dt_limit(eigs)
    assert rk4_radius(eigs, limit * (1 - 1e-6)) < 1.0 < rk4_radius(eigs, limit * (1 + 1e-6))


def test_csv_blocks_match_the_row_formula(sensor_digraph):
    tr = simulate(sensor_digraph.cl, SimConfig(dt=1e-3, t_end=0.7, record_stride=1))
    assert len(tr.times) > 2 * BLOCK_ROWS and len(tr.times) % BLOCK_ROWS
    Y, E = tr.Y.copy(), tr.E.copy()
    Y[:, 2] = Y[:, 0]  # a duplicated column: y_2_1 is y_1_1
    # columns equal but for the sign of zero: each keeps its own sign
    E[:, 0] = 0.0  # e_1_1
    E[:, 2] = -0.0  # e_2_1
    E[:, 4] = 0.0  # e_3_1
    E[BLOCK_ROWS + 3, 4] = -0.0
    tr = dataclasses.replace(tr, Y=Y, E=E)
    arrays = [tr.times[:, None], tr.Y, tr.E, tr.W]
    lines = "".join(
        csv_rows([a[start:start + BLOCK_ROWS] for a in arrays])
        for start in range(0, len(tr.times), BLOCK_ROWS)
    ).splitlines()
    assert lines == repr_lines(tr)
    fields = [line.split(", ") for line in lines]
    assert (fields[0][11], fields[0][13], fields[0][15]) == ("0.0", "-0.0", "0.0")
    assert fields[BLOCK_ROWS + 3][15] == "-0.0"


@pytest.mark.parametrize("t_end, stride, rows", [
    (0.0, 1, 1), (0.063, 1, 64), (0.064, 1, 65), (0.128, 1, 129),
    (0.2, 3, 68),  # 200 steps: the last stride is 2 steps long
])
def test_cli_csv_matches_simulate_at_block_edges(t_end, stride, rows, tmp_path, capsys):
    doc = sensor_scenario_doc("digraph", sim={"dt": 1e-3, "t_end": 1.0,
                                              "record_stride": stride})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    ctrl, out = tmp_path / "ctrl.json", tmp_path / "run.csv"
    assert main(["synth", str(path), "--out", str(ctrl)]) == 0
    assert main(["sim", str(path), "--controllers", str(ctrl), "--out", str(out),
                 "--t-end", repr(t_end)]) == 0
    capsys.readouterr()

    scn = load_scenario(path)
    bundle = load_controllers(ctrl, scn)
    cl = assemble_closed_loop(scn.game, scn.plants, scn.exos,
                              bundle["controllers"], scn.strategy)
    cfg = dataclasses.replace(scn.sim, t_end=t_end)
    lines = out.read_text().splitlines()
    assert lines[1:] == repr_lines(simulate(cl, cfg))

    table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert table.shape[0] == rows
    Z_ref = reference_rk4(cl, cfg.dt, cfg.n_steps, stride)
    dp = cl.C_out.shape[0]
    assert np.max(np.abs(table[:, 1:1 + dp] - Z_ref @ cl.C_out.T)) <= 1e-12

