"""Shared fixtures: the five-agent sensor-network scenario in both
strategy variants, synthesized once per session; and the oracles the
tests check the library against, which no command runs."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from neseek.game import assemble_pseudo_gradient, cost_from_targets
from neseek.graph import CommGraph
from neseek.linalg import minimal_polynomial
from neseek.plant import AgentPlant, Exosystem
from neseek.scenario import parse_scenario
from neseek.synthesis import (
    SynthesisWeights,
    assemble_closed_loop,
    build_controller,
    solve_regulator,
)

EDGES = [(1, 2), (1, 3), (2, 4), (3, 4), (3, 5)]
TARGETS = [(-1.0, 0.0), (1.0, -1.0), (2.0, -1.0), (-1.0, 2.0), (-2.0, 2.0)]
POSITIONS = [(0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (2.0, 1.0), (2.0, -1.0)]
OMEGA = np.pi / 10.0

# Per-axis double integrators with velocity damping 0.2; sinusoidal
# disturbance on the velocity channels.
SENSOR_A = np.block(
    [[np.zeros((2, 2)), np.eye(2)], [np.zeros((2, 2)), -0.2 * np.eye(2)]]
)
SENSOR_B = np.vstack([np.zeros((2, 2)), np.eye(2)])
SENSOR_C = np.hstack([np.eye(2), np.zeros((2, 2))])
SENSOR_P = np.vstack([np.zeros((2, 2)), np.eye(2)])
SENSOR_S = np.array([[0.0, OMEGA], [-OMEGA, 0.0]])

GENERAL_WEIGHTS = SynthesisWeights(stabilizer_q_im=100.0)


def sensor_edges(strategy):
    if strategy == "general":
        return sorted(set(EDGES) | {(b, a) for a, b in EDGES})
    return list(EDGES)


def sensor_plants():
    plants = []
    for px, py in POSITIONS:
        x0 = np.array([px, py, 0.0, 0.0])
        plants.append(
            AgentPlant(A=SENSOR_A, B=SENSOR_B, C=SENSOR_C, P=SENSOR_P, x0=x0)
        )
    return tuple(plants)


def sensor_exos():
    return tuple(
        Exosystem(S=SENSOR_S, w0=np.array([1.0, 0.0])) for _ in POSITIONS
    )


def _mat(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"shape": [int(M.shape[0]), int(M.shape[1])],
            "data": [float(x) for x in M.ravel()]}


def sensor_scenario_doc(strategy, sim=None):
    """Scenario document for the sensor network, ready to serialize."""
    doc = {
        "name": f"sensor-network-{strategy}",
        "strategy": strategy,
        "graph": {
            "directed": strategy == "digraph",
            "edges": [list(e) for e in sensor_edges(strategy)],
        },
        "agents": [
            {
                "A": _mat(SENSOR_A),
                "B": _mat(SENSOR_B),
                "C": _mat(SENSOR_C),
                "P": _mat(SENSOR_P),
                "x0": [px, py, 0.0, 0.0],
            }
            for px, py in POSITIONS
        ],
        "exosystems": [
            {"S": _mat(SENSOR_S), "w0": [1.0, 0.0]} for _ in POSITIONS
        ],
        "cost": {"targets": [list(t) for t in TARGETS]},
    }
    if strategy == "general":
        doc["synthesis"] = {"stabilizer_q_im": 100.0}
    if sim is not None:
        doc["sim"] = sim
    return doc


def _build(strategy, graph=None):
    """The sensor network under ``strategy``, on its own graph unless ``graph`` is given."""
    if graph is None:
        graph = CommGraph(5, directed=strategy == "digraph",
                          edges=sensor_edges(strategy))
    game = cost_from_targets([np.asarray(t) for t in TARGETS], graph)
    plants = sensor_plants()
    exos = sensor_exos()
    weights = GENERAL_WEIGHTS if strategy == "general" else SynthesisWeights()
    controllers = [
        build_controller(plants[i], game.costs[i], exos[i], weights)
        for i in range(5)
    ]
    cl = assemble_closed_loop(game, plants, exos, controllers, strategy)
    pg = assemble_pseudo_gradient(game)
    return SimpleNamespace(
        strategy=strategy,
        graph=graph,
        game=game,
        plants=plants,
        exos=exos,
        weights=weights,
        controllers=controllers,
        cl=cl,
        pg=pg,
        reg=solve_regulator(cl),
    )


def perfbench_scenarios():
    """perfbench's seeded scenario generator, loaded read-only from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("perfbench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def chain_loop(n, strategy):
    """The closed loop of perfbench's seed-1 ``chain(n)`` scenario under ``strategy``."""
    scn = parse_scenario(perfbench_scenarios().chain(
        n, strategy, 1, {"dt": 1e-3, "t_end": 5.0, "record_stride": 100}))
    controllers = [build_controller(p, cost, e, scn.weights) for p, cost, e
                   in zip(scn.plants, scn.game.costs, scn.exos)]
    return assemble_closed_loop(scn.game, scn.plants, scn.exos, controllers, strategy)


@pytest.fixture(scope="session")
def sensor_digraph():
    return _build("digraph")


@pytest.fixture(scope="session")
def sensor_general():
    return _build("general")


@pytest.fixture(scope="session")
def scenario_paths(tmp_path_factory):
    """On-disk scenario JSON files for each strategy."""
    root = tmp_path_factory.mktemp("scenarios")
    paths = {}
    for strategy in ("digraph", "general"):
        p = root / f"sensor_{strategy}.json"
        p.write_text(json.dumps(sensor_scenario_doc(strategy), indent=1))
        paths[strategy] = p
    return paths


# oracles: a Hurwitz test, the definitional NE test, the internal-model
# test and the invariant-subspace steady state


def is_hurwitz(M):
    """(verdict, spectral abscissa) of ``M``, from numpy's eigenvalues."""
    abscissa = float(np.max(np.linalg.eigvals(M).real))
    return abscissa < 0.0, abscissa


def _agent_cost(game, i):
    if not (1 <= i <= len(game.costs)):
        raise ValueError(f"agent index {i} out of range 1..{len(game.costs)}")
    return game.costs[i - 1]


def partial_gradient(game, i, y):
    """e_i = (R_ii + R_ii') y_i + sum_j R_ij y_j + Q_ii'."""
    y = np.asarray(y, dtype=float)
    if y.shape != (game.offsets[-1],):
        raise ValueError(f"y must have {game.offsets[-1]} entries, got {y.shape}")
    cost = _agent_cost(game, i)
    e_i = (cost.R_ii + cost.R_ii.T) @ game.block(y, i) + cost.Q_ii
    for j, R_ij in cost.R_ij.items():
        e_i = e_i + R_ij @ game.block(y, j)
    return e_i


def evaluate_cost(game, i, y):
    """Full quadratic value J_i(y), including q_i and the Q_ij terms."""
    y = np.asarray(y, dtype=float)
    cost = _agent_cost(game, i)
    y_i = game.block(y, i)
    J = float(y_i @ cost.R_ii @ y_i + cost.Q_ii @ y_i + cost.q_i)
    for j in cost.R_ij:
        y_j = game.block(y, j)
        J += float(y_i @ cost.R_ij[j] @ y_j + y_j @ cost.Q_ij[j] @ y_j)
    return J


def _controllable(beta, sigma):
    s = beta.shape[0]
    krylov = np.hstack([np.linalg.matrix_power(beta, k) @ sigma for k in range(s)])
    return np.linalg.matrix_rank(krylov) == s


def verify_internal_model(G1, G2, S_tilde):
    """Does (G1, G2) incorporate a p-copy internal model of S_tilde?

    p is the column count of G2 and s the degree of
    minimal_polynomial(S_tilde).  True iff the shapes fit and every
    diagonal block's characteristic polynomial matches that polynomial
    coefficient-wise within 1e-8 and every (beta, sigma) pair is
    controllable.
    """
    want = minimal_polynomial(S_tilde)
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


def ctrl_slices(cl):
    """Each agent's controller state [xi_i; zeta_i] inside z: from the end of
    its plant state to the start of the next agent's."""
    ends = [x.start for x in cl.x_slices[1:]] + [cl.dim_z]
    return tuple(slice(x.stop, end) for x, end in zip(cl.x_slices, ends))


def steady_state(reg, cl, controllers, v):
    """Steady state induced by exogenous vector v on the regulated subspace.

    ``reg`` is the regulator solution of ``cl``, and ``controllers`` the
    gains ``cl`` was assembled from, which give u = K1 xi + K2 zeta.
    Returns stacked (x_ss, u_ss, y_ss); y_ss equals the game NE whenever
    the constant channels of v are 1 and residual_err is (numerically)
    zero, which cross-checks the synthesis against the equilibrium solve.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (cl.dim_v,):
        raise ValueError(f"v must have {cl.dim_v} entries, got {v.shape}")
    z_ss = reg.X_c @ v
    x_ss = np.concatenate([z_ss[sl] for sl in cl.x_slices])
    y_ss = cl.C_out @ z_ss

    u_ss = np.concatenate([
        np.hstack([c.K1, c.K2]) @ z_ss[sl] for c, sl in zip(controllers, ctrl_slices(cl))
    ])
    return x_ss, u_ss, y_ss
