"""Shared fixtures: the five-agent sensor-network scenario in both
strategy variants, synthesized once per session."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from neseek.game import assemble_pseudo_gradient, cost_from_targets
from neseek.graph import CommGraph
from neseek.plant import AgentPlant, Exosystem
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
