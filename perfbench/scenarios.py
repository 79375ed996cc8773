"""Seeded scenario generator for the benchmark workloads.

Rebuilds the five-agent sensor-network example (per-axis double
integrators with velocity damping 0.2, a sinusoidal disturbance on the
velocity channels, target-plus-consensus cost) and a generated 8-agent
chain DAG with skip edges.  The seed draws the initial positions and,
for the generated graph, the targets; plants, exosystems and graph
shape never change, so the amount of work is the same for every seed.

Only the standard library is used: documents are plain JSON.
"""

import math
import random

OMEGA = math.pi / 10.0

SENSOR_A = [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, -0.2, 0], [0, 0, 0, -0.2]]
SENSOR_B = [[0, 0], [0, 0], [1, 0], [0, 1]]
SENSOR_C = [[1, 0, 0, 0], [0, 1, 0, 0]]
SENSOR_P = [[0, 0], [0, 0], [1, 0], [0, 1]]
SENSOR_S = [[0.0, OMEGA], [-OMEGA, 0.0]]

SENSOR_EDGES = [(1, 2), (1, 3), (2, 4), (3, 4), (3, 5)]
SENSOR_TARGETS = [(-1.0, 0.0), (1.0, -1.0), (2.0, -1.0), (-1.0, 2.0), (-2.0, 2.0)]

# The general strategy needs a heavier internal-model weight to certify
# on the sensor plants.
GENERAL_SYNTHESIS = {"stabilizer_q_im": 100.0}

POSITION_RANGE = 2.0
TARGET_RANGE = 2.0


def _mat(rows):
    return {"shape": [len(rows), len(rows[0])],
            "data": [float(x) for row in rows for x in row]}


def _skeleton(edges):
    return sorted(set(edges) | {(b, a) for a, b in edges})


def chain_with_skips(n):
    """DAG on 1..n: the chain i -> i+1 plus skip edges i -> i+2."""
    return [(i, i + 1) for i in range(1, n)] + [(i, i + 2) for i in range(1, n - 1)]


def _draw_points(rng, count, half_width):
    return [(round(rng.uniform(-half_width, half_width), 6),
             round(rng.uniform(-half_width, half_width), 6))
            for _ in range(count)]


def sensor_doc(name, strategy, edges, targets, positions, sim):
    """Scenario document for sensor agents on the given graph."""
    doc = {
        "name": name,
        "strategy": strategy,
        "graph": {
            "directed": strategy == "digraph",
            "edges": [list(e) for e in (edges if strategy == "digraph"
                                        else _skeleton(edges))],
        },
        "agents": [
            {"A": _mat(SENSOR_A), "B": _mat(SENSOR_B), "C": _mat(SENSOR_C),
             "P": _mat(SENSOR_P), "x0": [px, py, 0.0, 0.0]}
            for px, py in positions
        ],
        "exosystems": [{"S": _mat(SENSOR_S), "w0": [1.0, 0.0]} for _ in positions],
        "cost": {"targets": [list(t) for t in targets]},
        "sim": dict(sim),
    }
    if strategy == "general":
        doc["synthesis"] = dict(GENERAL_SYNTHESIS)
    return doc


def sensor5(strategy, seed, sim):
    """The paper's 5-agent sensor network with seeded initial positions."""
    rng = random.Random(f"sensor5/{seed}")
    positions = _draw_points(rng, 5, POSITION_RANGE)
    return sensor_doc(f"sensor5-{strategy}", strategy, SENSOR_EDGES,
                      SENSOR_TARGETS, positions, sim)


def chain(n, strategy, seed, sim):
    """Generated n-agent chain DAG (or its skeleton) of sensor agents."""
    rng = random.Random(f"chain{n}/{seed}")
    positions = _draw_points(rng, n, POSITION_RANGE)
    targets = _draw_points(rng, n, TARGET_RANGE)
    return sensor_doc(f"chain{n}-{strategy}", strategy, chain_with_skips(n),
                      targets, positions, sim)
