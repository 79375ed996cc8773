"""Scenario and controller files: JSON interchange, validation, hashing.

Matrices travel as {"shape": [rows, cols], "data": [row-major floats]};
vectors as plain lists.  A scenario's content digest is embedded in
controller files so a simulation refuses gains synthesized for
different data.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ScenarioError
from .game import LocalCost, NetworkGame, cost_from_targets
from .graph import CommGraph
from .plant import AgentPlant, Exosystem
from .synthesis import STRATEGIES, Controller, SynthesisWeights

__all__ = [
    "Scenario",
    "load_scenario",
    "parse_scenario",
    "scenario_to_dict",
    "save_scenario",
    "scenario_hash",
    "save_controllers",
    "load_controllers",
]

SIM_DEFAULTS = {"dt": 1e-3, "t_end": 100.0, "record_stride": 100}

CONTROLLER_FORMAT = "neseek-controllers-v2"
# v1 files also store matrices derivable from the gains; reading ignores them
READABLE_FORMATS = ("neseek-controllers-v1", CONTROLLER_FORMAT)

CONTROLLER_FIELDS = ("A", "B", "C", "L", "G1", "G2", "K1", "K2", "Rw")


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite_number(v, where):
    if not _is_number(v) or not np.isfinite(v):
        raise ScenarioError(f"{where}: expected a finite number, got {v!r}")
    return float(v)


def _mat_to_json(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"shape": [int(M.shape[0]), int(M.shape[1])],
            "data": [float(x) for x in M.ravel()]}


def _mat_from_json(obj, where):
    if (
        not isinstance(obj, dict)
        or set(obj) != {"shape", "data"}
        or not isinstance(obj["shape"], list)
        or len(obj["shape"]) != 2
        or not all(type(d) is int and d >= 0 for d in obj["shape"])
        or not isinstance(obj["data"], list)
    ):
        raise ScenarioError(
            f"{where}: matrices need the form {{'shape': [r, c], 'data': [...]}}"
        )
    r, c = obj["shape"]
    data = obj["data"]
    if not all(_is_number(v) for v in data):
        raise ScenarioError(f"{where}: matrix data must be numbers")
    if len(data) != r * c:
        raise ScenarioError(
            f"{where}: shape {r}x{c} needs {r * c} entries, got {len(data)}"
        )
    M = np.asarray(data, dtype=float).reshape(r, c)
    if not np.isfinite(M).all():
        raise ScenarioError(f"{where}: matrix data must be finite")
    return M


def _vec_from_json(obj, where):
    if not isinstance(obj, list) or not all(_is_number(v) for v in obj):
        raise ScenarioError(f"{where}: expected a list of numbers")
    v = np.asarray(obj, dtype=float)
    if not np.isfinite(v).all():
        raise ScenarioError(f"{where}: entries must be finite")
    return v


@dataclass(frozen=True, eq=False)
class Scenario:
    """Parsed scenario plus its canonical document for hashing/round-trip."""

    name: str
    strategy: str
    game: NetworkGame
    plants: tuple
    exos: tuple
    sim: dict
    weights: SynthesisWeights
    raw: dict = field(repr=False)

    @property
    def graph(self):
        return self.game.graph

    @property
    def agent_count(self):
        return self.game.graph.agent_count

    def __eq__(self, other):
        return isinstance(other, Scenario) and self.raw == other.raw


def _require(doc, key, where):
    if key not in doc:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return doc[key]


def _parse_weights(weight_doc, where):
    if not isinstance(weight_doc, dict):
        raise ScenarioError(f"{where}: expected an object")
    extra = set(weight_doc) - set(asdict(SynthesisWeights()))
    if extra:
        raise ScenarioError(f"{where}: unknown field(s) {sorted(extra)}")
    return SynthesisWeights(**{
        k: _finite_number(v, f"{where}.{k}") for k, v in weight_doc.items()
    })


def parse_scenario(doc):
    """Validate a scenario document and build the domain objects."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    known = {"name", "strategy", "graph", "agents", "exosystems", "cost",
             "sim", "synthesis"}
    unknown = set(doc) - known
    if unknown:
        raise ScenarioError(f"unknown scenario field(s): {sorted(unknown)}")

    strategy = _require(doc, "strategy", "scenario")
    if strategy not in STRATEGIES:
        raise ScenarioError(
            f"strategy: must be 'digraph' or 'general', got {strategy!r}"
        )

    agents_doc = _require(doc, "agents", "scenario")
    exos_doc = _require(doc, "exosystems", "scenario")
    if not isinstance(agents_doc, list) or not agents_doc:
        raise ScenarioError("agents: expected a non-empty list")
    if not isinstance(exos_doc, list) or len(exos_doc) != len(agents_doc):
        raise ScenarioError(
            f"exosystems: expected one entry per agent ({len(agents_doc)})"
        )
    N = len(agents_doc)

    graph_doc = _require(doc, "graph", "scenario")
    try:
        edges = [tuple(e) for e in graph_doc["edges"]]
        graph = CommGraph(N, directed=bool(graph_doc["directed"]), edges=edges)
    except ScenarioError:
        raise
    except Exception as err:
        raise ScenarioError(f"graph: {err}") from err

    exos = []
    for i, ed in enumerate(exos_doc, start=1):
        where = f"exosystems[{i}]"
        S = _mat_from_json(_require(ed, "S", where), where + ".S")
        w0 = _vec_from_json(_require(ed, "w0", where), where + ".w0")
        extra = set(ed) - {"S", "w0"}
        if extra:
            raise ScenarioError(f"{where}: unknown field(s) {sorted(extra)}")
        try:
            exos.append(Exosystem(S=S, w0=w0))
        except Exception as err:
            raise ScenarioError(f"{where}: {err}") from err

    plants = []
    for i, ad in enumerate(agents_doc, start=1):
        where = f"agents[{i}]"
        extra = set(ad) - {"A", "B", "C", "P", "x0", "dA", "dB", "dC", "dP"}
        if extra:
            raise ScenarioError(f"{where}: unknown field(s) {sorted(extra)}")
        kw = {}
        for key in ("A", "B", "C"):
            kw[key] = _mat_from_json(_require(ad, key, where), f"{where}.{key}")
        n = kw["A"].shape[0]
        q = exos[i - 1].q
        if "P" in ad:
            kw["P"] = _mat_from_json(ad["P"], f"{where}.P")
        else:
            kw["P"] = np.zeros((n, q))
        for key in ("dA", "dB", "dC", "dP"):
            if key in ad:
                kw[key] = _mat_from_json(ad[key], f"{where}.{key}")
        if "x0" in ad:
            kw["x0"] = _vec_from_json(ad["x0"], f"{where}.x0")
        try:
            plant = AgentPlant(**kw)
        except Exception as err:
            raise ScenarioError(f"{where}: {err}") from err
        if plant.q != q:
            raise ScenarioError(
                f"{where}.P: {plant.q} disturbance columns but exosystem has {q}"
            )
        plants.append(plant)

    cost_doc = _require(doc, "cost", "scenario")
    if not isinstance(cost_doc, dict) or len(set(cost_doc) & {"targets", "blocks"}) != 1:
        raise ScenarioError("cost: needs exactly one of 'targets' or 'blocks'")
    try:
        if "targets" in cost_doc:
            targets = [
                _vec_from_json(t, f"cost.targets[{i + 1}]")
                for i, t in enumerate(cost_doc["targets"])
            ]
            game = cost_from_targets(targets, graph)
        else:
            costs = []
            for i, bd in enumerate(cost_doc["blocks"], start=1):
                where = f"cost.blocks[{i}]"
                costs.append(
                    LocalCost(
                        R_ii=_mat_from_json(_require(bd, "R_ii", where), where + ".R_ii"),
                        Q_ii=_vec_from_json(_require(bd, "Q_ii", where), where + ".Q_ii"),
                        q_i=_finite_number(bd.get("q_i", 0.0), where + ".q_i"),
                        R_ij={
                            int(j): _mat_from_json(m, f"{where}.R_ij[{j}]")
                            for j, m in bd.get("R_ij", {}).items()
                        },
                        Q_ij={
                            int(j): _mat_from_json(m, f"{where}.Q_ij[{j}]")
                            for j, m in bd.get("Q_ij", {}).items()
                        },
                    )
                )
            game = NetworkGame(graph=graph, costs=tuple(costs))
    except ScenarioError:
        raise
    except Exception as err:
        raise ScenarioError(f"cost: {err}") from err

    for i, (plant, cost) in enumerate(zip(plants, game.costs), start=1):
        if plant.p != cost.p:
            raise ScenarioError(
                f"agents[{i}]: output dimension {plant.p} does not match "
                f"cost dimension {cost.p}"
            )

    sim_doc = doc.get("sim", {})
    if not isinstance(sim_doc, dict):
        raise ScenarioError("sim: expected an object")
    extra = set(sim_doc) - set(SIM_DEFAULTS)
    if extra:
        raise ScenarioError(f"sim: unknown field(s) {sorted(extra)}")
    sim = {**SIM_DEFAULTS, **sim_doc}
    sim["dt"] = _finite_number(sim["dt"], "sim.dt")
    sim["t_end"] = _finite_number(sim["t_end"], "sim.t_end")
    if not sim["dt"] > 0:
        raise ScenarioError(f"sim.dt: must be positive, got {sim['dt']!r}")
    if not sim["t_end"] >= 0:
        raise ScenarioError(f"sim.t_end: must not be negative, got {sim['t_end']!r}")
    stride = sim["record_stride"]
    if not (_is_number(stride) and float(stride).is_integer() and stride >= 1):
        raise ScenarioError(
            f"sim.record_stride: expected a positive integer, got {stride!r}"
        )
    sim["record_stride"] = int(stride)

    weights = _parse_weights(doc.get("synthesis", {}), "synthesis")

    scn = Scenario(
        name=str(doc.get("name", "")),
        strategy=strategy,
        game=game,
        plants=tuple(plants),
        exos=tuple(exos),
        sim=sim,
        weights=weights,
        raw={},
    )
    object.__setattr__(scn, "raw", scenario_to_dict(scn))
    return scn


def scenario_to_dict(s):
    """Canonical document: all defaults materialized, stable field set."""
    agents = []
    for plant in s.plants:
        ad = {
            "A": _mat_to_json(plant.A),
            "B": _mat_to_json(plant.B),
            "C": _mat_to_json(plant.C),
            "P": _mat_to_json(plant.P),
            "x0": [float(v) for v in plant.x0],
        }
        for key in ("dA", "dB", "dC", "dP"):
            M = getattr(plant, key)
            if np.any(M):
                ad[key] = _mat_to_json(M)
        agents.append(ad)
    exos = [
        {"S": _mat_to_json(e.S), "w0": [float(v) for v in e.w0]}
        for e in s.exos
    ]
    blocks = []
    for cost in s.game.costs:
        blocks.append({
            "R_ii": _mat_to_json(cost.R_ii),
            "Q_ii": [float(v) for v in cost.Q_ii],
            "q_i": float(cost.q_i),
            "R_ij": {str(j): _mat_to_json(M) for j, M in sorted(cost.R_ij.items())},
            "Q_ij": {str(j): _mat_to_json(M) for j, M in sorted(cost.Q_ij.items())},
        })
    return {
        "name": s.name,
        "strategy": s.strategy,
        "graph": {
            "directed": s.graph.directed,
            "edges": [list(e) for e in sorted(s.graph.edges)],
        },
        "agents": agents,
        "exosystems": exos,
        "cost": {"blocks": blocks},
        "sim": dict(s.sim),
        "synthesis": asdict(s.weights),
    }


def load_scenario(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ScenarioError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: "
            f"{err.msg}"
        ) from err
    except OSError as err:
        raise ScenarioError(f"{path}: {err}") from err
    return parse_scenario(doc)


def _canonical_dump(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def save_scenario(s, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=1, sort_keys=True)
        fh.write("\n")


def scenario_hash(s):
    """Content digest of the canonical document (hex sha256)."""
    return hashlib.sha256(_canonical_dump(s.raw).encode()).hexdigest()


def save_controllers(path, scenario, strategy, controllers, weights, certificates):
    """Write synthesized gains with their certificates and scenario digest."""
    agents = [
        {name: _mat_to_json(getattr(c, name)) for name in CONTROLLER_FIELDS}
        for c in controllers
    ]
    doc = {
        "format": CONTROLLER_FORMAT,
        "strategy": strategy,
        "scenario_sha256": scenario_hash(scenario),
        "synthesis": asdict(weights),
        "certificates": {k: float(v) for k, v in certificates.items()},
        "agents": agents,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def _check_controller_shapes(kw, where):
    """Every gain's shape must agree with n, m, p and the internal-model size."""
    n, m, p, v = kw["A"].shape[0], kw["B"].shape[1], kw["C"].shape[0], kw["G1"].shape[0]
    expected = {"A": (n, n), "B": (n, m), "C": (p, n), "L": (n, p), "G1": (v, v),
                "G2": (v, p), "K1": (m, n), "K2": (m, v), "Rw": (p, p)}
    for name in CONTROLLER_FIELDS:
        got, want = kw[name].shape, expected[name]
        if got != want:
            raise ScenarioError(f"{where}.{name}: shape {got}, other fields imply {want}")


def load_controllers(path):
    """Read a controller file back into controller objects + metadata."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ScenarioError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: "
            f"{err.msg}"
        ) from err
    except OSError as err:
        raise ScenarioError(f"{path}: {err}") from err
    if not isinstance(doc, dict) or doc.get("format") not in READABLE_FORMATS:
        raise ScenarioError(f"{path}: not a {CONTROLLER_FORMAT} file")
    strategy = doc.get("strategy")
    if strategy not in STRATEGIES:
        raise ScenarioError(f"{path}: bad strategy {strategy!r}")
    agents = doc.get("agents", [])
    if not isinstance(agents, list) or not all(isinstance(a, dict) for a in agents):
        raise ScenarioError(f"{path}: agents: expected a list of objects")
    controllers = []
    for i, entry in enumerate(agents, start=1):
        where = f"{path}: agents[{i}]"
        kw = {name: _mat_from_json(_require(entry, name, where), f"{where}.{name}")
              for name in CONTROLLER_FIELDS}
        _check_controller_shapes(kw, where)
        controllers.append(Controller(**kw, strategy=strategy))
    return {
        "strategy": strategy,
        "scenario_sha256": str(doc.get("scenario_sha256", "")),
        "synthesis": _parse_weights(doc.get("synthesis", {}), f"{path}: synthesis"),
        "certificates": dict(doc.get("certificates", {})),
        "controllers": tuple(controllers),
    }
