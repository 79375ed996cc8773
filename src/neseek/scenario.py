"""Scenario and controller files: JSON interchange, validation, hashing.

Matrices travel as {"shape": [rows, cols], "data": [row-major floats]};
vectors as plain lists.  Every JSON object is read by ``_read`` from a
table with one reader per field, so each object kind rejects a missing
or unknown field the same way and names its path.  A scenario's content
digest is embedded in controller files so a simulation refuses gains
synthesized for different data.
"""

import json
import re
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from .errors import ScenarioError, StaleControllerError
from .game import LocalCost, NetworkGame, cost_from_targets
from .graph import CommGraph
from .plant import AgentPlant, Exosystem
from .sim import SimConfig
from .synthesis import STRATEGIES, Controller, SynthesisWeights, gain_mismatch

# CPython's built-in sha256, the one hashlib falls back to: hashlib
# itself loads OpenSSL, a few MB for one digest per command
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

__all__ = [
    "Scenario",
    "load_scenario",
    "parse_scenario",
    "scenario_to_dict",
    "scenario_hash",
    "save_controllers",
    "load_controllers",
]

SIM_DEFAULTS = SimConfig(dt=1e-3, t_end=100.0, record_stride=100)

CONTROLLER_FORMAT = "neseek-controllers-v3"
READABLE_FORMATS = (
    "neseek-controllers-v1", "neseek-controllers-v2", CONTROLLER_FORMAT
)

CONTROLLER_FIELDS = tuple(f.name for f in fields(Controller))
CERTIFICATES = ("abscissa", "residual_dyn", "residual_err", "scale_dyn", "scale_err")


def _read(doc, where, readers, required):
    """Read the object ``doc`` at path ``where`` (empty at the top level).

    Rejects a non-object, a missing ``required`` field and any field not
    in ``readers``, then returns {field: reader(value, path)} in table
    order.  A reader of None marks a legacy field that is ignored.
    """
    label = where or "top level"
    if not isinstance(doc, dict):
        raise ScenarioError(f"{label}: expected an object, got {doc!r}")
    for key in required:
        if key not in doc:
            raise ScenarioError(f"{label}: missing required field {key!r}")
    unknown = sorted(set(doc) - set(readers))
    if unknown:
        raise ScenarioError(f"{label}: unknown field(s) {unknown}")
    return {
        key: read(doc[key], f"{where}.{key}" if where else key)
        for key, read in readers.items() if read is not None and key in doc
    }


def _build(make, where, **kw):
    """``make(**kw)``, with the ScenarioError of a constructor reported at ``where``."""
    try:
        return make(**kw)
    except ScenarioError as err:
        raise ScenarioError(f"{where}: {err}") from err


def _record(readers, required=(), make=dict):
    """Reader of one object kind: ``make`` applied to its read fields."""
    return lambda doc, where: _build(make, where, **_read(doc, where, readers, required))


def _list_of(read):
    def read_list(doc, where):
        if not isinstance(doc, list):
            raise ScenarioError(f"{where}: expected a list")
        return [read(v, f"{where}[{i}]") for i, v in enumerate(doc, start=1)]
    return read_list


def _is_number(v):
    """A finite JSON number; booleans and ints beyond float range are not."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_whole(v):
    return _is_number(v) and float(v).is_integer()


def _number(v, where):
    if not _is_number(v):
        raise ScenarioError(f"{where}: expected a finite number, got {v!r}")
    return float(v)


def _valid(read, ok, rule):
    """``read``, then reject a value for which ``ok`` is false."""
    def read_valid(v, where):
        v = read(v, where)
        if not ok(v):
            raise ScenarioError(f"{where}: must {rule}, got {v!r}")
        return v
    return read_valid


def _instance(kind, noun):
    def read(v, where):
        if not isinstance(v, kind):
            raise ScenarioError(f"{where}: expected {noun}, got {v!r}")
        return v
    return read


_boolean, _string = _instance(bool, "true or false"), _instance(str, "a string")
_positive = _valid(_number, lambda v: v > 0, "be positive")
_non_negative = _valid(_number, lambda v: v >= 0, "not be negative")
_strategy = _valid(_string, lambda v: v in STRATEGIES,
                   "be " + " or ".join(map(repr, STRATEGIES)))


def _pair(v, where):
    """[source, sink] agent numbers of an edge, or [rows, cols] of a matrix."""
    if not (isinstance(v, list) and len(v) == 2
            and all(_is_whole(k) and k >= 0 for k in v)):
        raise ScenarioError(
            f"{where}: expected a pair of non-negative integers, got {v!r}"
        )
    return int(v[0]), int(v[1])


def _vector(v, where):
    if not (isinstance(v, list) and all(map(_is_number, v))):
        raise ScenarioError(f"{where}: expected a list of finite numbers")
    return np.asarray(v, dtype=float)


def _target(v, where):
    """A cost target r_i; its cost's constant q_i = r_i'r_i must be finite too."""
    r = _vector(v, where)
    with np.errstate(over="ignore"):
        q = float(r @ r)
    if not q < np.inf:
        raise ScenarioError(f"{where}: q_i = r_i'r_i overflows")
    return r


def _matrix(doc, where):
    m = _read(doc, where, {"shape": _pair, "data": _vector}, ("shape", "data"))
    (r, c), data = m["shape"], m["data"]
    if data.size != r * c:
        raise ScenarioError(
            f"{where}: shape {r}x{c} needs {r * c} entries, got {data.size}"
        )
    return data.reshape(r, c)


def _coupling(doc, where):
    """Matrices keyed by neighbor agent number j, written as str(j) writes it."""
    if not (isinstance(doc, dict) and all(
            isinstance(j, str) and re.fullmatch("[1-9][0-9]{0,17}", j) for j in doc)):
        raise ScenarioError(f"{where}: expected an object keyed by agent numbers")
    return {int(j): _matrix(m, f"{where}[{j}]") for j, m in doc.items()}


# one table per object kind
SCENARIO = {
    "name": _string,
    "strategy": _strategy,
    "graph": _record({"directed": _boolean, "edges": _list_of(_pair)},
                     ("directed", "edges")),
    "agents": _list_of(_record(
        {**dict.fromkeys(("A", "B", "C", "P", "dA", "dB", "dC", "dP"), _matrix),
         "x0": _vector},
        ("A", "B", "C"))),
    "exosystems": _list_of(_record({"S": _matrix, "w0": _vector},
                                   ("S", "w0"), Exosystem)),
    "cost": _record({
        "targets": _list_of(_target),
        "blocks": _list_of(_record(
            {"R_ii": _matrix, "Q_ii": _vector, "q_i": _number,
             "R_ij": _coupling, "Q_ij": _coupling},
            ("R_ii", "Q_ii"), LocalCost)),
    }),
    # fields missing from a scenario's sim section keep SIM_DEFAULTS;
    # SimConfig holds the horizon rules, for this section and sim's flags
    "sim": _record(dict.fromkeys(("dt", "t_end", "record_stride"), _number),
                   make=partial(replace, SIM_DEFAULTS)),
    # CARE weights: each R positive, each Q positive semidefinite
    "synthesis": _record({w: _positive if w.endswith("_r") else _non_negative
                          for w in asdict(SynthesisWeights())},
                         make=SynthesisWeights),
}

# v1 and v2 bundles also store the plant copy A, B, C, Rw and the
# synthesis weights (v1 also M1, M2, K, s), all derivable from the
# scenario and the gains; reading ignores them
BUNDLE = {
    "format": _string,
    "strategy": _strategy,
    "scenario_sha256": _string,
    "certificates": _record(dict.fromkeys(CERTIFICATES, _number), CERTIFICATES),
    "agents": _list_of(_record(
        {**dict.fromkeys(CONTROLLER_FIELDS, _matrix),
         **dict.fromkeys(("A", "B", "C", "Rw", "M1", "M2", "K", "s"))},
        CONTROLLER_FIELDS, Controller)),
    "synthesis": None,
}


def _mat_to_json(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"shape": [int(M.shape[0]), int(M.shape[1])],
            "data": [float(x) for x in M.ravel()]}


@dataclass(frozen=True, eq=False)
class Scenario:
    """Parsed scenario; ``scenario_to_dict`` gives its canonical document."""

    name: str
    strategy: str
    game: NetworkGame
    plants: tuple
    exos: tuple
    sim: SimConfig
    weights: SynthesisWeights

    @property
    def graph(self):
        return self.game.graph

    @property
    def agent_count(self):
        return self.game.graph.agent_count


def parse_scenario(doc):
    """Validate a scenario document and build the domain objects."""
    top = _read(doc, "", SCENARIO,
                ("strategy", "graph", "agents", "exosystems", "cost"))
    agents, exos = top["agents"], top["exosystems"]
    if not agents:
        raise ScenarioError("agents: expected a non-empty list")
    if len(exos) != len(agents):
        raise ScenarioError(f"exosystems: expected one entry per agent ({len(agents)})")
    graph = _build(CommGraph, "graph", agent_count=len(agents), **top["graph"])

    plants = []
    for i, (kw, exo) in enumerate(zip(agents, exos), start=1):
        kw.setdefault("P", np.zeros((kw["A"].shape[0], exo.q)))
        plant = _build(AgentPlant, f"agents[{i}]", **kw)
        if plant.q != exo.q:
            raise ScenarioError(f"agents[{i}].P: {plant.q} disturbance columns "
                                f"but exosystem has {exo.q}")
        plants.append(plant)

    cost = top["cost"]
    if len(cost) != 1:
        raise ScenarioError("cost: needs exactly one of 'targets' or 'blocks'")
    if "targets" in cost:
        costs = _build(cost_from_targets, "cost", targets=cost["targets"],
                       graph=graph).costs
    else:
        costs = cost["blocks"]
    # before the game is built, which checks the coupling shapes
    for i, (plant, c) in enumerate(zip(plants, costs), start=1):
        if plant.p != c.p:
            raise ScenarioError(
                f"agents[{i}]: output dimension {plant.p} does not match "
                f"cost dimension {c.p}"
            )
    game = _build(NetworkGame, "cost", graph=graph, costs=costs)

    return Scenario(
        name=top.get("name", ""),
        strategy=top["strategy"],
        game=game,
        plants=tuple(plants),
        exos=tuple(exos),
        sim=top.get("sim", SIM_DEFAULTS),
        weights=top.get("synthesis", SynthesisWeights()),
    )


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
        "sim": asdict(s.sim),
        "synthesis": asdict(s.weights),
    }


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ScenarioError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: "
            f"{err.msg}"
        ) from err
    except ValueError as err:  # e.g. an integer literal past Python's digit limit
        raise ScenarioError(f"{path}: invalid JSON: {err}") from err
    except OSError as err:
        raise ScenarioError(f"{path}: {err}") from err


def load_scenario(path):
    return parse_scenario(_read_json(path))


def _canonical_dump(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def scenario_hash(s):
    """Content digest of the canonical document (hex sha256)."""
    return sha256(_canonical_dump(scenario_to_dict(s)).encode()).hexdigest()


def save_controllers(path, scenario, controllers, certificates):
    """Write synthesized gains with their certificates and scenario digest."""
    agents = [
        {name: _mat_to_json(getattr(c, name)) for name in CONTROLLER_FIELDS}
        for c in controllers
    ]
    doc = {
        "format": CONTROLLER_FORMAT,
        "strategy": scenario.strategy,
        "scenario_sha256": scenario_hash(scenario),
        "certificates": {k: float(v) for k, v in certificates.items()},
        "agents": agents,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def load_controllers(path, scenario):
    """Read a controller file and check that it fits ``scenario``.

    In order: the file must parse (ScenarioError), carry this scenario's
    digest (StaleControllerError), name the scenario's strategy, hold
    one controller per agent, and every gain's shape must fit its
    agent's plant (ScenarioError).  Returns the certificates and the
    controllers; the strategy is the scenario's.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("format") not in READABLE_FORMATS:
        raise ScenarioError(f"{path}: not a {CONTROLLER_FORMAT} file")
    try:
        bundle = _read(doc, "", BUNDLE, ("format", "strategy", "scenario_sha256",
                                         "certificates", "agents"))
    except ScenarioError as err:
        raise ScenarioError(f"{path}: {err}") from err
    controllers = bundle["agents"]

    want, got = scenario_hash(scenario), bundle["scenario_sha256"]
    if got != want:
        raise StaleControllerError(
            f"{path} was synthesized for a different "
            f"scenario (hash {got[:12]}.. != {want[:12]}..); re-run synth"
        )
    if bundle["strategy"] != scenario.strategy:
        raise ScenarioError(
            f"{path}: strategy {bundle['strategy']!r} differs from "
            f"the scenario's {scenario.strategy!r}"
        )
    if len(controllers) != scenario.agent_count:
        raise ScenarioError(
            f"{path}: bundle has {len(controllers)} agents, "
            f"scenario has {scenario.agent_count}"
        )
    for i, (c, plant) in enumerate(zip(controllers, scenario.plants), start=1):
        bad = gain_mismatch(c, plant)
        if bad:
            raise ScenarioError(f"{path}: agents[{i}].{bad}")
    return {"certificates": bundle["certificates"], "controllers": tuple(controllers)}
