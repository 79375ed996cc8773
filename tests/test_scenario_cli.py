import copy
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import sensor_scenario_doc
import neseek.cli
import neseek.svgplot
from neseek.cli import main
from neseek.errors import ScenarioError, StaleControllerError
from neseek.scenario import (
    CONTROLLER_FIELDS,
    CONTROLLER_FORMAT,
    load_controllers,
    load_scenario,
    parse_scenario,
    save_controllers,
    save_scenario,
    scenario_hash,
    scenario_to_dict,
)
from neseek.sim import simulate_distributed
from neseek.synthesis import assemble_closed_loop
from neseek.svgplot import _points, line_plot

AXIS_A = [[0.0, 1.0], [0.0, -0.2]]
AXIS_B = [[0.0], [1.0]]
AXIS_C = [[1.0, 0.0]]
AXIS_P = [[0.0, 0.0], [1.0, 0.0]]
OMEGA = np.pi / 10.0
ROT = [[0.0, OMEGA], [-OMEGA, 0.0]]


def mat(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"shape": [int(M.shape[0]), int(M.shape[1])],
            "data": [float(x) for x in M.ravel()]}


def axis_agent():
    return {"A": mat(AXIS_A), "B": mat(AXIS_B), "C": mat(AXIS_C),
            "P": mat(AXIS_P), "x0": [0.0, 0.0]}


def rot_exo():
    return {"S": mat(ROT), "w0": [1.0, 0.0]}


def coupled_block(j, r_ij):
    return {
        "R_ii": mat([[10.0]]),
        "Q_ii": [1.0],
        "q_i": 0.0,
        "R_ij": {str(j): mat([[r_ij]])},
        "Q_ij": {str(j): mat([[1.0]])},
    }


def two_agent_doc(strategy="general", r_ij=-10.0, synthesis=None):
    doc = {
        "name": "coupled-pair",
        "strategy": strategy,
        "graph": {"directed": strategy == "digraph",
                  "edges": [[1, 2], [2, 1]] if strategy == "general"
                  else [[1, 2]]},
        "agents": [axis_agent(), axis_agent()],
        "exosystems": [rot_exo(), rot_exo()],
        "cost": {"blocks": [coupled_block(2, r_ij), coupled_block(1, r_ij)]},
    }
    if synthesis is not None:
        doc["synthesis"] = synthesis
    return doc


def write_doc(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_parse_roundtrip(tmp_path):
    scn = parse_scenario(sensor_scenario_doc("digraph"))
    path = tmp_path / "s.json"
    save_scenario(scn, path)
    again = load_scenario(path)
    assert again == scn
    assert scenario_hash(again) == scenario_hash(scn)


def test_canonical_dict_is_fixed_point():
    scn = parse_scenario(sensor_scenario_doc("digraph"))
    # The targets shorthand expands; the canonical form uses blocks and
    # parses back to the same scenario.
    assert "blocks" in scn.raw["cost"]
    again = parse_scenario(scenario_to_dict(scn))
    assert again == scn


def test_hash_sensitivity():
    doc = sensor_scenario_doc("digraph")
    h0 = scenario_hash(parse_scenario(doc))
    doc2 = copy.deepcopy(doc)
    doc2["cost"]["targets"][0][0] = -1.5
    assert scenario_hash(parse_scenario(doc2)) != h0
    # Cosmetic key order does not matter.
    doc3 = json.loads(json.dumps(doc, sort_keys=True))
    assert scenario_hash(parse_scenario(doc3)) == h0


def test_unknown_top_level_field():
    doc = sensor_scenario_doc("digraph")
    doc["extra"] = 1
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "extra" in str(err.value)


def test_unknown_agent_field_names_path():
    doc = sensor_scenario_doc("digraph")
    doc["agents"][2]["bogus"] = 5
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "agents[3]" in str(err.value)


def test_matrix_entry_count_checked():
    doc = sensor_scenario_doc("digraph")
    doc["agents"][0]["A"]["data"] = [1.0, 2.0]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "agents[1].A" in str(err.value)


def test_matrix_data_must_be_numeric():
    doc = sensor_scenario_doc("digraph")
    doc["exosystems"][1]["S"]["data"][0] = "x"
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_cost_needs_exactly_one_form():
    doc = sensor_scenario_doc("digraph")
    doc["cost"]["blocks"] = []
    with pytest.raises(ScenarioError):
        parse_scenario(doc)
    del doc["cost"]["blocks"]
    del doc["cost"]["targets"]
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_disturbance_width_cross_check():
    doc = sensor_scenario_doc("digraph")
    doc["agents"][0]["P"] = mat([[0.0], [0.0], [1.0], [0.0]])
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "disturbance" in str(err.value)


def test_output_dimension_cross_check():
    doc = two_agent_doc()
    doc["cost"]["blocks"][0]["R_ii"] = mat(np.eye(2))
    doc["cost"]["blocks"][0]["Q_ii"] = [0.0, 0.0]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "dimension" in str(err.value)


def test_sim_and_synthesis_unknown_keys():
    doc = sensor_scenario_doc("digraph")
    doc["sim"] = {"dt": 1e-3, "step_count": 5}
    with pytest.raises(ScenarioError):
        parse_scenario(doc)
    doc = sensor_scenario_doc("digraph")
    doc["synthesis"] = {"observer_gain": 2.0}
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_invalid_strategy():
    doc = sensor_scenario_doc("digraph")
    doc["strategy"] = "centralized"
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_exosystem_count_must_match():
    doc = sensor_scenario_doc("digraph")
    doc["exosystems"] = doc["exosystems"][:3]
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_json_syntax_error_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"strategy": "digraph",\n  "agents": [}')
    with pytest.raises(ScenarioError) as err:
        load_scenario(p)
    assert "line 2" in str(err.value)


def test_cli_oversized_integer_literal_exits_2(tmp_path, capsys):
    # past the interpreter's integer digit limit json.load raises a plain
    # ValueError; without the limit the value is out of float range
    text = json.dumps(sensor_scenario_doc("digraph"))
    path = tmp_path / "big.json"
    path.write_text(text.replace('"x0": [0.0', '"x0": [' + "1" * 5000, 1))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err or "agents[1].x0" in err


def test_controller_roundtrip(tmp_path, sensor_digraph, sensor_general):
    assert CONTROLLER_FIELDS == ("L", "G1", "G2", "K1", "K2")
    for s in (sensor_digraph, sensor_general):
        scn = parse_scenario(sensor_scenario_doc(s.strategy))
        path = tmp_path / f"{s.strategy}.json"
        certificates = {"abscissa": -0.5, "residual_dyn": 0.0,
                        "residual_err": 0.0, "scale_dyn": 1.0,
                        "scale_err": 1.0}
        save_controllers(path, scn, s.strategy, s.controllers, certificates)
        bundle = load_controllers(path, scn)
        assert bundle["strategy"] == s.strategy
        assert bundle["certificates"] == certificates
        for c0, c1 in zip(s.controllers, bundle["controllers"]):
            assert type(c0) is type(c1)
            for name in CONTROLLER_FIELDS:
                assert np.array_equal(getattr(c0, name), getattr(c1, name))
            # derived quantities come back from the stored gains
            assert np.array_equal(c0.K, c1.K)
            assert (c0.n, c0.m, c0.p, c0.s, c0.ctrl_dim) == \
                (c1.n, c1.m, c1.p, c1.s, c1.ctrl_dim)
        # the gains and nothing the scenario already determines
        doc = json.loads(path.read_text())
        assert set(doc) == {"format", "strategy", "scenario_sha256",
                            "certificates", "agents"}
        assert doc["format"] == CONTROLLER_FORMAT == "neseek-controllers-v3"
        assert doc["scenario_sha256"] == scenario_hash(scn)
        for entry in doc["agents"]:
            assert set(entry) == set(CONTROLLER_FIELDS)


def v2_bundle(doc, scn):
    """Re-tag a v3 bundle as v2: add the plant copy, Rw and the weights."""
    doc = copy.deepcopy(doc)
    doc["format"] = "neseek-controllers-v2"
    doc["synthesis"] = dataclasses.asdict(scn.weights)
    for entry, plant, cost in zip(doc["agents"], scn.plants, scn.game.costs):
        entry.update(A=mat(plant.A), B=mat(plant.B), C=mat(plant.C),
                     Rw=mat(cost.R_ii + cost.R_ii.T))
    return doc


def v1_bundle(doc, scn):
    """Re-tag a v3 bundle as v1: the v2 fields plus M1, M2, K and s."""
    doc = v2_bundle(doc, scn)
    doc["format"] = "neseek-controllers-v1"
    for entry in doc["agents"]:
        g = {k: np.asarray(v["data"]).reshape(v["shape"])
             for k, v in entry.items()}
        n, v = g["A"].shape[0], g["G1"].shape[0]
        M1 = np.block([
            [g["A"] + g["B"] @ g["K1"] - g["L"] @ (g["Rw"] @ g["C"]),
             g["B"] @ g["K2"]],
            [np.zeros((v, n)), g["G1"]],
        ])
        M1[0, 0] += 1.0  # deliberately edited: readers must ignore it
        entry["M1"] = mat(M1)
        entry["M2"] = mat(np.vstack([g["L"], g["G2"]]))
        entry["K"] = mat(np.hstack([g["K1"], g["K2"]]))
        entry["s"] = v // g["C"].shape[0]
    return doc


def test_controller_v1_bundle_still_loads(tmp_path, capsys):
    for strategy in ("digraph", "general"):
        path = write_doc(tmp_path, sensor_scenario_doc(strategy),
                         f"{strategy}.json")
        scn = load_scenario(path)
        v3 = tmp_path / f"{strategy}-v3.json"
        assert main(["synth", path, "--out", str(v3)]) == 0
        bundles = [v3]
        for tag, convert in (("v2", v2_bundle), ("v1", v1_bundle)):
            bundles.append(tmp_path / f"{strategy}-{tag}.json")
            bundles[-1].write_text(
                json.dumps(convert(json.loads(v3.read_text()), scn)))
        new = load_controllers(v3, scn)
        for old in (load_controllers(b, scn) for b in bundles[1:]):
            assert old["strategy"] == new["strategy"] == strategy
            assert old["certificates"] == new["certificates"]
            for c_new, c_old in zip(new["controllers"], old["controllers"]):
                for name in CONTROLLER_FIELDS:
                    assert np.array_equal(getattr(c_old, name),
                                          getattr(c_new, name))
        csvs = []
        for bundle in bundles:
            out = tmp_path / f"{bundle.stem}.csv"
            assert main(["sim", path, "--controllers", str(bundle),
                         "--out", str(out), "--t-end", "1.0"]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]
    capsys.readouterr()


def test_controller_file_format_gate(tmp_path):
    scn = parse_scenario(sensor_scenario_doc("digraph"))
    p = tmp_path / "bad.json"
    for fmt in ("something-else", "neseek-controllers-v4"):
        p.write_text(json.dumps({"format": fmt, "agents": []}))
        with pytest.raises(ScenarioError) as err:
            load_controllers(p, scn)
        assert CONTROLLER_FORMAT in str(err.value)


def test_load_controllers_check_order(tmp_path, sensor_bundle):
    # parse errors first (exit 2), then the scenario digest (exit 3),
    # then the agent count and each gain against its plant (exit 2)
    path, good = sensor_bundle
    scn = load_scenario(path)
    p = tmp_path / "c.json"

    def load(edit):
        doc = copy.deepcopy(good)
        edit(doc)
        p.write_text(json.dumps(doc))
        load_controllers(p, scn)

    def stale(doc):
        doc["scenario_sha256"] = "0" * 64

    with pytest.raises(ScenarioError, match="certificates"):
        load(lambda d: (stale(d), d.update(certificates=5)))
    with pytest.raises(StaleControllerError):
        load(lambda d: (stale(d), d["agents"].pop()))
    with pytest.raises(StaleControllerError):
        load(lambda d: (stale(d), _set(d, ("agents", 0, "K1"), mat([[1.0]]))))
    with pytest.raises(ScenarioError, match="4 agents"):
        load(lambda d: (d["agents"].pop(), _set(d, ("agents", 0, "K1"),
                                                mat([[1.0]]))))
    with pytest.raises(ScenarioError, match=r"agents\[1\]\.K1"):
        load(lambda d: _set(d, ("agents", 0, "K1"), mat([[1.0]])))


def test_svg_well_formed(tmp_path):
    t = np.linspace(0.0, 1.0, 50)
    series = [np.exp(-3 * t), np.abs(np.sin(8 * t)) + 1e-12]
    svg = line_plot(t, series, labels=["a", "b"], title="demo",
                    y_label="value")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    body = ET.tostring(root, encoding="unicode")
    assert "polyline" in body
    assert "demo" in body and "a" in body and "b" in body
    # with a path the same document goes to the file, and nothing is returned
    out = tmp_path / "plot.svg"
    assert line_plot(t, series, labels=["a", "b"], title="demo",
                     y_label="value", path=out) is None
    assert out.read_text() == svg


def test_svg_written_in_chunks_peaks_below_one_polyline(tmp_path, monkeypatch):
    # 5 series of 6000 points in chunks of 64: the file is the returned
    # document byte for byte, yet writing it never holds even one
    # polyline's points text (the peak is flat in series length)
    monkeypatch.setattr(neseek.svgplot, "CHUNK", 64)
    t = np.linspace(0.0, 100.0, 6000)
    series = [np.exp(-k * t) * (1.5 + np.sin(7 * t)) for k in range(1, 6)]
    labels = [f"s{k}" for k in range(1, 6)]
    text = line_plot(t, series, labels, "long", "v")
    points = ET.fromstring(text).find("{http://www.w3.org/2000/svg}polyline").get("points")
    assert len(points.split(" ")) == len(t)
    out = tmp_path / "long.svg"
    tracemalloc.start()
    try:
        assert line_plot(t, series, labels, "long", "v", path=out) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.read_bytes() == text.encode()
    assert peak < len(points), (peak, len(points))


def test_svg_clips_non_finite_and_overflowing_values():
    # NaN, infinity and values past 1e308 sit on the ceiling, as zeros sit
    # on the floor: the axis spans 1e-16..1e308 and every point is drawn
    t = np.linspace(0.0, 1.0, 6)
    values = np.array([0.0, 1.0, 1.7e308, np.inf, -np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = line_plot(t, [values], labels=["x"], title="edge", y_label="v")
    root = ET.fromstring(svg)
    points = root.find("{http://www.w3.org/2000/svg}polyline").get("points").split(" ")
    ys = [float(p.split(",")[1]) for p in points]
    assert ys[2:] == [ys[2]] * 4
    assert ys[2] < ys[1] < ys[0]
    ticks = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "1e-16" in ticks and "1e308" in ticks


def test_svg_points_match_the_pair_formula():
    # one format call over interleaved coordinates gives the per-pair text,
    # rounding ties and signs included
    xs = [72.0, 72.005, 72.015, 100.125, 871.999]
    ys = [42.0, -0.004, 448.005, 1e-9, 447.995]
    assert _points(xs, ys) == " ".join("%.2f,%.2f" % pair for pair in zip(xs, ys))
    t = np.linspace(0.0, 3.0, 301)
    svg = line_plot(t, [np.exp(-t)], labels=["a"], title="demo", y_label="v")
    points = ET.fromstring(svg).find("{http://www.w3.org/2000/svg}polyline").get("points")
    assert len(points.split(" ")) == len(t)


@pytest.mark.parametrize("t_end, label", [(2e4, "1e+04"), (0.002, "5e-04")])
def test_svg_time_ticks_far_from_one_use_exponents(t_end, label):
    t = np.linspace(0.0, t_end, 11)
    svg = line_plot(t, [np.exp(-t / t_end)], labels=["a"], title="ticks", y_label="v")
    ticks = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert label in ticks


def test_svg_log_floor_handles_zeros():
    t = np.linspace(0.0, 1.0, 20)
    svg = line_plot(t, [np.zeros(20)], labels=["z"], title="zeros",
                    y_label="gap")
    ET.fromstring(svg)


def test_cli_check_digraph(tmp_path, capsys):
    path = write_doc(tmp_path, sensor_scenario_doc("digraph"))
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "A1" in out and "A5" in out
    assert "FAIL" not in out
    assert "order 1->2->3->4->5" in out
    assert "all applicable assumptions hold" in out


def test_cli_check_general(tmp_path, capsys):
    path = write_doc(tmp_path, sensor_scenario_doc("general"))
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "A6" in out
    assert "n/a" in out  # A5 does not apply


def test_cli_check_assumption_failures(tmp_path):
    # A1: strongly coupled pair makes the symmetric part indefinite.
    doc = two_agent_doc(r_ij=-10.0)
    doc["cost"]["blocks"] = [coupled_block(2, -10.0), coupled_block(1, -10.0)]
    for b in doc["cost"]["blocks"]:
        b["R_ii"] = mat([[1.0]])
    assert main(["check", write_doc(tmp_path, doc, "a1.json")]) == 11

    # A2: decaying exosystem mode.
    doc = {
        "name": "a2", "strategy": "digraph",
        "graph": {"directed": True, "edges": []},
        "agents": [{"A": mat(AXIS_A), "B": mat(AXIS_B), "C": mat(AXIS_C),
                    "P": mat([[0.0], [1.0]]), "x0": [0.0, 0.0]}],
        "exosystems": [{"S": mat([[-1.0]]), "w0": [1.0]}],
        "cost": {"targets": [[0.0]]},
    }
    assert main(["check", write_doc(tmp_path, doc, "a2.json")]) == 12

    # A3: unstable uncontrollable plant.
    doc = {
        "name": "a3", "strategy": "digraph",
        "graph": {"directed": True, "edges": []},
        "agents": [{"A": mat(np.eye(2)), "B": mat([[1.0], [0.0]]),
                    "C": mat(AXIS_C), "x0": [0.0, 0.0]}],
        "exosystems": [{"S": mat(np.zeros((0, 0))), "w0": []}],
        "cost": {"targets": [[0.0]]},
    }
    assert main(["check", write_doc(tmp_path, doc, "a3.json")]) == 13

    # A4: stable plant with no control authority at lambda = 0.
    doc = {
        "name": "a4", "strategy": "digraph",
        "graph": {"directed": True, "edges": []},
        "agents": [{"A": mat([[-1.0]]), "B": mat([[0.0]]),
                    "C": mat([[1.0]]), "x0": [0.0]}],
        "exosystems": [{"S": mat(np.zeros((0, 0))), "w0": []}],
        "cost": {"targets": [[0.0]]},
    }
    assert main(["check", write_doc(tmp_path, doc, "a4.json")]) == 14

    # A5: directed cycle.
    doc = sensor_scenario_doc("digraph")
    doc["graph"]["edges"].append([4, 1])
    assert main(["check", write_doc(tmp_path, doc, "a5.json")]) == 15

    # A6: disconnected undirected graph.
    doc = sensor_scenario_doc("general")
    doc["graph"]["edges"] = [[1, 2], [2, 1]]
    assert main(["check", write_doc(tmp_path, doc, "a6.json")]) == 16


def test_cli_check_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_check_invalid_scenario(tmp_path, capsys):
    doc = sensor_scenario_doc("digraph")
    doc["strategy"] = "hybrid"
    assert main(["check", write_doc(tmp_path, doc)]) == 2
    assert "strategy" in capsys.readouterr().err


def test_cli_ne(tmp_path, capsys):
    path = write_doc(tmp_path, sensor_scenario_doc("digraph"))
    assert main(["ne", path]) == 0
    out = capsys.readouterr().out
    assert "lambda_min" in out
    assert "y*_1 = [-1.0, 0.0]" in out
    assert "y*_5 = [-0.75, 0.75]" in out
    assert "residual" in out


def test_cli_ne_refuses_without_monotonicity(tmp_path, capsys):
    doc = two_agent_doc(r_ij=-10.0)
    for b in doc["cost"]["blocks"]:
        b["R_ii"] = mat([[1.0]])
    assert main(["ne", write_doc(tmp_path, doc)]) == 11
    assert "monotone" in capsys.readouterr().err


def test_cli_synth_and_determinism(tmp_path, capsys):
    path = write_doc(tmp_path, sensor_scenario_doc("digraph"))
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    assert main(["synth", path, "--out", str(out1)]) == 0
    assert main(["synth", path, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["format"] == CONTROLLER_FORMAT
    assert doc["certificates"]["abscissa"] < 0.0
    scn = load_scenario(path)
    assert doc["scenario_sha256"] == scenario_hash(scn)


# value of _set that deletes the key instead
DELETE = object()


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    if value is DELETE:
        del doc[last]
    else:
        doc[last] = value


MALFORMED = [
    # (case, document path to overwrite, value, offending path in stderr)
    ("infinite target", ("cost", "targets", 0, 0), float("inf"),
     "cost.targets[1]"),
    ("nan matrix entry", ("agents", 1, "A", "data", 0), float("nan"),
     "agents[2].A"),
    ("infinite initial state", ("agents", 0, "x0", 0), float("-inf"),
     "agents[1].x0"),
    ("nan exosystem state", ("exosystems", 2, "w0", 1), float("nan"),
     "exosystems[3].w0"),
    ("non-numeric dt", ("sim", "dt"), "x", "sim.dt"),
    ("negative dt", ("sim", "dt"), -1, "sim.dt"),
    ("zero dt", ("sim", "dt"), 0, "sim.dt"),
    ("infinite dt", ("sim", "dt"), float("inf"), "sim.dt"),
    ("non-numeric t_end", ("sim", "t_end"), "10", "sim.t_end"),
    ("nan t_end", ("sim", "t_end"), float("nan"), "sim.t_end"),
    ("fractional record_stride", ("sim", "record_stride"), 2.5,
     "sim.record_stride"),
    ("zero record_stride", ("sim", "record_stride"), 0, "sim.record_stride"),
    ("boolean record_stride", ("sim", "record_stride"), True,
     "sim.record_stride"),
    ("t_end shorter than dt", ("sim", "t_end"), 0.0005,
     "sim: t_end 0.0005 is shorter than dt 0.001"),
    ("dt longer than t_end", ("sim", "dt"), 2, "sim: t_end 1.0 is shorter than dt"),
    ("t_end between steps", ("sim", "t_end"), 1.0005,
     "sim: t_end 1.0005 is not a whole number of dt 0.001 steps; "
     "the nearest reachable t_end is 1"),
    ("missing agents", ("agents",), DELETE,
     "top level: missing required field 'agents'"),
    ("empty agents", ("agents",), [], "agents: expected a non-empty list"),
    ("agent without A", ("agents", 0, "A"), DELETE,
     "agents[1]: missing required field 'A'"),
    ("matrix without shape", ("agents", 1, "B", "shape"), DELETE,
     "agents[2].B: missing required field 'shape'"),
    ("non-numeric weight", ("synthesis", "observer_q"), "x",
     "synthesis.observer_q"),
    ("infinite weight", ("synthesis", "stabilizer_r"), float("inf"),
     "synthesis.stabilizer_r"),
    ("negative state weight", ("synthesis", "stabilizer_q_state"), -0.01,
     "synthesis.stabilizer_q_state: must not be negative"),
    ("negative observer weight", ("synthesis", "observer_q"), -1.0,
     "synthesis.observer_q: must not be negative"),
    ("negative internal-model weight", ("synthesis", "stabilizer_q_im"), -1.0,
     "synthesis.stabilizer_q_im: must not be negative"),
    ("zero observer_r", ("synthesis", "observer_r"), 0,
     "synthesis.observer_r: must be positive"),
    ("negative observer_r", ("synthesis", "observer_r"), -1.0,
     "synthesis.observer_r: must be positive"),
    ("zero stabilizer_r", ("synthesis", "stabilizer_r"), 0,
     "synthesis.stabilizer_r: must be positive"),
    ("non-object agent", ("agents", 1), 5, "agents[2]"),
    ("string agent", ("agents", 0), "A", "agents[1]"),
    ("non-object exosystem", ("exosystems", 2), 5, "exosystems[3]"),
    ("extra graph key", ("graph", "weights"), [], "graph: unknown field"),
    ("string directed", ("graph", "directed"), "no", "graph.directed"),
    ("fractional edge", ("graph", "edges", 0), [1.5, 2], "graph.edges[1]"),
    ("string edge", ("graph", "edges", 0), ["1", "2"], "graph.edges[1]"),
    ("extra cost key", ("cost", "scale"), 1.0, "cost: unknown field"),
    ("misspelt block key", ("cost", "blocks", 1, "R_IJ"), {},
     "cost.blocks[2]: unknown field"),
    ("fractional coupling key", ("cost", "blocks", 1, "R_ij", "1.0"),
     {"shape": [2, 2], "data": [-2.0, 0.0, 0.0, -2.0]}, "cost.blocks[2].R_ij"),
    ("second key for one neighbor", ("cost", "blocks", 1, "R_ij", "01"),
     {"shape": [2, 2], "data": [-9.0, 0.0, 0.0, -9.0]}, "cost.blocks[2].R_ij"),
    ("oversized coupling key", ("cost", "blocks", 1, "Q_ij", "1" * 5000),
     {"shape": [2, 2], "data": [1.0, 0.0, 0.0, 1.0]}, "cost.blocks[2].Q_ij"),
    ("list as name", ("name",), [1, 2], "name: expected a string"),
    ("integer beyond float range", ("agents", 0, "x0", 0), 10**400,
     "agents[1].x0"),
    ("wrong-shaped R_ij", ("cost", "blocks", 1, "R_ij", "1"),
     {"shape": [1, 1], "data": [-2.0]}, "R_21 must be 2x2"),
    ("wrong-shaped Q_ij", ("cost", "blocks", 1, "Q_ij", "1"),
     {"shape": [3, 3], "data": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0]},
     "Q_21 must be 2x2"),
    ("flat dA", ("agents", 0, "dA"), {"shape": [1, 16], "data": [0.0] * 16},
     "agents[1]: dA must have shape (4, 4)"),
]


def blocks_form(doc):
    """State the same game's cost as explicit blocks."""
    doc["cost"] = scenario_to_dict(parse_scenario(doc))["cost"]


@pytest.mark.parametrize("case, path, value, where", MALFORMED,
                         ids=[m[0] for m in MALFORMED])
def test_cli_malformed_scenario_exits_2(case, path, value, where, tmp_path,
                                        capsys):
    doc = sensor_scenario_doc(
        "general", sim={"dt": 1e-3, "t_end": 1.0, "record_stride": 10}
    )
    if path[:2] == ("cost", "blocks"):
        blocks_form(doc)
    _set(doc, path, value)
    scenario = write_doc(tmp_path, doc)
    ctrl = tmp_path / "c.json"
    for argv in (["check", scenario], ["ne", scenario],
                 ["synth", scenario, "--out", str(ctrl)]):
        assert main(argv) == 2, (case, argv[0])
        assert where in capsys.readouterr().err, (case, argv[0])
    assert not ctrl.exists()


def test_cli_synth_gates_regulator_residuals(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, sensor_scenario_doc("digraph"))
    real = neseek.cli.solve_regulator
    for name in ("residual_dyn", "residual_err"):
        for bad in (float("nan"), 1.0):
            monkeypatch.setattr(
                neseek.cli, "solve_regulator",
                lambda cl: dataclasses.replace(real(cl), **{name: bad}),
            )
            out = tmp_path / "c.json"
            assert main(["synth", path, "--out", str(out)]) == 4
            assert name in capsys.readouterr().err
            assert not out.exists()


def test_cli_synth_refuses_an_infinite_regulator_scale(tmp_path, capsys, monkeypatch):
    # inf <= 1e-8 * inf holds, yet an infinite scale certifies nothing
    path = write_doc(tmp_path, sensor_scenario_doc("digraph"))
    real = neseek.cli.solve_regulator
    for name in ("dyn", "err"):
        monkeypatch.setattr(
            neseek.cli, "solve_regulator",
            lambda cl: dataclasses.replace(real(cl), **{f"residual_{name}": np.inf,
                                                        f"scale_{name}": np.inf}),
        )
        out = tmp_path / "c.json"
        assert main(["synth", path, "--out", str(out)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error: regulator certificate fails: residual_{name}=inf "
            f"exceeds 1e-08 * scale=inf"]
        assert not out.exists()


@pytest.mark.parametrize("weights, start, end", [
    # the CARE scale overflows while its residual is finite
    ({"stabilizer_r": 1e-300},
     "error: no stabilizing Riccati solution: residual ", " exceeds 1e-08 * scale inf"),
    ({"observer_q": 1e300},
     "error: no stabilizing Riccati solution: sign iterate is not finite", ""),
], ids=["stabilizer_r 1e-300", "observer_q 1e300"])
def test_cli_synth_overflowing_weights_exit_4(weights, start, end, tmp_path, capsys):
    doc = sensor_scenario_doc("digraph")
    doc["synthesis"] = weights
    out = tmp_path / "c.json"
    assert main(["synth", write_doc(tmp_path, doc), "--out", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(start) and err[0].endswith(end), err
    assert not out.exists()


def test_cli_synth_unstable_default_weights(tmp_path, capsys):
    path = write_doc(tmp_path, two_agent_doc(r_ij=-19.0))
    assert main(["synth", path, "--out", str(tmp_path / "c.json")]) == 4
    assert "adjust the synthesis weights" in capsys.readouterr().err


def test_cli_synth_weights_rescue(tmp_path, capsys):
    doc = two_agent_doc(
        r_ij=-19.0,
        synthesis={"stabilizer_q_im": 1e-4, "stabilizer_q_state": 100.0},
    )
    path = write_doc(tmp_path, doc)
    assert main(["synth", path, "--out", str(tmp_path / "c.json")]) == 0
    capsys.readouterr()


def test_cli_synth_gate_failure(tmp_path, capsys):
    doc = sensor_scenario_doc("digraph")
    doc["graph"]["edges"].append([4, 1])
    path = write_doc(tmp_path, doc)
    assert main(["synth", path, "--out", str(tmp_path / "c.json")]) == 15
    capsys.readouterr()


def test_cli_sim_pipeline(tmp_path, capsys):
    path = write_doc(tmp_path, sensor_scenario_doc("digraph"))
    ctrl = tmp_path / "ctrl.json"
    assert main(["synth", path, "--out", str(ctrl)]) == 0
    csv_out = tmp_path / "run.csv"
    svg_out = tmp_path / "run.svg"
    rc = main(["sim", path, "--controllers", str(ctrl),
               "--out", str(csv_out), "--svg", str(svg_out),
               "--t-end", "2.0"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0].startswith("t, y_1_1")
    assert len(lines) == 1 + 21  # 2000 steps at stride 100, plus t=0
    assert "summary:" in captured.err
    assert "T_conv" in captured.err
    ET.fromstring(svg_out.read_text())
    errors_svg = tmp_path / "run.errors.svg"
    assert errors_svg.exists()
    ET.fromstring(errors_svg.read_text())


def test_cli_sim_determinism(tmp_path, capsys):
    path = write_doc(tmp_path, sensor_scenario_doc("digraph"))
    ctrl = tmp_path / "ctrl.json"
    assert main(["synth", path, "--out", str(ctrl)]) == 0
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(["sim", path, "--controllers", str(ctrl),
                     "--out", str(out), "--t-end", "1.0"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_cli_sim_stale_controllers(tmp_path, capsys):
    doc = sensor_scenario_doc("digraph")
    path = write_doc(tmp_path, doc)
    ctrl = tmp_path / "ctrl.json"
    assert main(["synth", path, "--out", str(ctrl)]) == 0
    doc["cost"]["targets"][0][0] = -2.0
    path2 = write_doc(tmp_path, doc, "changed.json")
    rc = main(["sim", path2, "--controllers", str(ctrl),
               "--out", str(tmp_path / "x.csv"), "--t-end", "1.0"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "re-run synth" in captured.err


def test_cli_sim_zero_horizon(tmp_path, capsys):
    path = write_doc(tmp_path, sensor_scenario_doc("digraph"))
    ctrl = tmp_path / "ctrl.json"
    assert main(["synth", path, "--out", str(ctrl)]) == 0
    out, svg = tmp_path / "empty.csv", tmp_path / "empty.svg"
    assert main(["sim", path, "--controllers", str(ctrl),
                 "--out", str(out), "--t-end", "0", "--svg", str(svg)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("t, y_1_1")
    assert lines[1].startswith("0.0, ")
    # a single record still spans a time axis of unit width
    for plot in (svg, tmp_path / "empty.errors.svg"):
        ET.parse(plot)


def test_cli_sim_perturbation_keeps_or_breaks_hurwitz(sensor_bundle, tmp_path, capsys):
    # one draw per seed, its abscissa printed with no step taken: at scale
    # 0.02 the loops of seeds 3-7 stay Hurwitz, at 100 the loop of seed 3
    # does not
    scenario, bundle = sensor_bundle
    ctrl, out = tmp_path / "ctrl.json", tmp_path / "run.csv"
    ctrl.write_text(json.dumps(bundle))

    def abscissa_line(scale, seed):
        assert main(["sim", scenario, "--controllers", str(ctrl), "--out", str(out),
                     "--perturb-scale", str(scale), "--seed", str(seed),
                     "--t-end", "0"]) == 0
        assert len(out.read_text().splitlines()) == 2  # header and t = 0
        return capsys.readouterr().err.splitlines()[0]

    stable = [abscissa_line(0.02, seed).split() for seed in range(3, 8)]
    assert all(len(words) == 3 and float(words[2]) < 0.0 for words in stable), stable
    assert float(stable[0][2]) == pytest.approx(-0.513, abs=5e-4)
    words = abscissa_line(100, 3).split()
    assert words[3:] == ["(NOT", "Hurwitz)"]
    assert float(words[2]) == pytest.approx(863.0, abs=0.05)


def test_cli_sim_perturbed(tmp_path, capsys):
    path = write_doc(tmp_path, sensor_scenario_doc("digraph"))
    ctrl = tmp_path / "ctrl.json"
    assert main(["synth", path, "--out", str(ctrl)]) == 0
    rc = main(["sim", path, "--controllers", str(ctrl),
               "--out", str(tmp_path / "p.csv"), "--t-end", "2.0",
               "--perturb-scale", "0.02", "--seed", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "abscissa" in captured.err


def test_cli_synth_certifies_stated_perturbation(tmp_path, capsys):
    # agent 1's stated dA turns its velocity damping into growth; the
    # nominal loop is Hurwitz, the loop with the stated plant is not
    doc = sensor_scenario_doc("digraph")
    doc["agents"][0]["dA"] = mat(np.diag([0.0, 0.0, 3.0, 3.0]))
    path = write_doc(tmp_path, doc)
    assert main(["check", path]) == 0
    ctrl = tmp_path / "ctrl.json"
    assert main(["synth", path, "--out", str(ctrl)]) == 4
    assert "not Hurwitz" in capsys.readouterr().err
    assert not ctrl.exists()


def test_cli_sim_simulates_stated_perturbation(tmp_path, capsys):
    doc = sensor_scenario_doc(
        "general", sim={"dt": 1e-3, "t_end": 2.0, "record_stride": 50}
    )
    rng = np.random.default_rng(23)
    for agent in doc["agents"]:
        for key, shape in (("dA", (4, 4)), ("dB", (4, 2)),
                           ("dC", (2, 4)), ("dP", (4, 2))):
            agent[key] = mat(0.02 * rng.uniform(-1.0, 1.0, size=shape))
    path = write_doc(tmp_path, doc)
    ctrl = tmp_path / "ctrl.json"
    out = tmp_path / "traj.csv"
    assert main(["synth", path, "--out", str(ctrl)]) == 0
    assert main(["sim", path, "--controllers", str(ctrl),
                 "--out", str(out)]) == 0
    capsys.readouterr()

    scn = load_scenario(path)
    assert all(p.dA.any() and p.dC.any() for p in scn.plants)
    cl = assemble_closed_loop(scn.game, scn.plants, scn.exos,
                              load_controllers(ctrl, scn)["controllers"], "general")
    ref = simulate_distributed(cl, scn.sim)
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    y = rows[:, 1:1 + ref.Y.shape[1]]
    assert np.allclose(rows[:, 0], ref.times, atol=1e-12)
    assert np.max(np.abs(y - ref.Y)) <= 1e-9


@pytest.fixture(scope="module")
def sensor_bundle(tmp_path_factory):
    """A short-horizon digraph scenario and its synthesized bundle."""
    root = tmp_path_factory.mktemp("bundle")
    doc = sensor_scenario_doc(
        "digraph", sim={"dt": 1e-3, "t_end": 1.0, "record_stride": 100}
    )
    scenario = write_doc(root, doc)
    ctrl = root / "ctrl.json"
    assert main(["synth", scenario, "--out", str(ctrl)]) == 0
    return scenario, json.loads(ctrl.read_text())


def consistent_agent(n, m, p, v):
    """Controller entry whose gains agree with each other but not the plant."""
    shapes = {"L": (n, p), "G1": (v, v), "G2": (v, p), "K1": (m, n),
              "K2": (m, v)}
    return {k: mat(np.zeros(shape)) for k, shape in shapes.items()}


def _edit_bundle(path, value):
    def edit(doc):
        _set(doc, path, value)
    return edit


def _overflowing_gain(doc):
    """Finite but huge observer gain: the assembled loop overflows."""
    data = doc["agents"][0]["L"]["data"]
    doc["agents"][0]["L"]["data"] = [
        1e308 if k % 2 else -1e308 for k in range(len(data))
    ]


BAD_SIM_INPUTS = [
    # (case, extra sim argv, bundle edit, text expected in stderr)
    ("nan t-end", ["--t-end", "nan"], None, "--t-end"),
    ("infinite t-end", ["--t-end", "inf"], None, "--t-end"),
    ("negative t-end", ["--t-end", "-1"], None, "--t-end"),
    ("zero dt", ["--dt", "0"], None, "--dt"),
    ("negative dt", ["--dt", "-1"], None, "--dt"),
    ("nan dt", ["--dt", "nan"], None, "--dt"),
    ("infinite dt", ["--dt", "inf"], None, "--dt"),
    ("t-end shorter than dt", ["--t-end", "0.0005"], None, "shorter than dt"),
    ("dt longer than t-end", ["--dt", "2"], None, "shorter than dt"),
    ("t-end between steps", ["--dt", "2", "--t-end", "5"], None,
     "t_end 5.0 is not a whole number of dt 2.0 steps; "
     "the nearest reachable t_end is 4"),
    ("t-end between short steps", ["--dt", "0.3", "--t-end", "1"], None,
     "the nearest reachable t_end is 0.9\n"),
    ("nan perturb-scale", ["--perturb-scale", "nan"], None,
     "--perturb-scale"),
    ("infinite perturb-scale", ["--perturb-scale", "inf"], None,
     "--perturb-scale"),
    ("negative perturb-scale", ["--perturb-scale", "-0.1"], None,
     "--perturb-scale"),
    ("number as certificates", [], _edit_bundle(("certificates",), 5),
     "certificates"),
    ("string as certificates", [], _edit_bundle(("certificates",), "ab"),
     "certificates"),
    ("missing certificate", [],
     _edit_bundle(("certificates", "abscissa"), DELETE),
     "certificates: missing required field 'abscissa'"),
    ("nan certificate", [],
     _edit_bundle(("certificates", "residual_err"), float("nan")),
     "certificates.residual_err"),
    ("1x1 K1", [], _edit_bundle(("agents", 0, "K1"), mat([[1.0]])),
     "agents[1].K1"),
    ("short G2", [], _edit_bundle(("agents", 2, "G2"), mat(np.eye(1))),
     "agents[3].G2"),
    ("fractional matrix shape", [],
     _edit_bundle(("agents", 0, "L"), {"shape": [0.5, 2], "data": [1.0]}),
     "agents[1].L"),
    ("matrix data not a list", [],
     _edit_bundle(("agents", 0, "L"), {"shape": [1, 1], "data": 1.0}),
     "agents[1].L"),
    ("agents not a list", [], _edit_bundle(("agents",), {}), "agents"),
    ("four agents for five", [],
     lambda doc: doc["agents"].pop(), "4 agents"),
    ("controller for another plant", [],
     _edit_bundle(("agents", 1), consistent_agent(3, 2, 2, 6)), "agents[2].L"),
    ("gains overflow the loop", [], _overflowing_gain, "ctrl.json"),
    ("integer certificate beyond float range", [],
     _edit_bundle(("certificates", "abscissa"), 10**400),
     "certificates.abscissa"),
    ("negative seed", ["--perturb-scale", "0.01", "--seed", "-1"], None,
     "--seed"),
    ("unknown agent field", [], _edit_bundle(("agents", 0, "bogus"), 1),
     "agents[1]: unknown field"),
    ("unknown top-level field", [], _edit_bundle(("bogus",), 1),
     "top level: unknown field"),
]


@pytest.mark.parametrize("case, extra, edit, where", BAD_SIM_INPUTS,
                         ids=[b[0] for b in BAD_SIM_INPUTS])
def test_cli_sim_bad_inputs_exit_2(case, extra, edit, where, sensor_bundle,
                                   tmp_path, capsys):
    scenario, bundle = sensor_bundle
    bundle = copy.deepcopy(bundle)
    if edit is not None:
        edit(bundle)
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps(bundle))
    out = tmp_path / "run.csv"
    rc = main(["sim", scenario, "--controllers", str(ctrl),
               "--out", str(out)] + extra)
    assert rc == 2, case
    assert where in capsys.readouterr().err, case
    assert not out.exists()


def test_cli_sim_overflowing_perturbation_names_scale_and_seed(sensor_bundle,
                                                               tmp_path, capsys):
    # the bundle's gains are fine; plants perturbed at 1e308 overflow the
    # assembled loop, and the error names the perturbation, not the bundle
    scenario, bundle = sensor_bundle
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps(bundle))
    out = tmp_path / "run.csv"
    rc = main(["sim", scenario, "--controllers", str(ctrl), "--out", str(out),
               "--perturb-scale", "1e308", "--seed", "3"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --perturb-scale 1e+308 --seed 3: the perturbed plants overflow "
        "the assembled closed loop (non-finite entries)"]
    assert not out.exists()


def test_cli_sim_overflowing_step_map_prints_only_the_error(sensor_bundle,
                                                            tmp_path, capsys):
    # finite gains pass the load and assembly checks, but the RK4 step
    # map overflows: the divergence is reported without numpy warnings
    scenario, bundle = sensor_bundle
    bundle = copy.deepcopy(bundle)
    K1 = bundle["agents"][1]["K1"]
    K1["data"] = [1e308] * len(K1["data"])
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps(bundle))
    out = tmp_path / "run.csv"
    assert main(["sim", scenario, "--controllers", str(ctrl), "--out", str(out),
                 "--t-end", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "closed-loop abscissa: inf (NOT Hurwitz)",
        "error: state became non-finite at t = 0.001",
    ]
    assert not out.exists()


def test_cli_sim_divergence_after_two_blocks_leaves_no_file(sensor_bundle,
                                                           tmp_path, capsys):
    # agent 1's position feedback turned positive: the loop grows at
    # about e^(21.7 t) and overflows at t = 32.7, record 327 of 100-step
    # records, so five 64-record blocks were streamed before it
    scenario, bundle = sensor_bundle
    bundle = copy.deepcopy(bundle)
    K1 = bundle["agents"][0]["K1"]
    K1["data"] = [5.0 * abs(v) for v in K1["data"]]
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps(bundle))
    out = tmp_path / "run.csv"
    out.write_text("an earlier run\n")
    before = sorted(tmp_path.iterdir())
    # the streamed blocks before the overflow hold huge values: taking
    # their norms warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sim", scenario, "--controllers", str(ctrl), "--out", str(out),
                     "--t-end", "100"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [
        "error: state became non-finite at t = 32.725"]
    assert err[-1].startswith("error:")
    assert sorted(tmp_path.iterdir()) == before
    assert out.read_text() == "an earlier run\n"


def test_cli_sim_svg_of_overflowing_norms(sensor_bundle, tmp_path, capsys):
    # the loop of the test above run to t = 32.6 stays finite, but its
    # recorded norms overflow to inf: the summary says so without a numpy
    # warning, its tail oscillation too, and both plots are drawn with the
    # overflow on their ceiling
    scenario, bundle = sensor_bundle
    bundle = copy.deepcopy(bundle)
    K1 = bundle["agents"][0]["K1"]
    K1["data"] = [5.0 * abs(v) for v in K1["data"]]
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps(bundle))
    out, svg = tmp_path / "run.csv", tmp_path / "run.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sim", scenario, "--controllers", str(ctrl), "--out", str(out),
                     "--t-end", "32.6", "--svg", str(svg)]) == 0
    err = capsys.readouterr().err.splitlines()
    summary = next(line for line in err if line.startswith("summary: "))
    assert summary.endswith(
        "final_output_gap=inf max_error_tail=inf steady_oscillation=inf")
    assert err[-1] == f"wrote {svg} and {tmp_path / 'run.errors.svg'}"
    for path, lines in ((svg, 1), (tmp_path / "run.errors.svg", 5)):
        root = ET.parse(path).getroot()
        polylines = root.findall("{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == lines
        for line in polylines:
            assert len(line.get("points").split(" ")) == 327


def test_cli_sim_os_errors_name_the_out_path(sensor_bundle, tmp_path, capsys):
    # the CSV is written to a temporary file first, yet an error opening
    # or moving it names --out, and no temporary file is left
    scenario, bundle = sensor_bundle
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps(bundle))
    (tmp_path / "a_directory").mkdir()
    for out, message in (
        (tmp_path / "missing" / "run.csv", "[Errno 2] No such file or directory"),
        (tmp_path / "a_directory", "[Errno 21] Is a directory"),
    ):
        before = sorted(tmp_path.iterdir())
        assert main(["sim", scenario, "--controllers", str(ctrl),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}: '{out}'"
        assert sorted(tmp_path.iterdir()) == before
    assert not any((tmp_path / "a_directory").iterdir())


def test_cli_sim_leaves_no_file_when_a_plot_cannot_be_written(sensor_bundle,
                                                             tmp_path, capsys):
    # both plots are written before the CSV is moved into place: an --svg
    # in a missing directory leaves no CSV, plot or temporary file
    scenario, bundle = sensor_bundle
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps(bundle))
    out, svg = tmp_path / "run.csv", tmp_path / "missing" / "run.svg"
    before = sorted(tmp_path.iterdir())
    assert main(["sim", scenario, "--controllers", str(ctrl), "--out", str(out),
                 "--t-end", "1", "--svg", str(svg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [
        f"error: [Errno 2] No such file or directory: '{svg}'"]
    assert err[-1].startswith("error:")
    assert not any(line.startswith("wrote ") for line in err)
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("out_name, svg_name, plot_name", [
    ("run.csv", "run.csv", "run.csv"),
    ("run.errors.svg", "run.svg", "run.errors.svg"),
], ids=["gap plot", "errors plot"])
def test_cli_sim_refuses_a_plot_on_the_out_path(out_name, svg_name, plot_name,
                                               sensor_bundle, tmp_path, capsys):
    # the CSV and a plot on one path would share one temporary file, so
    # the run is refused before anything is loaded or written
    scenario, bundle = sensor_bundle
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps(bundle))
    (tmp_path / "sub").mkdir()
    out, svg = tmp_path / out_name, tmp_path / "sub" / ".." / svg_name
    before = sorted(tmp_path.iterdir())
    assert main(["sim", scenario, "--controllers", str(ctrl), "--out", str(out),
                 "--t-end", "1", "--svg", str(svg)]) == 2
    plot = tmp_path / "sub" / ".." / plot_name
    assert capsys.readouterr().err.splitlines() == [
        f"error: --svg {svg} would write a plot to {plot}, the --out file"]
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("out_name, svg_name, directory", [
    ("out.csv", "p.svg", "out.csv"),
    ("run.csv", "plot.svg", "plot.svg"),
    ("run.csv", "plot.svg", "plot.errors.svg"),
], ids=["--out", "gap plot", "errors plot"])
def test_cli_sim_refuses_a_directory_output_before_computing(out_name, svg_name, directory,
                                                             sensor_bundle, tmp_path, capsys):
    # a failed run leaves no plot: an output path that is a directory is
    # refused with the error its write would raise, before anything is run
    scenario, bundle = sensor_bundle
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps(bundle))
    (tmp_path / directory).mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(["sim", scenario, "--controllers", str(ctrl), "--out", str(tmp_path / out_name),
                 "--t-end", "1", "--svg", str(tmp_path / svg_name)]) == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert capsys.readouterr().err.splitlines() == [
        f"error: [Errno 21] Is a directory: '{tmp_path / directory}'"]


@pytest.mark.parametrize("command, flag, target, message", [
    ("synth", "--out", "scenario", "--out {path} would write the bundle to {path}, "
                                   "the scenario file"),
    ("sim", "--out", "ctrl", "--out {path} would write the CSV to {path}, "
                             "the --controllers file"),
    ("sim", "--out", "scenario", "--out {path} would write the CSV to {path}, "
                                 "the scenario file"),
    ("sim", "--svg", "ctrl", "--svg {path} would write a plot to {path}, "
                             "the --controllers file"),
], ids=["synth onto its scenario", "sim onto its bundle", "sim onto its scenario",
        "sim plot onto its bundle"])
def test_cli_refuses_to_write_onto_an_input(command, flag, target, message,
                                            sensor_bundle, tmp_path, capsys):
    # an output resolving to an input is refused before anything is read,
    # and the input stays byte-identical
    scenario, bundle = sensor_bundle
    inputs = {"scenario": tmp_path / "scenario.json", "ctrl": tmp_path / "ctrl.json"}
    inputs["scenario"].write_bytes(open(scenario, "rb").read())
    inputs["ctrl"].write_text(json.dumps(bundle))
    (tmp_path / "sub").mkdir()
    path = tmp_path / "sub" / ".." / inputs[target].name
    argv = [command, str(inputs["scenario"])]
    if command == "sim":
        argv += ["--controllers", str(inputs["ctrl"])]
    for name, value in {"--out": tmp_path / "run.csv", flag: path}.items():
        argv += [name, str(value)]
    before = {p: p.read_bytes() for p in inputs.values()}
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: " + message.format(path=path)]
    assert captured.out == ""
    assert {p: p.read_bytes() for p in inputs.values()} == before
    assert sorted(tmp_path.iterdir()) == sorted([*inputs.values(), tmp_path / "sub"])


def test_cli_sim_peak_memory_stays_below_one_record_array(tmp_path, capsys):
    # sensor5 general, every step of 10000 recorded: holding the records'
    # [z; v] (10001 x 85 floats) would take 6.8 MB on its own, while the
    # streamed run peaks near 1.6 MB (numpy 2.4, Python 3.11)
    doc = sensor_scenario_doc(
        "general", sim={"dt": 0.01, "t_end": 100.0, "record_stride": 1})
    path = write_doc(tmp_path, doc)
    ctrl = tmp_path / "ctrl.json"
    assert main(["synth", path, "--out", str(ctrl)]) == 0
    scn = load_scenario(path)
    cl = assemble_closed_loop(scn.game, scn.plants, scn.exos,
                              load_controllers(ctrl, scn)["controllers"], "general")
    bound = (scn.sim.n_steps + 1) * (cl.dim_z + cl.dim_v) * 8
    tracemalloc.start()
    try:
        assert neseek.cli.cmd_sim(path, str(ctrl), str(tmp_path / "run.csv")) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < bound, (peak, bound)


def test_cli_sim_warns_on_a_stored_abscissa_it_does_not_recompute(sensor_bundle,
                                                                 tmp_path, capsys):
    scenario, bundle = sensor_bundle
    ctrl, out = tmp_path / "ctrl.json", tmp_path / "run.csv"
    ctrl.write_text(json.dumps(bundle))
    sim = ["sim", scenario, "--controllers", str(ctrl), "--out", str(out)]
    assert main(sim) == 0
    plain = capsys.readouterr().err.splitlines()
    assert plain[0] == f"closed-loop abscissa: {bundle['certificates']['abscissa']!r}"
    assert plain[1].startswith("summary: ")
    assert plain[2:] == [f"wrote {out}"]

    edited = copy.deepcopy(bundle)
    edited["certificates"]["abscissa"] = -5.0
    ctrl.write_text(json.dumps(edited))
    assert main(sim) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == plain[0]
    assert err[1] == (f"warning: {ctrl}: stored abscissa -5.0 differs from the "
                      f"recomputed {bundle['certificates']['abscissa']!r}")
    assert err[2:] == plain[1:]
    # a perturbed loop is not the certified one: nothing to compare
    assert main(sim + ["--perturb-scale", "0.01"]) == 0
    assert not any(line.startswith("warning:")
                   for line in capsys.readouterr().err.splitlines())


def test_cli_sim_unstable_step_map_of_a_certified_loop_exits_4(sensor_bundle,
                                                              tmp_path, capsys):
    # the loop is Hurwitz (abscissa -0.616) but RK4 at dt = 0.5 diverges
    scenario, bundle = sensor_bundle
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps(bundle))
    out = tmp_path / "run.csv"
    assert main(["sim", scenario, "--controllers", str(ctrl), "--out", str(out),
                 "--dt", "0.5", "--t-end", "1"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and not err[0].endswith("(NOT Hurwitz)"), err
    assert err[1].startswith("error: the closed loop is Hurwitz but its RK4 "
                             "step map at dt 0.5 is not (spectral radius 1.29")
    assert err[1].endswith("the largest stable dt is 0.471007")
    assert not out.exists()
    # just below the limit the same loop simulates
    assert main(["sim", scenario, "--controllers", str(ctrl), "--out", str(out),
                 "--dt", "0.47", "--t-end", "0.94"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("dt", ["1e80", "1e300"])
def test_cli_sim_overflowing_step_reports_an_infinite_radius(dt, sensor_bundle, tmp_path,
                                                             capsys):
    # T4(dt lam) overflows: the radius reads inf, with no numpy warning
    scenario, bundle = sensor_bundle
    ctrl, out = tmp_path / "ctrl.json", tmp_path / "run.csv"
    ctrl.write_text(json.dumps(bundle))
    assert main(["sim", scenario, "--controllers", str(ctrl), "--out", str(out),
                 "--dt", dt, "--t-end", dt]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("closed-loop abscissa: -0.616"), err
    assert err[1] == (
        f"error: the closed loop is Hurwitz but its RK4 step map at dt {float(dt)!r} "
        "is not (spectral radius inf); the largest stable dt is 0.471007")
    assert not out.exists()


def test_cli_sim_step_too_small_to_contract_exits_4(sensor_bundle, tmp_path, capsys):
    # at dt 1e-20, 1 + dt lam rounds to 1: the step map of the Hurwitz loop
    # has radius 1 although dt is far below the largest stable step
    scenario, bundle = sensor_bundle
    ctrl, out = tmp_path / "ctrl.json", tmp_path / "run.csv"
    ctrl.write_text(json.dumps(bundle))
    assert main(["sim", scenario, "--controllers", str(ctrl), "--out", str(out),
                 "--dt", "1e-20", "--t-end", "1e-18"]) == 4
    assert capsys.readouterr().err.splitlines()[1:] == [
        "error: the closed loop is Hurwitz but dt 1e-20 is too small for its RK4 "
        "step map to contract in double precision (spectral radius 1); the "
        "largest stable dt is 0.471007"]
    assert not out.exists()


@pytest.mark.parametrize("dt, t_end, message", [
    # 10**15 + 1 records: their eight kept series alone would take 56.8 PiB
    ("1e-13", "1e4", "t_end 10000.0 at dt 1e-13 is 1000000000000001 records"),
    # past numpy's largest array size
    ("1e-15", "1e6", "t_end 1000000.0 at dt 1e-15 is 9999999999999998691 records"),
], ids=["beyond memory", "beyond numpy"])
def test_cli_sim_unrecordable_horizon_exits_1(dt, t_end, message, sensor_bundle,
                                              tmp_path, capsys):
    # the step map contracts, but numpy cannot allocate the records: one
    # error line, and no CSV, plot or temporary file
    scenario, bundle = sensor_bundle
    ctrl, out = tmp_path / "ctrl.json", tmp_path / "run.csv"
    ctrl.write_text(json.dumps(bundle))
    before = sorted(tmp_path.iterdir())
    assert main(["sim", scenario, "--controllers", str(ctrl), "--out", str(out),
                 "--dt", dt, "--t-end", t_end, "--svg", str(tmp_path / "run.svg")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[1:] == [f"error: {message}, more than can be allocated"]
    assert sorted(tmp_path.iterdir()) == before


def test_cli_sim_horizon_beyond_int64_steps_exits_1(tmp_path, capsys):
    # 10**19 steps at dt 1e-3 but only 101 records at stride 10**17: the
    # kept rows fit, the step count does not fit an int64
    doc = sensor_scenario_doc("digraph", sim={"dt": 1e-3, "t_end": 1.0,
                                              "record_stride": 1e17})
    scenario = write_doc(tmp_path, doc)
    ctrl = tmp_path / "ctrl.json"
    assert main(["synth", scenario, "--out", str(ctrl)]) == 0
    capsys.readouterr()
    before = sorted(tmp_path.iterdir())
    assert main(["sim", scenario, "--controllers", str(ctrl), "--out", str(tmp_path / "run.csv"),
                 "--t-end", "1e16", "--svg", str(tmp_path / "run.svg")]) == 1
    assert capsys.readouterr().err.splitlines()[1:] == [
        "error: t_end 1e+16 at dt 0.001 is 10000000000000000000 steps, "
        "more than an int64 can count"]
    assert sorted(tmp_path.iterdir()) == before


def test_cli_sim_step_count_beyond_float_names_t_end_and_dt(sensor_bundle, tmp_path, capsys):
    # t_end / dt overflows to inf: no nearest reachable t_end to name
    scenario, bundle = sensor_bundle
    ctrl, out = tmp_path / "ctrl.json", tmp_path / "run.csv"
    ctrl.write_text(json.dumps(bundle))
    assert main(["sim", scenario, "--controllers", str(ctrl), "--out", str(out),
                 "--dt", "1e-320", "--t-end", "100"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: t_end 100.0 at dt 1e-320 is more steps than a float can count"]
    assert sorted(tmp_path.iterdir()) == [ctrl]


def test_cli_synth_failed_write_keeps_the_earlier_bundle(tmp_path, capsys, monkeypatch):
    # the disk fills partway through the bundle: the earlier bundle stays
    # as it was, and no temporary file is left
    argv = _synth_argv(tmp_path, "digraph", out="old.json")
    assert main(argv) == 0
    old = (tmp_path / "old.json").read_bytes()
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()

    def dump_until_full(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:24])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(json, "dump", dump_until_full)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: [Errno 28] No space left on device"]
    assert captured.out == ""
    assert (tmp_path / "old.json").read_bytes() == old
    assert sorted(tmp_path.iterdir()) == before


def _synth_argv(tmp_path, strategy, edit=None, out="c.json"):
    doc = sensor_scenario_doc(strategy)
    if edit is not None:
        edit(doc)
    return ["synth", write_doc(tmp_path, doc), "--out", str(tmp_path / out)]


def _as_digraph(doc):
    doc["strategy"] = "digraph"


def _no_internal_model_weight(doc):
    doc["synthesis"] = {"stabilizer_q_im": 0}


def _general_bundle_read_as_digraph(tmp_path):
    argv = _synth_argv(tmp_path, "general")
    assert main(argv) == 0
    ctrl = tmp_path / "c.json"
    bundle = json.loads(ctrl.read_text())
    bundle["strategy"] = "digraph"
    ctrl.write_text(json.dumps(bundle))
    return ["sim", argv[1], "--controllers", str(ctrl),
            "--out", str(tmp_path / "run.csv"), "--t-end", "1"]


CLI_OUTCOMES = [
    # (case, argv from tmp_path, exit status, start of the one stderr line
    #  with {tmp} standing for tmp_path)
    ("digraph strategy on undirected graph",
     lambda t: _synth_argv(t, "general", _as_digraph), 15,
     "error: assumptions [5] fail; run the check command for details"),
    ("general bundle read as digraph", _general_bundle_read_as_digraph, 15,
     "error: strategy 'digraph' needs a directed graph"),
    ("out into missing directory",
     lambda t: _synth_argv(t, "digraph", out="missing/c.json"), 1,
     "error: [Errno 2] No such file or directory: '{tmp}/missing/c.json'"),
    ("zero internal-model weight, digraph",
     lambda t: _synth_argv(t, "digraph", _no_internal_model_weight), 4,
     "error: no stabilizing Riccati solution: "),
    ("zero internal-model weight, general",
     lambda t: _synth_argv(t, "general", _no_internal_model_weight), 4,
     "error: no stabilizing Riccati solution: "),
]


@pytest.mark.parametrize("case, make_argv, status, line", CLI_OUTCOMES,
                         ids=[c[0] for c in CLI_OUTCOMES])
def test_cli_failure_prints_one_error_line(case, make_argv, status, line,
                                           tmp_path, capsys):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == status
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(line.format(tmp=tmp_path)), err
    assert not (tmp_path / argv[argv.index("--out") + 1]).exists()


def test_cli_check_reports_digraph_strategy_on_undirected_graph(tmp_path, capsys):
    doc = sensor_scenario_doc("general")
    doc["strategy"] = "digraph"
    assert main(["check", write_doc(tmp_path, doc)]) == 15
    captured = capsys.readouterr()
    assert "  A5 acyclic digraph" in captured.out
    assert "FAIL  graph is undirected" in captured.out
    assert "failed assumptions: [5]" in captured.out
    assert captured.err == ""


# the layer spans the benchmark's traced mode records on the sensor5
# digraph scenario; a wrapped name the CLI stops calling drops out here
TRACED_LAYERS = {
    "synth": {
        "scenario.load_scenario", "scenario.scenario_hash", "scenario.save_controllers",
        "game.assemble_pseudo_gradient", "game.check_assumption_1",
        "plant.check_assumption_2", "plant.check_assumption_3", "plant.check_assumption_4",
        "graph.check_acyclic", "synthesis.assemble_closed_loop",
        "synthesis.certify_stability", "synthesis.solve_regulator",
    },
    "sim": {
        "scenario.load_scenario", "scenario.scenario_hash", "scenario.load_controllers",
        "game.assemble_pseudo_gradient", "game.solve_ne", "synthesis.assemble_closed_loop",
        "synthesis.certify_stability", "svgplot.line_plot",
    },
}


def test_benchmark_tracer_records_every_layer(tmp_path):
    root = Path(__file__).resolve().parent.parent
    scenario = write_doc(tmp_path, sensor_scenario_doc(
        "digraph", sim={"dt": 1e-3, "t_end": 1.0, "record_stride": 100}))
    ctrl = str(tmp_path / "ctrl.json")
    traces = {}
    for command, args in (
            ("synth", ["--out", ctrl]),
            ("sim", ["--controllers", ctrl, "--out", str(tmp_path / "run.csv"),
                     "--svg", str(tmp_path / "run.svg")])):
        spans = tmp_path / f"{command}.spans.json"
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "tracing.py"), str(spans),
             command, scenario, *args],
            capture_output=True, text=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(root / "src")))
        assert proc.returncode == 0, proc.stderr
        traces[command] = json.loads(spans.read_text())
    for command, trace in traces.items():
        names = {span["name"] for span in trace["spans"]} - {"cli.import"}
        assert names == TRACED_LAYERS[command], command
        assert all(span["end"] is not None for span in trace["spans"])
    residual = traces["synth"]["counts"]["cert.residual_err_rel"]
    assert 0.0 <= residual <= neseek.cli.REGULATOR_REL_TOL
    assert "cert.residual_err_rel" not in traces["sim"]["counts"]
