import copy
import dataclasses
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import sensor_scenario_doc
import neseek.cli
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
from neseek.sim import SimConfig, simulate_distributed
from neseek.svgplot import line_plot

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
                    y_label="value", log_y=True)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    body = ET.tostring(root, encoding="unicode")
    assert "polyline" in body
    assert "demo" in body and "a" in body and "b" in body
    out = tmp_path / "plot.svg"
    text = line_plot(t, series, labels=["a", "b"], title="demo",
                     y_label="value", path=out)
    assert out.read_text() == text


def test_svg_log_floor_handles_zeros():
    t = np.linspace(0.0, 1.0, 20)
    svg = line_plot(t, [np.zeros(20)], labels=["z"], title="zeros",
                    y_label="gap", log_y=True)
    ET.fromstring(svg)


def test_svg_linear_mode():
    t = np.linspace(0.0, 1.0, 20)
    svg = line_plot(t, [np.linspace(-2.0, 5.0, 20)], labels=["lin"],
                    title="linear", y_label="v", log_y=False)
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


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
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
    ("non-numeric weight", ("synthesis", "observer_q"), "x",
     "synthesis.observer_q"),
    ("infinite weight", ("synthesis", "stabilizer_r"), float("inf"),
     "synthesis.stabilizer_r"),
    ("non-object agent", ("agents", 1), 5, "agents[2]"),
    ("string agent", ("agents", 0), "A", "agents[1]"),
    ("non-object exosystem", ("exosystems", 2), 5, "exosystems[3]"),
]


@pytest.mark.parametrize("case, path, value, where", MALFORMED,
                         ids=[m[0] for m in MALFORMED])
def test_cli_malformed_scenario_exits_2(case, path, value, where, tmp_path,
                                        capsys):
    doc = sensor_scenario_doc(
        "general", sim={"dt": 1e-3, "t_end": 1.0, "record_stride": 10}
    )
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
    out = tmp_path / "empty.csv"
    assert main(["sim", path, "--controllers", str(ctrl),
                 "--out", str(out), "--t-end", "0"]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("t, y_1_1")


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
    ref = simulate_distributed(
        scn.game, scn.plants, scn.exos,
        load_controllers(ctrl, scn)["controllers"], "general",
        SimConfig(**scn.sim),
    )
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    y = rows[:, 1:1 + ref.y_stacked().shape[1]]
    assert np.allclose(rows[:, 0], ref.times, atol=1e-12)
    assert np.max(np.abs(y - ref.y_stacked())) <= 1e-9


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
