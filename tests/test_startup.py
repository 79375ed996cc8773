"""SciPy stays out of every command: it is a test-only reference.

``check``, ``ne``, ``sim`` (with its SVG and perturbation options),
``synth`` and an import of every neseek module run on numpy alone, as
``synth`` and ``sim`` do on the general strategy's scenario.  Each case
runs in a fresh interpreter, since the test process itself has SciPy
loaded already; the commands run with SciPy blocked, so an import of it
on their path fails instead of passing unseen.  ``synth``'s gains are
then compared with SciPy's Riccati solutions.

OpenSSL stays out too, and so does ``numpy.random``, which would load it
through ``secrets`` and ``hmac``.  The scenario digest comes from CPython's
built-in sha256; it is the one ``hashlib`` gives, also when the built-in
module is missing and ``hashlib`` stands in.  ``sim --perturb-scale``
draws from ``neseek.rng``, whose stream is compared with numpy's in
``test_rng.py``.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import sensor_scenario_doc
from neseek.cli import main
from neseek.scenario import (
    load_controllers,
    load_scenario,
    parse_scenario,
    scenario_hash,
    scenario_to_dict,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# the package imports none of its modules, so each is named
IMPORT_ALL = "import " + ", ".join(
    f"neseek.{p.stem}" for p in sorted((SRC / "neseek").glob("*.py"))
    if p.stem != "__init__")

PROBE = """
import sys
{body}
print(any((m == {name!r} or m.startswith({name!r} + ".")) and mod is not None
          for m, mod in sys.modules.items()))
"""

# a None entry in sys.modules makes every later `import scipy...` raise
BLOCK_SCIPY = 'sys.modules["scipy"] = None\n'


def _run(code):
    # numpy's overflow and invalid-value warnings are errors, as in this process
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC),
                                   PYTHONWARNINGS="error::RuntimeWarning"))


def _loaded(body, name):
    """Whether module ``name`` is loaded after ``body`` runs in a fresh interpreter."""
    proc = _run(PROBE.format(body=body, name=name))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


@pytest.fixture(scope="module")
def sensor_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "sensor.json"
    path.write_text(json.dumps(sensor_scenario_doc("digraph")))
    return path


@pytest.fixture(scope="module")
def bundle_path(sensor_path):
    path = sensor_path.with_name("ctrl.json")
    assert main(["synth", str(sensor_path), "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("command", [None, "check", "ne", "sim"])
def test_numpy_only_paths_do_not_import_scipy(command, sensor_path, bundle_path,
                                              tmp_path):
    argv = [command, str(sensor_path)]
    if command == "sim":
        argv += ["--controllers", str(bundle_path), "--t-end", "2",
                 "--out", str(tmp_path / "run.csv"), "--svg", str(tmp_path / "run.svg"),
                 "--perturb-scale", "0.02", "--seed", "1"]
    body = BLOCK_SCIPY + (
        f"import neseek.cli\nassert neseek.cli.main({argv!r}) == 0" if command
        else IMPORT_ALL)
    assert not _loaded(body, "scipy")
    if command == "sim":
        assert (tmp_path / "run.svg").exists()


def test_probe_sees_scipy_when_loaded():
    # the probe sees SciPy when it is loaded, so the tests here are not vacuous
    assert _loaded("import scipy.linalg", "scipy")


def _blocked_synth(scenario_path, out):
    return _run(f"import sys\n{BLOCK_SCIPY}import neseek.cli\n"
                f"sys.exit(neseek.cli.main(['synth', {str(scenario_path)!r}, "
                f"'--out', {str(out)!r}]))")


def test_synth_with_scipy_blocked_writes_a_bundle(sensor_path, tmp_path):
    out = tmp_path / "ctrl.json"
    proc = _blocked_synth(sensor_path, out)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert out.exists()


def test_general_synth_and_sim_with_scipy_blocked(tmp_path):
    # the general strategy, whose estimates read all of Rbar, on numpy alone too
    path = tmp_path / "general.json"
    path.write_text(json.dumps(sensor_scenario_doc("general")))
    ctrl = tmp_path / "ctrl.json"
    proc = _blocked_synth(path, ctrl)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    argv = ["sim", str(path), "--controllers", str(ctrl), "--t-end", "2",
            "--out", str(tmp_path / "run.csv"), "--svg", str(tmp_path / "run.svg")]
    assert not _loaded(BLOCK_SCIPY + f"import neseek.cli\nassert neseek.cli.main({argv!r}) == 0",
                       "scipy")
    assert (tmp_path / "run.errors.svg").exists()


def test_synth_with_scipy_blocked_matches_scipy_gains(sensor_path, tmp_path):
    # the numpy-only CARE against SciPy's Schur-method solution
    out = tmp_path / "ctrl.json"
    assert _blocked_synth(sensor_path, out).returncode == 0
    scn = load_scenario(sensor_path)
    bundle = load_controllers(out, scn)
    assert len(bundle["controllers"]) == len(scn.plants)
    for c, plant, cost in zip(bundle["controllers"], scn.plants, scn.game.costs):
        Cw = (cost.R_ii + cost.R_ii.T) @ plant.C
        P = scipy.linalg.solve_continuous_are(
            plant.A.T, Cw.T, np.eye(plant.n), np.eye(plant.p))
        L_ref = P @ Cw.T
        assert np.linalg.norm(c.L - L_ref) <= 1e-10 * np.linalg.norm(L_ref)
        v = c.G1.shape[0]
        A_aug = np.block([[plant.A, np.zeros((plant.n, v))], [c.G2 @ Cw, c.G1]])
        B_aug = np.vstack([plant.B, np.zeros((v, plant.m))])
        P = scipy.linalg.solve_continuous_are(
            A_aug, B_aug, np.eye(plant.n + v), np.eye(plant.m))
        K_ref = -B_aug.T @ P
        K = np.hstack([c.K1, c.K2])
        assert np.linalg.norm(K - K_ref) <= 1e-10 * np.linalg.norm(K_ref)


# None imports every neseek module
COMMANDS = [None, "check", "ne", "synth", "sim", "sim --perturb-scale"]


def _command_body(command, sensor_path, bundle_path, tmp_path):
    """Code that imports neseek and runs ``command`` on the sensor scenario."""
    if command is None:
        return IMPORT_ALL
    argv = [command.split()[0], str(sensor_path)]
    if command == "synth":
        argv += ["--out", str(tmp_path / "ctrl.json")]
    elif command.startswith("sim"):
        argv += ["--controllers", str(bundle_path), "--t-end", "2",
                 "--out", str(tmp_path / "run.csv"), "--svg", str(tmp_path / "run.svg")]
    if command == "sim --perturb-scale":
        argv += ["--perturb-scale", "0.02", "--seed", "1"]
    return f"import neseek.cli\nassert neseek.cli.main({argv!r}) == 0"


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_do_not_load_openssl(command, sensor_path, bundle_path, tmp_path):
    body = _command_body(command, sensor_path, bundle_path, tmp_path)
    assert not _loaded(body, "_hashlib")


def test_probe_sees_openssl_when_loaded():
    assert _loaded("import hashlib", "_hashlib")


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_do_not_load_numpy_random(command, sensor_path, bundle_path, tmp_path):
    body = _command_body(command, sensor_path, bundle_path, tmp_path)
    assert not _loaded(body, "numpy.random")


def test_probe_sees_numpy_random_when_loaded():
    assert _loaded("import numpy as np\nnp.random.default_rng(0)", "numpy.random")


def _hashlib_digest(scn):
    canonical = json.dumps(scenario_to_dict(scn), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _non_ascii_doc():
    doc = sensor_scenario_doc("digraph")
    doc["name"] = "Sensornetz für Fünf, 五个传感器"
    return doc


@pytest.mark.parametrize("make_doc", [
    lambda: sensor_scenario_doc("digraph"),
    lambda: sensor_scenario_doc("general"),
    _non_ascii_doc,
], ids=["digraph", "general", "non-ascii name"])
def test_scenario_hash_is_hashlib_sha256(make_doc):
    scn = parse_scenario(make_doc())
    assert scenario_hash(scn) == _hashlib_digest(scn)


def test_scenario_hash_falls_back_to_hashlib(tmp_path):
    # with the built-in sha256 modules blocked, hashlib (and OpenSSL) stands in
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_non_ascii_doc()))
    proc = _run(
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import neseek.scenario as s\n"
        f"print(s.scenario_hash(s.load_scenario({str(path)!r})))\n"
        "print('_hashlib' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        _hashlib_digest(load_scenario(path)), "True"]


def test_synth_with_builtin_sha256_blocked_writes_the_same_bundle(sensor_path, bundle_path,
                                                                  tmp_path, monkeypatch):
    # the fallback of the test above, in this process: a fresh import of
    # neseek with the built-in modules blocked takes hashlib's sha256, and
    # its synth writes the bundle the built-in digest gave
    for name in [m for m in sys.modules if m == "neseek" or m.startswith("neseek.")]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    fresh = importlib.import_module("neseek.cli")
    out = tmp_path / "ctrl.json"
    assert fresh.main(["synth", str(sensor_path), "--out", str(out)]) == 0
    assert sys.modules["neseek.scenario"].sha256 is hashlib.sha256
    assert out.read_bytes() == bundle_path.read_bytes()
