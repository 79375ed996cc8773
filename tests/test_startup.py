"""SciPy stays out of the processes that never solve with it.

``check``, ``ne``, ``sim`` (with its SVG and perturbation options) and
a plain ``import neseek`` use numpy only; SciPy is imported at first use
by the Sylvester and CARE solves of ``synth``, which without SciPy
exits 1 with one ``error:`` line.  Each case runs in a fresh
interpreter, since the test process itself has SciPy loaded already; the
numpy-only cases run with SciPy blocked, so an import of it on their
path fails instead of passing unseen.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import sensor_scenario_doc
from neseek.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
{body}
print(any((m == "scipy" or m.startswith("scipy.")) and mod is not None
          for m, mod in sys.modules.items()))
"""

# a None entry in sys.modules makes every later `import scipy...` raise
BLOCK_SCIPY = 'sys.modules["scipy"] = None\n'


def _scipy_loaded(body):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        env=env, capture_output=True, text=True, check=True,
    )
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
    body = BLOCK_SCIPY + "import neseek"
    if command:
        body += f"\nimport neseek.cli\nassert neseek.cli.main({argv!r}) == 0"
    assert not _scipy_loaded(body)
    if command == "sim":
        assert (tmp_path / "run.svg").exists()


def test_synth_imports_scipy(sensor_path, tmp_path):
    # the probe sees SciPy when it is loaded, so the test above is not vacuous
    out = tmp_path / "ctrl.json"
    body = ("import neseek.cli\n"
            f"assert neseek.cli.main(['synth', {str(sensor_path)!r}, "
            f"'--out', {str(out)!r}]) == 0")
    assert _scipy_loaded(body)


def test_synth_without_scipy_prints_one_error_line(sensor_path, tmp_path):
    out = tmp_path / "ctrl.json"
    code = (f"import sys\n{BLOCK_SCIPY}import neseek.cli\n"
            f"sys.exit(neseek.cli.main(['synth', {str(sensor_path)!r}, "
            f"'--out', {str(out)!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "scipy" in err[0], err
    assert "Traceback" not in proc.stderr
    assert not out.exists()
