"""SciPy stays out of the processes that never solve with it.

``check``, ``ne`` and a plain ``import neseek`` use numpy only; SciPy is
imported at first use by the Sylvester and CARE solves and the
exosystem stepper.  Each case runs in a fresh interpreter, since the
test process itself has SciPy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import sensor_scenario_doc

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
{body}
print(any(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
"""


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


@pytest.mark.parametrize("command", [None, "check", "ne"])
def test_numpy_only_paths_do_not_import_scipy(command, sensor_path):
    body = "import neseek"
    if command:
        body = (f"import neseek.cli\n"
                f"assert neseek.cli.main([{command!r}, {str(sensor_path)!r}]) == 0")
    assert not _scipy_loaded(body)


def test_synth_imports_scipy(sensor_path, tmp_path):
    # the probe sees SciPy when it is loaded, so the test above is not vacuous
    out = tmp_path / "ctrl.json"
    body = ("import neseek.cli\n"
            f"assert neseek.cli.main(['synth', {str(sensor_path)!r}, "
            f"'--out', {str(out)!r}]) == 0")
    assert _scipy_loaded(body)
