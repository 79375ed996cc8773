"""neseek.rng draws numpy's ``default_rng(seed)`` stream, bit for bit."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import sensor_plants, sensor_scenario_doc
from neseek.cli import main
from neseek.plant import sample_perturbation
from neseek.rng import Generator
from neseek.scenario import load_controllers, load_scenario
from neseek.synthesis import assemble_closed_loop, certify_stability
from test_sim import _hetero_loop

# one 32-bit entropy word up to 2**32 - 1, two from 2**32, three past 2**64;
# the 74-bit and 200-bit seeds exceed SeedSequence's 4-word pool
SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**73 + 12345, 2**200 + 7]
SHAPES = [(5,), (3, 4), (0,), (2, 0, 3), 6]


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_is_numpy_default_rng_bitwise(seed):
    ours, ref = Generator(seed), np.random.default_rng(seed)
    # successive calls continue one stream, as numpy's do
    for size in SHAPES:
        got, want = ours.uniform(-1.0, 1.0, size), ref.uniform(-1.0, 1.0, size=size)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (-3.0, 5.5), (1e-3, 2.7)])
def test_uniform_bounds_are_numpy_default_rng_bitwise(low, high):
    got = Generator(11).uniform(low, high, (50,))
    want = np.random.default_rng(11).uniform(low, high, size=(50,))
    assert got.tobytes() == want.tobytes()


def test_numpy_integer_seed():
    got = Generator(np.int64(9)).uniform(-1.0, 1.0, 4)
    assert got.tobytes() == np.random.default_rng(9).uniform(-1.0, 1.0, 4).tobytes()


# a negative seed is refused by the CLI's --seed rule, before a Generator
# is made (test_scenario_cli's BAD_SIM_INPUTS, "negative seed")
@pytest.mark.parametrize("seed", [2.0, "3"])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(TypeError):
        Generator(seed)


@pytest.mark.parametrize("plants", [
    sensor_plants,
    lambda: _hetero_loop("general")[1],
], ids=["sensor", "heterogeneous"])
@pytest.mark.parametrize("seed", [0, 5, 2**64 + 3])
def test_sample_perturbation_is_the_same_under_both_generators(plants, seed):
    ours, ref = Generator(seed), np.random.default_rng(seed)
    for plant in plants():
        got = sample_perturbation(plant, 0.02, ours)
        want = sample_perturbation(plant, 0.02, ref)
        assert got.keys() == want.keys()
        for name in got:
            assert got[name].shape == want[name].shape
            assert got[name].tobytes() == want[name].tobytes(), name


def test_sim_draws_a_seed_of_five_entropy_words(tmp_path, capsys):
    # 2**128 is five 32-bit words, one more than SeedSequence's pool
    # holds; the fifth is mixed into every pool word
    seed = 2**128
    path, ctrl = tmp_path / "scenario.json", tmp_path / "ctrl.json"
    path.write_text(json.dumps(sensor_scenario_doc(
        "digraph", sim={"dt": 1e-3, "t_end": 0.1, "record_stride": 10})))
    assert main(["synth", str(path), "--out", str(ctrl)]) == 0
    capsys.readouterr()
    assert main(["sim", str(path), "--controllers", str(ctrl), "--out", str(tmp_path / "run.csv"),
                 "--perturb-scale", "0.02", "--seed", str(seed)]) == 0
    printed = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("closed-loop abscissa: ")]
    scn = load_scenario(path)
    ref = np.random.default_rng(seed)
    plants = [dataclasses.replace(p, **sample_perturbation(p, 0.02, ref)) for p in scn.plants]
    cl = assemble_closed_loop(scn.game, plants, scn.exos,
                              load_controllers(ctrl, scn)["controllers"], scn.strategy)
    assert printed == [f"closed-loop abscissa: {certify_stability(cl)[1]!r}"]
