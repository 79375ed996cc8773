"""neseek.rng draws numpy's ``default_rng(seed)`` stream, bit for bit."""

import numpy as np
import pytest

from conftest import sensor_plants
from neseek.plant import sample_perturbation
from neseek.rng import Generator
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


@pytest.mark.parametrize("seed", [-1, 2.0, "3"])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises((ValueError, TypeError)):
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
