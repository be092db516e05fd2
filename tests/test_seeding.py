import numpy as np
import pytest

from pfdl.seeding import rng_for


def test_rng_for_is_numpys_generator_of_its_parts():
    assert np.array_equal(rng_for(1, 6, 3).random(8), np.random.default_rng([1, 6, 3]).random(8))


def test_rng_for_rejects_a_float_part():
    # no silent truncation: 2.5 would otherwise seed the stream of 2
    with pytest.raises(TypeError):
        rng_for(1, 2.5)


def test_rng_for_rejects_a_negative_part():
    with pytest.raises(ValueError):
        rng_for(1, -2)
