"""Rayleigh block gains and the keyed random-stream discipline."""
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from wncs.experiments import rayleigh_gain_samples, substream


def test_substream_is_deterministic_per_key():
    a = substream(123, 4, 5).normal(size=8)
    b = substream(123, 4, 5).normal(size=8)
    assert_array_equal(a, b)


def test_substream_distinct_keys_distinct_streams():
    # keys of the same arity must give unrelated streams (callers always use a
    # fixed key depth: trailing zeros are indistinguishable to the seeding)
    base = substream(123, 0, 0).normal(size=8)
    for key in [(123, 0, 1), (123, 1, 0), (124, 0, 0), (123, 2, 2)]:
        other = substream(*key).normal(size=8)
        assert not np.array_equal(base, other)


def test_substream_rejects_negative_keys():
    with pytest.raises(ValueError):
        substream(-1)
    with pytest.raises(ValueError):
        substream(0, -2)


def test_rayleigh_gain_samples_mean_power():
    # E[h^2] must equal the requested mean power gain
    rng = substream(7, 1)
    h = rayleigh_gain_samples(1e-4, rng, size=200_000)
    assert np.all(h > 0.0)
    assert np.mean(h**2) == pytest.approx(1e-4, rel=0.01)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            rayleigh_gain_samples(bad, rng, size=4)
