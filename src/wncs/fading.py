"""Channel models and seeded sampling.

Two fading regimes are modeled.  A slow (block) channel keeps a constant real
gain h = |H| > 0 for a whole control horizon; coherent reception makes the
complex phase irrelevant, so only the magnitude is carried around.  A fast
channel redraws a real Gaussian gain H(t) ~ N(0, sigma_h2) on every symbol;
the controller is assumed to learn only the sign of H(t) in time to flip its
own sign (partial CSI), never the magnitude.  The recipes draw both kinds of
gain as dense arrays straight from a substream.

All sampling goes through explicit numpy Generators.  ``substream`` derives
independent generators from one root seed and an integer key path, so adding
plants, grid points or replicas never perturbs the draws of existing ones.
"""
from __future__ import annotations

import numpy as np

from .model import require_positive


def substream(root_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (root_seed, key...).

    Keyed, not sequential: the same (seed, key) always yields the same stream
    and distinct keys yield statistically independent streams.  Keys must be
    non-negative integers.
    """
    if root_seed < 0 or any(k < 0 for k in key):
        raise ValueError("substream keys must be non-negative integers")
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), *map(int, key)]))


def rayleigh_gain_samples(
    mean_power_gain: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Vector of block gains h = |H|, H complex Gaussian, E[h^2] = mean_power_gain."""
    require_positive(mean_power_gain, "mean power gain")
    return rng.rayleigh(scale=np.sqrt(mean_power_gain / 2.0), size=size)
