"""Deterministic RNG derivation.

Every random draw in the lab comes from a generator derived from a tuple
(experiment seed, purpose tag, context ids...). Results are therefore
independent of scheduling, worker count, and client execution order.
"""

from __future__ import annotations

import numpy as np

# Purpose tags keep unrelated streams from colliding.
TAG_BASE = 1        # base dataset construction
TAG_DOMAIN = 2      # per-task domain noise
TAG_PARTITION = 3   # dirichlet partitioning
TAG_STREAM = 4      # task stream shuffling
TAG_INIT = 5        # model initialization
TAG_TRAIN = 6       # local training (shuffling + negative synthesis)
TAG_SAMPLE = 7      # per-round client sampling


def rng_for(*parts: int) -> np.random.Generator:
    """Derive a Generator from a tuple of non-negative integers. NumPy
    rejects a negative part (ValueError) and a non-integer one, such as
    2.5 (TypeError)."""
    return np.random.default_rng(parts)
