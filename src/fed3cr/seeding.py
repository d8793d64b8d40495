"""Deterministic RNG streams keyed by (seed, purpose, ...ids).

Every random decision in the library draws from a stream derived from the
experiment seed plus integer tags, never from global numpy state. A
client's streams are keyed by its id, so what it draws does not depend on
which other clients train or in what order.
"""

from __future__ import annotations

import numpy as np

# Stream tags. Distinct per purpose so streams never collide.
CLIENT_INIT = 1
SERVER_INIT = 2
CLIENT_SELECT = 3
TRAIN_BATCH = 4
EVAL_CANDIDATES = 5
SPLIT = 6
TOY_DATA = 7


def rng(seed: int, tag: int, *ids: int) -> np.random.Generator:
    """Generator for the stream (seed, tag, *ids)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(tag), *[int(i) for i in ids])))
