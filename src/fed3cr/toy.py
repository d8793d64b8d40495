"""Synthetic planted-block dataset for offline desk-scale experiments.

Clients and items are partitioned into aligned blocks in a latent taste
space: every item vector is its block's center plus noise, every client is
its block's center plus idiosyncratic taste, and a client's positives are
drawn without replacement in proportion to softmax(SHARPNESS * affinity).
Aggregating such clients mixes the block signals, so the shared table is
measurably degraded for every client, which is exactly the regime the
enhancement machinery is meant to exercise. The held-out item is a genuine
ranking target: block membership alone does not pin it down.
"""

from __future__ import annotations

import numpy as np

from . import seeding
from .datasets import InteractionDataset
from .errors import ConfigurationError

SHARPNESS = 2.5  # how strongly a client's draws favour its own block
TASTE_NOISE = 0.4  # spread of every latent vector around its block's center


def _latent_vectors(rng: np.random.Generator, count: int, per_block: int, num_blocks: int) -> np.ndarray:
    """Block one-hot centers plus Gaussian noise, one row per entity."""
    blocks = np.repeat(np.arange(num_blocks), per_block)
    vecs = np.eye(num_blocks)[blocks] + rng.normal(0.0, TASTE_NOISE, size=(count, num_blocks))
    return vecs


def generate_toy_dataset(
    num_clients: int = 24,
    num_items: int = 96,
    num_blocks: int = 4,
    min_positives: int = 6,
    max_positives: int = 10,
    seed: int = 0,
) -> InteractionDataset:
    """Build the planted-block dataset (unsplit, no timestamps)."""
    if num_blocks < 1 or num_clients % num_blocks or num_items % num_blocks:
        raise ConfigurationError(
            f"blocks must evenly divide clients and items, got {num_clients}/{num_items}/{num_blocks}"
        )
    if not 2 <= min_positives <= max_positives <= num_items:
        raise ConfigurationError("positive counts out of range")

    shared = seeding.rng(seed, seeding.TOY_DATA, 1_000_000)
    item_vecs = _latent_vectors(shared, num_items, num_items // num_blocks, num_blocks)
    client_vecs = _latent_vectors(shared, num_clients, num_clients // num_blocks, num_blocks)

    client_items: list[np.ndarray] = []
    for client in range(num_clients):
        rng = seeding.rng(seed, seeding.TOY_DATA, client)
        affinity = item_vecs @ client_vecs[client]
        logits = SHARPNESS * (affinity - affinity.max())
        probs = np.exp(logits)
        probs /= probs.sum()
        n_pos = int(rng.integers(min_positives, max_positives + 1))
        chosen = rng.choice(num_items, size=n_pos, replace=False, p=probs)
        client_items.append(np.sort(chosen).astype(np.int64))

    return InteractionDataset(
        num_clients=num_clients,
        num_items=num_items,
        client_items=client_items,
        timestamps=None,
        user_ids=[str(c) for c in range(num_clients)],
        item_ids=[str(i) for i in range(num_items)],
    )

