import numpy as np
import pytest

from fed3cr.datasets import leave_one_out_split, load_dataset
from fed3cr.errors import ConfigurationError
from fed3cr.toy import generate_toy_dataset


def test_generator_shape_and_determinism():
    a = generate_toy_dataset(seed=5)
    b = generate_toy_dataset(seed=5)
    assert a.num_clients == 24
    assert a.num_items == 96
    for x, y in zip(a.client_items, b.client_items):
        assert np.array_equal(x, y)


def test_positive_counts_within_range():
    ds = generate_toy_dataset(min_positives=6, max_positives=10, seed=1)
    for items in ds.client_items:
        assert 6 <= len(items) <= 10
        assert len(set(items.tolist())) == len(items)


def test_block_preference_dominates():
    ds = generate_toy_dataset(seed=2)
    per_block = ds.num_items // 4
    own_fraction = []
    for client, items in enumerate(ds.client_items):
        block = client // (ds.num_clients // 4)  # clients fill the blocks in id order
        own = sum(1 for i in items if i // per_block == block)
        own_fraction.append(own / len(items))
    assert np.mean(own_fraction) > 0.5


def test_splittable():
    train, held = leave_one_out_split(generate_toy_dataset(seed=3), seed=3)
    assert len(held.test_items) == train.num_clients
    assert all(t not in set(items) for t, items in zip(held.test_items, train.client_items))


def test_invalid_block_division():
    with pytest.raises(ConfigurationError):
        generate_toy_dataset(num_clients=25, num_blocks=4)


def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "toy.csv")
    ds = generate_toy_dataset(seed=7)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user,item\n")
        for client, items in enumerate(ds.client_items):
            for item in items:
                fh.write(f"{ds.user_ids[client]},{ds.item_ids[int(item)]}\n")
    loaded = load_dataset(path, "csv", min_interactions=1)
    assert loaded.num_clients == ds.num_clients
    assert loaded.num_interactions == ds.num_interactions
    # the loader only knows items that appear in some interaction
    assert loaded.num_items == len({int(i) for items in ds.client_items for i in items})
