import numpy as np
import pytest

from fed3cr.datasets import leave_one_out_split, load_dataset
from fed3cr import toy
from fed3cr.errors import ConfigurationError
from fed3cr.toy import generate_toy_dataset, planted_item_vectors


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


@pytest.mark.parametrize("num_clients", [0, -4])
def test_toy_dataset_needs_a_client(num_clients):
    # 0 and -4 both divide evenly into 4 blocks, so the block check alone lets them by.
    with pytest.raises(ConfigurationError, match="at least one client"):
        generate_toy_dataset(num_clients=num_clients)


@pytest.mark.parametrize("num_items, num_blocks", [(96, 5), (96, 0)])
def test_planted_vectors_need_blocks_that_divide_the_items(num_items, num_blocks):
    with pytest.raises(ConfigurationError):
        generate_toy_dataset(num_items=num_items, num_blocks=num_blocks)
    with pytest.raises(ConfigurationError):
        planted_item_vectors(num_items, num_blocks, seed=0)


def test_planted_vectors_center_on_their_blocks_in_id_order():
    planted = planted_item_vectors(96, 4, seed=2)
    assert planted.shape == (96, 4)
    block_means = planted.reshape(4, 24, 4).mean(axis=1)
    assert block_means.argmax(axis=1).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("num_clients, num_items, num_blocks", [(24, 96, 4), (24, 96, 2), (48, 96, 8)])
def test_planted_vectors_are_the_item_vectors_the_generator_draws(num_clients, num_items, num_blocks, monkeypatch):
    # the generator's first latent draw is its item vectors; the second, its clients'
    draws = []

    def recording_latent_vectors(rng, count, blocks):
        draws.append(latent_vectors(rng, count, blocks))
        return draws[-1]

    latent_vectors = toy._latent_vectors
    monkeypatch.setattr(toy, "_latent_vectors", recording_latent_vectors)
    generate_toy_dataset(num_clients=num_clients, num_items=num_items, num_blocks=num_blocks, seed=4)
    monkeypatch.undo()
    assert [d.shape for d in draws] == [(num_items, num_blocks), (num_clients, num_blocks)]
    assert np.array_equal(draws[0], planted_item_vectors(num_items, num_blocks, seed=4))


def test_planted_vectors_are_seeded():
    assert np.array_equal(planted_item_vectors(96, 4, seed=6), planted_item_vectors(96, 4, seed=6))
    assert not np.array_equal(planted_item_vectors(96, 4, seed=6), planted_item_vectors(96, 4, seed=7))


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
