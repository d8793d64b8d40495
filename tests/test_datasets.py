import hashlib

import numpy as np
import pytest

from fed3cr import seeding
from fed3cr.datasets import (
    NegativeSampler,
    build_dataset,
    build_eval_candidates,
    leave_one_out_split,
    load_dataset,
    RawInteraction,
)
from fed3cr.errors import (
    ConfigurationError,
    ParseError,
    ReplacementSamplingWarning,
    SplitError,
)
from fed3cr.toy import generate_toy_dataset


def write(path, text):
    path.write_text(text)
    return str(path)


def test_movielens_dat_three_lines(tmp_path):
    path = write(
        tmp_path / "ratings.dat",
        "1::10::5::100\n1::20::3::200\n2::10::4::300\n",
    )
    ds = load_dataset(path, "movielens-dat", min_interactions=1)
    assert ds.num_clients == 2
    assert ds.num_items == 2
    assert ds.num_interactions == 3


def test_movielens_dat_malformed_line_number(tmp_path):
    path = write(tmp_path / "bad.dat", "1::10::5::100\n1::10::5\n")
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(path, "movielens-dat", min_interactions=1)


@pytest.mark.parametrize(
    "fmt, text, line, match",
    [
        ("movielens-dat", "1::10::5::100\n::11::5::100\n", 2, "empty user or item id"),
        ("movielens-dat", "1::10::5::100\n1::::5::100\n", 2, "empty user or item id"),
        ("movielens-dat", "1::10::five::100\n", 1, "could not convert"),
        ("movielens-dat", "1::10::5::noon\n", 1, "invalid literal"),
        ("csv", "", 1, "empty file"),
        ("csv", "user,rating\nu,5\n", 1, "header must name 'user' and 'item'"),
        ("csv", "item,rating\ni,5\n", 1, "header must name 'user' and 'item'"),
        ("csv", "user,item,rating\nu,i,5\nu,j\n", 3, "expected 3 fields, got 2"),
        ("csv", "user,item\nu,i\n ,j\n", 3, "empty user or item id"),
        ("tsv", "user\titem\nu\t\n", 2, "empty user or item id"),
        ("csv", "user,item,rating\nu,i,good\n", 2, "could not convert"),
        ("tsv", "user\titem\ttimestamp\nu\ti\tnoon\n", 2, "invalid literal"),
    ],
)
def test_malformed_input_raises_parse_error_naming_the_line(tmp_path, fmt, text, line, match):
    path = write(tmp_path / "bad.txt", text)
    with pytest.raises(ParseError, match=f"^line {line}: {match}") as info:
        load_dataset(path, fmt, min_interactions=1)
    assert info.value.line_number == line


def test_empty_after_filter_is_configuration_error(tmp_path):
    path = write(tmp_path / "r.dat", "1::10::5::100\n2::11::5::100\n")
    with pytest.raises(ConfigurationError):
        load_dataset(path, "movielens-dat", min_interactions=5)


def test_csv_with_optional_columns(tmp_path):
    path = write(tmp_path / "d.csv", "user,item\nu1,i1\nu1,i2\nu2,i1\n")
    ds = load_dataset(path, "csv", min_interactions=1)
    assert ds.num_clients == 2
    assert ds.num_items == 2
    assert ds.timestamps is None


def test_tsv_with_all_columns(tmp_path):
    path = write(
        tmp_path / "d.tsv",
        "user\titem\trating\ttimestamp\nu1\ti1\t2.0\t5\nu1\ti2\t1.0\t9\n",
    )
    ds = load_dataset(path, "tsv", min_interactions=1)
    assert ds.num_clients == 1
    assert ds.timestamps is not None


def test_low_ratings_binarize_to_positive(tmp_path):
    # a rating of 1 still counts as an interaction
    path = write(tmp_path / "r.dat", "1::10::1::100\n1::20::5::200\n")
    ds = load_dataset(path, "movielens-dat", min_interactions=2)
    assert ds.num_interactions == 2


def test_duplicates_collapse(tmp_path):
    path = write(tmp_path / "r.dat", "1::10::5::100\n1::10::4::999\n1::20::3::50\n")
    ds = load_dataset(path, "movielens-dat", min_interactions=1)
    assert ds.num_interactions == 2


def test_remapping_round_trips():
    records = [RawInteraction(u, i) for u, i in [("9", "b"), ("9", "a"), ("10", "a"), ("10", "c")]]
    ds = build_dataset(records, min_interactions=1)
    assert set(ds.user_ids) == {"9", "10"} and set(ds.item_ids) == {"a", "b", "c"}
    for user, items in (("9", {"a", "b"}), ("10", {"a", "c"})):
        dense = ds.user_ids.index(user)
        assert {ds.item_ids[k] for k in ds.client_items[dense]} == items


def test_numeric_ids_sort_numerically():
    records = [RawInteraction(u, "1") for u in ["2", "10", "1"]]
    ds = build_dataset(records, min_interactions=1)
    assert ds.user_ids == ["1", "2", "10"]


def test_split_latest_timestamp_wins():
    records = [RawInteraction("1", "a", None, 1), RawInteraction("1", "b", None, 9)]
    ds = build_dataset(records, min_interactions=1)
    train, held = leave_one_out_split(ds, seed=0)
    assert held.test_items == (ds.item_ids.index("b"),)
    assert list(train.client_items[0]) == [ds.item_ids.index("a")]


def test_split_timestamp_tie_breaks_by_larger_id():
    records = [RawInteraction("1", "a", None, 5), RawInteraction("1", "b", None, 5)]
    ds = build_dataset(records, min_interactions=1)
    _, held = leave_one_out_split(ds, seed=0)
    assert held.test_items[0] == max(ds.item_ids.index("a"), ds.item_ids.index("b"))


def test_split_without_timestamps_is_seeded():
    records = [RawInteraction("1", i) for i in "abcde"] + [RawInteraction("2", i) for i in "abc"]
    ds = build_dataset(records, min_interactions=1)
    assert leave_one_out_split(ds, seed=3)[1] == leave_one_out_split(ds, seed=3)[1]


def test_split_single_positive_names_client():
    records = [RawInteraction("42", "a"), RawInteraction("7", "a"), RawInteraction("7", "b")]
    ds = build_dataset(records, min_interactions=1)
    with pytest.raises(SplitError, match="'42'"):
        leave_one_out_split(ds, seed=0)


def test_interaction_count_invariant_after_split():
    rng = np.random.default_rng(11)
    records = []
    for u in range(10):
        for i in rng.choice(40, size=rng.integers(3, 9), replace=False):
            records.append(RawInteraction(str(u), str(i)))
    ds = build_dataset(records, min_interactions=1)
    before = ds.num_interactions
    train, held = leave_one_out_split(ds, seed=0)
    assert sum(len(t) for t in train.client_items) + train.num_clients == before
    assert train.num_interactions + len(held.test_items) == before


def make_split_fixture(num_users=6, num_items=30, seed=5):
    """A split of a seeded dataset without timestamps: (train, held out)."""
    rng = np.random.default_rng(seed)
    records = []
    for u in range(num_users):
        for i in rng.choice(num_items, size=rng.integers(4, 10), replace=False):
            records.append(RawInteraction(str(u), str(i)))
    # cover every item id (spread over helper users) so num_items is stable
    for i in range(num_items):
        records.append(RawInteraction(f"hub{i % 3}", str(i)))
    ds = build_dataset(records, min_interactions=2)
    return leave_one_out_split(ds, seed=seed)


def sampler_of(split, seed):
    train, held = split
    return NegativeSampler(train, seed, leaked_test_items=held.test_items)


@pytest.mark.filterwarnings("ignore::fed3cr.errors.ReplacementSamplingWarning")
def test_batch_counts_and_balance():
    split = make_split_fixture()
    client = 0
    n_pos = len(split[0].client_items[client])
    sampler = sampler_of(split, 1)
    items, labels = sampler.sample_batch(client, batch_size=10_000)
    assert len(items) == n_pos * 5
    assert labels.sum() == n_pos


# Client calls that switch clients mid-sequence: the first 5 batches of each.
SAMPLE_ORDER = (0, 0, 1, 1, 0, 1, 0, 0, 1, 1)


def sampler_stream_digest(split, clients, batch_size):
    """sha256 over the items and labels of the batches SAMPLE_ORDER draws for
    `clients`, from a sampler at seed 1 with 4 negatives per positive."""
    sampler = sampler_of(split, 1)
    digest = hashlib.sha256()
    for slot in SAMPLE_ORDER:
        items, labels = sampler.sample_batch(clients[slot], batch_size)
        assert items.dtype == labels.dtype == np.int64
        digest.update(items.tobytes())
        digest.update(labels.tobytes())
    return digest.hexdigest()


@pytest.mark.filterwarnings("ignore::fed3cr.errors.ReplacementSamplingWarning")
@pytest.mark.parametrize(
    "fixture, clients, batch_size, expected",
    [
        # universes of 22 and 23 items for 28 and 24 negatives: with replacement
        ("split", (0, 3), 2048, "f565a2c0917a7024321d3aa2760dbcd55c3f6e604176951c314da525703e06a2"),
        ("split", (0, 3), 17, "200ef6645b86500e34548a572bbd34c650925546bed744c66d70547746ccb109"),
        # toy universes of 87 and 86 items for 32 and 36 negatives: without
        ("toy", (2, 7), 2048, "2c393995890b4f9fb462d7482bca51660c0fcd17557eb0dec7909e0f71844dc4"),
    ],
    ids=["split-fixture", "split-fixture-truncated", "toy"],
)
def test_sampler_stream_is_pinned(fixture, clients, batch_size, expected):
    # the batches' bits, taken before the sampler kept one universe per last
    # client and built each batch as one block: the same draws, in order
    if fixture == "split":
        split = make_split_fixture()
    else:
        split = leave_one_out_split(generate_toy_dataset(seed=0), seed=0)
    assert sampler_stream_digest(split, clients, batch_size) == expected


def test_candidate_universe_is_kept_for_the_last_client_only():
    sampler = sampler_of(make_split_fixture(), 1)
    first = sampler.candidate_universe(0)
    assert sampler.candidate_universe(0) is first and not first.flags.writeable
    other = sampler.candidate_universe(3)
    assert other is not first
    again = sampler.candidate_universe(0)
    assert again is not first and np.array_equal(again, first)


def test_batch_three_positives_example(tmp_path):
    path = write(
        tmp_path / "d.csv",
        "user,item\n" + "".join(f"u,{i}\n" for i in range(4)) + "".join(f"v,{i}\n" for i in range(30)),
    )
    split = leave_one_out_split(load_dataset(path, "csv", 1), seed=0)
    client = split[0].user_ids.index("u")
    assert len(split[0].client_items[client]) == 3
    sampler = sampler_of(split, 0)
    items, labels = sampler.sample_batch(client)
    assert len(items) == 15
    assert labels.sum() == 3


def test_exhausted_universe_warns(tmp_path):
    # 5 items, client holds 4 positives + 1 test: nothing left to sample
    path = write(
        tmp_path / "d.csv",
        "user,item\n" + "".join(f"u,{i}\n" for i in range(5)),
    )
    sampler = sampler_of(leave_one_out_split(load_dataset(path, "csv", 1), seed=0), 0)
    with pytest.warns(ReplacementSamplingWarning):
        items, labels = sampler.sample_batch(0)
    assert labels.sum() == len(labels)  # positives only


def test_batches_deterministic_across_runs():
    split = make_split_fixture()
    a = sampler_of(split, 9).sample_batch(1)
    b = sampler_of(split, 9).sample_batch(1)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


@pytest.mark.filterwarnings("ignore::fed3cr.errors.ReplacementSamplingWarning")
def test_negatives_never_collide_with_positives_or_test():
    ds, held = make_split_fixture()
    sampler = sampler_of((ds, held), 2)
    for client in range(ds.num_clients):
        blocked = set(ds.client_items[client]) | {held.test_items[client]}
        for _ in range(5):
            items, labels = sampler.sample_batch(client)
            for item, label in zip(items, labels):
                if label == 0:
                    assert item not in blocked


def test_training_universe_excludes_exactly_the_named_item():
    # The sampler reads the train positives from the train dataset and the
    # test item from its one named argument only: name another unseen item
    # and that item, not the test item, leaves the universe. Evaluation's
    # full candidate list is the same set as the sampler's universe.
    train, held = make_split_fixture()
    every = set(range(train.num_items))
    for client, test in enumerate(held.test_items):
        unseen = every - set(train.client_items[client].tolist())
        assert set(sampler_of((train, held), 0).candidate_universe(client).tolist()) == unseen - {test}
        other = min(unseen - {test})
        named = list(held.test_items)
        named[client] = other
        universe = NegativeSampler(train, 0, leaked_test_items=tuple(named)).candidate_universe(client)
        assert set(universe.tolist()) == unseen - {other}
        cands = build_eval_candidates(train, held, client, num_negatives=-1, seed=0)
        assert cands[0] == test and set(cands[1:].tolist()) == unseen - {test}
        sampled = build_eval_candidates(train, held, client, num_negatives=15, seed=3)
        assert set(sampled[1:].tolist()) <= unseen - {test}


def test_splitting_a_train_dataset_again_holds_out_the_next_latest_item():
    rng = np.random.default_rng(2)
    records = [
        RawInteraction(str(u), str(i), None, int(ts))
        for u in range(5)
        for i, ts in zip(rng.choice(40, size=6, replace=False), rng.choice(1000, size=6, replace=False))
    ]
    ds = build_dataset(records, min_interactions=1)
    train, first = leave_one_out_split(ds, seed=0)
    again, second = leave_one_out_split(train, seed=0)
    for client, (items, stamps) in enumerate(zip(ds.client_items, ds.timestamps)):
        latest = items[np.argsort(stamps)]
        assert (first.test_items[client], second.test_items[client]) == (latest[-1], latest[-2])
        assert np.array_equal(np.sort(again.client_items[client]), np.sort(latest[:-2]))
        order = {int(i): int(t) for i, t in zip(items, stamps)}
        assert [order[int(i)] for i in again.client_items[client]] == again.timestamps[client].tolist()


def test_splitting_a_train_dataset_again_holds_out_a_seeded_choice():
    train, _ = make_split_fixture(seed=5)
    again, second = leave_one_out_split(train, seed=5)
    for client, items in enumerate(train.client_items):
        pick = int(seeding.rng(5, seeding.SPLIT, client).integers(len(items)))
        assert second.test_items[client] == items[pick]
        assert np.array_equal(again.client_items[client], np.delete(items, pick))


@pytest.mark.filterwarnings("ignore::fed3cr.errors.ReplacementSamplingWarning")
def test_batch_truncation():
    items, labels = sampler_of(make_split_fixture(), 0).sample_batch(0, batch_size=7)
    assert len(items) == 7
    assert len(labels) == 7


def test_eval_candidates_cardinality_and_test_presence():
    ds, held = make_split_fixture(num_items=150)
    cands = build_eval_candidates(ds, held, 2, num_negatives=99, seed=4)
    assert cands.dtype == np.int64
    assert len(cands) == 100
    assert np.count_nonzero(cands == held.test_items[2]) == 1
    assert cands[0] == held.test_items[2]


def test_eval_candidates_deterministic():
    ds, held = make_split_fixture()
    assert np.array_equal(build_eval_candidates(ds, held, 1, 20, seed=8), build_eval_candidates(ds, held, 1, 20, seed=8))


def test_eval_candidates_never_intersect_train_positives():
    ds, held = make_split_fixture()
    for client in range(ds.num_clients):
        cands = build_eval_candidates(ds, held, client, 15, seed=3)
        train = set(ds.client_items[client])
        assert not (set(cands[1:]) & train)


def test_eval_candidates_replacement_warning():
    ds, held = make_split_fixture(num_items=12)
    with pytest.warns(ReplacementSamplingWarning):
        cands = build_eval_candidates(ds, held, 0, num_negatives=50, seed=0)
    assert len(cands) == 51
    assert np.count_nonzero(cands == held.test_items[0]) == 1


def test_eval_candidates_without_unseen_items_warn_and_hold_the_test_item_alone(tmp_path):
    # 5 items, client holds 4 positives + 1 test: no item is left to rank it against
    path = write(tmp_path / "d.csv", "user,item\n" + "".join(f"u,{i}\n" for i in range(5)))
    ds, held = leave_one_out_split(load_dataset(path, "csv", 1), seed=0)
    with pytest.warns(ReplacementSamplingWarning, match="client 0: no non-interacted items"):
        cands = build_eval_candidates(ds, held, 0, num_negatives=10, seed=0)
    assert cands.dtype == np.int64
    assert cands.tolist() == [held.test_items[0]]


def test_eval_candidates_full_ranking_mode():
    ds, held = make_split_fixture()
    for client in range(ds.num_clients):
        cands = build_eval_candidates(ds, held, client, num_negatives=-1, seed=0)
        expected = ds.num_items - len(ds.client_items[client])
        assert len(cands) == expected
        assert cands[0] == held.test_items[client]
        assert len(set(cands)) == len(cands)


def test_stats_fields():
    ds, _ = make_split_fixture()
    stats = ds.stats()
    assert stats["clients"] == ds.num_clients
    assert stats["items"] == ds.num_items
    assert stats["interactions"] == ds.num_interactions
    assert stats["avg"] == pytest.approx(stats["interactions"] / stats["clients"])
    assert stats["sparsity"] == pytest.approx(
        1 - stats["interactions"] / (stats["clients"] * stats["items"])
    )


def test_unknown_format_rejected(tmp_path):
    path = write(tmp_path / "x.csv", "user,item\nu,i\n")
    with pytest.raises(ConfigurationError):
        load_dataset(path, "parquet", 1)
