"""Interaction-log ingestion and per-client implicit datasets.

Raw logs (MovieLens ``.dat``, TSV or CSV) are binarized into per-client
positive item sets, filtered by activity, remapped to dense contiguous ids,
and split leave-one-out into a train dataset and a `HeldOut` record: one
test item per client, the rest kept for training. Negative sampling for
training batches and fixed evaluation candidate lists live here too.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import seeding
from .errors import (
    ConfigurationError,
    DataError,
    ParseError,
    ReplacementSamplingWarning,
    SplitError,
)

NEGATIVES_PER_POSITIVE = 4  # training negatives sampled per positive
BATCH_SIZE = 2048  # most rows in one training batch


@dataclass
class RawInteraction:
    """One parsed log record, before remapping."""

    user_id: str
    item_id: str
    rating: float | None = None
    timestamp: int | None = None


@dataclass
class InteractionDataset:
    """Per-client implicit interactions with dense ids.

    `client_items[i]` holds client i's positives, less any a split held
    out. `timestamps[i]` is aligned with `client_items[i]` and None when
    the source had no timestamps.
    """

    num_clients: int
    num_items: int
    client_items: list[np.ndarray]
    timestamps: list[np.ndarray] | None
    user_ids: list[str]
    item_ids: list[str]

    @property
    def num_interactions(self) -> int:
        return sum(len(items) for items in self.client_items)

    def stats(self) -> dict:
        k = self.num_interactions
        return {
            "clients": self.num_clients,
            "items": self.num_items,
            "interactions": k,
            "avg": k / self.num_clients,
            "sparsity": 1.0 - k / (self.num_clients * self.num_items),
        }


# -- parsing ---------------------------------------------------------------------


def _parse_movielens_dat(path: str) -> list[RawInteraction]:
    records = []
    with open(path, "r", encoding="latin-1") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("::")
            if len(parts) != 4:
                raise ParseError(f"expected user::item::rating::timestamp, got {line!r}", line_no)
            user, item, rating, ts = parts
            if not user or not item:
                raise ParseError("empty user or item id", line_no)
            try:
                records.append(RawInteraction(user, item, float(rating), int(ts)))
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from exc
    return records


def _parse_delimited(path: str, delimiter: str) -> list[RawInteraction]:
    records = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", 1) from None
        columns = [c.strip().lower() for c in header]
        if "user" not in columns or "item" not in columns:
            raise ParseError(f"header must name 'user' and 'item' columns, got {header}", 1)
        u_col, i_col = columns.index("user"), columns.index("item")
        r_col = columns.index("rating") if "rating" in columns else None
        t_col = columns.index("timestamp") if "timestamp" in columns else None
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < len(columns):
                raise ParseError(f"expected {len(columns)} fields, got {len(row)}", line_no)
            user, item = row[u_col].strip(), row[i_col].strip()
            if not user or not item:
                raise ParseError("empty user or item id", line_no)
            try:
                rating = float(row[r_col]) if r_col is not None and row[r_col].strip() else None
                ts = int(row[t_col]) if t_col is not None and row[t_col].strip() else None
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from exc
            records.append(RawInteraction(user, item, rating, ts))
    return records


def _dense_order(ids: set[str]) -> list[str]:
    """Stable external-id ordering: numeric when possible, lexicographic otherwise."""
    try:
        return sorted(ids, key=lambda s: (0, int(s), s))
    except ValueError:
        return sorted(ids)


def build_dataset(records: list[RawInteraction], min_interactions: int) -> InteractionDataset:
    """Binarize, deduplicate, filter low-activity users and remap to dense ids."""
    # Dedup (user, item); keep the latest timestamp for the pair.
    by_user: dict[str, dict[str, int | None]] = {}
    for rec in records:
        items = by_user.setdefault(rec.user_id, {})
        prev = items.get(rec.item_id, None)
        if rec.item_id not in items or (
            rec.timestamp is not None and (prev is None or rec.timestamp > prev)
        ):
            items[rec.item_id] = rec.timestamp

    kept = {u: items for u, items in by_user.items() if len(items) >= min_interactions}
    if not kept:
        raise ConfigurationError(
            f"no users with at least {min_interactions} interactions; dataset is empty after filtering"
        )

    user_ids = _dense_order(set(kept))
    item_ids = _dense_order({i for items in kept.values() for i in items})
    item_index = {i: k for k, i in enumerate(item_ids)}

    has_timestamps = any(ts is not None for items in kept.values() for ts in items.values())
    client_items: list[np.ndarray] = []
    timestamps: list[np.ndarray] | None = [] if has_timestamps else None
    for u in user_ids:
        pairs = sorted((item_index[i], ts) for i, ts in kept[u].items())
        client_items.append(np.array([p[0] for p in pairs], dtype=np.int64))
        if timestamps is not None:
            timestamps.append(np.array([p[1] if p[1] is not None else -1 for p in pairs], dtype=np.int64))

    return InteractionDataset(
        num_clients=len(user_ids),
        num_items=len(item_ids),
        client_items=client_items,
        timestamps=timestamps,
        user_ids=user_ids,
        item_ids=item_ids,
    )


def load_dataset(path: str, format: str, min_interactions: int = 10) -> InteractionDataset:
    """Parse an interaction log and build the filtered, remapped dataset.

    Supported formats: ``movielens-dat`` (``user::item::rating::timestamp``),
    ``tsv`` and ``csv`` (header ``user,item[,rating][,timestamp]``).
    """
    if format == "movielens-dat":
        records = _parse_movielens_dat(path)
    elif format == "tsv":
        records = _parse_delimited(path, "\t")
    elif format == "csv":
        records = _parse_delimited(path, ",")
    else:
        raise ConfigurationError(f"unknown dataset format {format!r}")
    return build_dataset(records, min_interactions)


# -- leave-one-out split ------------------------------------------------------------


@dataclass(frozen=True)
class HeldOut:
    """The positives a split keeps out of training; `test_items[i]` is client i's."""

    test_items: tuple[int, ...]


def leave_one_out_split(ds: InteractionDataset, seed: int) -> tuple[InteractionDataset, HeldOut]:
    """Hold out one positive per client: the latest-timestamp item (ties
    broken by larger dense id), or a seeded-uniform choice when the source
    had no timestamps. Returns (train, held out); splitting a train dataset
    again holds out one more item per client."""
    train_items: list[np.ndarray] = []
    train_ts: list[np.ndarray] | None = [] if ds.timestamps is not None else None
    test_items: list[int] = []
    for client, items in enumerate(ds.client_items):
        if len(items) < 2:
            raise SplitError(
                f"client {client} ({ds.user_ids[client]!r}) has {len(items)} positive(s); need at least 2"
            )
        if ds.timestamps is not None:
            pick = int(np.lexsort((items, ds.timestamps[client]))[-1])
        else:
            pick = int(seeding.rng(seed, seeding.SPLIT, client).integers(len(items)))
        test_items.append(int(items[pick]))
        train_items.append(np.delete(items, pick))
        if train_ts is not None:
            train_ts.append(np.delete(ds.timestamps[client], pick))
    return replace(ds, client_items=train_items, timestamps=train_ts), HeldOut(tuple(test_items))


# -- sampling --------------------------------------------------------------------


def _unseen_items(train: InteractionDataset, client: int, held_out_item: int) -> np.ndarray:
    """The ascending int64 ids of every item the client never interacted
    with: all but its train positives and `held_out_item`."""
    unseen = np.ones(train.num_items, dtype=bool)
    unseen[train.client_items[client]] = False
    unseen[held_out_item] = False
    return np.flatnonzero(unseen).astype(np.int64, copy=False)


class NegativeSampler:
    """Training-batch sampler pairing each positive with sampled negatives.

    Each client owns an independent RNG stream derived from
    (seed, client_id), so batch sequences are reproducible regardless of
    the order clients are visited in. The sampler keeps one negative
    universe, that of the client last sampled: a client's E steps in a round
    build it once, and a run keeps no per-client copy. The test items reach
    training only through `leaked_test_items`, which keeps each client's
    test item out of its negatives: a leak (ROADMAP item 1).
    """

    def __init__(self, dataset: InteractionDataset, seed: int, *, leaked_test_items: tuple[int, ...]):
        self.dataset = dataset
        self.seed = seed
        self.leaked_test_items = leaked_test_items
        self._rngs: dict[int, np.random.Generator] = {}
        self._universe: tuple[int, np.ndarray] | None = None

    def candidate_universe(self, client: int) -> np.ndarray:
        """Items the client never interacted with (train positives and test
        excluded), read-only. Only the last client's universe is kept: it is
        built again when another client's was asked for in between."""
        cached = self._universe
        if cached is None or cached[0] != client:
            universe = _unseen_items(self.dataset, client, self.leaked_test_items[client])
            universe.flags.writeable = False
            cached = self._universe = (client, universe)
        return cached[1]

    def sample_batch(self, client: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (item_ids, labels) interleaving each positive with its
        negatives, cut at `BATCH_SIZE` rows."""
        positives = self.dataset.client_items[client]
        n = len(positives)
        if n == 0:
            raise DataError(f"client {client} has no train positives")
        universe = self.candidate_universe(client)
        if client not in self._rngs:
            self._rngs[client] = seeding.rng(self.seed, seeding.TRAIN_BATCH, client)
        rng = self._rngs[client]
        k = NEGATIVES_PER_POSITIVE

        order = rng.permutation(n)
        needed = n * k
        if len(universe) == 0:
            warnings.warn(
                f"client {client}: no non-interacted items to sample; batch has positives only",
                ReplacementSamplingWarning,
            )
            negatives = np.empty((n, 0), dtype=np.int64)
        elif len(universe) < needed:
            warnings.warn(
                f"client {client}: universe of {len(universe)} smaller than {needed} "
                "requested negatives; sampling with replacement",
                ReplacementSamplingWarning,
            )
            negatives = rng.choice(universe, size=(n, k), replace=True)
        else:
            negatives = rng.choice(universe, size=needed, replace=False).reshape(n, k)

        # One row per positive, its negatives after it; raveled, the rows interleave.
        items = np.empty((n, 1 + negatives.shape[1]), dtype=np.int64)
        items[:, 0] = positives[order]
        items[:, 1:] = negatives[order]
        labels = np.zeros(items.shape, dtype=np.int64)
        labels[:, 0] = 1
        return items.ravel()[:BATCH_SIZE], labels.ravel()[:BATCH_SIZE]


def build_eval_candidates(
    train: InteractionDataset, held: HeldOut, client: int, num_negatives: int, seed: int
) -> np.ndarray:
    """Fixed evaluation candidates: the test item first, then sampled
    negatives, as one int64 array.

    Deterministic per (client, seed); negatives never collide with the
    client's train positives or its test item. `num_negatives=-1` selects
    full ranking: every non-interacted item becomes a candidate.
    """
    test = held.test_items[client]
    universe = _unseen_items(train, client, test)
    if num_negatives == -1:
        negatives = universe
    elif len(universe) == 0:
        warnings.warn(
            f"client {client}: no non-interacted items; candidate list is the test item alone",
            ReplacementSamplingWarning,
        )
        negatives = universe
    else:
        rng = seeding.rng(seed, seeding.EVAL_CANDIDATES, client)
        replace = len(universe) < num_negatives
        if replace:
            warnings.warn(
                f"client {client}: only {len(universe)} candidate negatives for {num_negatives} "
                "requested; sampling with replacement",
                ReplacementSamplingWarning,
            )
        negatives = rng.choice(universe, size=num_negatives, replace=replace)
    return np.concatenate(([test], negatives)).astype(np.int64, copy=False)
