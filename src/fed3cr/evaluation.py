"""Ranking metrics: HR@K and NDCG@K over sampled candidates, truncated
rank-biased overlap between the personal and enhanced-global views, and the
cross-view correlation-matrix export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError, ShapeError


@dataclass
class RoundMetrics:
    """Client-averaged metrics for one communication round."""

    round: int
    hr_at_k: float
    ndcg_at_k: float
    rbo: float | None
    loss_rec: float
    loss_a: float
    loss_o: float
    clients_evaluated: int


CSV_HEADER = "round,hr10,ndcg10,rbo50,loss_rec,loss_a,loss_o,clients_evaluated"


def metrics_csv_lines(metrics: list[RoundMetrics]) -> list[str]:
    """Render rounds as CSV lines (stable shortest-repr floats), header first."""

    def fmt(x: float | None) -> str:
        return "" if x is None else repr(float(x))

    lines = [CSV_HEADER]
    for m in metrics:
        lines.append(
            f"{m.round},{fmt(m.hr_at_k)},{fmt(m.ndcg_at_k)},{fmt(m.rbo)},"
            f"{fmt(m.loss_rec)},{fmt(m.loss_a)},{fmt(m.loss_o)},{m.clients_evaluated}"
        )
    return lines


def rank_candidates(scores: np.ndarray, candidates: np.ndarray, test_item: int) -> int:
    """1-based rank of `test_item` among `candidates` under `scores` (one
    score per item id): descending score, ties broken by ascending id, NaN
    scores last. It counts the candidates that order before the test item,
    so it neither sorts nor builds a list."""
    cand = np.asarray(candidates)
    if not np.any(cand == test_item):
        raise ProtocolError(f"test item {test_item} not among the ranked candidates")
    s, t = scores[cand], scores[test_item]
    if np.isnan(t):
        higher, tied = ~np.isnan(s), np.isnan(s)
    else:
        higher, tied = s > t, s == t
    return int(np.count_nonzero(higher | (tied & (cand < test_item)))) + 1


def hr_ndcg_at_k(rank: int, k: int) -> tuple[int, float]:
    """Hit indicator and positional discount of a 1-based rank: a miss
    (rank > k) scores (0, 0.0) and a rank-1 hit scores (1, 1.0)."""
    if rank > k:
        return 0, 0.0
    return 1, float(1.0 / np.log2(rank + 1))


def _rbo(ids_a: np.ndarray, ids_b: np.ndarray, p: float, num_ids: int) -> float:
    """Truncated RBO of two equal-length arrays of distinct ids in [0, num_ids).
    The weights p^(d-1) and every sum are built in order (`cumprod`/`cumsum`),
    as the definition spells them out."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"persistence p must lie in (0, 1), got {p}")
    k = ids_a.size
    steps = np.full(k, p)
    steps[0] = 1.0
    weights = np.cumprod(steps)
    # Where each of a's ids sits in b (k when absent): it is in both
    # prefixes from depth max(its own position, that one) + 1 on.
    positions = np.arange(k)
    in_b = np.full(num_ids, k)
    in_b[ids_b] = positions
    overlap = np.cumsum(np.bincount(np.maximum(positions, in_b[ids_a]), minlength=k + 1)[:k])
    return float(np.cumsum(weights * overlap / (positions + 1))[-1] / np.cumsum(weights)[-1])


def rbo_truncated(list_a, list_b, p: float) -> float:
    """Truncated rank-biased overlap of two equal-length ranked lists of ids.

    Weighted prefix agreement: sum_k p^(k-1) * |prefix_k(a) & prefix_k(b)| / k,
    normalized by sum_k p^(k-1). 1.0 means identical lists, 0.0 fully disjoint.
    """
    if len(list_a) != len(list_b):
        raise ShapeError(f"lists must have equal length, got {len(list_a)} and {len(list_b)}")
    if len(set(list_a)) != len(list_a) or len(set(list_b)) != len(list_b):
        raise ValueError("ranked lists must not contain duplicate items")
    ids, dense = np.unique(np.concatenate([list_a, list_b]).astype(np.int64), return_inverse=True)
    return _rbo(dense[: len(list_a)], dense[len(list_a) :], p, ids.size)


def top_k_ids(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k item ids by descending score, ties broken by ascending id (NaN
    scores last), as an int array."""
    neg = -np.asarray(scores)
    ids = np.arange(len(neg))
    if k < len(neg):
        # Only items scoring at or above the k-th best can make the list
        # (NaN ones are kept too: a NaN k-th score keeps every item).
        ids = np.flatnonzero(~(neg > np.partition(neg, k - 1)[k - 1]))
    return ids[np.lexsort((ids, neg[ids]))[:k]]


def view_consistency_rbo(
    personal_scores: np.ndarray, global_scores: np.ndarray, k_prime: int, p: float
) -> float:
    """RBO between a client's top-k' lists under the personal view (its
    scores of the personal table's rows) and the global view (its scores of
    the enhanced consensus's rows)."""
    top_personal, top_global = top_k_ids(personal_scores, k_prime), top_k_ids(global_scores, k_prime)
    return _rbo(top_personal, top_global, p, len(personal_scores))


def correlation_matrix(c_e: np.ndarray, v: np.ndarray, clip: float = 0.003) -> np.ndarray:
    """Cross-view correlation with small entries zeroed for presentation."""
    c_e, v = np.asarray(c_e), np.asarray(v)
    if c_e.shape != v.shape:
        raise ShapeError(f"table shapes differ: {c_e.shape} vs {v.shape}")
    corr = c_e.T @ v
    return np.where(np.abs(corr) <= clip, 0.0, corr)


def export_correlation_matrix(c_e: np.ndarray, v: np.ndarray, path: str, clip: float = 0.003) -> np.ndarray:
    """Write the clipped correlation matrix as a d x d CSV (6 significant digits)."""
    corr = correlation_matrix(c_e, v, clip)
    with open(path, "w", encoding="utf-8") as fh:
        for row in corr:
            fh.write(",".join(f"{x:.6g}" for x in row) + "\n")
    return corr
