"""Ranking metrics: HR@K and NDCG@K over sampled candidates, truncated
rank-biased overlap between the personal and enhanced-global views, and the
cross-view correlation-matrix export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError, ShapeError
from .model import ClientState, ForwardTrace


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


def rank_candidates(u: np.ndarray, table: np.ndarray, candidates: list[int]) -> list[int]:
    """Candidates sorted by descending u . v_j; score ties broken by ascending id."""
    cand = np.asarray(candidates, dtype=np.int64)
    scores = table[cand] @ np.asarray(u)
    order = np.lexsort((cand, -scores))
    return [int(c) for c in cand[order]]


def hr_ndcg_at_k(ranked: list[int], test_item: int, k: int) -> tuple[int, float]:
    """Hit indicator and positional discount for the held-out item.

    The rank is 1-based; a miss (rank > k) scores (0, 0.0) and a rank-1 hit
    scores (1, 1.0).
    """
    try:
        rank = ranked.index(test_item) + 1
    except ValueError:
        raise ProtocolError(f"test item {test_item} not among the ranked candidates") from None
    if rank > k:
        return 0, 0.0
    return 1, float(1.0 / np.log2(rank + 1))


def rbo_truncated(list_a: list[int], list_b: list[int], p: float) -> float:
    """Truncated rank-biased overlap of two equal-length ranked lists.

    Weighted prefix agreement: sum_k p^(k-1) * |prefix_k(a) & prefix_k(b)| / k,
    normalized by sum_k p^(k-1). 1.0 means identical lists, 0.0 fully disjoint.
    """
    if len(list_a) != len(list_b):
        raise ShapeError(f"lists must have equal length, got {len(list_a)} and {len(list_b)}")
    if len(set(list_a)) != len(list_a) or len(set(list_b)) != len(list_b):
        raise ValueError("ranked lists must not contain duplicate items")
    if not 0.0 < p < 1.0:
        raise ValueError(f"persistence p must lie in (0, 1), got {p}")

    seen_a: set[int] = set()
    seen_b: set[int] = set()
    overlap = 0
    numerator = 0.0
    denominator = 0.0
    weight = 1.0
    for depth, (a, b) in enumerate(zip(list_a, list_b), start=1):
        if a == b:
            overlap += 1
        else:
            if a in seen_b:
                overlap += 1
            if b in seen_a:
                overlap += 1
            seen_a.add(a)
            seen_b.add(b)
        numerator += weight * overlap / depth
        denominator += weight
        weight *= p
    return numerator / denominator


def top_k_list(u: np.ndarray, table: np.ndarray, k: int) -> list[int]:
    """Top-k item ids by u . row score, ties broken by ascending id (NaN
    scores last)."""
    neg = -(np.asarray(table) @ np.asarray(u))
    ids = np.arange(len(neg))
    if k < len(neg):
        # Only items scoring at or above the k-th best can make the list
        # (NaN ones are kept too: a NaN k-th score keeps every item).
        ids = np.flatnonzero(~(neg > np.partition(neg, k - 1)[k - 1]))
    order = np.lexsort((ids, neg[ids]))
    return [int(i) for i in ids[order[:k]]]


def view_consistency_rbo(state: ClientState, trace: ForwardTrace, k_prime: int, p: float) -> float:
    """RBO between the client's top-k' lists under the personal view (rows of
    the personal table) and the global view (rows of the enhanced consensus)."""
    u = state.user_embedding
    personal = top_k_list(u, trace.params["V"].data, k_prime)
    global_view = top_k_list(u, trace.C_E.data, k_prime)
    return rbo_truncated(personal, global_view, p)


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
