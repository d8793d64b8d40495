"""Ranking metrics: HR@K and NDCG@K over sampled candidates, truncated
rank-biased overlap between the personal and enhanced-global views, the
cross-view correlation-matrix export, and the alignment of an item table
with planted item vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Workspace
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


TOP_K = 10  # the cut-off of HR@K and NDCG@K
RBO_P = 0.99  # the persistence of the view RBO


def metrics_csv_lines(metrics: list[RoundMetrics], rbo_k: int) -> list[str]:
    """Render rounds as CSV lines (stable shortest-repr floats), header
    first; the header names the cut-off `TOP_K` and the RBO depth `rbo_k`."""

    def fmt(x: float | None) -> str:
        return "" if x is None else repr(float(x))

    lines = [f"round,hr{TOP_K},ndcg{TOP_K},rbo{rbo_k},loss_rec,loss_a,loss_o,clients_evaluated"]
    for m in metrics:
        lines.append(
            f"{m.round},{fmt(m.hr_at_k)},{fmt(m.ndcg_at_k)},{fmt(m.rbo)},"
            f"{fmt(m.loss_rec)},{fmt(m.loss_a)},{fmt(m.loss_o)},{m.clients_evaluated}"
        )
    return lines


def rank_candidates(scores: np.ndarray, candidates: np.ndarray, test_items: np.ndarray) -> np.ndarray:
    """1-based rank of each row's test item among that row's candidates
    under that row's scores of them: descending score, ties broken by
    ascending id, NaN scores last. `scores` and `candidates` are (B, K),
    score j of a row being its score of its candidate j, and `test_items`
    (B,), giving B ranks. It counts the candidates that order before the
    test item, so it neither sorts nor builds a list, and a repeat of the
    test item among its own candidates never orders before it."""
    cand, test = np.asarray(candidates), np.asarray(test_items)[:, None]
    is_test = cand == test
    missing = ~np.any(is_test, axis=1)
    if missing.any():
        raise ProtocolError(f"test item {test[missing, 0][0]} not among the ranked candidates")
    s = np.asarray(scores)
    t = s[np.arange(len(s)), np.argmax(is_test, axis=1)][:, None]
    before = (s > t) | ((s == t) & (cand < test))
    for r in np.flatnonzero(np.isnan(t[:, 0])):
        # A NaN test score orders after every number and ties with NaN.
        nan = np.isnan(s[r])
        before[r] = ~nan | (nan & (cand[r] < test[r]))
    return np.count_nonzero(before, axis=1) + 1


def hr_ndcg_at_k(ranks: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Hit indicator and positional discount of each 1-based rank, as an
    int64 and a float64 array: a miss (rank > k) scores (0, 0.0) and a
    rank-1 hit scores (1, 1.0). Each discount is the scalar
    `float(1.0 / np.log2(rank + 1))`, which a vectorised log2 may round
    differently."""
    hits = ranks <= k
    ndcgs = np.zeros(ranks.shape)
    ndcgs[hits] = [float(1.0 / np.log2(r + 1)) for r in ranks[hits].tolist()]
    return hits.astype(np.int64), ndcgs


def _rbo(ids_a: np.ndarray, ids_b: np.ndarray, p: float, stride: int) -> np.ndarray:
    """Truncated RBO of each row of ids_a against the same row of ids_b, two
    (B, k) arrays whose rows hold distinct ids in [0, stride). The weights
    p^(d-1) and every sum are built in order along the row
    (`cumprod`/`cumsum`), as the definition spells them out."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"persistence p must lie in (0, 1), got {p}")
    b, k = ids_a.shape
    steps = np.full(k, p)
    steps[0] = 1.0
    weights = np.cumprod(steps)
    # Where each of a's ids sits in its row of b (k when absent), found by a
    # search among b's ids offset by row * stride, so rows never meet: it
    # is in both prefixes from depth max(its own position, that one) + 1 on.
    positions = np.arange(k)
    offsets = np.arange(b)[:, None] * stride
    keys_b = (ids_b + offsets).ravel()
    order = np.argsort(keys_b)
    sorted_b, keys_a = keys_b[order], (ids_a + offsets).ravel()
    at = np.minimum(np.searchsorted(sorted_b, keys_a), sorted_b.size - 1)
    in_b = np.where(sorted_b[at] == keys_a, order[at] % k, k).reshape(b, k)
    depth = np.maximum(positions, in_b) + np.arange(b)[:, None] * (k + 1)  # offset by row, as above
    entered = np.bincount(depth.ravel(), minlength=b * (k + 1)).reshape(b, k + 1)[:, :k]
    overlap = np.cumsum(entered, axis=1)
    return np.cumsum(weights * overlap / (positions + 1), axis=1)[:, -1] / np.cumsum(weights)[-1]


def rbo_truncated(list_a, list_b, p: float) -> float:
    """Truncated rank-biased overlap of two equal-length ranked lists of ids.

    Weighted prefix agreement: sum_k p^(k-1) * |prefix_k(a) & prefix_k(b)| / k,
    normalized by sum_k p^(k-1). 1.0 means identical lists, 0.0 fully disjoint.
    """
    if len(list_a) != len(list_b):
        raise ShapeError(f"lists must have equal length, got {len(list_a)} and {len(list_b)}")
    if len(set(list_a)) != len(list_a) or len(set(list_b)) != len(list_b):
        raise ValueError("ranked lists must not contain duplicate items")
    ids_a, ids_b = (np.asarray(ids, dtype=np.int64)[None] for ids in (list_a, list_b))
    return float(_rbo(ids_a, ids_b, p, 0)[0])


def top_k_ids(scores: np.ndarray, k: int, workspace: Workspace | None = None) -> np.ndarray:
    """Each row's top-k item ids by descending score, ties broken by
    ascending id (NaN scores last), as a (B, min(k, M)) int array for (B, M)
    scores. Scores compare by value, so -0.0 ties with 0.0. The partitioned
    copy and the selection mask are `workspace` buffers, one pair per block
    shape, when one is given."""
    if workspace is None:
        workspace = Workspace()
    b, m = scores.shape
    if k >= m:
        return np.argsort(-scores, axis=1, kind="stable")
    # Only items scoring at or above the k-th best can make a row's list
    # (NaN ones are kept too: a NaN k-th score keeps every item).
    neg = np.negative(scores, out=workspace.buffer(("top_k_ids", "neg", b), scores.shape, scores.dtype))
    neg.partition(k - 1, axis=1)
    keep = np.less(scores, -neg[:, k - 1 : k], out=workspace.buffer(("top_k_ids", "keep", b), scores.shape, bool))
    np.logical_not(keep, out=keep)
    # Every row keeps at least k items. Rows that keep exactly k (no tie at
    # the k-th score, no NaN) only need their kept items sorted, and a
    # stable sort of their scores keeps equal scores in ascending id order.
    kept = np.flatnonzero(keep)
    exact = np.ones(b, dtype=bool)
    if kept.size > b * k:
        exact = np.count_nonzero(keep, axis=1) == k
        kept = kept[exact[kept // m]]
    kept = kept.reshape(-1, k)
    top = np.empty((b, k), dtype=np.intp)
    top[exact] = np.take_along_axis(kept, np.argsort(-np.take(scores, kept), axis=1, kind="stable"), axis=1) % m
    for r in np.flatnonzero(~exact):
        ids = np.flatnonzero(keep[r])
        top[r] = ids[np.lexsort((ids, -scores[r, ids]))[:k]]
    return top


def view_consistency_rbo(
    top_personal: np.ndarray, global_scores: np.ndarray, p: float, workspace: Workspace | None = None
) -> np.ndarray:
    """RBO between each client's top-k' list under the personal view (its
    scores of the personal table's rows), given as the (B, k') ids
    `top_k_ids` returns, and its top-k' list under the global view, taken
    here from the (B, M) block of its scores of the enhanced consensus's
    rows: B RBOs."""
    top_global = top_k_ids(global_scores, top_personal.shape[1], workspace)
    return _rbo(top_personal, top_global, p, global_scores.shape[1])


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


def consensus_alignment(table: np.ndarray, planted: np.ndarray) -> float:
    """Linear CKA (Kornblith et al., ICML 2019) between an (M, d) item table
    and (M, b) planted item vectors, in float64: ||Y^T X||_F^2 / (||X^T X||_F
    ||Y^T Y||_F) over the column-centred X and Y. It lies in [0, 1], is
    symmetric, reads 1 when the centred table is the centred planted
    vectors up to a rotation and an isotropic scale, and 0 when every
    centred column of one is orthogonal to every centred column of the
    other. Widths may differ, so a d-wide table is scored against a b-wide
    truth."""
    x, y = (np.asarray(a, dtype=np.float64) for a in (table, planted))
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ShapeError(f"need two tables of equal row count, got {x.shape} and {y.shape}")
    x, y = x - x.mean(axis=0), y - y.mean(axis=0)
    return float(np.linalg.norm(y.T @ x) ** 2 / (np.linalg.norm(x.T @ x) * np.linalg.norm(y.T @ y)))
