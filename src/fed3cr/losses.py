"""Training objectives: recommendation BCE, ranking-based consistency between
the two item-table views, and the orthogonality penalty on their correlation,
combined as l_rec + beta_a * l_a + beta_o * l_o.

Each term is a plain numpy function that returns its value and what its
closed-form gradient needs; the public entry points evaluate them directly.
The training step's objective (`total_loss_t`) composes them with one
closed-form backward, so each item table's gradient is built once, in one
buffer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .errors import DegenerateInputWarning, ShapeError
from .model import ForwardTrace

PRED_CLAMP = 1e-7
LOG_FLOOR = 1e-12
COS_CLAMP = 1e-6
NORM_GUARD = 1e-24  # added under the square root of every norm

EQ12_MODES = ("softmax", "literal-ratio")
COMPLEMENTARITY_KINDS = ("orthogonal", "l2-distance")


@dataclass
class LossBreakdown:
    """Per-iteration loss components and their weighted total."""

    l_rec: float
    l_a: float
    l_o: float
    total: float
    beta_a: float
    beta_o: float


# -- plain numpy pieces the objective composes -------------------------------------------


def _bce(p: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Summed binary cross-entropy of predictions clamped away from {0, 1},
    and its gradient w.r.t. the predictions (zero outside the clamp)."""
    labels = np.asarray(labels, dtype=p.dtype)
    clamped = np.clip(p, PRED_CLAMP, 1.0 - PRED_CLAMP)
    loss = -np.sum(np.log(clamped) * labels + np.log(1.0 - clamped) * (1.0 - labels))
    inside = (p >= PRED_CLAMP) & (p <= 1.0 - PRED_CLAMP)
    return loss, inside * ((1.0 - labels) / (1.0 - clamped) - labels / clamped)


def _top_one(prototype: np.ndarray, table: np.ndarray, mode: str) -> tuple[np.ndarray, tuple]:
    """Distribution over table rows from prototype-to-row cosine similarities.

    'softmax' exponentiates the similarities; 'literal-ratio' clamps them
    to [1e-6, 1] and normalizes by their sum. Also returns what
    `_top_one_vjp` needs.
    """
    if mode not in EQ12_MODES:
        raise ValueError(f"unknown top-one mode {mode!r}")
    dots = table @ prototype
    row_norms = np.sqrt(np.einsum("ij,ij->i", table, table) + NORM_GUARD)
    p_norm = np.sqrt(np.dot(prototype, prototype) + NORM_GUARD)
    cos = dots / (row_norms * p_norm)
    if mode == "softmax":
        e = np.exp(cos - cos.max())
        return e / e.sum(), (cos, row_norms, p_norm, None)
    clamped = np.clip(cos, COS_CLAMP, 1.0)
    total = clamped.sum()
    return clamped / total, (cos, row_norms, p_norm, total)


def _top_one_vjp(
    d_dist: np.ndarray,
    dist: np.ndarray,
    cache: tuple,
    prototype: np.ndarray,
    table: np.ndarray,
    out: np.ndarray | None = None,
    accumulate: bool = False,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of `_top_one` w.r.t. (prototype, table) given d(loss)/d(dist).
    The table gradient is added into `out` in place when `accumulate`, else
    written into `out` (a new array when None); `scratch`, when given, holds
    the table-sized products on the way. Returns (prototype gradient, the
    table gradient's array)."""
    cos, row_norms, p_norm, total = cache
    centred = d_dist - np.dot(d_dist, dist)
    if total is None:
        d_cos = dist * centred
    else:
        d_cos = centred / total * ((cos >= COS_CLAMP) & (cos <= 1.0))
    # cos_j = dots_j / (row_norms_j * p_norm); a_j is d(loss)/d(dots_j), and
    # d_table = a p^T - diag(row_scale) table. The one-column BLAS product and
    # the einsum row scaling time faster than numpy's broadcast products.
    a = d_cos / (row_norms * p_norm)
    ac = a * cos
    row_scale = ac * (p_norm / row_norms)
    if accumulate:
        out -= np.einsum("i,ij->ij", row_scale, table, out=scratch)
    else:
        out = np.einsum("i,ij->ij", -row_scale, table, out=out)
    out += np.dot(a[:, None], prototype[None], out=scratch)
    d_proto = table.T @ a - (np.dot(ac, row_norms) / p_norm) * prototype
    return d_proto, out


def _consistency(
    p_personal: np.ndarray, p_global: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric cross-entropy between two item distributions, plus the logs."""
    log_g = np.log(np.maximum(p_global, LOG_FLOOR))
    log_p = np.log(np.maximum(p_personal, LOG_FLOOR))
    cross = np.sum(p_personal * log_g) + np.sum(p_global * log_p)
    return cross * -0.5, log_g, log_p


def _consistency_term(
    p_personal: np.ndarray, v_view: np.ndarray, p_global: np.ndarray, g_view: np.ndarray, mode: str
) -> tuple[np.ndarray, Callable]:
    """The consistency term: the top-one distribution of each view (prototype
    against table rows) and their symmetric cross-entropy. Returns the loss
    and `vjp(scale, v_out, g_out, accumulate, scratch)`, the gradients of
    scale * loss w.r.t. (p_personal, v_view, p_global, g_view); the two
    table gradients go into `v_out` and `g_out` (see `_top_one_vjp`)."""
    dist_p, cache_p = _top_one(p_personal, v_view, mode)
    dist_g, cache_g = _top_one(p_global, g_view, mode)
    loss, log_g, log_p = _consistency(dist_p, dist_g)

    def vjp(scale, v_out=None, g_out=None, accumulate=False, scratch=None) -> tuple[np.ndarray, ...]:
        # The clamp at LOG_FLOOR passes gradient only where the value is kept.
        half = -0.5 * scale
        d_dist_p = half * (log_g + (dist_p >= LOG_FLOOR) * dist_g / np.maximum(dist_p, LOG_FLOOR))
        d_dist_g = half * (log_p + (dist_g >= LOG_FLOOR) * dist_p / np.maximum(dist_g, LOG_FLOOR))
        d_pp, d_v = _top_one_vjp(d_dist_p, dist_p, cache_p, p_personal, v_view, v_out, accumulate, scratch)
        d_pg, d_c = _top_one_vjp(d_dist_g, dist_g, cache_g, p_global, g_view, g_out, accumulate, scratch)
        return d_pp, d_v, d_pg, d_c

    return loss, vjp


def _orthogonality(c_e: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean-per-column Frobenius energy of the cross-view correlation matrix
    corr = c_e^T v, and corr. Its gradients are (2/d) v corr^T for c_e and
    (2/d) c_e corr for v."""
    corr = c_e.T @ v
    return np.sum(corr * corr) * np.asarray(1.0 / c_e.shape[1], dtype=corr.dtype), corr


def _distance_push(c_e: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negative mean squared distance between the tables (push-apart
    baseline), and diff = c_e - v. Its gradient is -2 diff / (M d) for c_e
    and the negation for v."""
    diff = c_e - v
    return np.sum(diff * diff) * np.asarray(-1.0 / diff.size, dtype=diff.dtype), diff


# -- public numpy surface -------------------------------------------------------------


def rec_loss(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions, labels = np.asarray(predictions), np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ShapeError(f"predictions {predictions.shape} vs labels {labels.shape}")
    return float(_bce(np.asarray(predictions, dtype=np.float64), labels)[0])


def top_one_distribution(prototype: np.ndarray, table: np.ndarray, mode: str = "softmax") -> np.ndarray:
    prototype, table = np.asarray(prototype), np.asarray(table)
    if table.ndim != 2 or prototype.shape[0] != table.shape[1]:
        raise ShapeError(f"prototype {prototype.shape} vs table {table.shape}")
    if not table.any(axis=1).all():
        warnings.warn("table contains all-zero rows; their similarity is treated as 0", DegenerateInputWarning)
    return _top_one(prototype, table, mode)[0]


def consistency_loss(p_personal: np.ndarray, p_global: np.ndarray) -> float:
    p_personal, p_global = np.asarray(p_personal), np.asarray(p_global)
    if p_personal.shape != p_global.shape:
        raise ShapeError(f"distribution shapes differ: {p_personal.shape} vs {p_global.shape}")
    return float(_consistency(p_personal, p_global)[0])


def orthogonality_loss(c_e: np.ndarray, v: np.ndarray) -> float:
    c_e, v = np.asarray(c_e), np.asarray(v)
    if c_e.shape != v.shape:
        raise ShapeError(f"table shapes differ: {c_e.shape} vs {v.shape}")
    return float(_orthogonality(c_e, v)[0])


# -- combined objective --------------------------------------------------------------


def total_loss_t(
    trace: ForwardTrace,
    batch_items: np.ndarray,
    batch_labels: np.ndarray,
    beta_a: float,
    beta_o: float,
    eq12_mode: str = "softmax",
    consistency_enabled: bool = True,
    orthogonality_enabled: bool = True,
    complementarity_kind: str = "orthogonal",
    workspace: ad.Workspace | None = None,
) -> tuple[ad.Tensor, LossBreakdown]:
    """l_rec + beta_a * l_a + beta_o * l_o over one forward trace; returns
    (the objective, whose `backward()` returns one gradient per array of
    `trace.params`, in that order; the breakdown).

    l_rec scores the batch rows of the trace's views, so the full scoring
    table is never built; each auxiliary term that is on reads C_E, the
    personal table V and the prototypes p_P and p_E. The backward builds
    the gradients w.r.t. C_E and V in one buffer each, the l_o term first
    and then the l_a terms, and hands them to `trace.pullback` by name,
    with u's, p_P's, p_E's and the batch rows' gradients; the pullback adds
    the batch rows, then goes on to the trainable arrays. The batch rows,
    the table gradients and their scratch are `workspace` buffers (a fresh
    one when None), valid until the next call over the same workspace.
    """
    if workspace is None:
        workspace = ad.Workspace()
    u, v, c_e = trace.params["u"], trace.params.get("V"), trace.C_E
    items = np.asarray(batch_items)
    first = trace.views[0]
    dtype, (m, d) = first.dtype, first.shape
    if items.size and not -m <= items.min() <= items.max() < m:
        raise IndexError(f"batch items must index the {m} item rows")
    # Checked once, the items gather in "wrap" mode, which maps them as
    # indexing does; "raise" would copy through a temporary first.
    rows = first.take(items, axis=0, out=workspace.buffer(("total_loss_t", "rows"), (items.size, d), dtype), mode="wrap")
    for view in trace.views[1:]:
        rows += view.take(items, axis=0, out=workspace.buffer(("total_loss_t", "view rows"), rows.shape, dtype), mode="wrap")
    preds = ad.logistic(rows @ u)
    l_rec, d_preds = _bce(preds, batch_labels)

    l_a = np.asarray(0.0, dtype=dtype)
    with_l_a = consistency_enabled and beta_a != 0.0
    if with_l_a:
        l_a, consistency_vjp = _consistency_term(trace.p_P, v, trace.p_E, c_e, eq12_mode)

    l_o = np.asarray(0.0, dtype=dtype)
    with_l_o = orthogonality_enabled and beta_o != 0.0
    if with_l_o:
        if complementarity_kind == "orthogonal":
            l_o, corr = _orthogonality(c_e, v)
        elif complementarity_kind == "l2-distance":
            l_o, diff = _distance_push(c_e, v)
        else:
            raise ValueError(f"unknown complementarity kind {complementarity_kind!r}")

    def vjp(g: np.ndarray) -> list:
        d_ce = d_v = d_pp = d_pe = None
        if with_l_o or with_l_a:
            d_ce = workspace.buffer(("total_loss_t", "C_E"), c_e.shape, c_e.dtype)
            d_v = workspace.buffer(("total_loss_t", "V"), v.shape, v.dtype)
        if with_l_o:
            if complementarity_kind == "orthogonal":
                k = g * beta_o * 2.0 / d
                np.matmul(v, corr.T * k, out=d_ce)
                np.matmul(c_e, corr * k, out=d_v)
            else:
                k = g * beta_o * 2.0 / diff.size
                np.multiply(diff, -k, out=d_ce)
                np.multiply(diff, k, out=d_v)
        if with_l_a:
            scratch = workspace.buffer(("total_loss_t", "scratch"), v.shape, v.dtype)
            d_pp, d_v, d_pe, d_ce = consistency_vjp(g * beta_a, d_v, d_ce, accumulate=with_l_o, scratch=scratch)
        d_scores = g * d_preds * preds * (1.0 - preds)
        d_rows = np.dot(d_scores[:, None], u[None], out=workspace.buffer(("total_loss_t", "d_rows"), rows.shape, dtype))
        return trace.pullback(items, d_rows, d_u=rows.T @ d_scores, d_ce=d_ce, d_v=d_v, dp_p=d_pp, dp_e=d_pe)

    total = l_rec + (l_a * np.asarray(beta_a, dtype=dtype) + l_o * np.asarray(beta_o, dtype=dtype))
    breakdown = LossBreakdown(
        l_rec=float(l_rec),
        l_a=float(l_a),
        l_o=float(l_o),
        total=float(total),
        beta_a=beta_a,
        beta_o=beta_o,
    )
    return ad.Tensor(total, vjp), breakdown

