"""Training objectives: recommendation BCE, ranking-based consistency between
the two item-table views, and the orthogonality penalty on their correlation,
combined as l_rec + beta_a * l_a + beta_o * l_o.

Every term has a pure-numpy entry point for direct evaluation plus a tape
counterpart (same math) used inside the differentiable training step. The
BCE and the consistency term are one tape node each, with a closed-form
backward; their numpy entry points share that node's forward.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
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


# -- tape-level building blocks -----------------------------------------------------


def _rec_loss_t(predictions: Tensor, labels: np.ndarray) -> Tensor:
    """Summed binary cross-entropy with predictions clamped away from {0, 1}.

    One tape node; a prediction outside the clamp gets zero gradient.
    """
    x = predictions.data
    labels = np.asarray(labels, dtype=x.dtype)
    p = np.clip(x, PRED_CLAMP, 1.0 - PRED_CLAMP)
    loss = -np.sum(np.log(p) * labels + np.log(1.0 - p) * (1.0 - labels))

    def vjp(g: np.ndarray) -> tuple[np.ndarray]:
        inside = (x >= PRED_CLAMP) & (x <= 1.0 - PRED_CLAMP)
        return (g * inside * ((1.0 - labels) / (1.0 - p) - labels / p),)

    return ad.fused(loss, (predictions,), vjp)


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
    d_dist: np.ndarray, dist: np.ndarray, cache: tuple, prototype: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of `_top_one` w.r.t. (prototype, table) given d(loss)/d(dist)."""
    cos, row_norms, p_norm, total = cache
    centred = d_dist - np.dot(d_dist, dist)
    if total is None:
        d_cos = dist * centred
    else:
        d_cos = centred / total * ((cos >= COS_CLAMP) & (cos <= 1.0))
    # cos_j = dots_j / (row_norms_j * p_norm); a_j is d(loss)/d(dots_j).
    a = d_cos / (row_norms * p_norm)
    ac = a * cos
    d_table = a[:, None] * prototype - (ac * (p_norm / row_norms))[:, None] * table
    d_proto = table.T @ a - (np.dot(ac, row_norms) / p_norm) * prototype
    return d_proto, d_table


def _consistency(
    p_personal: np.ndarray, p_global: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric cross-entropy between two item distributions, plus the logs."""
    log_g = np.log(np.maximum(p_global, LOG_FLOOR))
    log_p = np.log(np.maximum(p_personal, LOG_FLOOR))
    cross = np.sum(p_personal * log_g) + np.sum(p_global * log_p)
    return cross * -0.5, log_g, log_p


def _consistency_t(
    p_personal: Tensor, v_view: Tensor, p_global: Tensor, g_view: Tensor, mode: str
) -> Tensor:
    """The whole consistency term as one tape node: the top-one distribution
    of each view (prototype against table rows) and their symmetric
    cross-entropy, with a closed-form backward."""
    pp, v = p_personal.data, v_view.data
    pg, c = p_global.data, g_view.data
    dist_p, cache_p = _top_one(pp, v, mode)
    dist_g, cache_g = _top_one(pg, c, mode)
    loss, log_g, log_p = _consistency(dist_p, dist_g)

    def vjp(g: np.ndarray) -> tuple[np.ndarray, ...]:
        # The clamp at LOG_FLOOR passes gradient only where the value is kept.
        half = -0.5 * g
        d_dist_p = half * (log_g + (dist_p >= LOG_FLOOR) * dist_g / np.maximum(dist_p, LOG_FLOOR))
        d_dist_g = half * (log_p + (dist_g >= LOG_FLOOR) * dist_p / np.maximum(dist_g, LOG_FLOOR))
        d_pp, d_v = _top_one_vjp(d_dist_p, dist_p, cache_p, pp, v)
        d_pg, d_c = _top_one_vjp(d_dist_g, dist_g, cache_g, pg, c)
        return d_pp, d_v, d_pg, d_c

    return ad.fused(loss, (p_personal, v_view, p_global, g_view), vjp)


def _orthogonality_t(c_e: Tensor, v: Tensor) -> Tensor:
    """Mean-per-column Frobenius energy of the cross-view correlation matrix."""
    corr = ad.matmul(ad.transpose(c_e), v)
    d = c_e.data.shape[1]
    return ad.mul(ad.tsum(ad.mul(corr, corr)), 1.0 / d)


def _distance_push_t(c_e: Tensor, v: Tensor) -> Tensor:
    """Negative mean squared distance between the tables (push-apart baseline)."""
    diff = ad.sub(c_e, v)
    m, d = c_e.data.shape
    return ad.mul(ad.tsum(ad.mul(diff, diff)), -1.0 / (m * d))


# -- public numpy surface -------------------------------------------------------------


def rec_loss(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions, labels = np.asarray(predictions), np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ShapeError(f"predictions {predictions.shape} vs labels {labels.shape}")
    return _rec_loss_t(ad.as_tensor(np.asarray(predictions, dtype=np.float64)), labels).item()


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
    return _orthogonality_t(ad.as_tensor(c_e), ad.as_tensor(v)).item()


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
    consistency_items: np.ndarray | None = None,
) -> tuple[Tensor, LossBreakdown]:
    """Assemble the full objective on the tape; returns (total tensor, breakdown).

    `consistency_items`, when given, restricts the two top-one distributions
    to that subset of rows (cheaper than all M items on large tables).
    """
    u = trace.params["u"]
    scores = ad.matmul(ad.gather_rows(trace.V_F, np.asarray(batch_items)), u)
    preds = ad.sigmoid(scores)
    l_rec = _rec_loss_t(preds, batch_labels)

    zero = ad.as_tensor(np.asarray(0.0, dtype=trace.V_F.data.dtype))
    l_a = zero
    if consistency_enabled and beta_a != 0.0:
        v_view, g_view = trace.params["V"], trace.C_E
        if consistency_items is not None:
            idx = np.asarray(consistency_items)
            v_view = ad.gather_rows(v_view, idx)
            g_view = ad.gather_rows(g_view, idx)
        l_a = _consistency_t(trace.p_P, v_view, trace.p_E, g_view, eq12_mode)

    l_o = zero
    if orthogonality_enabled and beta_o != 0.0:
        if complementarity_kind == "orthogonal":
            l_o = _orthogonality_t(trace.C_E, trace.params["V"])
        elif complementarity_kind == "l2-distance":
            l_o = _distance_push_t(trace.C_E, trace.params["V"])
        else:
            raise ValueError(f"unknown complementarity kind {complementarity_kind!r}")

    total = ad.add(l_rec, ad.add(ad.mul(l_a, beta_a), ad.mul(l_o, beta_o)))
    breakdown = LossBreakdown(
        l_rec=l_rec.item(),
        l_a=l_a.item(),
        l_o=l_o.item(),
        total=total.item(),
        beta_a=beta_a,
        beta_o=beta_o,
    )
    return total, breakdown


def total_loss(
    trace: ForwardTrace,
    batch: tuple[np.ndarray, np.ndarray],
    beta_a: float,
    beta_o: float,
    **kwargs,
) -> LossBreakdown:
    """Evaluate the combined objective for a fresh forward trace."""
    items, labels = batch
    _, breakdown = total_loss_t(trace, items, labels, beta_a, beta_o, **kwargs)
    return breakdown
