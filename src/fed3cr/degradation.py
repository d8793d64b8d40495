"""Empirical checks of how far an averaged consensus can drift from any
single client's optimum.

On quadratic surrogate losses (identity Hessian, known optima) the averaged
table's distance to each client's optimum is bounded by that client's mean
pairwise gradient heterogeneity; the fixtures here verify the bound exactly.
For real trained models the same pairwise gradient statistics are reported
descriptively, without asserting a bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding
from .errors import DataError
from .model import ClientState


@dataclass
class QuadraticClient:
    """Client with loss 0.5 * ||C - C_star||_F^2 (identity Hessian)."""

    optimum: np.ndarray


@dataclass
class DegradationReport:
    """Per-client consensus distances, heterogeneity bounds and verdicts."""

    distances: np.ndarray  # ||C_mean - C_i*|| per client
    delta_matrix: np.ndarray  # pairwise ||C_i* - C_j*||
    deltas: np.ndarray  # mean over j of delta_matrix[i, j]
    satisfied: np.ndarray  # distances <= deltas (with float slack)

    @property
    def all_satisfied(self) -> bool:
        return bool(self.satisfied.all())

    def to_dict(self) -> dict:
        return {
            "distances": self.distances.tolist(),
            "deltas": self.deltas.tolist(),
            "delta_matrix": self.delta_matrix.tolist(),
            "satisfied": [bool(s) for s in self.satisfied],
            "all_satisfied": self.all_satisfied,
        }


def verify_bound(clients: list[QuadraticClient]) -> DegradationReport:
    """Check ||mean(optima) - C_i*|| <= mean_j ||C_i* - C_j*|| for every client.

    With quadratic losses the averaged table is the exact federated fixed
    point and each client's gradient at another optimum reduces to the
    difference of optima, so both sides are closed-form.
    """
    if len(clients) < 2:
        raise DataError("bound verification needs at least 2 clients")
    optima = np.stack([np.asarray(c.optimum, dtype=np.float64) for c in clients])
    n = len(clients)
    consensus = optima.mean(axis=0)

    flat = optima.reshape(n, -1)
    diffs = flat[:, None, :] - flat[None, :, :]
    delta_matrix = np.linalg.norm(diffs, axis=2)
    deltas = delta_matrix.mean(axis=1)
    distances = np.linalg.norm(flat - consensus.reshape(-1), axis=1)
    slack = 1e-9 * np.maximum(1.0, deltas)
    return DegradationReport(
        distances=distances,
        delta_matrix=delta_matrix,
        deltas=deltas,
        satisfied=distances <= deltas + slack,
    )


def random_fixture(rng: np.random.Generator) -> list[QuadraticClient]:
    """Random quadratic fixture: 2..20 clients with matrix optima of up to 8 x 8."""
    n = int(rng.integers(2, 21))
    rows = int(rng.integers(1, 9))
    cols = int(rng.integers(1, 9))
    return [QuadraticClient(rng.normal(0.0, 2.0, size=(rows, cols))) for _ in range(n)]


def bound_sweep(num_fixtures: int, seed: int) -> dict:
    """Run verify_bound over seeded random fixtures; returns a violation summary."""
    rng = seeding.rng(seed, seeding.FIXTURE)
    violations = 0
    max_gap = -np.inf
    for _ in range(num_fixtures):
        report = verify_bound(random_fixture(rng))
        if not report.all_satisfied:
            violations += 1
        max_gap = max(max_gap, float((report.distances - report.deltas).max()))
    return {
        "fixtures": num_fixtures,
        "violations": violations,
        "max_distance_minus_delta": max_gap,
    }


@dataclass
class PrefixAggregation:
    """Mean vector over the first k clients plus per-client alignment."""

    k: int
    mean: np.ndarray
    mean_norm: float
    cosines: list[float]


def toy_example_report(vectors: list[np.ndarray]) -> list[PrefixAggregation]:
    """Aggregate growing prefixes of client vectors, reporting each mean's norm
    and every client's cosine alignment to it.

    Averaging non-aligned vectors shrinks the mean relative to its inputs,
    and the least-aligned client reads the least signal from it; the report
    makes both effects measurable.
    """
    if len(vectors) < 2:
        raise DataError("need at least 2 client vectors")
    arr = np.stack([np.asarray(v, dtype=np.float64) for v in vectors])
    norms = np.linalg.norm(arr, axis=1)
    report = []
    for k in range(2, len(vectors) + 1):
        mean = arr[:k].mean(axis=0)
        mn = float(np.linalg.norm(mean))
        cosines = []
        for v, nv in zip(arr, norms):
            denom = nv * mn
            cosines.append(float(np.dot(v, mean) / denom) if denom > 0 else 0.0)
        report.append(PrefixAggregation(k=k, mean=mean, mean_norm=mn, cosines=cosines))
    return report


@dataclass
class HeterogeneityProbe:
    """Pairwise gradient-difference norms measured at a shared reference table."""

    grad_diff_norms: np.ndarray  # ||g_i - g_j||_F
    grad_norms: np.ndarray  # ||g_i||_F per client


def empirical_heterogeneity_probe(
    clients: list[ClientState],
    positives: list[np.ndarray],
    c_ref: np.ndarray,
    num_negatives: int = 4,
    seed: int = 0,
) -> HeterogeneityProbe:
    """Full-batch BCE gradient of each client w.r.t. the item table at `c_ref`,
    using the client's positives plus a fixed seeded negative set, then all
    pairwise difference norms.

    Mid-training these are descriptive statistics (the convexity needed for a
    bound does not hold for the real objective); both the pairwise
    differences and the per-client gradient norms are reported.
    """
    c_ref = np.asarray(c_ref, dtype=np.float64)
    m = c_ref.shape[0]
    grads = []
    for state, pos in zip(clients, positives):
        pos = np.asarray(pos)
        rng = seeding.rng(seed, seeding.FIXTURE, state.client_id, 1)
        universe = np.setdiff1d(np.arange(m, dtype=np.int64), pos)
        if len(universe) == 0:
            negatives = np.empty(0, dtype=np.int64)
        else:
            negatives = rng.choice(universe, size=min(num_negatives * len(pos), len(universe)), replace=False)
        items = np.concatenate([pos, negatives])
        labels = np.concatenate([np.ones(len(pos)), np.zeros(len(negatives))])
        u = np.asarray(state.user_embedding, dtype=np.float64)
        scores = c_ref[items] @ u
        preds = 1.0 / (1.0 + np.exp(-scores))
        grad = np.zeros_like(c_ref)
        np.add.at(grad, items, (preds - labels)[:, None] * u[None, :])
        grads.append(grad)

    stack = np.stack([g.reshape(-1) for g in grads])
    # One row of differences at a time: N x (M d) memory, not N x N x (M d).
    # Each norm reduces one contiguous row as the stacked form does, so the
    # bits match it; the Gram form |g_i|^2 + |g_j|^2 - 2<g_i, g_j> cancels.
    diff_norms = np.empty((len(grads), len(grads)))
    for i, row in enumerate(stack):
        diff_norms[i] = np.linalg.norm(row - stack, axis=1)
    return HeterogeneityProbe(grad_diff_norms=diff_norms, grad_norms=np.linalg.norm(stack, axis=1))
