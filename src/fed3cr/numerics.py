"""The finite-difference gradient contract.

Training runs in float32 by default; anything gradient-checked must be
evaluated in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, ShapeError


@dataclass
class GradCheckReport:
    """Outcome of a central-difference comparison against an analytic gradient."""

    passed: bool
    max_rel_error: float
    worst_index: tuple[int, ...] | None
    checked: int
    skipped: int

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"grad_check {status}: max rel err {self.max_rel_error:.3e} "
            f"({self.checked} entries checked, {self.skipped} skipped)"
        )


def grad_check(
    f: Callable[[np.ndarray], float],
    params: np.ndarray,
    analytic_grad: np.ndarray,
    eps: float = 1e-5,
    rtol: float = 1e-4,
) -> GradCheckReport:
    """Compare an analytic gradient against central differences of `f`.

    Relative error is |analytic - numeric| / max(|analytic|, |numeric|),
    evaluated only where that denominator exceeds 1e-8; the report passes
    iff the maximum such error is at most `rtol`.
    """
    params = np.ascontiguousarray(params, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    if analytic_grad.shape != params.shape:
        raise ShapeError(
            f"analytic gradient shape {analytic_grad.shape} does not match parameters {params.shape}"
        )

    numeric = np.zeros_like(params)
    flat = params.reshape(-1)
    flat_num = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(f(params))
        flat[i] = orig - eps
        f_minus = float(f(params))
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise EvaluationError(f"objective non-finite at perturbed entry {i}")
        flat_num[i] = (f_plus - f_minus) / (2.0 * eps)

    denom = np.maximum(np.abs(analytic_grad), np.abs(numeric))
    mask = denom > 1e-8
    rel = np.zeros_like(denom)
    rel[mask] = np.abs(analytic_grad - numeric)[mask] / denom[mask]

    max_rel = float(rel.max()) if mask.any() else 0.0
    worst = None
    if mask.any():
        worst = tuple(int(k) for k in np.unravel_index(int(rel.argmax()), rel.shape))
    return GradCheckReport(
        passed=max_rel <= rtol,
        max_rel_error=max_rel,
        worst_index=worst,
        checked=int(mask.sum()),
        skipped=int((~mask).sum()),
    )
