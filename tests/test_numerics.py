import numpy as np
import pytest

from fed3cr.errors import EvaluationError
from fed3cr.numerics import grad_check


def test_grad_check_quadratic_passes():
    x = np.random.default_rng(5).normal(size=(3, 2))
    report = grad_check(lambda p: 0.5 * float(np.sum(p**2)), x, x, rtol=1e-5)
    assert report.passed


def test_grad_check_linear_passes():
    x = np.random.default_rng(6).normal(size=4)
    report = grad_check(lambda p: float(p.sum()), x, np.ones_like(x))
    assert report.passed


def test_grad_check_detects_mismatch():
    x = np.random.default_rng(7).normal(size=4)
    report = grad_check(lambda p: 0.5 * float(np.sum(p**2)), x, 2 * x)
    assert not report.passed


def test_grad_check_nonfinite_raises():
    x = np.array([1.0])
    with pytest.raises(EvaluationError):
        grad_check(lambda p: float("nan"), x, x)
