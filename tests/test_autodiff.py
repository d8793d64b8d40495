"""The gradient engine: the objective's `backward`, the trace's pullback, and `add_rows`."""

import numpy as np
import pytest

from fed3cr import autodiff as ad
from fed3cr.model import forward_pass, init_client, init_client_net
from fed3cr.numerics import grad_check

RNG = np.random.default_rng(42)


def test_backward_returns_one_vjp_call_of_a_seed_of_ones():
    # the seed has the value's dtype, so a float32 objective hands its vjp
    # a float32 seed; backward returns what the vjp returns, once per call
    calls = []

    def vjp(g):
        calls.append(g)
        return [2.0 * g, None]

    total = ad.Tensor(np.float32(3.0), vjp)
    grads = total.backward()
    assert len(calls) == 1 and calls[0].dtype == np.float32 and calls[0] == 1.0
    assert grads[0] == 2.0 and grads[1] is None
    total.backward()
    assert len(calls) == 2


def test_backward_never_changes_data(fed3cr_step):
    total, trace = fed3cr_step(np.float64)
    arrays = [total.data, *trace.params.values(), trace.C_E, trace.p_E, *trace.views]
    before = [a.copy() for a in arrays]
    total.backward()
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)


def test_float32_graph_keeps_float32_grads(fed3cr_step):
    total, trace = fed3cr_step(np.float32)
    for name, grad in zip(trace.params, total.backward()):
        assert grad.dtype == np.float32, name


def test_add_rows_scatter_adds():
    # a repeated row, and -1 and 4 naming one row, must both accumulate;
    # unique indices take the gather-add-scatter path, with or without
    # scratch; a 1-D row is added into every indexed row. Each case matches
    # np.add.at bit for bit.
    cases = ((np.array([0, 2, 2, 4]), False), (np.array([-1, 4, 1, 0]), False), (np.array([3, 0, 1]), True))
    for dtype in (np.float32, np.float64):
        for idx, distinct in cases:
            assert ad.distinct_rows(idx, 5) == distinct, idx
            for rows_shape in ((idx.size, 3), (3,)):
                for scratch in (None, np.empty((idx.size, 3), dtype)):
                    out = RNG.normal(size=(5, 3)).astype(dtype)
                    rows = RNG.normal(size=rows_shape).astype(dtype)
                    expected = out.copy()
                    np.add.at(expected, idx, rows)
                    ad.add_rows(out, idx, rows, distinct, scratch)
                    assert out.tobytes() == expected.tobytes(), (dtype, idx, rows.ndim, scratch is None)


def test_gathered_rows_add_into_a_dense_gradient():
    # The positives' rows of C (through p_G) add into C's dense gradient
    # (through C_E), also when the positives repeat a row or name one row
    # as -1 and 4: the trace's pullback under a linear functional of C_E
    # and p_E, against central differences.
    state = init_client(seed=2, d=3, M=5, dtype=np.float64)
    table = RNG.normal(0, 0.5, (5, 3))
    net = init_client_net(np.random.default_rng(3), 3, dtype=np.float64)
    net.weights = [np.random.default_rng(4).normal(0, 0.5, w.shape) for w in net.weights]
    proj_c, proj_e = RNG.normal(size=(5, 3)), RNG.normal(size=3)
    for kind in ("ace", "none"):
        for positives in (np.array([0, 2, 2, 3]), np.array([-1, 4, 1, 0])):

            def value(c, kind=kind, positives=positives):
                trace = forward_pass(state, c, net, positives, enhancement=kind)
                return trace, np.sum(trace.C_E * proj_c) + trace.p_E @ proj_e

            trace, _ = value(table)
            # an empty batch: no batch rows to add
            _, d_c, *_ = trace.pullback(np.zeros(0, int), np.zeros((0, 3)), d_ce=proj_c.copy(), dp_e=proj_e.copy())
            report = grad_check(lambda c: float(value(c)[1]), table, d_c)
            assert report.passed, (kind, positives, report)


def test_logistic_saturation_no_overflow():
    with np.errstate(over="raise"):
        out = ad.logistic(np.array([40.0, -40.0, 1000.0, -1000.0]))
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out[1] == pytest.approx(0.0, abs=1e-12)
