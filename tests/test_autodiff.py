"""The gradient engine: one `fused` node's `backward` over its leaves, and `add_rows`."""

import numpy as np
import pytest

from fed3cr import autodiff as ad
from fed3cr.model import forward_pass, init_client, init_client_net
from fed3cr.numerics import grad_check

RNG = np.random.default_rng(42)


def test_vjp_runs_once_per_backward():
    calls = []
    a, b = ad.parameter(RNG.normal(size=3)), ad.parameter(RNG.normal(size=3))

    def vjp(g):
        calls.append(g)
        return g * b.data, g * a.data

    node = ad.fused(np.sum(a.data * b.data), (a, b), vjp)
    node.backward()
    assert len(calls) == 1
    assert np.allclose(a.grad, b.data) and np.allclose(b.grad, a.data)
    # a second backward sets the gradients again; nothing adds into the first
    node.backward()
    assert len(calls) == 2
    assert np.allclose(a.grad, b.data) and np.allclose(b.grad, a.data)
    assert node.grad is None


def test_none_contribution_leaves_the_parent_without_one():
    a, b = ad.parameter(np.ones(2)), ad.parameter(np.ones(2))
    ad.fused(np.sum(a.data + b.data), (a, b), lambda g: (np.full(2, g), None)).backward()
    assert np.array_equal(a.grad, np.ones(2))
    assert b.grad is None


def test_dtype_preserved():
    # the seed gradient has the node's dtype, so a float32 objective hands
    # its vjp a float32 seed; a float64 contribution is cast to its float32 leaf's dtype
    seen = []
    t = ad.parameter(np.ones(3, dtype=np.float32))

    def vjp(g):
        seen.append(g.dtype)
        return (np.full(3, 0.5, dtype=np.float64),)

    out = ad.fused(t.data.sum(), (t,), vjp)
    assert out.data.dtype == np.float32
    out.backward()
    assert seen == [np.float32] and t.grad.dtype == np.float32


def test_fused_takes_leaves_only():
    # a node under a node would leave its own leaves without a gradient
    a = ad.parameter(RNG.normal(size=3))
    inner = ad.fused(np.sum(a.data), (a,), lambda g: (np.full(3, g),))
    with pytest.raises(ValueError):
        ad.fused(inner.data * 2.0, (inner,), lambda g: (2.0 * g,))


def test_backward_never_changes_data(fed3cr_step):
    total, trace = fed3cr_step(np.float64)
    arrays = [total.data, *(leaf.data for leaf in trace.params.values()), trace.C_E, trace.p_E, *trace.views]
    before = [a.copy() for a in arrays]
    total.backward()
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)


def test_float32_graph_keeps_float32_grads(fed3cr_step):
    total, trace = fed3cr_step(np.float32)
    total.backward()
    for name, leaf in trace.params.items():
        assert leaf.grad.dtype == np.float32, name


def test_add_rows_scatter_adds():
    # a repeated row, and -1 and 4 naming one row, must both accumulate;
    # unique indices take the gather-add-scatter path, with or without scratch
    for idx in (np.array([0, 2, 2, 4]), np.array([-1, 4, 1, 0]), np.array([3, 0, 1])):
        for scratch in (None, np.empty((idx.size, 3))):
            out = RNG.normal(size=(5, 3))
            rows = RNG.normal(size=(idx.size, 3))
            expected = out.copy()
            np.add.at(expected, idx, rows)
            ad.add_rows(out, idx, rows, scratch)
            assert np.allclose(out, expected, rtol=0, atol=1e-15), (idx, scratch is None)


def test_gathered_rows_add_into_a_dense_gradient():
    # The positives' rows of C (through p_G) add into C's dense gradient
    # (through C_E), also when the positives repeat a row or name one row
    # as -1 and 4: the trace's pullback under a linear functional of C_E
    # and p_E, against central differences.
    state = init_client(seed=2, d=3, M=5, dtype=np.float64)
    table = RNG.normal(0, 0.5, (5, 3))
    net = init_client_net(np.random.default_rng(3), 3, (2, 4), dtype=np.float64)
    net.weights = [np.random.default_rng(4).normal(0, 0.5, w.shape) for w in net.weights]
    proj_c, proj_e = RNG.normal(size=(5, 3)), RNG.normal(size=3)
    for kind in ("ace", "none"):
        for positives in (np.array([0, 2, 2, 3]), np.array([-1, 4, 1, 0])):

            def value(c, kind=kind, positives=positives):
                trace = forward_pass(state, c, net, positives, enhancement=kind)
                return trace, np.sum(trace.C_E * proj_c) + trace.p_E @ proj_e

            trace, _ = value(table)
            _, d_c, *_ = trace.pullback({id(trace.C_E): proj_c.copy(), id(trace.p_E): proj_e.copy()})
            report = grad_check(lambda c: float(value(c)[1]), table, d_c)
            assert report.passed, (kind, positives, report)


def test_logistic_saturation_no_overflow():
    with np.errstate(over="raise"):
        out = ad.logistic(np.array([40.0, -40.0, 1000.0, -1000.0]))
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out[1] == pytest.approx(0.0, abs=1e-12)
