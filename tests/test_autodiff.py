"""The gradient engine: `backward` over test-local `fused` nodes, and `add_rows`."""

import numpy as np
import pytest

from fed3cr import autodiff as ad
from fed3cr.model import forward_pass, init_client, init_client_net
from fed3cr.numerics import grad_check

RNG = np.random.default_rng(42)


# Closed-form nodes built for these tests. Each vjp returns new arrays, as
# `fused` requires: `add` copies its gradient for each parent, so a node
# that names one parent twice (add(a, a)) hands it two separate arrays.


def add(a, b):
    return ad.fused(a.data + b.data, (a, b), lambda g: (g.copy(), g.copy()))


def mul(a, b):
    return ad.fused(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def dot(a, w):
    """a @ w for a matrix `a` and a constant array `w`."""
    return ad.fused(a.data @ w, (a,), lambda g: (g @ w.T if w.ndim == 2 else np.outer(g, w),))


def total(a):
    return ad.fused(a.data.sum(), (a,), lambda g: (np.full_like(a.data, g),))


def constant(x):
    return ad.Tensor(np.asarray(x))


def check_all_inputs(build, *arrays):
    """grad_check every input of `build` (tensors in, scalar tensor out) in float64."""
    params = [ad.parameter(a.copy()) for a in arrays]
    build(*params).backward()
    for i, a in enumerate(arrays):

        def f(p, i=i):
            args = [constant(x) for x in arrays]
            args[i] = constant(p)
            return build(*args).item()

        report = grad_check(f, a, params[i].grad)
        assert report.passed, (i, report)
    return params


def test_diamond_graph_accumulates_both_paths():
    # y = sum(x * x) + sum(x): dx = 2x + 1; x feeds two paths.
    x = RNG.normal(size=5)
    (t,) = check_all_inputs(lambda a: add(total(mul(a, a)), total(a)), x)
    assert np.allclose(t.grad, 2 * x + 1)


def test_leaf_with_three_contributions():
    x = RNG.normal(size=(2, 3))
    proj = np.random.default_rng(8).normal(size=(2, 3))
    w = np.random.default_rng(9).normal(size=3)

    def build(a):
        return add(add(total(mul(a, constant(proj))), total(dot(a, w))), total(mul(a, a)))

    (t,) = check_all_inputs(build, x)
    assert np.allclose(t.grad, proj + w + 2 * x)


def test_self_add_fan_out():
    # one node names the same parent twice: both contributions add up
    x = RNG.normal(size=(3, 4))
    proj = np.random.default_rng(5).normal(size=(3, 4))
    (t,) = check_all_inputs(lambda a: total(mul(add(a, a), constant(proj))), x)
    assert np.allclose(t.grad, 2 * proj)


def test_subexpression_feeding_add_and_mul():
    x, y = RNG.normal(size=5), RNG.normal(size=5)
    proj = np.random.default_rng(6).normal(size=5)

    def build(a, b):
        s = mul(a, b)
        return add(total(mul(add(s, a), constant(proj))), total(mul(s, s)))

    check_all_inputs(build, x, y)


def test_constants_do_not_collect_grads():
    # a parent that needs no gradient gets no edge, and a node over
    # constants alone needs none itself
    c = constant(np.ones(3))
    t = ad.parameter(np.ones(3))
    product = mul(c, t)
    assert [parent for parent, _ in product._edges] == [t]
    assert not mul(c, c).requires_grad and mul(c, c)._edges == []
    total(product).backward()
    assert c.grad is None
    assert np.allclose(t.grad, np.ones(3))


def test_vjp_runs_once_per_backward():
    calls = []
    a, b = ad.parameter(RNG.normal(size=3)), ad.parameter(RNG.normal(size=3))

    def vjp(g):
        calls.append(g)
        return g * b.data, g * a.data

    total(ad.fused(a.data * b.data, (a, b), vjp)).backward()
    assert len(calls) == 1
    assert np.allclose(a.grad, b.data) and np.allclose(b.grad, a.data)


def test_none_contribution_leaves_the_parent_without_one():
    a, b = ad.parameter(np.ones(2)), ad.parameter(np.ones(2))
    total(ad.fused(a.data + b.data, (a, b), lambda g: (g.copy(), None))).backward()
    assert np.array_equal(a.grad, np.ones(2))
    assert b.grad is None


def test_dtype_preserved():
    # the root's seed gradient has the root's dtype, so a float32 graph
    # hands float32 gradients to its vjps
    seen = []
    t = ad.parameter(np.ones(3, dtype=np.float32))

    def vjp(g):
        seen.append(g.dtype)
        return (np.full_like(t.data, g),)

    out = ad.fused(t.data.sum(), (t,), vjp)
    assert out.data.dtype == np.float32
    out.backward()
    assert seen == [np.float32] and t.grad.dtype == np.float32


def _fan_out_graph(dtype):
    x = ad.parameter(RNG.normal(size=(4, 3)).astype(dtype))
    h = dot(x, RNG.normal(size=(3, 2)).astype(dtype))
    return add(add(total(mul(h, h)), total(mul(x, x))), total(add(h, h)))


def _reachable(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(parent for parent, _ in node._edges)
    return nodes


def test_backward_never_changes_data():
    loss = _fan_out_graph(np.float64)
    nodes = _reachable(loss)
    before = [node.data.copy() for node in nodes]
    loss.backward()
    for node, data in zip(nodes, before):
        assert np.array_equal(node.data, data)


def test_float32_graph_keeps_float32_grads():
    loss = _fan_out_graph(np.float32)
    loss.backward()
    for node in _reachable(loss):
        assert node.grad.dtype == np.float32
    # a float64 constant promotes the product, but not its float32 leaf's grad
    t = ad.parameter(np.ones(3, dtype=np.float32))
    total(mul(t, constant(np.full(3, 0.5)))).backward()
    assert t.grad.dtype == np.float32


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
