"""Finite-difference checks for every tape primitive, plus graph plumbing."""

import numpy as np
import pytest

from fed3cr import autodiff as ad
from fed3cr.numerics import grad_check

RNG = np.random.default_rng(42)


def add(a, b):
    """a + b as a node that hands its one gradient array to both parents
    (summed over broadcast axes): the fan-out shape `backward` must never
    write into. The library records no such op, so its tests build it."""
    a, b = ad._pair(a, b)
    return ad.Tensor(
        a.data + b.data,
        _edges=((a, lambda g: ad._unbroadcast(g, a.shape)), (b, lambda g: ad._unbroadcast(g, b.shape))),
    )


def check_unary(op, x, rtol=1e-5, **kwargs):
    """Project the op's output onto a fixed random direction and compare the
    tape gradient against central differences."""
    out_shape = op(ad.as_tensor(x), **kwargs).data.shape
    proj = np.random.default_rng(0).normal(size=out_shape)

    def f(p):
        return ad.tsum(ad.mul(op(ad.as_tensor(p), **kwargs), proj)).item()

    t = ad.parameter(x)
    loss = ad.tsum(ad.mul(op(t, **kwargs), proj))
    loss.backward()
    report = grad_check(f, x, t.grad, rtol=rtol)
    assert report.passed, report


def test_add_mul_broadcasting():
    a = RNG.normal(size=(4, 3))
    b = RNG.normal(size=3) + 2.0
    proj = np.random.default_rng(1).normal(size=(4, 3))

    for op in (add, ad.mul):
        ta, tb = ad.parameter(a), ad.parameter(b)
        loss = ad.tsum(ad.mul(op(ta, tb), proj))
        loss.backward()

        def fa(p, op=op):
            return ad.tsum(ad.mul(op(ad.as_tensor(p), ad.as_tensor(b)), proj)).item()

        def fb(p, op=op):
            return ad.tsum(ad.mul(op(ad.as_tensor(a), ad.as_tensor(p)), proj)).item()

        assert grad_check(fa, a, ta.grad).passed
        assert grad_check(fb, b, tb.grad).passed


def test_matmul_grads_all_arities():
    cases = [
        (RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2))),
        (RNG.normal(size=(3, 4)), RNG.normal(size=4)),
        (RNG.normal(size=4), RNG.normal(size=(4, 2))),
        (RNG.normal(size=4), RNG.normal(size=4)),
    ]
    for a, b in cases:
        out_shape = (np.asarray(a) @ np.asarray(b)).shape
        proj = np.random.default_rng(2).normal(size=out_shape) if out_shape else 1.0
        ta, tb = ad.parameter(a), ad.parameter(b)
        loss = ad.tsum(ad.mul(ad.matmul(ta, tb), proj))
        loss.backward()

        def fa(p):
            return ad.tsum(ad.mul(ad.matmul(ad.as_tensor(p), ad.as_tensor(b)), proj)).item()

        def fb(p):
            return ad.tsum(ad.mul(ad.matmul(ad.as_tensor(a), ad.as_tensor(p)), proj)).item()

        assert grad_check(fa, a, ta.grad).passed
        assert grad_check(fb, b, tb.grad).passed


def test_gather_rows_scatter_adds():
    x = RNG.normal(size=(5, 3))
    proj = np.random.default_rng(3).normal(size=(4, 3))
    # a repeated row, and -1 and 4 naming one row: gradients must accumulate
    for idx in (np.array([0, 2, 2, 4]), np.array([-1, 4, 1, 0])):
        t = ad.parameter(x)
        loss = ad.tsum(ad.mul(ad.gather_rows(t, idx), proj))
        loss.backward()

        def f(p):
            return ad.tsum(ad.mul(ad.gather_rows(ad.as_tensor(p), idx), proj)).item()

        assert grad_check(f, x, t.grad).passed


def test_reductions_and_shapes():
    x = RNG.normal(size=(4, 3))
    for op, kwargs in [
        (ad.tsum, {}),
        (ad.tsum, {"axis": 0}),
        (ad.tsum, {"axis": 1}),
        (ad.tmean, {"axis": 0}),
        (ad.transpose, {}),
    ]:
        check_unary(op, x, **kwargs)


def test_diamond_graph_accumulates_both_paths():
    # y = sum(x * x) + sum(x): dx = 2x + 1; x feeds two paths.
    x = RNG.normal(size=5)
    t = ad.parameter(x)
    loss = add(ad.tsum(ad.mul(t, t)), ad.tsum(t))
    loss.backward()
    assert np.allclose(t.grad, 2 * x + 1)


def test_constants_do_not_collect_grads():
    c = ad.as_tensor(np.ones(3))
    t = ad.parameter(np.ones(3))
    loss = ad.tsum(ad.mul(c, t))
    loss.backward()
    assert c.grad is None
    assert np.allclose(t.grad, np.ones(3))


def test_logistic_saturation_no_overflow():
    with np.errstate(over="raise"):
        out = ad.logistic(np.array([40.0, -40.0, 1000.0, -1000.0]))
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out[1] == pytest.approx(0.0, abs=1e-12)


def test_dtype_preserved():
    t = ad.parameter(np.ones(3, dtype=np.float32))
    out = ad.mul(add(t, 1.0), 2.0)
    assert out.data.dtype == np.float32


# -- fan-out shapes that in-place gradient accumulation could get wrong --------------


def check_all_inputs(build, *arrays):
    """grad_check every input of `build` (tensors in, scalar tensor out) in float64."""
    params = [ad.parameter(a.copy()) for a in arrays]
    build(*params).backward()
    for i, a in enumerate(arrays):

        def f(p, i=i):
            args = [ad.as_tensor(x) for x in arrays]
            args[i] = ad.as_tensor(p)
            return build(*args).item()

        report = grad_check(f, a, params[i].grad)
        assert report.passed, (i, report)
    return params


def test_self_add_fan_out():
    # add hands the same gradient array to both of its (identical) parents
    x = RNG.normal(size=(3, 4))
    proj = np.random.default_rng(5).normal(size=(3, 4))
    (t,) = check_all_inputs(lambda a: ad.tsum(ad.mul(add(a, a), proj)), x)
    assert np.allclose(t.grad, 2 * proj)


def test_subexpression_feeding_add_and_mul():
    x, y = RNG.normal(size=5), RNG.normal(size=5)
    proj = np.random.default_rng(6).normal(size=5)

    def build(a, b):
        s = ad.mul(a, b)
        return add(ad.tsum(ad.mul(add(s, a), proj)), ad.tsum(ad.mul(s, s)))

    check_all_inputs(build, x, y)


def test_tsum_broadcast_grad_reaching_two_consumers():
    # tsum's gradient reaches both operands of the add as one shared array;
    # x then gets two more contributions and must not write into it.
    x, y = RNG.normal(size=(4, 3)), RNG.normal(size=(4, 3))
    proj = np.random.default_rng(7).normal(size=3)

    def build(a, b):
        col = ad.tsum(add(a, b), axis=0)
        return add(ad.tsum(ad.mul(col, proj)), ad.tsum(ad.mul(a, a)))

    _, ty = check_all_inputs(build, x, y)
    assert np.array_equal(ty.grad, np.broadcast_to(proj, (4, 3)))


def test_leaf_with_three_contributions():
    x = RNG.normal(size=(2, 3))
    proj = np.random.default_rng(8).normal(size=(2, 3))
    w = np.random.default_rng(9).normal(size=3)

    def build(a):
        return add(
            add(ad.tsum(ad.mul(a, proj)), ad.tsum(ad.matmul(a, w))), ad.tsum(ad.mul(a, a))
        )

    check_all_inputs(build, x)


def test_gathered_rows_add_into_a_dense_gradient():
    # The table also gets a dense gradient: fresh from a matmul, which backward
    # may add the rows into in place, or tsum's read-only broadcast view, which
    # it must not write into. The rows repeat a row, or name one row as -1 and 4.
    x = RNG.normal(size=(5, 3))
    k = np.random.default_rng(10).normal(size=(3, 2))
    proj = np.random.default_rng(11).normal(size=(4, 3))
    dense_terms = (lambda a: ad.tsum(ad.mul(ad.matmul(a, k), k[0])), ad.tsum)
    for idx in (np.array([0, 2, 2, 3]), np.array([-1, 4, 1, 0])):
        for dense in dense_terms:
            for rows_first in (True, False):

                def build(a, idx=idx, dense=dense, rows_first=rows_first):
                    rows = ad.tsum(ad.mul(ad.gather_rows(a, idx), proj))
                    return add(rows, dense(a)) if rows_first else add(dense(a), rows)

                check_all_inputs(build, x)


def _fan_out_graph(dtype):
    x = ad.parameter(RNG.normal(size=(4, 3)).astype(dtype))
    w = ad.parameter(RNG.normal(size=(3, 2)).astype(dtype))
    h = ad.matmul(x, w)
    col = ad.tsum(add(h, h), axis=0)
    rows = ad.gather_rows(x, np.array([0, 2, 2, 3]))
    loss = add(
        add(ad.tsum(ad.mul(col, col)), ad.tsum(ad.mul(rows, rows))),
        ad.tmean(ad.mul(add(x, 1.0), x)),
    )
    return loss


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
    ad.tsum(ad.mul(t, np.full(3, 0.5))).backward()
    assert t.grad.dtype == np.float32
