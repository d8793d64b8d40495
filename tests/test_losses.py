import dataclasses
import tracemalloc

import numpy as np
import pytest

from fed3cr.autodiff import Workspace
from fed3cr.errors import DegenerateInputWarning, ShapeError
from fed3cr.federation import VARIANT_LABELS, VariantConfig
from fed3cr.losses import (
    LOG_FLOOR,
    NORM_FLOOR,
    PRED_CLAMP,
    _bce,
    _consistency_term,
    consistency_loss,
    orthogonality_loss,
    rec_loss,
    top_one_distribution,
    total_loss_t,
)
from fed3cr.model import forward_pass, init_client, init_client_net
from fed3cr.numerics import grad_check


def test_rec_loss_half_probability():
    assert rec_loss(np.array([0.5]), np.array([1])) == pytest.approx(0.6931, abs=1e-4)


def test_rec_loss_perfect_predictions():
    loss = rec_loss(np.array([1.0 - 1e-9, 1e-9]), np.array([1, 0]))
    assert loss == pytest.approx(0.0, abs=1e-5)


def test_rec_loss_batch_matches_per_example_oracle():
    preds = np.array([0.8, 0.3, 0.6])
    labels = np.array([1, 0, 1])
    oracle = 0.0
    for p, r in zip(preds, labels):
        oracle += -(r * np.log(p) + (1 - r) * np.log(1 - p))
    assert rec_loss(preds, labels) == pytest.approx(oracle, abs=1e-12)


def test_rec_loss_shape_error():
    with pytest.raises(ShapeError):
        rec_loss(np.array([0.5]), np.array([1, 0]))


def test_top_one_uniform_when_rows_identical():
    proto = np.array([1.0, 2.0])
    table = np.tile(proto, (4, 1))
    assert np.allclose(top_one_distribution(proto, table), np.full(4, 0.25))


def test_top_one_analytic_softmax():
    # rows at cosine 1 and 0 from the prototype
    proto = np.array([1.0, 0.0])
    table = np.array([[2.0, 0.0], [0.0, 3.0]])
    assert np.allclose(top_one_distribution(proto, table), [0.7311, 0.2689], atol=1e-4)


def test_top_one_literal_ratio_matches_clamp_normalize_oracle():
    rng = np.random.default_rng(0)
    proto = rng.normal(size=3)
    table = rng.normal(size=(5, 3))
    out = top_one_distribution(proto, table, mode="literal-ratio")
    cos = np.array(
        [proto @ r / (np.linalg.norm(proto) * np.linalg.norm(r)) for r in table]
    )
    clamped = np.clip(cos, 1e-6, 1.0)
    assert np.allclose(out, clamped / clamped.sum(), atol=1e-9)


def test_top_one_sums_to_one_both_modes():
    rng = np.random.default_rng(1)
    proto = rng.normal(size=4)
    table = rng.normal(size=(7, 4))
    for mode in ("softmax", "literal-ratio"):
        assert top_one_distribution(proto, table, mode).sum() == pytest.approx(1.0, abs=1e-7)


def test_top_one_degenerate_table_warns_uniform():
    proto = np.array([1.0, 0.0])
    with pytest.warns(DegenerateInputWarning):
        out = top_one_distribution(proto, np.zeros((3, 2)))
    assert np.allclose(out, np.full(3, 1 / 3))


def test_consistency_matching_uniform_is_shared_entropy():
    half = np.array([0.5, 0.5])
    assert consistency_loss(half, half) == pytest.approx(0.6931, abs=1e-4)


def test_consistency_one_hot_match_is_zero():
    one_hot = np.array([1.0, 0.0])
    assert consistency_loss(one_hot, one_hot) == pytest.approx(0.0, abs=1e-9)


def test_consistency_direct_formula_oracle():
    # -0.5*sum(Pp*log(Pg)) - 0.5*sum(Pg*log(Pp)) evaluated by hand
    pp, pg = np.array([0.9, 0.1]), np.array([0.1, 0.9])
    oracle = -0.5 * float(pp @ np.log(pg)) - 0.5 * float(pg @ np.log(pp))
    assert oracle == pytest.approx(2.0829, abs=1e-3)
    assert consistency_loss(pp, pg) == pytest.approx(oracle, abs=1e-12)


def test_consistency_symmetry_exact():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        assert consistency_loss(p, q) == consistency_loss(q, p)


def test_consistency_lower_bound_is_average_entropy():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4)) * 0.9 + 0.025  # bounded away from 0
        q = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
        p, q = p / p.sum(), q / q.sum()
        h_avg = -0.5 * float(p @ np.log(p)) - 0.5 * float(q @ np.log(q))
        assert consistency_loss(p, q) >= h_avg - 1e-12
    p = rng.dirichlet(np.ones(4))
    assert consistency_loss(p, p) == pytest.approx(-float(p @ np.log(p)), abs=1e-9)


def test_orthogonality_hand_case():
    c_e = np.array([[1.0, 0.0]])
    v = np.array([[0.0, 1.0]])
    assert orthogonality_loss(c_e, v) == 0.5


def test_orthogonality_zero_table():
    c_e = np.random.default_rng(4).normal(size=(3, 2))
    assert orthogonality_loss(c_e, np.zeros_like(c_e)) == 0.0


def test_orthogonality_on_constructed_orthogonal_columns():
    # columns of c_e span e1/e2 of R^4, columns of v span e3/e4
    c_e = np.array([[1.0, 2.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    v = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 1.0], [1.0, -2.0]])
    assert orthogonality_loss(c_e, v) == pytest.approx(0.0, abs=1e-10)


def test_orthogonality_rotation_invariance():
    rng = np.random.default_rng(5)
    c_e, v = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    assert orthogonality_loss(c_e @ q, v @ q) == pytest.approx(
        orthogonality_loss(c_e, v), abs=1e-6
    )


def test_orthogonality_zero_iff_columns_orthogonal():
    # columns live in R^M: disjoint row support makes every cross inner product 0
    c_e = np.array([[1.0, 2.0], [0.0, 0.0]])
    v_orth = np.array([[0.0, 0.0], [3.0, -1.0]])
    v_not = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert orthogonality_loss(c_e, v_orth) == 0.0
    assert orthogonality_loss(c_e, v_not) > 0.0


def make_trace(seed=9, d=4, m=6):
    """A client, the shared table and net it scores with, its positives and
    the forward trace, with every block drawn at a scale where finite
    differences are reliable."""
    rng = np.random.default_rng(seed + 100)
    state = init_client(seed=seed, d=d, M=m, dtype=np.float64)
    state.user_embedding = rng.normal(0, 0.5, d)
    table = rng.normal(0, 0.5, (m, d))
    state.personal_table = rng.normal(0, 0.5, (m, d))
    net = init_client_net(rng, d, dtype=np.float64)
    net.weights[-1] = rng.normal(0, 0.3, net.weights[-1].shape)
    net.biases[-1] = rng.normal(0, 0.3, net.biases[-1].shape)
    positives = np.array([0, 2, 4])
    return state, table, net, positives, forward_pass(state, table, net, positives)


def test_total_reduces_to_rec_when_betas_zero():
    *_, trace = make_trace()
    items, labels = np.array([0, 1, 2]), np.array([1, 0, 1])
    _, breakdown = total_loss_t(trace, items, labels, beta_a=0.0, beta_o=0.0)
    assert breakdown.total == breakdown.l_rec
    assert breakdown.l_a == 0.0
    assert breakdown.l_o == 0.0


def test_total_is_weighted_component_sum():
    *_, trace = make_trace()
    items, labels = np.array([0, 1, 2, 3, 5]), np.array([1, 0, 1, 0, 0])
    _, b = total_loss_t(trace, items, labels, beta_a=0.7, beta_o=0.3)
    assert b.total == pytest.approx(b.l_rec + 0.7 * b.l_a + 0.3 * b.l_o, abs=1e-9)


@pytest.mark.parametrize("eq12_mode", ["softmax", "literal-ratio"])
@pytest.mark.parametrize("complementarity", ["orthogonal", "l2-distance"])
def test_total_gradients_pass_grad_check(eq12_mode, complementarity, block_grad_check):
    state, table, net, positives, _ = make_trace()
    items, labels = np.array([0, 1, 2, 3, 5]), np.array([1, 0, 1, 0, 0])

    def build(client, table, net):
        trace = forward_pass(client, table, net, positives, enhancement="ace")
        return total_loss_t(
            trace,
            items,
            labels,
            beta_a=0.7,
            beta_o=0.4,
            eq12_mode=eq12_mode,
            complementarity_kind=complementarity,
        )[0], trace

    block_grad_check(state, table, net, build)


# (label, enhancement kind, eq12 mode, shared workspace, complementarity):
# every label with its own flags (the two row maps among them), once more
# with the other auxiliary-loss options where it has l_a or l_o. With a shared
# workspace, every pass of the check (the traced one and each finite
# difference) reuses one Workspace, as a client's steps do: the leaves'
# gradients must not sit in a buffer a later forward pass overwrites.
OBJECTIVE_CASES = [
    case
    for label, (kind, l_a, l_o, _) in VARIANT_LABELS.items()
    for case in [(label, kind, "softmax", False, "orthogonal")]
    + ([(label, kind, "literal-ratio", True, "l2-distance")] if l_a or l_o else [])
]


@pytest.mark.parametrize(
    "label, kind, eq12_mode, shared, complementarity",
    OBJECTIVE_CASES,
    ids=["-".join(str(part) for part in case) for case in OBJECTIVE_CASES],
)
def test_objective_node_gradients_for_every_variant(label, kind, eq12_mode, shared, complementarity, block_grad_check):
    variant = dataclasses.replace(
        VariantConfig.from_label(label), enhancement_kind=kind, complementarity_kind=complementarity
    )
    state, table, net, positives, _ = make_trace(m=9)
    if kind in ("consensus-transfer", "unified-transfer"):
        # a row-map net, drawn at unit scale: its near-identity init puts hidden
        # pre-activations within a finite-difference step of the ReLU kink
        rng = np.random.default_rng(7)
        net = init_client_net(rng, 4, enhancement=kind, dtype=np.float64)
        net.weights = [rng.normal(0, 0.5, w.shape) for w in net.weights]
        net.biases = [rng.normal(0, 0.5, b.shape) for b in net.biases]
    if not variant.personal_table:
        state.personal_table = None
    consensus = table.copy()  # the frozen download of a federated-MF client
    items, labels = np.array([0, 3, 3, 5, 8]), np.array([1, 0, 0, 1, 0])
    workspace = Workspace() if shared else None

    def build(client, table, net):
        trace = forward_pass(client, table, net, positives, enhancement=kind, consensus=consensus, workspace=workspace)
        total, _ = total_loss_t(
            trace,
            items,
            labels,
            beta_a=0.7,
            beta_o=0.4,
            eq12_mode=eq12_mode,
            consistency_enabled=variant.consistency_enabled,
            orthogonality_enabled=variant.orthogonality_enabled,
            complementarity_kind=complementarity,
            workspace=workspace,
        )
        return total, trace

    block_grad_check(state, table, net, build)


def test_fed3cr_step_gives_each_param_one_gradient(fed3cr_step):
    # The step's trainable arrays are plain arrays, in the order u, C, V, w0,
    # b0, w1, b1, and the objective's backward returns one gradient for
    # each, of its array's shape and dtype.
    total, trace = fed3cr_step()
    assert list(trace.params) == ["u", "C", "V", "w0", "b0", "w1", "b1"]
    grads = total.backward()
    assert len(grads) == len(trace.params)
    for (name, param), grad in zip(trace.params.items(), grads):
        assert type(param) is np.ndarray, name
        assert grad.shape == param.shape and grad.dtype == np.float32, name


# -- closed-form gradients of the objective's pieces ---------------------------------


def check_consistency_op(blocks, mode, check=(0, 1, 2, 3)):
    """grad_check the consistency term's closed-form gradients w.r.t. each
    input in `check` (order: personal prototype, personal table, global
    prototype, global table)."""
    grads = _consistency_term(*blocks, mode=mode)[1](1.0)
    for i in check:

        def f(p, i=i):
            args = list(blocks)
            args[i] = p
            return float(_consistency_term(*args, mode=mode)[0])

        report = grad_check(f, blocks[i], grads[i])
        assert report.passed, (mode, i, report)


@pytest.mark.parametrize("eq12_mode", ["softmax", "literal-ratio"])
def test_fused_consistency_op_grad_check(eq12_mode):
    rng = np.random.default_rng(10)
    blocks = (rng.normal(size=4), rng.normal(size=(7, 4)), rng.normal(size=4), rng.normal(size=(7, 4)))
    check_consistency_op(blocks, eq12_mode)


def test_fused_consistency_op_at_log_floor():
    # Softmax of cosines never drops below exp(-2)/M, so only literal-ratio on
    # more than 1e6 rows puts entries under LOG_FLOOR: rows clamped at 1e-6
    # weigh 1e-6 / (sum of clamped cosines). The gradient must then skip those
    # entries' 1/p term, as the clamp does.
    rng = np.random.default_rng(11)
    m, floored = 1_200_000, 100_000
    v = np.array([1.0, 0.25]) + rng.normal(0.0, 0.01, size=(m, 2))
    v[:floored] *= -1.0  # negative cosine: clamped, then floored
    c = np.array([0.8, -0.1]) + rng.normal(0.0, 0.01, size=(m, 2))
    blocks = (np.array([1.0, 0.3]), v, np.array([0.8, -0.2]), c)
    dist = top_one_distribution(blocks[0], v, mode="literal-ratio")
    assert dist[:floored].max() < LOG_FLOOR
    check_consistency_op(blocks, "literal-ratio", check=(0, 2))


@pytest.mark.parametrize("eq12_mode", ["softmax", "literal-ratio"])
@pytest.mark.parametrize("side", [4.0, 0.25])
def test_cosine_guard_on_each_side_of_the_norm_floor(eq12_mode, side):
    # One personal-table row and the global prototype, scaled to `side`
    # times NORM_FLOOR in squared norm. Above the floor they keep their
    # gradients; below it each is a constant cosine of 0, as a zero vector
    # is, with zero gradient. Their central differences step by 1e-3 of
    # their norm, so no step crosses the floor.
    rng = np.random.default_rng(12)
    blocks = [rng.normal(size=4), rng.normal(size=(7, 4)), rng.normal(size=4), rng.normal(size=(7, 4))]
    small = np.sqrt(side * NORM_FLOOR)
    blocks[1][2] *= small / np.linalg.norm(blocks[1][2])
    blocks[2] *= small / np.linalg.norm(blocks[2])
    loss, vjp = _consistency_term(*blocks, mode=eq12_mode)
    grads = vjp(1.0)

    def f_row(p):
        v = blocks[1].copy()
        v[2] = p
        return float(_consistency_term(blocks[0], v, *blocks[2:], mode=eq12_mode)[0])

    def f(i):
        return lambda p: float(_consistency_term(*blocks[:i], p, *blocks[i + 1 :], mode=eq12_mode)[0])

    checks = [
        grad_check(f_row, blocks[1][2], grads[1][2], eps=1e-3 * small),
        grad_check(f(2), blocks[2], grads[2], eps=1e-3 * small),
        grad_check(f(0), blocks[0], grads[0]),
        grad_check(f(3), blocks[3], grads[3]),
    ]
    assert all(report.passed for report in checks), checks
    if side > 1.0:
        assert checks[0].checked == checks[1].checked == 4
    else:
        assert not grads[1][2].any() and not grads[2].any() and not grads[3].any()
        zeroed = [blocks[0], blocks[1].copy(), np.zeros(4), blocks[3]]
        zeroed[1][2] = 0.0
        zero_loss, zero_vjp = _consistency_term(*zeroed, mode=eq12_mode)
        assert zero_loss == loss
        assert all(np.array_equal(a, b) for a, b in zip(zero_vjp(1.0), grads))


@pytest.mark.parametrize("kind", ["none", "ace"])
def test_warm_objective_gathers_the_batch_rows_without_temporaries(kind):
    # At ML-1M shape, a warm l_rec-only objective (C0, C1) gathers both
    # views' batch rows into workspace buffers: its traced allocations peak
    # below one |batch| x d array.
    m, d = 3706, 32
    rng = np.random.default_rng(0)
    state = init_client(0, d, m)
    table = rng.normal(0, 0.01, (m, d)).astype(np.float32)
    workspace = Workspace()
    net = init_client_net(rng, d)
    trace = forward_pass(state, table, net, rng.choice(m, 177, replace=False), enhancement=kind, workspace=workspace)
    items, labels = rng.choice(m, 885), (np.arange(885) < 177).astype(int)
    total_loss_t(trace, items, labels, 0.0, 0.0, workspace=workspace)
    tracemalloc.start()
    try:
        _, warm = total_loss_t(trace, items, labels, 0.0, 0.0, workspace=workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(warm.total)
    assert peak < items.size * d * 4, peak
    with pytest.raises(IndexError):
        total_loss_t(trace, np.array([0, m]), np.array([1, 0]), 0.0, 0.0, workspace=workspace)


def test_fused_bce_zero_gradient_when_clamped():
    x = np.array([0.0, 1e-9, 0.3, 0.6, 1.0 - 1e-9, 1.0])
    labels = np.array([1, 0, 1, 0, 1, 0])
    grad = _bce(x, labels)[1]
    clamped = (x < PRED_CLAMP) | (x > 1.0 - PRED_CLAMP)
    assert np.all(grad[clamped] == 0.0)
    assert np.all(grad[~clamped] != 0.0)

    inner = x[~clamped]
    report = grad_check(lambda p: rec_loss(p, labels[~clamped]), inner, _bce(inner, labels[~clamped])[1])
    assert report.passed, report
