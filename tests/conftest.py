"""Helpers shared by the test modules, handed out as fixtures."""

import numpy as np
import pytest

from fed3cr.losses import total_loss_t
from fed3cr.model import ClientState, TransferNet, forward_pass, init_client, init_client_net
from fed3cr.numerics import grad_check


def draw_shared_blocks(seed, d, M, enhancement="ace", dtype=np.float64):
    """A seeded shared table (Normal(0, 0.01), as the server draws it) and
    the server's net for `enhancement` (None for "none")."""
    rng = np.random.default_rng(seed)
    table = rng.normal(0.0, 0.01, size=(M, d)).astype(dtype)
    return table, init_client_net(rng, d, enhancement=enhancement, dtype=dtype)


def _with_block(name, p, client, table, net):
    """(client, table, net) with the block `forward_pass` names `name` set to `p`."""
    if name == "u":
        return ClientState(client.client_id, p, client.personal_table), table, net
    if name == "V":
        return ClientState(client.client_id, client.user_embedding, p), table, net
    if name == "C":
        return client, p, net
    net = TransferNet(list(net.weights), list(net.biases))
    (net.weights if name[0] == "w" else net.biases)[int(name[1:])] = p
    return client, table, net


def build_fed3cr_step(dtype=np.float32, seed=0):
    """A Fed3CR step at toy shape (96 items, d=16): (objective node, trace)."""
    m, d = 96, 16
    state = init_client(seed=seed, d=d, M=m, dtype=dtype)
    rng = np.random.default_rng(seed)
    table = rng.normal(0, 0.01, (m, d)).astype(dtype)
    net = init_client_net(rng, d, dtype=dtype)
    trace = forward_pass(state, table, net, np.arange(0, m, 12), enhancement="ace")
    items = np.arange(40)
    total, _ = total_loss_t(trace, items, (items % 5 == 0).astype(int), beta_a=0.5, beta_o=0.5)
    return total, trace


def sum_views(trace):
    """V_F, the fused scoring table: the sum of the trace's views."""
    return sum(trace.views[1:], trace.views[0])


def check_block_gradients(client, table, net, build, names=None, **tolerances):
    """grad_check the scalar from `build(client, table, net) -> (total, trace)`
    against every trainable block in `trace.params`, or those in `names`.
    Returns the gradients `total.backward()` gave, by block name, and the
    largest relative error seen."""
    total, trace = build(client, table, net)
    grads = dict(zip(trace.params, total.backward()))
    worst = 0.0
    for name in names or trace.params:

        def f(p, name=name):
            return float(build(*_with_block(name, p, client, table, net))[0].data)

        report = grad_check(f, trace.params[name], grads[name], **tolerances)
        assert report.passed, (name, report)
        worst = max(worst, report.max_rel_error)
    return grads, worst


@pytest.fixture
def shared_blocks():
    return draw_shared_blocks


@pytest.fixture
def block_grad_check():
    return check_block_gradients


@pytest.fixture
def fed3cr_step():
    return build_fed3cr_step


@pytest.fixture
def fused_table():
    return sum_views
