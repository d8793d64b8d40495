"""Helpers shared by the test modules, handed out as fixtures."""

import numpy as np
import pytest

from fed3cr.model import ClientState, init_client_net
from fed3cr.numerics import grad_check


def draw_shared_blocks(seed, d, M, enhancement="ace", ace_init="zero", dtype=np.float64):
    """A seeded shared table (Normal(0, 0.01), as the server draws it) and
    the server's net for `enhancement` (None for "none")."""
    rng = np.random.default_rng(seed)
    table = rng.normal(0.0, 0.01, size=(M, d)).astype(dtype)
    return table, init_client_net(rng, d, (2, 4), ace_init=ace_init, enhancement=enhancement, dtype=dtype)


def _with_block(name, p, client, table, net):
    """(client, table, net) with the block `forward_pass` names `name` set to `p`."""
    if name == "u":
        return ClientState(client.client_id, p, client.personal_table), table, net
    if name == "V":
        return ClientState(client.client_id, client.user_embedding, p), table, net
    if name == "C":
        return client, p, net
    net = net.copy()
    (net.weights if name[0] == "w" else net.biases)[int(name[1:])] = p
    return client, table, net


def sum_views(trace):
    """V_F, the fused scoring table: the sum of the trace's views."""
    return sum(trace.views[1:], trace.views[0])


def check_block_gradients(client, table, net, build, names=None, **tolerances):
    """grad_check the scalar from `build(client, table, net) -> (total, trace)`
    against every trainable block in `trace.params`, or those in `names`.
    Returns the trace and the largest relative error seen."""
    total, trace = build(client, table, net)
    total.backward()
    worst = 0.0
    for name in names or trace.params:
        tensor = trace.params[name]

        def f(p, name=name):
            return build(*_with_block(name, p, client, table, net))[0].item()

        report = grad_check(f, tensor.data, tensor.grad, **tolerances)
        assert report.passed, (name, report)
        worst = max(worst, report.max_rel_error)
    return trace, worst


@pytest.fixture
def shared_blocks():
    return draw_shared_blocks


@pytest.fixture
def block_grad_check():
    return check_block_gradients


@pytest.fixture
def fused_table():
    return sum_views
