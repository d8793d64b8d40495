import json

import numpy as np
import pytest

import fed3cr.autodiff as ad
from fed3cr import seeding
from fed3cr.checkpoint import load_client_state, load_server_state, save_client_state, save_server_state
from fed3cr.errors import DataError, ParseError
from fed3cr.federation import ServerState
from fed3cr.losses import total_loss_t
from fed3cr.model import (
    ROW_MAP_KINDS,
    TransferNet,
    _relu,
    forward_pass,
    init_client,
    init_client_net,
    init_row_net,
    init_transfer_net,
)

def rigged_net(matrix):
    """Net whose output is the flattened `matrix` regardless of input."""
    d = matrix.shape[0]
    w0 = np.zeros((4 * d, 2 * d))
    b0 = np.zeros(4 * d)
    w1 = np.zeros((d * d, 4 * d))
    return TransferNet([w0, w1], [b0, matrix.reshape(-1).astype(np.float64)])


def rigged_identity_net(d):
    return rigged_net(np.eye(d))


def test_prototypes_singleton(shared_blocks):
    state = init_client(seed=0, d=3, M=5, dtype=np.float64)
    table, net = shared_blocks(0, 3, 5)
    trace = forward_pass(state, table, net, np.array([2]))
    assert np.array_equal(trace.p_G, table[2])
    assert np.array_equal(trace.p_P, state.personal_table[2])


def test_prototypes_mean_of_two_rows(shared_blocks):
    state = init_client(seed=0, d=2, M=2, dtype=np.float64)
    _, net = shared_blocks(0, 2, 2)
    trace = forward_pass(state, np.array([[1.0, 0.0], [0.0, 1.0]]), net, np.array([0, 1]))
    assert np.allclose(trace.p_G, [0.5, 0.5])


def test_prototypes_match_accumulate_divide_oracle(shared_blocks):
    positives = np.random.default_rng(1).choice(80, size=50, replace=False)
    state = init_client(seed=3, d=8, M=80, dtype=np.float64)
    for enhancement in ("ace", "consensus-transfer", "none"):
        table, net = shared_blocks(3, 8, 80, enhancement=enhancement)
        acc_g = np.zeros(8)
        acc_p = np.zeros(8)
        for j in positives:
            acc_g += table[j]
            acc_p += state.personal_table[j]
        trace = forward_pass(state, table, net, positives, enhancement=enhancement)
        assert np.allclose(trace.p_G, acc_g / 50, atol=1e-12)
        assert np.allclose(trace.p_P, acc_p / 50, atol=1e-12)


def test_prototypes_empty_positives(shared_blocks):
    state = init_client(seed=0, d=2, M=3, dtype=np.float64)
    table, net = shared_blocks(0, 2, 3)
    with pytest.raises(DataError):
        forward_pass(state, table, net, np.array([], dtype=np.int64))


def test_transfer_matrix_zero_final_layer(shared_blocks):
    d = 3
    state = init_client(seed=0, d=d, M=4, dtype=np.float64)
    table, _ = shared_blocks(0, d, 4)
    trace = forward_pass(state, table, rigged_net(np.zeros((d, d))), np.array([0, 1]))
    assert np.array_equal(trace.W, np.zeros((d, d)))
    assert np.array_equal(trace.C_E, np.zeros((4, d)))


def test_transfer_matrix_rigged_identity():
    d = 3
    state = init_client(seed=0, d=d, M=4, dtype=np.float64)
    state.personal_table = -np.ones((4, d))
    trace = forward_pass(state, np.ones((4, d)), rigged_identity_net(d), np.array([0, 3]))
    assert np.array_equal(trace.W, np.eye(d))


def test_transfer_matrix_gradient_wrt_theta(shared_blocks, block_grad_check):
    # The trace's pullback alone, under a random linear functional of C_E
    # and p_E: every theta block through W, C through C_E and p_G, and V
    # through p_P.
    d = 3
    rng = np.random.default_rng(7)
    state = init_client(seed=5, d=d, M=4, dtype=np.float64)
    table, net = shared_blocks(5, d, 4)
    net.weights[-1] = rng.normal(0, 0.3, net.weights[-1].shape)
    proj_c, proj_e = rng.normal(size=(4, d)), rng.normal(size=d)

    def build(client, table, net):
        trace = forward_pass(client, table, net, np.array([0, 1]), enhancement="ace")
        value = np.sum(trace.C_E * proj_c) + trace.p_E @ proj_e

        def vjp(g):
            # an empty batch: no batch rows to add
            return trace.pullback(np.zeros(0, int), np.zeros((0, d)), d_ce=g * proj_c, dp_e=g * proj_e)

        return ad.Tensor(value, vjp), trace

    grads, _ = block_grad_check(state, table, net, build, names=("C", "V", "w0", "b0", "w1", "b1"))
    assert grads["u"] is None


# (enhancement, seed, hidden widths in multiples of d, final_bias): ACE's
# net node with no, one and two hidden layers, with its output bias at zero
# and at a flattened identity (W near I, the additive-fusion point); each
# row map's at two hidden widths (its bias is left as drawn). The seeds
# matter: at seeds 9, 12, 14 and 18 the 2d-wide row net maps some row to
# exactly zero, where central differences cross the NORM_FLOOR step.
NET_NODE_CASES = [
    ("ace", seed, hidden, final_bias)
    for seed, hidden in ((11, ()), (12, (4,)), (13, (4, 2)))
    for final_bias in ("zero", "identity")
] + [(kind, seed, hidden, "zero") for kind in ROW_MAP_KINDS for seed, hidden in ((11, (4,)), (12, (4,)), (13, (2,)))]


@pytest.mark.parametrize("kind, seed, hidden, final_bias", NET_NODE_CASES)
def test_net_node_gradients(kind, seed, hidden, final_bias, block_grad_check):
    # Every theta block, and C and V, whose prototypes (ACE) or rows (row
    # maps) enter the net node, against central differences of the full
    # Fed3CR objective in float64.
    d, m = 3, 7
    rng = np.random.default_rng(seed)
    state = init_client(seed=1, d=d, M=m, dtype=np.float64)
    state.user_embedding = rng.normal(0, 0.5, d)
    state.personal_table = rng.normal(0, 0.5, (m, d))
    table = rng.normal(0, 0.5, (m, d))
    if kind == "ace":
        net = init_transfer_net(rng, 2 * d, [w * d for w in hidden], d * d, dtype=np.float64)
    else:
        (width,) = hidden
        net = init_row_net(rng, d, width * d, dtype=np.float64)
    # unit-scale weights: every ReLU pre-activation sits well clear of its kink
    net.weights = [rng.normal(0, 0.5, w.shape) for w in net.weights]
    if final_bias == "identity":
        net.biases[-1] = np.eye(d).reshape(-1)
    items, labels = np.array([0, 2, 3, 6]), np.array([1, 0, 1, 0])

    def build(client, table, net):
        trace = forward_pass(client, table, net, np.array([1, 3]), enhancement=kind)
        return total_loss_t(trace, items, labels, beta_a=0.7, beta_o=0.4)[0], trace

    grads, _ = block_grad_check(state, table, net, build)
    assert sorted(grads) == sorted(["u", "C", "V"] + [f"{b}{l}" for l in range(len(net.weights)) for b in "wb"])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [None, 3])
def test_relu_matches_the_masked_store_bit_for_bit(dtype, rows):
    # NaN of either sign, both zeros, both infinities, subnormals and
    # ordinary values: every unit not above 0 becomes +0.0 in place, with
    # the bytes the boolean-mask store out[~(out > 0)] = 0.0 gives.
    tiny = np.finfo(dtype).smallest_subnormal
    values = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1.5, -2.0, 3e-30, -3e-30], dtype=dtype)
    x = values if rows is None else np.stack([np.roll(values, r) for r in range(rows)])
    expected = x.copy()
    expected[~(x > 0)] = 0.0
    out, mask = x.copy(), np.empty(x.shape, dtype=bool)
    assert _relu(out, mask) is mask
    assert out.tobytes() == expected.tobytes()
    assert np.array_equal(mask, x > 0)


def test_enhance_identity(shared_blocks):
    state = init_client(seed=0, d=3, M=4, dtype=np.float64)
    c, _ = shared_blocks(0, 3, 4)
    net = rigged_identity_net(3)
    assert np.allclose(forward_pass(state, c, net, np.array([1])).C_E, c)


def test_enhance_matches_per_row_matvec_oracle(shared_blocks):
    rng = np.random.default_rng(1)
    state = init_client(seed=4, d=2, M=3, dtype=np.float64)
    table, initial = shared_blocks(4, 2, 3)
    for net in (rigged_net(rng.normal(size=(2, 2))), initial):
        trace = forward_pass(state, table, net, np.array([0, 2]))
        for j in range(3):
            assert np.allclose(trace.C_E[j], trace.W @ table[j], atol=1e-12)


def test_fuse_cases(shared_blocks, fused_table):
    # V_F is the enhanced shared table plus the personal table, for every
    # kind that keeps V as it is; a client without V scores its own table
    state = init_client(seed=3, d=4, M=6, dtype=np.float64)
    table, net = shared_blocks(3, 4, 6)
    net.weights[-1] = np.random.default_rng(2).normal(0, 0.4, (16, 16))
    pos = np.array([1, 4])
    trace = forward_pass(state, table, net, pos, enhancement="ace")
    assert np.array_equal(fused_table(trace), trace.C_E + state.personal_table)
    trace = forward_pass(state, table, net, pos, enhancement="none")
    assert np.array_equal(trace.C_E, table)
    assert np.array_equal(fused_table(trace), table + state.personal_table)
    _, row_net = shared_blocks(3, 4, 6, enhancement="consensus-transfer")
    trace = forward_pass(state, table, row_net, pos, enhancement="consensus-transfer")
    assert np.array_equal(fused_table(trace), trace.C_E + state.personal_table)
    single = init_client(seed=3, d=4, M=6, dtype=np.float64)
    single.personal_table = None
    trace = forward_pass(single, table, None, pos, enhancement="none")
    assert np.array_equal(fused_table(trace), table)


@pytest.mark.parametrize("kind", ["ace", "consensus-transfer", "unified-transfer", "none"])
@pytest.mark.parametrize("single", [False, True])
def test_tape_free_pass_scores_the_views_of_the_trace(kind, single, shared_blocks, fused_table):
    # tape=False runs the same passes as the trace: each view's scores are
    # the trace's view times u, and a client without V reads the frozen
    # download as its global view
    state = init_client(seed=5, d=4, M=7, dtype=np.float64)
    table, net = shared_blocks(5, 4, 7, enhancement=kind)
    rng = np.random.default_rng(5)
    if net is not None:
        net.weights[-1] = rng.normal(0, 0.4, net.weights[-1].shape)
    consensus = None
    if single:
        state.personal_table = None
        consensus = rng.normal(0, 0.01, table.shape)
    pos = np.array([0, 2, 5])
    trace = forward_pass(state, table, net, pos, enhancement=kind, consensus=consensus)
    scores = forward_pass(state, table, net, pos, enhancement=kind, consensus=consensus, tape=False)
    u = state.user_embedding
    assert np.array_equal(scores.personal, (table if single else state.personal_table) @ u)
    if single and kind == "none":
        assert scores.global_view is None
    else:
        assert np.allclose(scores.global_view, trace.views[0] @ u, rtol=1e-12, atol=1e-15)
    fused = scores.fused_personal if scores.global_view is None else scores.global_view + scores.fused_personal
    assert np.allclose(fused, fused_table(trace) @ u, rtol=1e-12, atol=1e-15)
    # A caller that kept the personal view passes p_P back: the pass reads no
    # row of V (NaN there would reach the global view through p_P) and
    # scores the global view bit for bit as before.
    if not single:
        state.personal_table = np.full_like(state.personal_table, np.nan)
    kept = forward_pass(
        state, table, net, pos, enhancement=kind, consensus=consensus, tape=False, personal=False, p_p=scores.p_P
    )
    assert kept.personal is None and kept.fused_personal is None and kept.p_P is scores.p_P
    assert (kept.global_view is None) == (scores.global_view is None)
    if kept.global_view is not None:
        assert kept.global_view.tobytes() == scores.global_view.tobytes()


def test_init_client_deterministic():
    a = init_client(seed=11, d=4, M=6, client_id=2)
    b = init_client(seed=11, d=4, M=6, client_id=2)
    assert np.array_equal(a.user_embedding, b.user_embedding)
    assert np.array_equal(a.personal_table, b.personal_table)
    nets = [init_client_net(np.random.default_rng(11), 4) for _ in range(2)]
    for w1, w2 in zip(nets[0].weights, nets[1].weights):
        assert np.array_equal(w1, w2)


def test_init_client_shapes():
    state = init_client(seed=0, d=2, M=3)
    assert state.user_embedding.shape == (2,)
    assert state.personal_table.shape == (3, 2)
    net = init_client_net(np.random.default_rng(0), 2)
    assert net.layer_shapes[0][1] == 4
    assert net.layer_shapes[-1][0] == 4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_client_personal_table_prefix_does_not_depend_on_item_count(dtype):
    small = init_client(seed=9, d=4, M=5, client_id=3, dtype=dtype)
    large = init_client(seed=9, d=4, M=12, client_id=3, dtype=dtype)
    assert small.personal_table.dtype == dtype
    assert np.array_equal(small.personal_table, large.personal_table[:5])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_client_user_embedding_keeps_its_stream(dtype):
    state = init_client(seed=9, d=4, M=5, client_id=3, dtype=dtype)
    expected = seeding.rng(9, seeding.CLIENT_INIT, 3).normal(0.0, 0.01, 4).astype(dtype)
    assert state.user_embedding.dtype == dtype
    assert np.array_equal(state.user_embedding, expected)


def test_init_client_without_personal_table_draws_none():
    with_table = init_client(seed=9, d=4, M=5, client_id=3)
    without = init_client(seed=9, d=4, M=5, client_id=3, personal_table=False)
    assert without.personal_table is None
    assert np.array_equal(without.user_embedding, with_table.user_embedding)


def test_initial_transfer_matrix_is_small(shared_blocks):
    state = init_client(seed=13, d=32, M=10, dtype=np.float64)
    table, net = shared_blocks(13, 32, 10)
    assert np.linalg.norm(forward_pass(state, table, net, np.arange(5)).W) < 0.1


def test_identity_rigged_net_reduces_to_additive_fusion(shared_blocks, fused_table):
    d, m = 3, 5
    state = init_client(seed=1, d=d, M=m, dtype=np.float64)
    table, _ = shared_blocks(1, d, m)
    trace = forward_pass(state, table, rigged_identity_net(d), np.array([0, 2]), enhancement="ace")
    assert np.allclose(fused_table(trace), table + state.personal_table)
    assert np.allclose(trace.C_E, table)
    assert np.allclose(trace.p_E, trace.p_G)


def test_forward_p_e_is_mapped_global_prototype(shared_blocks):
    state = init_client(seed=3, d=4, M=6, dtype=np.float64)
    table, net = shared_blocks(3, 4, 6)
    net.weights[-1] = np.random.default_rng(1).normal(0, 0.4, (16, 16))
    trace = forward_pass(state, table, net, np.array([1, 3, 5]), enhancement="ace")
    assert np.allclose(trace.p_E, trace.W @ trace.p_G, atol=1e-12)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    # a client file holds the private blocks only; the shared ones are the server's
    state = init_client(seed=21, d=5, M=7, client_id=9)
    path = str(tmp_path / "client.bin")
    save_client_state(path, state, seed=21, round=4)
    loaded, header = load_client_state(path)
    assert header["seed"] == 21
    assert header["round"] == 4
    assert [b["name"] for b in header["blocks"]] == ["user_embedding", "personal_table"]
    assert loaded.client_id == 9
    assert np.array_equal(loaded.user_embedding, state.user_embedding)
    assert np.array_equal(loaded.personal_table, state.personal_table)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_bytes_are_the_header_then_each_blocks_raw_bytes(tmp_path, shared_blocks, dtype):
    # the reference layout: the 8-byte little-endian header length, the
    # header, then tobytes() of each block in header order; a block that is
    # not C-contiguous (a Fortran-ordered weight here) is written in C order
    consensus, theta = shared_blocks(8, 4, 6, dtype=dtype)
    theta.weights[0] = np.asfortranarray(theta.weights[0])
    assert not theta.weights[0].flags.c_contiguous
    server = ServerState(consensus=consensus, theta=theta, round=2)
    path = tmp_path / "server.bin"
    save_server_state(str(path), server, seed=8)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[:8], "little")
    blocks = [consensus, theta.weights[0], theta.biases[0], theta.weights[1], theta.biases[1]]
    expected = raw[: 8 + header_len] + b"".join(np.ascontiguousarray(b).tobytes() for b in blocks)
    assert raw == expected
    assert load_server_state(str(path))[1]["dtype"] == np.dtype(dtype).newbyteorder("<").str


def test_checkpoint_without_net(tmp_path):
    # the server of a variant without a net writes the consensus table alone
    consensus = np.random.default_rng(1).normal(size=(4, 3)).astype(np.float32)
    path = str(tmp_path / "server.bin")
    save_server_state(path, ServerState(consensus=consensus, theta=None, round=3), seed=1)
    loaded, header = load_server_state(path)
    assert [b["name"] for b in header["blocks"]] == ["consensus"]
    assert loaded.theta is None
    assert loaded.round == 3
    assert np.array_equal(loaded.consensus, consensus)


def test_checkpoint_without_personal_table_reloads_bit_exact(tmp_path):
    state = init_client(seed=4, d=3, M=5, client_id=2)
    state.personal_table = None
    path = str(tmp_path / "mf.bin")
    save_client_state(path, state, seed=4, round=1)
    loaded, header = load_client_state(path)
    assert loaded.personal_table is None
    assert [b["name"] for b in header["blocks"]] == ["user_embedding"]
    assert np.array_equal(loaded.user_embedding, state.user_embedding)


def test_server_checkpoint_round_trip_bit_exact(tmp_path, shared_blocks):
    consensus, theta = shared_blocks(5, 4, 6, dtype=np.float32)
    server = ServerState(consensus=consensus, theta=theta, round=7)
    path = str(tmp_path / "server.bin")
    save_server_state(path, server, seed=5)
    loaded, header = load_server_state(path)
    assert header["seed"] == 5
    assert [b["name"] for b in header["blocks"]] == ["consensus", "net_w0", "net_b0", "net_w1", "net_b1"]
    assert loaded.round == 7
    assert np.array_equal(loaded.consensus, server.consensus)
    assert loaded.theta.layer_shapes == server.theta.layer_shapes
    for a, b in zip(loaded.theta.weights + loaded.theta.biases, server.theta.weights + server.theta.biases):
        assert np.array_equal(a, b)


def test_checkpoint_of_another_format_version_is_rejected(tmp_path):
    path = tmp_path / "client.bin"
    save_client_state(str(path), init_client(seed=0, d=2, M=3), seed=0, round=0)
    path.write_bytes(path.read_bytes().replace(b'"version": 2', b'"version": 1'))
    with pytest.raises(ParseError, match="version 1"):
        load_client_state(str(path))


@pytest.mark.parametrize(
    "cut, match",
    [
        (lambda raw: raw[:5], "truncated checkpoint header"),
        (lambda raw: raw[:20], "truncated checkpoint header"),
        (lambda raw: raw[:-4], "truncated payload for block personal_table"),
        (lambda raw: raw + b"\0\0\0", "3 trailing bytes"),
    ],
    ids=["length", "header", "payload", "trailing"],
)
def test_checkpoint_cut_short_or_with_trailing_bytes_is_rejected(tmp_path, cut, match):
    path = str(tmp_path / "client.bin")
    save_client_state(path, init_client(seed=0, d=2, M=3), seed=0, round=0)
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(cut(raw))
    with pytest.raises(ParseError, match=match):
        load_client_state(path)


@pytest.mark.parametrize("first", [b"x", b"\xff"], ids=["not-json", "not-utf8"])
def test_checkpoint_whose_header_is_not_json_is_rejected(tmp_path, first):
    path = str(tmp_path / "client.bin")
    save_client_state(path, init_client(seed=0, d=2, M=3), seed=0, round=0)
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw[8:9] == b"{"
    with open(path, "wb") as fh:
        fh.write(raw[:8] + first + raw[9:])
    with pytest.raises(ParseError, match="unreadable checkpoint header"):
        load_client_state(path)


def renamed_block(old, new):
    """A header edit that renames block `old` to `new`, leaving the payload as it is."""
    return lambda header: {
        **header,
        "blocks": [{**block, "name": new if block["name"] == old else block["name"]} for block in header["blocks"]],
    }


def without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


@pytest.mark.parametrize(
    "kind, edit, match",
    [
        ("client", lambda header: [header], "not a JSON object"),
        ("client", without("blocks"), "malformed checkpoint header"),
        ("client", lambda header: {**header, "dtype": "zz"}, "malformed checkpoint header"),
        ("client", lambda header: {**header, "dtype": "|O"}, "dtype '|O' is not numeric"),
        ("client", lambda header: {**header, "blocks": [{"name": "user_embedding", "shape": [-1, -1]}]}, "shape \\(-1, -1\\)"),
        ("client", lambda header: {**header, "blocks": [{"name": "user_embedding", "shape": [True, 2]}]}, "shape \\(True, 2\\)"),
        ("client", without("client_id"), "client checkpoint lacks 'client_id'"),
        ("client", renamed_block("user_embedding", "user"), "client checkpoint lacks 'user_embedding'"),
        ("server", without("round"), "server checkpoint lacks 'round'"),
        ("server", renamed_block("consensus", "table"), "server checkpoint lacks 'consensus'"),
        ("server", renamed_block("net_b0", "bias"), "server checkpoint lacks 'net_b0'"),
    ],
    ids=[
        "list",
        "no-blocks",
        "unknown-dtype",
        "object-dtype",
        "negative-shape",
        "bool-shape",
        "no-client-id",
        "no-user-embedding",
        "no-round",
        "no-consensus",
        "no-net-bias",
    ],
)
def test_checkpoint_with_a_malformed_header_is_rejected(tmp_path, kind, edit, match):
    path = tmp_path / f"{kind}.bin"
    if kind == "client":
        save_client_state(str(path), init_client(seed=0, d=2, M=3), seed=0, round=0)
    else:
        net = TransferNet([np.ones((4, 2)), np.ones((2, 4))], [np.ones(4), np.ones(2)])
        save_server_state(str(path), ServerState(np.ones((3, 2)), net, round=1), seed=0)
    raw = path.read_bytes()
    offset = 8 + int.from_bytes(raw[:8], "little")
    header = json.dumps(edit(json.loads(raw[8:offset]))).encode("utf-8")
    path.write_bytes(len(header).to_bytes(8, "little") + header + raw[offset:])
    with pytest.raises(ParseError, match=match):
        (load_client_state if kind == "client" else load_server_state)(str(path))
