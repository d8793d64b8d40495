import dataclasses
import importlib
import importlib.util
import os
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fed3cr import datasets, federation, model
from fed3cr.autodiff import Tensor, Workspace
from fed3cr.config import load_config
from fed3cr.datasets import HeldOut, NegativeSampler, build_eval_candidates, leave_one_out_split
from fed3cr.errors import AggregationError, ConfigurationError, ShapeError
from fed3cr.evaluation import RBO_P, TOP_K, metrics_csv_lines, rbo_truncated
from fed3cr.federation import (
    VARIANT_LABELS,
    EvalRecord,
    HyperParams,
    Upload,
    UploadChannel,
    VariantConfig,
    aggregate_consensus,
    aggregate_theta,
    evaluate_round,
    init_server,
    local_update,
    run_training,
    select_clients,
)
from fed3cr.losses import LossBreakdown
from fed3cr.model import ClientState, TransferNet, forward_pass, init_client, init_client_net, init_transfer_net
from fed3cr.toy import generate_toy_dataset
from tests.test_evaluation import list_rbo, list_top_k, old_ranked

TOY, TOY_HELD = leave_one_out_split(generate_toy_dataset(seed=0), seed=0)


class KeepingChannel(UploadChannel):
    """An upload channel that also keeps each Upload it carries."""

    def __init__(self):
        super().__init__()
        self.uploads: list[Upload] = []

    def send(self, round, upload):
        self.uploads.append(upload)
        return super().send(round, upload)


def net_arrays(net):
    return [] if net is None else net.weights + net.biases


def flat(net):
    return np.concatenate([a.ravel() for a in net_arrays(net)])


def make_net(seed, d, dtype=np.float32):
    return init_client_net(np.random.default_rng(seed), d, dtype=dtype)


FAST = HyperParams(
    rounds=3,
    local_iters=2,
    dim=8,
    eval_negatives=20,
    seed=0,
    lr=0.1,
    beta_a=0.5,
    beta_o=0.5,
    rbo_k=10,
)


def test_variant_labels_map_to_flags():
    grid = {
        "C0": ("none", False, False, True),
        "C1": ("ace", False, False, True),
        "C2": ("none", True, False, True),
        "C3": ("none", False, True, True),
        "C4": ("none", True, True, True),
        "C5": ("ace", True, False, True),
        "C6": ("ace", False, True, True),
        "Fed3CR": ("ace", True, True, True),
        "FedMF": ("none", False, False, False),
        "FedMF+ACE": ("ace", False, False, False),
        "consensus-transfer": ("consensus-transfer", True, True, True),
        "unified-transfer": ("unified-transfer", True, True, True),
    }
    assert set(grid) == set(VARIANT_LABELS)
    for label, (kind, la, lo, personal) in grid.items():
        v = VariantConfig.from_label(label)
        v.validate()
        assert v.enhancement_kind == kind
        assert v.consistency_enabled is la
        assert v.orthogonality_enabled is lo
        assert v.personal_table is personal


def test_variant_without_personal_table_rejects_two_view_terms():
    fedmf = VariantConfig.from_label("FedMF")
    for change in (
        {"consistency_enabled": True},
        {"orthogonality_enabled": True},
        {"enhancement_kind": "consensus-transfer"},
        {"enhancement_kind": "unified-transfer"},
    ):
        with pytest.raises(ConfigurationError, match="personal table"):
            dataclasses.replace(fedmf, **change).validate()


def mean_table(tables):
    """The streamed mean: each table added into the running sum, then divided."""
    total = None
    for table in tables:
        total = aggregate_consensus(table, total)
    return total / len(tables)


def mean_net(nets):
    total = None
    for net in nets:
        total = aggregate_theta(net, total)
    return TransferNet([w / len(nets) for w in total.weights], [b / len(nets) for b in total.biases])


def test_aggregate_consensus_cases():
    t = np.random.default_rng(0).normal(size=(3, 2))
    assert np.allclose(mean_table([t, t.copy()]), t)
    rows = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([[-1.0, 0.0]])]
    assert np.allclose(mean_table(rows), [[0.0, 1 / 3]])
    total = aggregate_consensus(t)
    assert aggregate_consensus(t, total) is total  # added in place
    with pytest.raises(ShapeError):
        aggregate_consensus(np.ones((3, 2)), aggregate_consensus(np.ones((2, 2))))


def test_aggregate_consensus_norm_convexity():
    rng = np.random.default_rng(1)
    uploads = [rng.normal(size=(4, 3)) for _ in range(5)]
    mean_norm = np.linalg.norm(mean_table(uploads))
    assert mean_norm <= max(np.linalg.norm(u) for u in uploads) + 1e-12


def test_aggregate_theta_cases():
    net = make_net(0, 4)
    single = mean_net([net])
    for w1, w2 in zip(single.weights, net.weights):
        assert np.array_equal(w1, w2)

    neg = TransferNet([-w for w in net.weights], [-b for b in net.biases])
    zero = mean_net([net, neg])
    for w in zero.weights + zero.biases:
        assert np.allclose(w, 0.0)


def test_aggregate_theta_matches_flat_mean_oracle():
    nets = [make_net(s, 3) for s in range(3)]
    merged = mean_net(nets)
    oracle = np.mean([flat(n) for n in nets], axis=0)
    assert np.allclose(flat(merged), oracle, atol=1e-7)


def test_aggregate_theta_layer_shape_mismatch():
    a = make_net(0, 4)
    b = init_transfer_net(np.random.default_rng(0), 8, [16, 32], 16)
    with pytest.raises(ConfigurationError):
        aggregate_theta(b, aggregate_theta(a))


def test_streamed_mean_is_bit_equal_to_the_stacked_mean():
    # Summed in order into zeros and divided once, as np.mean over the stack
    # does, so the server's blocks keep every bit; a -0.0 in the first
    # upload checks that the sum starts from zeros, not from a copy.
    rng = np.random.default_rng(7)
    for count in (3, 4, 32):
        tables = [rng.normal(0, 0.01, (3706, 32)).astype(np.float32) for _ in range(count)]
        tables[0][0, 0] = -0.0
        assert mean_table(tables).tobytes() == np.mean(np.stack(tables), axis=0).tobytes()
        nets = [make_net(s, 8) for s in range(count)]
        merged = mean_net(nets)
        for l in range(len(nets[0].weights)):
            stacked = np.mean(np.stack([n.weights[l] for n in nets]), axis=0)
            assert merged.weights[l].tobytes() == stacked.tobytes()
            stacked = np.mean(np.stack([n.biases[l] for n in nets]), axis=0)
            assert merged.biases[l].tobytes() == stacked.tobytes()


def test_select_clients():
    assert select_clients(10, 1.0, round=0, seed=0) == list(range(10))
    picked = select_clients(10, 0.3, round=2, seed=1)
    assert len(picked) == 3
    assert len(set(picked)) == 3
    assert picked == select_clients(10, 0.3, round=2, seed=1)
    assert picked != select_clients(10, 0.3, round=3, seed=1) or True  # usually differs
    # an exact decimal share of n picks that share, though the float
    # product 0.07 * 100 is 7.000000000000001
    for n in (100, 200, 300, 400):
        assert len(select_clients(n, 0.07, round=0, seed=0)) == 7 * n // 100
    assert len(select_clients(3, 1 / 3, round=0, seed=0)) == 1
    # the workloads' counts: 24 of 24, 20 of 200 and 32 of 256
    assert [len(select_clients(n, f, 0, 0)) for n, f in ((24, 1.0), (200, 0.1), (256, 0.125))] == [24, 20, 32]


def test_local_update_lr_zero_is_noop():
    hp = dataclasses.replace(FAST, lr=1e-300)  # effectively zero; validate() wants lr > 0
    state = init_client(0, hp.dim, TOY.num_items, client_id=0)
    sampler = NegativeSampler(TOY, 0, leaked_test_items=TOY_HELD.test_items)
    consensus = np.random.default_rng(2).normal(0, 0.01, (TOY.num_items, hp.dim)).astype(np.float32)
    theta = make_net(1, hp.dim)
    upload, _ = local_update(state, consensus, theta, sampler, hp, VariantConfig.from_label("Fed3CR"))
    assert np.allclose(upload.consensus, consensus, atol=1e-12)
    for w1, w2 in zip(upload.transfer_net.weights, theta.weights):
        assert np.allclose(w1, w2, atol=1e-12)


def test_local_update_single_item_matches_one_step_sgd_oracle():
    # one client, one train positive, no sampleable negatives, E=1, C0 path
    from fed3cr.datasets import InteractionDataset

    ds = InteractionDataset(
        num_clients=1,
        num_items=2,
        client_items=[np.array([0])],
        timestamps=None,
        user_ids=["u"],
        item_ids=["a", "b"],
    )
    hp = HyperParams(rounds=1, local_iters=1, dim=3, lr=0.5, seed=0, dtype="float64")
    state = init_client(0, 3, 2, dtype=np.float64)
    u0 = state.user_embedding.copy()
    v0 = state.personal_table.copy()
    consensus = np.random.default_rng(5).normal(0, 0.01, (2, 3))
    sampler = NegativeSampler(ds, seed=0, leaked_test_items=(1,))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        upload, _ = local_update(
            state, consensus, None, sampler, hp, VariantConfig.from_label("C0")
        )

    # oracle: single positive example, score = u . (c0 + v0), BCE gradient
    fused = consensus[0] + v0[0]
    p = 1 / (1 + np.exp(-float(u0 @ fused)))
    g_u = (p - 1.0) * fused
    g_row = (p - 1.0) * u0
    assert np.allclose(state.user_embedding, u0 - 0.5 * g_u, atol=1e-6)
    assert np.allclose(upload.consensus[0], consensus[0] - 0.5 * g_row, atol=1e-6)
    assert np.allclose(state.personal_table[0], v0[0] - 0.5 * g_row, atol=1e-6)
    # untouched rows stay exactly
    assert np.array_equal(upload.consensus[1], consensus[1])


def test_identical_clients_consensus_equals_single_upload():
    sampler = NegativeSampler(TOY, 0, leaked_test_items=TOY_HELD.test_items)
    hp = FAST
    variant = VariantConfig.from_label("Fed3CR")
    consensus = np.random.default_rng(0).normal(0, 0.01, (TOY.num_items, hp.dim)).astype(np.float32)
    theta = make_net(1, hp.dim)
    uploads = []
    for _ in range(3):  # same client id -> same data, same init, same rng stream
        state = init_client(0, hp.dim, TOY.num_items, client_id=0)
        sampler_clone = NegativeSampler(TOY, 0, leaked_test_items=TOY_HELD.test_items)
        upload, _ = local_update(state, consensus, theta, sampler_clone, hp, variant)
        uploads.append(upload.consensus)
    merged = mean_table(uploads)
    assert np.allclose(merged, uploads[0], atol=1e-7)


@pytest.mark.filterwarnings("ignore::fed3cr.errors.ReplacementSamplingWarning")
def test_local_update_trains_on_batches_cut_at_the_module_batch_size(monkeypatch):
    # local_update passes no size: the one cut is datasets.BATCH_SIZE
    monkeypatch.setattr(datasets, "BATCH_SIZE", 7)
    sampler = NegativeSampler(TOY, 0, leaked_test_items=TOY_HELD.test_items)
    drawn = []

    def recording_sample_batch(client):
        items, labels = NegativeSampler.sample_batch(sampler, client)
        drawn.append(len(items))
        return items, labels

    monkeypatch.setattr(sampler, "sample_batch", recording_sample_batch)
    consensus = np.random.default_rng(2).normal(0, 0.01, (TOY.num_items, FAST.dim)).astype(np.float32)
    state = init_client(0, FAST.dim, TOY.num_items, client_id=0)
    local_update(state, consensus, make_net(1, FAST.dim), sampler, FAST, VariantConfig.from_label("Fed3CR"))
    assert len(TOY.client_items[0]) * 5 > 7
    assert drawn == [7] * FAST.local_iters


def test_consecutive_local_updates_stay_distinct():
    # Without a workspace each call trains its own working copies: the
    # second upload neither aliases nor changes the first.
    hp = FAST
    variant = VariantConfig.from_label("Fed3CR")
    consensus = np.random.default_rng(0).normal(0, 0.01, (TOY.num_items, hp.dim)).astype(np.float32)
    theta = make_net(1, hp.dim)
    sampler = NegativeSampler(TOY, 0, leaked_test_items=TOY_HELD.test_items)
    first, _ = local_update(init_client(0, hp.dim, TOY.num_items, client_id=0), consensus, theta, sampler, hp, variant)
    held = [a.copy() for a in [first.consensus] + net_arrays(first.transfer_net)]
    second, _ = local_update(init_client(0, hp.dim, TOY.num_items, client_id=1), consensus, theta, sampler, hp, variant)
    for a, b, kept in zip([first.consensus] + net_arrays(first.transfer_net), [second.consensus] + net_arrays(second.transfer_net), held):
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, kept)
    assert not np.array_equal(first.consensus, second.consensus)


def test_run_training_round_is_the_stacked_mean_of_its_payloads():
    # Each upload is added into the round's sums as it arrives and then
    # dropped; the server's blocks still equal, bit for bit, the stacked mean
    # of the payloads the channel captured, and those payloads stay distinct.
    channel = UploadChannel(capture_bytes=True)
    hp = dataclasses.replace(FAST, rounds=1)
    result = run_training(TOY, TOY_HELD, hp, VariantConfig.from_label("Fed3CR"), channel=channel)
    net = result.server.theta
    # in payload order: the table, then each layer's weights and biases
    server = [result.server.consensus] + [a for w, b in zip(net.weights, net.biases) for a in (w, b)]
    ends = np.cumsum([a.size for a in server])
    blocks = []  # per client, one array per server block
    for record in channel.records:
        payload = np.frombuffer(record["payload_bytes"], dtype=np.float32)
        blocks.append([payload[end - a.size : end].reshape(a.shape) for a, end in zip(server, ends)])
    assert len(blocks) == TOY.num_clients
    assert len({record["payload_bytes"] for record in channel.records}) == TOY.num_clients
    for i, array in enumerate(server):
        assert array.tobytes() == np.mean(np.stack([b[i] for b in blocks]), axis=0).tobytes()


@pytest.mark.filterwarnings("ignore::fed3cr.errors.ReplacementSamplingWarning")
def test_run_training_single_client_consensus_is_upload():
    ds, held = leave_one_out_split(
        generate_toy_dataset(num_clients=1, num_items=24, num_blocks=1, seed=1), seed=1
    )
    hp = dataclasses.replace(FAST, rounds=1, eval_negatives=10)
    channel = KeepingChannel()
    result = run_training(ds, held, hp, VariantConfig.from_label("Fed3CR"), channel=channel)
    assert len(channel.uploads) == 1
    upload = channel.uploads[0]
    assert np.allclose(result.server.consensus, upload.consensus, atol=1e-7)
    assert np.allclose(flat(result.server.theta), flat(upload.transfer_net), atol=1e-7)


@pytest.mark.parametrize("label", ["Fed3CR", "C0", "FedMF", "FedMF+ACE"])
def test_clients_keep_only_private_blocks_after_run_training(label):
    # the type holds no slot for a shared block
    assert {f.name for f in dataclasses.fields(ClientState)} == {"client_id", "user_embedding", "personal_table"}
    variant = VariantConfig.from_label(label)
    result = run_training(TOY, TOY_HELD, dataclasses.replace(FAST, rounds=1), variant)
    for client in result.clients:
        assert client.user_embedding is not None
        assert (client.personal_table is not None) == variant.personal_table


@pytest.mark.parametrize("label", ["Fed3CR", "FedMF+ACE"])
def test_uploads_never_share_memory_with_the_servers_blocks(label, monkeypatch):
    # SGD runs on working copies; none may alias the download it came from
    # or the server state that aggregation produces
    import fed3cr.federation as federation

    calls = []

    def recording_local_update(state, consensus, theta, *args, **kwargs):
        result = local_update(state, consensus, theta, *args, **kwargs)
        calls.append((consensus, theta, result[0]))
        return result

    monkeypatch.setattr(federation, "local_update", recording_local_update)
    result = run_training(TOY, TOY_HELD, dataclasses.replace(FAST, rounds=2), VariantConfig.from_label(label))
    assert len(calls) == 2 * TOY.num_clients
    final = [result.server.consensus] + net_arrays(result.server.theta)
    for consensus, theta, upload in calls:
        sent = [upload.consensus] + net_arrays(upload.transfer_net)
        assert len(sent) == 5
        for server_array in [consensus] + net_arrays(theta) + final:
            assert not any(np.shares_memory(a, server_array) for a in sent)


def test_run_training_deterministic_across_runs():
    hp = FAST
    variant = VariantConfig.from_label("Fed3CR")
    runs = [run_training(TOY, TOY_HELD, hp, variant).metrics for _ in range(2)]
    csvs = ["\n".join(metrics_csv_lines(m, hp.rbo_k)) for m in runs]
    assert csvs[0] == csvs[1]  # same config, same bytes


def ml1m_shape_pair():
    """Two toy clients over ML-1M's 3706 items, with 150-200 positives each:
    (train, held out)."""
    return leave_one_out_split(
        generate_toy_dataset(num_clients=2, num_items=3706, num_blocks=2, min_positives=150, max_positives=200, seed=0),
        seed=0,
    )


def test_warm_client_step_allocates_less_than_one_table():
    # After a warm-up call, a two-step local update at ML-1M shape draws every
    # table-sized array from the workspace: its traced allocations peak
    # below one M x d float32 table, for every variant label and row map.
    ds, held = ml1m_shape_pair()
    hp = HyperParams(rounds=1, local_iters=2, dim=32, lr=0.01, seed=0)
    table_bytes = ds.num_items * hp.dim * 4
    peaks = {}
    for label, variant in EVAL_VARIANTS.items():
        server = init_server(ds, hp, variant)
        state = init_client(0, hp.dim, ds.num_items, client_id=0)
        if not variant.personal_table:
            state.personal_table = None
        sampler = NegativeSampler(ds, 0, leaked_test_items=held.test_items)
        workspace = Workspace()
        local_update(state, server.consensus, server.theta, sampler, hp, variant, 0, workspace)
        tracemalloc.start()
        try:
            local_update(state, server.consensus, server.theta, sampler, hp, variant, 1, workspace)
            peaks[label] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(peak < table_bytes for peak in peaks.values()), (table_bytes, peaks)


def test_run_training_rejects_held_out_items_of_another_client_count():
    # The one input check on a split: one held-out item per train client.
    for test_items in (TOY_HELD.test_items[:-1], TOY_HELD.test_items + (0,)):
        with pytest.raises(ConfigurationError, match=f"{len(test_items)} test items for 24 clients"):
            run_training(TOY, HeldOut(test_items), FAST, VariantConfig.from_label("C0"))


def test_upload_channel_sees_only_shared_blocks():
    channel = UploadChannel(capture_bytes=True)
    hp = dataclasses.replace(FAST, rounds=2)
    result = run_training(TOY, TOY_HELD, hp, VariantConfig.from_label("Fed3CR"), channel=channel)
    assert len(channel.records) == 2 * TOY.num_clients
    for record in channel.records:
        names = [b[0] for b in record["blocks"]]
        assert names[0] == "consensus"
        assert all(n.startswith("transfer_net.") for n in names[1:])
        # payload is exactly the serialized shared blocks, nothing more
        assert len(record["payload_bytes"]) == record["total_nbytes"]
    # nothing that left any client matches a private block
    for client in result.clients:
        private = {client.user_embedding.tobytes(), client.personal_table.tobytes()}
        for record in channel.records:
            assert record["payload_bytes"] not in private


def test_upload_dataclass_has_exactly_shared_fields():
    names = {f.name for f in dataclasses.fields(Upload)}
    assert names == {"client_id", "consensus", "transfer_net"}


def test_c0_uploads_carry_no_net():
    channel = UploadChannel()
    run_training(TOY, TOY_HELD, dataclasses.replace(FAST, rounds=1), VariantConfig.from_label("C0"), channel=channel)
    for record in channel.records:
        assert [b[0] for b in record["blocks"]] == ["consensus"]


def test_client_fraction_selects_subset():
    hp = dataclasses.replace(FAST, client_fraction=0.25, rounds=2)
    channel = UploadChannel()
    run_training(TOY, TOY_HELD, hp, VariantConfig.from_label("C1"), channel=channel)
    per_round = {}
    for r in channel.records:
        per_round.setdefault(r["round"], []).append(r["client_id"])
    assert all(len(v) == 6 for v in per_round.values())


def test_enhancement_kinds_preserve_shapes():
    for kind in ("consensus-transfer", "unified-transfer"):
        variant = VariantConfig(enhancement_kind=kind, consistency_enabled=False, orthogonality_enabled=False)
        hp = dataclasses.replace(FAST, rounds=1)
        result = run_training(TOY, TOY_HELD, hp, variant)
        assert result.server.consensus.shape == (TOY.num_items, hp.dim)
        assert result.server.theta.layer_shapes[0][1] == hp.dim
        assert result.server.theta.layer_shapes[-1][0] == hp.dim


def test_identity_rigged_row_net_reduces_to_additive_fusion(fused_table):
    from fed3cr.model import init_row_net
    import fed3cr.seeding as seeding

    state = init_client(0, 4, 6, dtype=np.float64)
    table = np.random.default_rng(0).normal(0, 0.01, (6, 4))
    # exact identity: strip the init noise
    net = init_row_net(seeding.rng(0, 99), 4, 8, dtype=np.float64)
    net.weights[0] = np.concatenate([np.eye(4), -np.eye(4)])
    net.weights[1] = np.concatenate([np.eye(4), -np.eye(4)], axis=1)
    trace = forward_pass(state, table, net, np.array([0, 1]), enhancement="consensus-transfer")
    assert np.allclose(fused_table(trace), table + state.personal_table, atol=1e-12)
    trace_u = forward_pass(state, table, net, np.array([0, 1]), enhancement="unified-transfer")
    assert np.allclose(fused_table(trace_u), table + state.personal_table, atol=1e-12)


def test_fedmf_plain_and_plugin_shapes():
    hp = dataclasses.replace(FAST, rounds=2)
    plain = run_training(TOY, TOY_HELD, hp, VariantConfig.from_label("FedMF"))
    plugin = run_training(TOY, TOY_HELD, hp, VariantConfig.from_label("FedMF+ACE"))
    assert plain.server.theta is None
    assert plugin.server.theta is not None
    assert len(plain.metrics) == 2
    assert all(0.0 <= m.hr_at_k <= 1.0 for m in plain.metrics + plugin.metrics)
    # one item view: no personal table, so no RBO between two views
    assert all(m.rbo is None for m in plain.metrics + plugin.metrics)
    assert all(c.personal_table is None for c in plain.clients + plugin.clients)


def test_fedmf_zero_net_scores_match_plain_exactly(fused_table):
    # FedMF+ACE with the net's last layer zeroed scores with the trained
    # shared table alone, exactly as plain FedMF does
    d, m = 8, 20
    state = init_client(0, d, m, dtype=np.float64)
    state.personal_table = None
    table = np.random.default_rng(0).normal(0, 0.01, (m, d))
    net = make_net(1, d, dtype=np.float64)
    net.weights[-1][:] = 0.0
    download = np.random.default_rng(3).normal(size=(m, d))
    pos = np.array([1, 5])
    plugin = forward_pass(state, table, net, pos, enhancement="ace", consensus=download)
    plain = forward_pass(state, table, net, pos, enhancement="none", consensus=download)
    assert np.array_equal(plugin.W, np.zeros((d, d)))
    assert np.array_equal(fused_table(plugin), table)
    assert np.array_equal(fused_table(plain), table)
    # the frozen download is the consensus view, the trained table the local one
    assert np.allclose(plugin.p_G, download[pos].mean(axis=0), atol=1e-15)
    assert np.allclose(plugin.p_P, table[pos].mean(axis=0), atol=1e-15)
    assert sorted(plugin.params) == ["C", "b0", "b1", "u", "w0", "w1"]


def test_fedmf_plugin_consensus_stays_the_download_across_local_iters(monkeypatch):
    import fed3cr.federation as federation

    traces, steps = [], []

    def recording_forward_pass(*args, **kwargs):
        traces.append(forward_pass(*args, **kwargs))
        # C_E lives in the workspace until the next step: copy it now
        steps.append((traces[-1].C_E.copy(), traces[-1].W.copy(), traces[-1].p_P.copy()))
        return traces[-1]

    monkeypatch.setattr(federation, "forward_pass", recording_forward_pass)
    hp = dataclasses.replace(FAST, local_iters=3)
    state = init_client(0, hp.dim, TOY.num_items, client_id=0)
    state.personal_table = None
    download = np.random.default_rng(6).normal(0, 0.1, (TOY.num_items, hp.dim)).astype(np.float32)
    theta = make_net(1, hp.dim)
    sampler = NegativeSampler(TOY, 0, leaked_test_items=TOY_HELD.test_items)
    held = download.copy()
    upload, _ = local_update(state, download, theta, sampler, hp, VariantConfig.from_label("FedMF+ACE"))
    assert len(steps) == 3
    assert all(np.array_equal(c_e, download @ w.T) for c_e, w, _ in steps)
    assert not np.array_equal(steps[-1][2], steps[0][2])  # the trained table moved
    # the upload is the working table the last step trained, not a second copy,
    # and the download is left as it came
    assert upload.consensus is traces[-1].params["C"]
    assert np.array_equal(download, held)


def test_fedmf_channel_carries_table_and_optional_net():
    hp = dataclasses.replace(FAST, rounds=1)
    ch_plain, ch_plug = UploadChannel(), UploadChannel()
    run_training(TOY, TOY_HELD, hp, VariantConfig.from_label("FedMF"), channel=ch_plain)
    run_training(TOY, TOY_HELD, hp, VariantConfig.from_label("FedMF+ACE"), channel=ch_plug)
    assert all([b[0] for b in r["blocks"]] == ["consensus"] for r in ch_plain.records)
    assert all(any(b[0].startswith("transfer_net") for b in r["blocks"]) for r in ch_plug.records)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_aborts_client_with_warning():
    hp = dataclasses.replace(FAST, rounds=1, local_iters=3, lr=1e30)
    state = init_client(0, hp.dim, TOY.num_items, client_id=0)
    sampler = NegativeSampler(TOY, 0, leaked_test_items=TOY_HELD.test_items)
    consensus = np.random.default_rng(0).normal(0, 0.01, (TOY.num_items, hp.dim)).astype(np.float32)
    theta = make_net(1, hp.dim)
    with pytest.warns(UserWarning, match="non-finite"):
        result = local_update(state, consensus, theta, sampler, hp, VariantConfig.from_label("Fed3CR"))
    assert result is None


def test_client_without_train_positives_is_skipped_with_a_warning(monkeypatch):
    # Client 1 is selected but has nothing to train on: the warning names the
    # round and the client, no upload of its reaches the round's sums, and
    # the round's loss means average only the clients that trained.
    ds, held = without_positives(TOY.num_clients)
    hp = dataclasses.replace(FAST, rounds=1)
    results = {}

    def recorded_update(state, *args, **kwargs):
        results[state.client_id] = local_update(state, *args, **kwargs)
        return results[state.client_id]

    monkeypatch.setattr(federation, "local_update", recorded_update)
    channel = UploadChannel(capture_bytes=True)
    with pytest.warns(UserWarning, match="round 0: client 1 has no positives; skipped"):
        result = run_training(ds, held, hp, VariantConfig.from_label("Fed3CR"), channel=channel)
    assert sorted(results) == list(range(ds.num_clients)) and results[1] is None
    assert [record["client_id"] for record in channel.records] == [c for c in range(ds.num_clients) if c != 1]
    size = result.server.consensus.size
    tables = [np.frombuffer(record["payload_bytes"], np.float32, size).reshape(result.server.consensus.shape) for record in channel.records]
    assert result.server.consensus.tobytes() == np.mean(np.stack(tables), axis=0).tobytes()
    breakdowns = [r[1] for r in results.values() if r is not None]
    (metrics,) = result.metrics
    for column, term in (("loss_rec", "l_rec"), ("loss_a", "l_a"), ("loss_o", "l_o")):
        assert getattr(metrics, column) == float(np.mean([getattr(b, term) for b in breakdowns])), term
    assert metrics.clients_evaluated == ds.num_clients - 1


def literal_ratio_toy_run():
    """configs/toy.cfg for three rounds with eq. 12's literal ratio at lr
    0.01: (the dataset, the run, the (round, client) of every upload)."""
    config = load_config(
        str(Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"),
        overrides={"training.eq12_mode": "literal-ratio", "training.lr": "0.01", "training.rounds": "3"},
    )
    ds, held = config.build_dataset()
    channel = UploadChannel()
    result = run_training(ds, held, config.hp, config.variant, channel=channel)
    return ds, result, [(r["round"], r["client_id"]) for r in channel.records]


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore:round:UserWarning")
def test_literal_ratio_trains_the_toy_config_at_a_small_lr():
    # At lr 0.01, eq. 12's literal ratio trains configs/toy.cfg through
    # three rounds (at lr 0.1 every client fails in round 0): the first
    # round's uploads are complete and the evaluated losses are finite.
    ds, result, uploads = literal_ratio_toy_run()
    assert uploads[: ds.num_clients] == [(0, c) for c in range(ds.num_clients)]
    (metrics,) = result.metrics
    assert all(np.isfinite([metrics.loss_rec, metrics.loss_a, metrics.loss_o, metrics.hr_at_k]))


@pytest.mark.xfail(strict=True, reason="ACE's step under the literal ratio diverges for clients 8 and 14 in rounds 1-2 (ROADMAP item 5)")
@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore:round:UserWarning")
def test_literal_ratio_keeps_every_client_uploading_at_a_small_lr():
    ds, _, uploads = literal_ratio_toy_run()
    assert uploads == [(t, c) for t in range(3) for c in range(ds.num_clients)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_all_clients_failing_aborts_run():
    hp = dataclasses.replace(FAST, rounds=1, local_iters=3, lr=1e30)
    with pytest.warns(UserWarning):
        with pytest.raises(AggregationError, match="round 0"):
            run_training(TOY, TOY_HELD, hp, VariantConfig.from_label("Fed3CR"))


def test_ace_not_worse_than_row_enhancement_baselines():
    hp = dataclasses.replace(FAST, rounds=15, local_iters=5, dim=16, eval_negatives=59, rbo_k=20)

    def final_hr(kind):
        # C1-style: auxiliary losses off, so only the enhancement differs
        variant = VariantConfig(kind, consistency_enabled=False, orthogonality_enabled=False)
        return run_training(TOY, TOY_HELD, hp, variant).metrics[-1].hr_at_k

    hr_ace = final_hr("ace")
    hr_ct = final_hr("consensus-transfer")
    hr_ut = final_hr("unified-transfer")
    assert hr_ace >= hr_ct
    assert hr_ace >= hr_ut


def test_aggregation_order_invariance_via_sorted_ids():
    rng = np.random.default_rng(4)
    uploads = {cid: rng.normal(size=(3, 2)) for cid in range(5)}
    in_order = mean_table([uploads[c] for c in sorted(uploads)])
    shuffled_ids = list(uploads)
    rng.shuffle(shuffled_ids)
    resorted = mean_table([uploads[c] for c in sorted(shuffled_ids)])
    assert np.array_equal(in_order, resorted)


def sort_path_metrics(clients, server, ds, held, hp, variant, candidates, fused_table):
    """Client-mean HR, NDCG and RBO as evaluation computed them before it
    ranked by counting: the fused table V_F, a lexsort of its candidate
    rows and list.index, and top-k lists sorted from each full table."""

    def ranked(u, table, cands):
        scores = table[cands] @ u
        return [int(c) for c in cands[np.lexsort((cands, -scores))]]

    hrs, ndcgs, rbos = [], [], []
    for client in clients:
        trace = forward_pass(
            client,
            server.consensus,
            server.theta,
            ds.client_items[client.client_id],
            enhancement=variant.enhancement_kind,
        )
        u = client.user_embedding
        rank = ranked(u, fused_table(trace), candidates[client.client_id]).index(held.test_items[client.client_id]) + 1
        hrs.append(int(rank <= TOP_K))
        ndcgs.append(float(1.0 / np.log2(rank + 1)) if rank <= TOP_K else 0.0)
        if variant.personal_table:
            every = np.arange(ds.num_items)
            k = min(hp.rbo_k, ds.num_items)
            personal = ranked(u, trace.params["V"], every)[:k]
            global_view = ranked(u, trace.C_E, every)[:k]
            rbos.append(rbo_truncated(personal, global_view, RBO_P))
    return float(np.mean(hrs)), float(np.mean(ndcgs)), float(np.mean(rbos)) if rbos else None


EVAL_VARIANTS = {label: VariantConfig.from_label(label) for label in VARIANT_LABELS}


class TableSumError(AssertionError):
    pass


class NoTableSum(np.ndarray):
    """An item table that refuses to be added to another table, so code
    that builds V_F from it fails; products and everything else pass."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.add and sum(np.ndim(x) == 2 for x in inputs) == 2:
            raise TableSumError("two item tables were added: V_F was built")
        plain = [x.view(np.ndarray) if isinstance(x, NoTableSum) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("name", list(EVAL_VARIANTS))
def test_warm_step_gives_every_leaf_a_gradient_of_its_own(name, monkeypatch):
    # The client step's SGD scales each gradient in place, so after a warm
    # second step through one workspace each trainable array has a gradient
    # of its shape and dtype that shares memory with no other gradient and
    # no trainable array.
    variant = EVAL_VARIANTS[name]
    traces, steps = [], []
    backward = Tensor.backward

    def recording_forward_pass(*args, **kwargs):
        traces.append(forward_pass(*args, **kwargs))
        return traces[-1]

    def recording_backward(self):
        steps.append(backward(self))
        return steps[-1]

    monkeypatch.setattr(federation, "forward_pass", recording_forward_pass)
    monkeypatch.setattr(Tensor, "backward", recording_backward)
    hp = dataclasses.replace(FAST, local_iters=2)
    server = init_server(TOY, hp, variant)
    state = init_client(0, hp.dim, TOY.num_items, client_id=0)
    if not variant.personal_table:
        state.personal_table = None
    sampler = NegativeSampler(TOY, 0, leaked_test_items=TOY_HELD.test_items)
    assert local_update(state, server.consensus, server.theta, sampler, hp, variant, 0, Workspace()) is not None
    assert len(steps) == 2 and len(steps[-1]) == len(traces[-1].params)
    leaves = list(zip(traces[-1].params.values(), steps[-1]))
    for data, grad in leaves:
        assert grad is not None and grad.shape == data.shape and grad.dtype == data.dtype
    for i, (_, grad) in enumerate(leaves):
        assert not any(np.shares_memory(grad, other) for _, other in leaves[:i])
        assert not any(np.shares_memory(grad, data) for data, _ in leaves)


@pytest.mark.parametrize("name", list(EVAL_VARIANTS))
def test_evaluate_round_matches_the_sort_path(name, monkeypatch, fused_table):
    # Scores per view, summed, and ranks by counting: the same HR, NDCG and
    # RBO as sorting the fused table's rows. evaluate_round builds no tape
    # (a Tensor refuses to be built) and no V_F (the tables it reads refuse
    # to be added to one another).
    variant = EVAL_VARIANTS[name]
    hp = dataclasses.replace(FAST, rounds=2, rbo_k=30)
    result = run_training(TOY, TOY_HELD, hp, variant)
    candidates = [build_eval_candidates(TOY, TOY_HELD, c, hp.eval_negatives, hp.seed) for c in range(TOY.num_clients)]
    expected = sort_path_metrics(result.clients, result.server, TOY, TOY_HELD, hp, variant, candidates, fused_table)

    server = dataclasses.replace(result.server, consensus=result.server.consensus.view(NoTableSum))
    clients = [
        ClientState(c.client_id, c.user_embedding, None if c.personal_table is None else c.personal_table.view(NoTableSum))
        for c in result.clients
    ]
    with pytest.raises(TableSumError):  # the guard fires on a fused table
        server.consensus + server.consensus

    def no_tensor(self, *args, **kwargs):
        raise AssertionError("evaluate_round built a Tensor")

    monkeypatch.setattr(Tensor, "__init__", no_tensor)
    no_loss = LossBreakdown(0.0, 0.0, 0.0, 0.0)
    got = evaluate_round(clients, server, TOY, TOY_HELD, hp, variant, candidates, hp.rounds - 1, no_loss)
    monkeypatch.undo()
    assert (got.hr_at_k, got.ndcg_at_k, got.rbo) == expected
    assert (got.hr_at_k, got.ndcg_at_k, got.rbo) == (
        result.metrics[-1].hr_at_k,
        result.metrics[-1].ndcg_at_k,
        result.metrics[-1].rbo,
    )


def test_warm_evaluate_round_allocates_less_than_one_table():
    # After a warm-up call, scoring every item for two clients at ML-1M shape
    # (full ranking, RBO at k=50) allocates less than one M x d float32
    # table, for every variant label and row map: no C_E, no fused table,
    # and the net's activations are workspace buffers.
    ds, held = ml1m_shape_pair()
    hp = HyperParams(rounds=1, dim=32, eval_negatives=-1, rbo_k=50, seed=0)
    candidates = [build_eval_candidates(ds, held, c, hp.eval_negatives, hp.seed) for c in range(2)]
    no_loss = LossBreakdown(0.0, 0.0, 0.0, 0.0)
    peaks = {}
    for name, variant in EVAL_VARIANTS.items():
        server = init_server(ds, hp, variant)
        clients = [init_client(0, hp.dim, ds.num_items, client_id=c) for c in range(2)]
        for client in clients:
            if not variant.personal_table:
                client.personal_table = None
        workspace = Workspace()
        evaluate_round(clients, server, ds, held, hp, variant, candidates, 0, no_loss, workspace=workspace)
        tracemalloc.start()
        try:
            evaluate_round(clients, server, ds, held, hp, variant, candidates, 0, no_loss, workspace=workspace)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(peak < ds.num_items * hp.dim * 4 for peak in peaks.values()), peaks


def without_positives(n, client=1):
    """The first n clients of the toy split, with `client` (when among them)
    left without train positives: (train, held out)."""
    items = [TOY.client_items[c][: 0 if c == client else None] for c in range(n)]
    train = dataclasses.replace(TOY, num_clients=n, client_items=items, user_ids=TOY.user_ids[:n])
    return train, HeldOut(TOY_HELD.test_items[:n])


def per_client_metrics(clients, server, ds, held, hp, variant, candidates):
    """HR, NDCG and RBO means and the clients evaluated, one client at a
    time: its own forward pass (a row map maps the server's table in it)
    and the list/lexsort references of the ranking functions."""
    hits, ndcgs, rbos = [], [], []
    for client in clients:
        positives = ds.client_items[client.client_id]
        if len(positives) == 0:
            continue
        scores = forward_pass(
            client, server.consensus, server.theta, positives, enhancement=variant.enhancement_kind, tape=False
        )
        fused = scores.fused_personal if scores.global_view is None else scores.global_view + scores.fused_personal
        rank = old_ranked(fused, candidates[client.client_id]).index(held.test_items[client.client_id]) + 1
        hits.append(int(rank <= TOP_K))
        ndcgs.append(float(1.0 / np.log2(rank + 1)) if rank <= TOP_K else 0.0)
        if variant.personal_table:
            k = min(hp.rbo_k, ds.num_items)
            rbos.append(list_rbo(list_top_k(scores.personal, k), list_top_k(scores.global_view, k), RBO_P))
    return float(np.mean(hits)), float(np.mean(ndcgs)), float(np.mean(rbos)) if rbos else None, len(hits)


@pytest.mark.parametrize("negatives", [20, -1])
@pytest.mark.parametrize("name", ["Fed3CR", "FedMF", "consensus-transfer", "unified-transfer"])
def test_evaluate_round_matches_the_per_client_reference_at_every_block_edge(name, negatives):
    # Evaluation ranks blocks of d clients: 1, d - 1, d, d + 1 and 2d + 3
    # clients fill one block in part or in full, or spill into a last
    # partial one. Client 1 has no positives and is skipped; under full
    # ranking the candidate rows differ in length and are padded. With 20
    # negatives about half the clients rank their test item within TOP_K,
    # so NDCG reads those ranks exactly.
    variant = EVAL_VARIANTS[name]
    hp = dataclasses.replace(FAST, rounds=1, eval_negatives=negatives, rbo_k=30)
    result = run_training(TOY, TOY_HELD, hp, variant)
    no_loss = LossBreakdown(0.0, 0.0, 0.0, 0.0)
    d = hp.dim
    for n in (1, d - 1, d, d + 1, 2 * d + 3):
        ds, held = without_positives(n)
        clients = result.clients[:n]
        candidates = [build_eval_candidates(ds, held, c, negatives, hp.seed) for c in range(n)]
        got = evaluate_round(clients, result.server, ds, held, hp, variant, candidates, 0, no_loss)
        expected = per_client_metrics(clients, result.server, ds, held, hp, variant, candidates)
        assert (got.hr_at_k, got.ndcg_at_k, got.rbo, got.clients_evaluated) == expected, n
        assert got.clients_evaluated == n - (n > 1)


@pytest.mark.parametrize("name", list(EVAL_VARIANTS))
def test_evaluate_round_runs_one_forward_pass_per_client_and_maps_the_table_once(name, monkeypatch):
    # The benchmark counts `federation.forward_pass` calls: evaluation makes
    # one per evaluated client. A row map's pass over the server's table is
    # the same for every client, so it runs once per evaluated round.
    variant = EVAL_VARIANTS[name]
    ds, held = without_positives(TOY.num_clients)
    server = init_server(ds, FAST, variant)
    clients = [init_client(FAST.seed, FAST.dim, ds.num_items, client_id=c) for c in range(ds.num_clients)]
    for client in clients:
        if not variant.personal_table:
            client.personal_table = None
    candidates = [build_eval_candidates(ds, held, c, FAST.eval_negatives, FAST.seed) for c in range(ds.num_clients)]
    calls = {"forward_pass": 0, "table net_pass": 0}
    real_forward, real_net = federation.forward_pass, model.net_pass

    def counted_forward(*args, **kwargs):
        calls["forward_pass"] += 1
        return real_forward(*args, **kwargs)

    def counted_net(net, x, *args, **kwargs):
        calls["table net_pass"] += x is server.consensus
        return real_net(net, x, *args, **kwargs)

    monkeypatch.setattr(federation, "forward_pass", counted_forward)
    monkeypatch.setattr(federation, "net_pass", counted_net)
    monkeypatch.setattr(model, "net_pass", counted_net)
    no_loss = LossBreakdown(0.0, 0.0, 0.0, 0.0)
    evaluate_round(clients, server, ds, held, FAST, variant, candidates, 0, no_loss)
    row_map = variant.enhancement_kind in ("consensus-transfer", "unified-transfer")
    assert calls == {"forward_pass": ds.num_clients - 1, "table net_pass": int(row_map)}


@pytest.mark.parametrize("name", ["Fed3CR", "C0", "consensus-transfer"])
def test_a_client_marked_stale_is_rescored_and_a_reused_entry_would_be_wrong(name):
    # A warm record, then one client trains. Marked stale, it is scored
    # afresh: the same metrics, bit for bit, as a cold evaluation. Left
    # valid, the record's old personal view is read, and the metrics move.
    variant = EVAL_VARIANTS[name]
    hp = dataclasses.replace(FAST, rounds=1, rbo_k=30)
    result = run_training(TOY, TOY_HELD, hp, variant)
    candidates = [build_eval_candidates(TOY, TOY_HELD, c, hp.eval_negatives, hp.seed) for c in range(TOY.num_clients)]
    sampler = NegativeSampler(TOY, hp.seed, leaked_test_items=TOY_HELD.test_items)
    no_loss = LossBreakdown(0.0, 0.0, 0.0, 0.0)

    def scored(clients, record):
        m = evaluate_round(clients, result.server, TOY, TOY_HELD, hp, variant, record, 0, no_loss)
        return metrics_csv_lines([m], hp.rbo_k)[1]

    def warm_then_train(mark_stale):
        clients = [ClientState(c.client_id, c.user_embedding.copy(), c.personal_table.copy()) for c in result.clients]
        record = EvalRecord.build(candidates, TOY_HELD, hp, TOY.num_items)
        scored(clients, record)
        assert record.valid.all()
        local_update(clients[3], result.server.consensus, result.server.theta, sampler, hp, variant, 1)
        if mark_stale:
            record.valid[3] = False
        return clients, scored(clients, record)

    clients, rescored = warm_then_train(mark_stale=True)
    assert rescored == scored(clients, candidates)
    _, reused = warm_then_train(mark_stale=False)
    assert reused != rescored


def test_forward_pass_count_holds_when_evaluation_reuses_kept_views(monkeypatch):
    # The benchmark counts `federation.forward_pass` calls at one per train
    # step plus one per evaluated client and round. With a quarter of the
    # clients training each round, most evaluated clients reuse their kept
    # personal view, and each still makes its one call.
    calls = {"all": 0, "kept": 0}
    real_forward = federation.forward_pass

    def counted_forward(*args, **kwargs):
        calls["all"] += 1
        calls["kept"] += kwargs.get("personal") is False
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(federation, "forward_pass", counted_forward)
    hp = dataclasses.replace(FAST, rounds=4, client_fraction=0.25, eval_interval=1)
    result = run_training(TOY, TOY_HELD, hp, VariantConfig())
    selected = sum(len(select_clients(TOY.num_clients, hp.client_fraction, r, hp.seed)) for r in range(hp.rounds))
    assert len(result.metrics) == hp.rounds and selected < TOY.num_clients * hp.rounds
    assert calls["all"] == selected * hp.local_iters + TOY.num_clients * hp.rounds
    assert calls["kept"] > 0


def test_federation_binds_every_name_the_benchmark_wraps(monkeypatch):
    # perfbench/rep.py times the program by replacing the names in its
    # LAYERS where callers look them up; a name that moves is reported
    # absent and its layer goes dark. Loading rep.py pins BLAS threads in
    # the environment and extends sys.path, so both are restored after.
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "perfbench_rep", Path(__file__).resolve().parents[1] / "perfbench" / "rep.py"
    )
    rep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rep)
    assert any(module == "fed3cr.federation" for _, module, _ in rep.LAYERS)
    for name, module, attr in (*rep.LAYERS, rep.TENSOR_COUNTER):
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), (name, module, attr)
            owner = getattr(owner, part)
        assert callable(owner), name


@pytest.mark.parametrize("n", [3, 11])
def test_mean_breakdown_is_each_terms_np_mean_bit_for_bit(n):
    # numpy sums 8 or more values pairwise; one C-contiguous row per term
    # keeps each term's reduction that of np.mean over its own list
    rng = np.random.default_rng(n)
    parts = [LossBreakdown(*rng.normal(size=4).tolist()) for _ in range(n)]
    mean = federation._mean_breakdown(parts)
    for name in ("l_rec", "l_a", "l_o", "total"):
        expected = float(np.mean([getattr(p, name) for p in parts]))
        assert type(getattr(mean, name)) is float
        assert np.float64(getattr(mean, name)).tobytes() == np.float64(expected).tobytes(), name
