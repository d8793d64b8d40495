"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s -v tests/test_acceptance.py`).

Desk-scale directional checks run on the bundled synthetic dataset with a
pinned seed and the standard small config (30 rounds, 5 local iterations,
16 dims, 59 eval negatives); criterion 4 runs it at seeds 0, 1 and 2. The
ingestion-fidelity check needs the real MovieLens-1M ratings file; point
FED3CR_ML1M at ratings.dat (or place it at data/ml-1m/ratings.dat) to
enable it.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from fed3cr.cli import main
from fed3cr.datasets import leave_one_out_split, load_dataset
from fed3cr.evaluation import TOP_K, consensus_alignment, correlation_matrix, rbo_truncated
from fed3cr.federation import (
    HyperParams,
    VariantConfig,
    init_server,
    run_training,
)
from fed3cr.losses import (
    consistency_loss,
    orthogonality_loss,
    rec_loss,
    total_loss_t,
)
from fed3cr.model import forward_pass, init_client, init_client_net
from fed3cr.toy import generate_toy_dataset, planted_item_vectors

SEED = 0

ACCEPT_HP = HyperParams(
    rounds=30,
    local_iters=5,
    dim=16,
    eval_negatives=59,
    seed=SEED,
    lr=0.1,
    beta_a=0.5,
    beta_o=0.5,
    rbo_k=20,
    eval_interval=30,
)

_cache: dict = {}


def toy_split():
    """The acceptance split: (train, held out)."""
    if "ds" not in _cache:
        _cache["ds"] = leave_one_out_split(generate_toy_dataset(seed=SEED), seed=SEED)
    return _cache["ds"]


def trained(key, variant=None, hp=None, channel=None):
    if key not in _cache:
        _cache[key] = run_training(
            *toy_split(),
            hp or ACCEPT_HP,
            variant or VariantConfig.from_label("Fed3CR"),
            channel=channel,
        )
    return _cache[key]


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def ml1m_path():
    env = os.environ.get("FED3CR_ML1M")
    if env and os.path.exists(env):
        return env
    default = os.path.join(os.path.dirname(__file__), "..", "data", "ml-1m", "ratings.dat")
    return default if os.path.exists(default) else None


@pytest.mark.skipif(
    ml1m_path() is None,
    reason="MovieLens-1M ratings.dat not present; set FED3CR_ML1M to enable",
)
def test_criterion_1_movielens_ingestion_fidelity():
    t0 = time.perf_counter()
    ds = load_dataset(ml1m_path(), "movielens-dat", min_interactions=10)
    elapsed = time.perf_counter() - t0
    ok = (
        ds.num_clients == 6040
        and ds.num_items == 3706
        and ds.num_interactions == 1_000_209
        and elapsed < 30.0
    )
    report(
        1,
        ok,
        f"clients={ds.num_clients} items={ds.num_items} "
        f"interactions={ds.num_interactions} in {elapsed:.1f}s",
    )


def test_criterion_2_gradient_correctness(block_grad_check):
    t0 = time.perf_counter()
    state = init_client(seed=7, d=4, M=6, dtype=np.float64)
    rng = np.random.default_rng(99)
    state.user_embedding = rng.normal(0, 0.5, 4)
    table = rng.normal(0, 0.5, (6, 4))
    state.personal_table = rng.normal(0, 0.5, (6, 4))
    net = init_client_net(rng, 4, dtype=np.float64)
    net.weights[-1] = rng.normal(0, 0.3, net.weights[-1].shape)
    net.biases[-1] = rng.normal(0, 0.3, net.biases[-1].shape)
    positives = np.array([0, 2, 4])
    items = np.array([0, 1, 2, 3, 5])
    labels = np.array([1, 0, 1, 0, 0])

    def objective(client, table, net):
        trace = forward_pass(client, table, net, positives, enhancement="ace")
        return total_loss_t(trace, items, labels, beta_a=0.7, beta_o=0.4)[0], trace

    _, worst = block_grad_check(state, table, net, objective, eps=1e-5, rtol=1e-4)
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 10.0, f"all parameter blocks pass at rtol 1e-4 (worst {worst:.2e}) in {elapsed:.1f}s")


def test_criterion_3_loss_unit_values():
    r = rec_loss(np.array([0.5]), np.array([1]))
    c = consistency_loss(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    o = orthogonality_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))

    state = init_client(seed=3, d=4, M=6, dtype=np.float64)
    rng = np.random.default_rng(3)
    table = rng.normal(0, 0.01, (6, 4))
    trace = forward_pass(state, table, init_client_net(rng, 4, dtype=np.float64), np.array([0, 1, 2]))
    _, b = total_loss_t(trace, np.array([0, 3, 4]), np.array([1, 0, 0]), beta_a=1.0, beta_o=1.0)
    composed = abs(b.total - (b.l_rec + b.l_a + b.l_o))

    ok = (
        abs(r - 0.6931) <= 1e-4
        and abs(c - 0.6931) <= 1e-4
        and o == 0.5
        and composed <= 1e-9
    )
    report(3, ok, f"rec={r:.4f} consistency={c:.4f} orthogonality={o} composed_err={composed:.1e}")


def fedmf_alignments(blocks, seed):
    """Consensus alignment with the planted item vectors of the toy dataset
    at `blocks` blocks and `seed`: FedMF's trained consensus, and its
    round-0 table."""
    ds = generate_toy_dataset(num_blocks=blocks, seed=seed)
    train, held = leave_one_out_split(ds, seed=seed)
    hp = dataclasses.replace(ACCEPT_HP, seed=seed)
    variant = VariantConfig.from_label("FedMF")
    planted = planted_item_vectors(ds.num_items, blocks, seed)
    consensus = run_training(train, held, hp, variant).server.consensus
    return (
        consensus_alignment(consensus, planted),
        consensus_alignment(init_server(train, hp, variant).consensus, planted),
    )


def test_criterion_4_consensus_degradation():
    # The prediction, fixed before the first run: averaging more
    # heterogeneous clients keeps less of the planted item structure. At
    # every seed FedMF's consensus aligns better at 2 blocks than at 8, and
    # every trained consensus aligns better than its round-0 table.
    seeds = (0, 1, 2)
    runs = {(blocks, seed): fedmf_alignments(blocks, seed) for blocks in (2, 8) for seed in seeds}
    falls = all(runs[2, seed][0] > runs[8, seed][0] for seed in seeds)
    learns = all(trained > start for trained, start in runs.values())

    def row(blocks):
        return " ".join(f"{runs[blocks, seed][0]:.3f}/{runs[blocks, seed][1]:.3f}" for seed in seeds)

    report(
        4,
        falls and learns,
        f"FedMF consensus CKA, trained/round-0 at seeds {seeds}: 2 blocks {row(2)}; 8 blocks {row(8)}",
    )


def test_criterion_5_ablation_direction_and_random_baseline():
    t0 = time.perf_counter()
    labels = ("C0", "C1", "Fed3CR")
    last = {label: trained(label, VariantConfig.from_label(label)).metrics[-1] for label in labels}
    hr = {label: m.hr_at_k for label, m in last.items()}
    random_baseline = TOP_K / (ACCEPT_HP.eval_negatives + 1)
    elapsed = time.perf_counter() - t0
    ok = (
        hr["Fed3CR"] >= hr["C1"] >= hr["C0"]
        and hr["Fed3CR"] >= 2 * random_baseline
        and elapsed < 300.0
    )
    report(
        5,
        ok,
        f"HR@10 Fed3CR={hr['Fed3CR']:.3f} >= C1={hr['C1']:.3f} >= C0={hr['C0']:.3f}; "
        f"random={random_baseline:.3f} (factor {hr['Fed3CR'] / random_baseline:.1f}) in {elapsed:.0f}s; "
        f"NDCG@10 Fed3CR={last['Fed3CR'].ndcg_at_k:.3f} C1={last['C1'].ndcg_at_k:.3f} C0={last['C0'].ndcg_at_k:.3f}",
    )


def test_criterion_6_consistency_metric_direction():
    anchors_ok = (
        rbo_truncated([1, 2, 3], [1, 2, 3], 0.99) == pytest.approx(1.0)
        and rbo_truncated([1, 2, 3], [4, 5, 6], 0.99) == pytest.approx(0.0)
        and rbo_truncated([1, 2, 3], [1, 3, 2], 0.5) == pytest.approx(0.8571, abs=1e-4)
    )
    rbo_on = trained("Fed3CR").metrics[-1].rbo
    hp_off = dataclasses.replace(ACCEPT_HP, beta_a=0.0)
    rbo_off = trained("beta_a_off", VariantConfig.from_label("Fed3CR"), hp_off).metrics[-1].rbo
    ok = anchors_ok and rbo_on > rbo_off
    report(
        6,
        ok,
        f"unit anchors hold; mean top-20 RBO {rbo_on:.4f} (beta_a>0) > {rbo_off:.4f} (beta_a=0)",
    )


def _large_correlation_entries(result, variant):
    ds, _ = toy_split()
    total = 0
    for client in result.clients:
        trace = forward_pass(
            client,
            result.server.consensus,
            result.server.theta,
            ds.client_items[client.client_id],
            enhancement=variant.enhancement_kind,
        )
        corr = correlation_matrix(trace.C_E, client.personal_table)
        total += int((corr != 0).sum())
    return total


def test_criterion_7_complementarity_direction():
    orth = _large_correlation_entries(trained("Fed3CR"), VariantConfig.from_label("Fed3CR"))
    l2_variant = VariantConfig(
        enhancement_kind="ace",
        consistency_enabled=True,
        orthogonality_enabled=True,
        complementarity_kind="l2-distance",
    )
    l2 = _large_correlation_entries(trained("l2", l2_variant), l2_variant)
    report(7, orth < l2, f"|corr|>0.003 entries: orthogonal={orth} < l2-distance={l2}")


def test_criterion_8_ace_plugin_direction():
    plain_last = trained("mf_plain", VariantConfig.from_label("FedMF")).metrics[-1]
    plugin_last = trained("mf_plugin", VariantConfig.from_label("FedMF+ACE")).metrics[-1]
    plain, plugin = plain_last.hr_at_k, plugin_last.hr_at_k
    report(
        8,
        plugin >= plain,
        f"federated-MF HR@10: plugin={plugin:.3f} >= plain={plain:.3f}; "
        f"NDCG@10 plugin={plugin_last.ndcg_at_k:.3f} plain={plain_last.ndcg_at_k:.3f}",
    )


def test_criterion_9_determinism_across_runs(tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(
        "[dataset]\nformat = toy\n\n[training]\nrounds = 4\nlocal_iters = 2\ndim = 8\nseed = 11\n\n"
        "[eval]\nnegatives = 20\nrbo_k = 10\n"
    )
    csvs = []
    for i in range(2):
        out = str(tmp_path / f"run{i}")
        code = main(["run", "--config", str(cfg), "--out", out])
        assert code == 0
        csvs.append((tmp_path / f"run{i}" / "metrics.csv").read_bytes())
    ok = csvs[0] == csvs[1]
    report(9, ok, f"2 runs produced byte-identical metrics CSVs ({len(csvs[0])} bytes)")


def test_criterion_10_privacy_upload_surface(capturing_channel):
    channel = capturing_channel
    result = trained("privacy", VariantConfig.from_label("Fed3CR"), channel=channel)
    ds, _ = toy_split()
    expected_records = ACCEPT_HP.rounds * ds.num_clients
    names_ok = all(
        record["blocks"][0][0] == "consensus"
        and all(name.startswith("transfer_net.") for name, _, _ in record["blocks"][1:])
        for record in channel.records
    )
    sizes_ok = all(
        len(record["payload_bytes"]) == record["total_nbytes"] for record in channel.records
    )
    private_blobs = set()
    for client in result.clients:
        private_blobs.add(client.user_embedding.tobytes())
        private_blobs.add(client.personal_table.tobytes())
    leak_free = all(
        record["payload_bytes"] not in private_blobs for record in channel.records
    )
    ok = len(channel.records) == expected_records and names_ok and sizes_ok and leak_free
    report(
        10,
        ok,
        f"{len(channel.records)} uploads carried only the shared table and transfer-net blocks",
    )
