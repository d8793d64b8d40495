import numpy as np
import pytest

from fed3cr.degradation import (
    QuadraticClient,
    bound_sweep,
    empirical_heterogeneity_probe,
    random_fixture,
    toy_example_report,
    verify_bound,
)
from fed3cr import seeding
from fed3cr.model import init_client
from fed3cr.toy import generate_toy_dataset


def test_three_client_worked_instance():
    clients = [
        QuadraticClient(np.array([1.0, 0.0])),
        QuadraticClient(np.array([0.0, 1.0])),
        QuadraticClient(np.array([-1.0, 0.0])),
    ]
    report = verify_bound(clients)
    # closed form: consensus (0, 1/3); distance sqrt(10)/3; delta (0+sqrt2+2)/3
    assert report.distances[0] == pytest.approx(np.sqrt(10) / 3, abs=1e-3)
    assert report.distances[0] == pytest.approx(1.0541, abs=1e-3)
    assert report.deltas[0] == pytest.approx((np.sqrt(2) + 2) / 3, abs=1e-3)
    assert report.deltas[0] == pytest.approx(1.1381, abs=1e-3)
    assert report.all_satisfied


def test_identical_optima_bound_tight_at_zero():
    opt = np.random.default_rng(0).normal(size=(3, 2))
    report = verify_bound([QuadraticClient(opt.copy()) for _ in range(4)])
    assert np.allclose(report.distances, 0.0)
    assert np.allclose(report.deltas, 0.0)
    assert report.all_satisfied


def test_symmetric_pair_bound_exactly_tight():
    x = np.random.default_rng(1).normal(size=(2, 3))
    report = verify_bound([QuadraticClient(x), QuadraticClient(-x)])
    norm = float(np.linalg.norm(x))
    assert report.distances == pytest.approx([norm, norm])
    assert report.deltas == pytest.approx([norm, norm])
    assert abs(report.distances[0] - report.deltas[0]) <= 1e-12
    assert report.all_satisfied


def test_thousand_random_fixtures_zero_violations():
    summary = bound_sweep(1000, seed=123)
    assert summary["violations"] == 0


def test_verify_bound_invariant_under_reordering():
    rng = np.random.default_rng(2)
    clients = random_fixture(rng)
    report = verify_bound(clients)
    shuffled = [clients[i] for i in rng.permutation(len(clients))]
    report2 = verify_bound(shuffled)
    assert sorted(report.distances) == pytest.approx(sorted(report2.distances))
    assert sorted(report.deltas) == pytest.approx(sorted(report2.deltas))
    assert report.all_satisfied and report2.all_satisfied


def angle_vec(deg):
    rad = np.deg2rad(deg)
    return np.array([np.cos(rad), np.sin(rad)])


def test_toy_report_mean_norm_shrinks():
    report = toy_example_report([angle_vec(0), angle_vec(45), angle_vec(90)])
    assert report[-1].mean_norm < 1.0
    # more clients aggregated -> more degradation for this configuration
    assert report[1].mean_norm <= report[0].mean_norm


def test_toy_report_most_distant_client_has_lowest_cosine():
    vectors = [angle_vec(0), angle_vec(40), angle_vec(70)]
    report = toy_example_report(vectors)
    full = report[-1]
    mean_angle = np.rad2deg(np.arctan2(full.mean[1], full.mean[0]))
    distances = [abs(a - mean_angle) for a in (0, 40, 70)]
    assert np.argmin(full.cosines) == np.argmax(distances)


def stacked_probe(clients, positives, c_ref, num_negatives=4, seed=0):
    """The probe's pairwise norms from the stacked N x N x (M d) difference
    array, with its gradients built as `empirical_heterogeneity_probe` builds
    them: the reference the row-at-a-time form must match bit for bit."""
    m = c_ref.shape[0]
    grads = []
    for state, pos in zip(clients, positives):
        pos = np.asarray(pos)
        rng = seeding.rng(seed, seeding.FIXTURE, state.client_id, 1)
        universe = np.setdiff1d(np.arange(m, dtype=np.int64), pos)
        negatives = rng.choice(universe, size=min(num_negatives * len(pos), len(universe)), replace=False)
        items = np.concatenate([pos, negatives])
        labels = np.concatenate([np.ones(len(pos)), np.zeros(len(negatives))])
        u = np.asarray(state.user_embedding, dtype=np.float64)
        preds = 1.0 / (1.0 + np.exp(-(c_ref[items] @ u)))
        grad = np.zeros_like(c_ref)
        np.add.at(grad, items, (preds - labels)[:, None] * u[None, :])
        grads.append(grad)
    stack = np.stack([g.reshape(-1) for g in grads])
    return np.linalg.norm(stack[:, None, :] - stack[None, :, :], axis=2)


def probe_fixtures():
    a = init_client(seed=5, d=4, M=12, dtype=np.float64)
    b = init_client(seed=5, d=4, M=12, dtype=np.float64)
    b.client_id = a.client_id
    pos = np.array([1, 4, 7])
    yield [a, b], [pos, pos], np.random.default_rng(3).normal(size=(12, 4)), 9
    clients = [init_client(seed=6, d=3, M=10, client_id=i, dtype=np.float64) for i in range(4)]
    yield clients, [np.array([i, i + 1, i + 2]) for i in range(4)], np.random.default_rng(4).normal(size=(10, 3)), 0
    ds = generate_toy_dataset(num_clients=12, num_items=24, num_blocks=2, seed=3)
    clients = [init_client(seed=7, d=4, M=24, client_id=c, dtype=np.float64) for c in range(12)]
    for c in clients:
        c.user_embedding = np.ones(4)
    yield clients, ds.client_items, np.random.default_rng(5).normal(size=(24, 4)), 8


def test_probe_equals_the_stacked_formula_bit_for_bit():
    for clients, positives, c_ref, seed in probe_fixtures():
        probe = empirical_heterogeneity_probe(clients, positives, c_ref, seed=seed)
        expected = stacked_probe(clients, positives, c_ref, seed=seed)
        assert probe.grad_diff_norms.dtype == expected.dtype
        assert probe.grad_diff_norms.tobytes() == expected.tobytes()


def test_probe_cloned_clients_zero_difference():
    a = init_client(seed=5, d=4, M=12, dtype=np.float64)
    b = init_client(seed=5, d=4, M=12, dtype=np.float64)
    b.client_id = a.client_id  # identical data and identical negative stream
    pos = np.array([1, 4, 7])
    c_ref = np.random.default_rng(3).normal(size=(12, 4))
    probe = empirical_heterogeneity_probe([a, b], [pos, pos], c_ref, seed=9)
    assert probe.grad_diff_norms[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_probe_symmetric_zero_diagonal():
    clients = [init_client(seed=6, d=3, M=10, client_id=i, dtype=np.float64) for i in range(4)]
    positions = [np.array([i, i + 1, i + 2]) for i in range(4)]
    c_ref = np.random.default_rng(4).normal(size=(10, 3))
    probe = empirical_heterogeneity_probe(clients, positions, c_ref)
    d = probe.grad_diff_norms
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)


def test_probe_planted_blocks_larger_across_than_within():
    ds = generate_toy_dataset(num_clients=12, num_items=24, num_blocks=2, seed=3)
    clients = [init_client(seed=7, d=4, M=24, client_id=c, dtype=np.float64) for c in range(12)]
    # shared user direction so gradient differences reflect the data split only
    for c in clients:
        c.user_embedding = np.ones(4)
    c_ref = np.random.default_rng(5).normal(size=(24, 4))
    probe = empirical_heterogeneity_probe(clients, ds.client_items, c_ref, seed=8)
    d = probe.grad_diff_norms
    within, across = [], []
    for i in range(12):
        for j in range(i + 1, 12):
            (within if (i < 6) == (j < 6) else across).append(d[i, j])
    assert np.mean(across) > np.mean(within)
