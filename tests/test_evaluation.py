import numpy as np
import pytest

from fed3cr.cli import run_experiment
from fed3cr.config import load_config
from fed3cr.errors import ProtocolError, ShapeError
from fed3cr.evaluation import (
    TOP_K,
    RoundMetrics,
    consensus_alignment,
    correlation_matrix,
    export_correlation_matrix,
    hr_ndcg_at_k,
    metrics_csv_lines,
    rank_candidates,
    rbo_truncated,
    top_k_ids,
    view_consistency_rbo,
)
from fed3cr.model import forward_pass, init_client
from fed3cr.toy import planted_item_vectors


def old_ranked(scores, candidates):
    """The candidates as the sort ranked them before counting replaced it:
    lexsort by descending score, then ascending id (NaN last)."""
    cand = np.asarray(candidates, dtype=np.int64)
    order = np.lexsort((cand, -scores[cand]))
    return [int(c) for c in cand[order]]


def at_candidates(scores, candidates):
    """Each row's scores of its candidates, in candidate order: the scores
    `rank_candidates` takes, from a (B, M) block of every item's."""
    return np.take_along_axis(scores, candidates, axis=1)


def test_rank_single_candidate():
    scores = np.ones((1, 1, 2)) @ np.ones(2)
    assert rank_candidates(scores, np.array([[1]]), np.array([1])).tolist() == [1]


def test_rank_tie_broken_by_ascending_id():
    # One row per test item, each the same scores and candidates.
    scores = np.zeros((2, 2, 2)) @ np.ones(2)
    cands = np.array([[5, 2], [5, 2]])
    assert rank_candidates(scores, cands, np.array([2, 5])).tolist() == [1, 2]


def test_rank_matches_full_sort_oracle():
    rng = np.random.default_rng(0)
    u = rng.normal(size=8)
    scores = rng.normal(size=(200, 8)) @ u
    cands = rng.choice(200, size=100, replace=False)
    oracle = sorted(cands, key=lambda j: (-float(scores[j]), j))
    ranks = rank_candidates(np.tile(scores[cands], (100, 1)), np.tile(cands, (100, 1)), np.array(oracle))
    assert ranks.tolist() == list(range(1, 101))


def test_rank_invariant_under_positive_rescaling():
    rng = np.random.default_rng(1)
    u = rng.normal(size=4)
    table = rng.normal(size=(30, 4))
    cands = np.tile(np.arange(30), (30, 1))
    ranks = rank_candidates(np.tile(table @ u, (30, 1)), cands, cands[0])
    assert ranks.tolist() == rank_candidates(np.tile(table @ (3.7 * u), (30, 1)), cands, cands[0]).tolist()


def test_rank_matches_the_sort_path_on_random_candidates():
    # The sort path: lexsort the candidates, then list.index the test item.
    # Scores come from a few values (ties), some are NaN (sometimes the test
    # item's), negatives repeat (replacement sampling), and the candidates
    # run from one item to every item.
    rng = np.random.default_rng(13)
    for trial in range(300):
        m = int(rng.integers(1, 40))
        scores = rng.integers(-2, 3, size=m).astype(np.float32)
        scores[rng.random(m) < 0.2] = np.nan
        test = int(rng.integers(m))
        if trial % 3 == 0:
            cands = np.concatenate(([test], np.setdiff1d(np.arange(m), [test])))
        else:
            others = np.setdiff1d(np.arange(m), [test])
            size = int(rng.integers(0, 2 * m))
            negatives = rng.choice(others, size=size, replace=True) if len(others) else others
            cands = np.concatenate(([test], negatives)).astype(np.int64)
        expected = old_ranked(scores, cands).index(test) + 1
        got = rank_candidates(scores[cands][None], cands[None], np.array([test]))
        assert got.tolist() == [expected], (scores, cands, test)
    scores = np.array([[np.nan, 1.0, np.nan, 2.0]] * 2)
    cands = np.array([[2, 0, 3, 1, 3], [2, 2, 2, 2, 2]])
    assert rank_candidates(at_candidates(scores, cands), cands, np.array([2, 2])).tolist() == [5, 1]
    with pytest.raises(ProtocolError):
        rank_candidates(scores[:1, [0, 1, 3]], np.array([[0, 1, 3]]), np.array([2]))


def test_hr_ndcg_perfect_rank():
    hits, ndcgs = hr_ndcg_at_k(np.array([1]), k=10)
    assert (hits.tolist(), ndcgs.tolist()) == ([1], [1.0])


def test_hr_ndcg_rank_ten():
    hits, ndcgs = hr_ndcg_at_k(np.array([10]), k=10)
    assert hits.tolist() == [1]
    assert ndcgs[0] == pytest.approx(1 / np.log2(11), abs=1e-4)


def test_hr_ndcg_miss():
    hits, ndcgs = hr_ndcg_at_k(np.array([11]), k=10)
    assert (hits.tolist(), ndcgs.tolist()) == ([0], [0.0])


def test_hr_ndcg_absent_item_raises():
    with pytest.raises(ProtocolError):
        rank_candidates(np.zeros((1, 3)), np.array([[1, 2, 3]]), np.array([9]))


def test_ndcg_never_exceeds_hr():
    hits, ndcgs = hr_ndcg_at_k(np.random.default_rng(2).integers(1, 31, size=50), k=10)
    assert np.all(ndcgs <= hits)


def test_rbo_identical_lists():
    assert rbo_truncated([3, 1, 2], [3, 1, 2], p=0.99) == pytest.approx(1.0)


def test_rbo_disjoint_lists():
    assert rbo_truncated([1, 2, 3], [4, 5, 6], p=0.99) == pytest.approx(0.0)


def test_rbo_hand_derived_case():
    # depth sums: (1*1 + 0.5*0.5 + 0.25*1) / (1 + 0.5 + 0.25)
    assert rbo_truncated([1, 2, 3], [1, 3, 2], p=0.5) == pytest.approx(0.8571, abs=1e-4)


def test_rbo_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = list(rng.permutation(20)[:10])
        b = list(rng.permutation(20)[:10])
        assert rbo_truncated(a, b, 0.9) == pytest.approx(rbo_truncated(b, a, 0.9), abs=1e-12)


def test_rbo_monotone_under_improving_agreement():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = list(rng.permutation(30)[:8])
        b = list(rng.permutation(30)[:8])
        base = rbo_truncated(a, b, 0.8)

        def depth_sum_oracle(x, y, p=0.8):
            num = den = 0.0
            w = 1.0
            for k in range(1, 9):
                num += w * len(set(x[:k]) & set(y[:k])) / k
                den += w
                w *= p
            return num / den

        assert base == pytest.approx(depth_sum_oracle(a, b), abs=1e-12)
        # replace b's first disagreeing position with a's item at that position
        for i in range(8):
            if a[i] != b[i]:
                improved = list(b)
                if a[i] in improved:
                    improved[improved.index(a[i])] = b[i]
                improved[i] = a[i]
                assert rbo_truncated(a, improved, 0.8) >= base - 1e-12
                break


def test_rbo_rejects_duplicates_and_bad_lengths():
    with pytest.raises(ValueError):
        rbo_truncated([1, 1, 2], [1, 2, 3], 0.5)
    with pytest.raises(ShapeError):
        rbo_truncated([1, 2], [1, 2, 3], 0.5)
    for p in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="persistence"):
            rbo_truncated([1, 2, 3], [1, 3, 2], p)


def list_top_k(scores, k):
    """Top-k ids as a Python list, by a full lexsort: descending score,
    ascending id, NaN last."""
    return [int(i) for i in np.lexsort((np.arange(len(scores)), -scores))[:k]]


def list_rbo(list_a, list_b, p):
    """Truncated RBO as one loop over the depths with two seen-sets: the
    list-based reference the array form must match bit for bit."""
    seen_a, seen_b = set(), set()
    overlap, numerator, denominator, weight = 0, 0.0, 0.0, 1.0
    for depth, (a, b) in enumerate(zip(list_a, list_b), start=1):
        if a == b:
            overlap += 1
        else:
            overlap += (a in seen_b) + (b in seen_a)
            seen_a.add(a)
            seen_b.add(b)
        numerator += weight * overlap / depth
        denominator += weight
        weight *= p
    return numerator / denominator


def test_view_rbo_is_bit_identical_to_the_list_reference():
    # Scores rounded to a few levels tie often, so the id tie-break decides
    # many top-k entries; every result must equal the loop's float exactly.
    rng = np.random.default_rng(21)
    for trial in range(1200):
        m = int(rng.integers(60, 1201))
        k = int(rng.integers(1, 61))
        p = float(rng.choice([0.5, 0.9, 0.99, rng.uniform(0.01, 0.99)]))
        levels = int(rng.integers(2, 40))
        personal = rng.integers(0, levels, m) / levels
        global_view = np.where(rng.random(m) < 0.5, personal, rng.integers(0, levels, m) / levels)
        expected = list_rbo(list_top_k(personal, k), list_top_k(global_view, k), p)
        got = view_consistency_rbo(top_k_ids(personal[None], k), global_view[None], p)
        assert got.tolist() == [expected], (trial, m, k, p)
        assert rbo_truncated(list_top_k(personal, k), list_top_k(global_view, k), p) == expected


def view_rbo(state, trace, k_prime, p):
    """RBO of the personal table's scores against C_E's."""
    u = state.user_embedding
    return view_consistency_rbo(top_k_ids((trace.params["V"] @ u)[None], k_prime), (trace.C_E @ u)[None], p)[0]


def test_view_rbo_identical_views(shared_blocks):
    state = init_client(seed=0, d=4, M=10, dtype=np.float64)
    table, _ = shared_blocks(0, 4, 10)
    state.personal_table = table.copy()
    # identity transfer: C_E == C == V so both views score identically
    from tests.test_model import rigged_identity_net

    trace = forward_pass(state, table, rigged_identity_net(4), np.array([0, 1]), enhancement="ace")
    assert view_rbo(state, trace, k_prime=10, p=0.9) == pytest.approx(1.0)


def test_view_rbo_antithetical_views_near_zero():
    m, d = 50, 2
    state = init_client(seed=1, d=d, M=m, dtype=np.float64)
    state.user_embedding = np.array([1.0, 0.0])
    scores = np.linspace(1, 2, m)
    state.personal_table = np.stack([scores, np.zeros(m)], axis=1)
    table = np.stack([scores[::-1], np.zeros(m)], axis=1)
    trace = forward_pass(state, table, None, np.array([0, 1]), enhancement="none")
    assert view_rbo(state, trace, k_prime=m, p=0.5) < 0.01


def full_sort_top_k(table, u, k):
    scores = table @ u
    return [int(i) for i in np.lexsort((np.arange(len(scores)), -scores))[:k]]


def test_view_rbo_matches_direct_oracle(shared_blocks):
    state = init_client(seed=2, d=4, M=30, dtype=np.float64)
    table, net = shared_blocks(2, 4, 30)
    net.weights[-1] = np.random.default_rng(5).normal(0, 0.4, (16, 16))
    trace = forward_pass(state, table, net, np.array([0, 3, 7]), enhancement="ace")
    got = view_rbo(state, trace, k_prime=10, p=0.9)
    personal = full_sort_top_k(state.personal_table, state.user_embedding, 10)
    global_view = full_sort_top_k(trace.C_E, state.user_embedding, 10)
    assert got == pytest.approx(rbo_truncated(personal, global_view, 0.9), abs=1e-9)


def test_top_k_ids_matches_full_lexsort_oracle():
    # Rows repeat, so scores tie; two rows score NaN, so for k = 39 the k-th
    # score is NaN; k runs past M.
    rng = np.random.default_rng(12)
    table = rng.normal(size=(6, 3)).round(0)[rng.integers(0, 6, size=40)]
    table[[7, 30]] = np.nan
    u = np.array([1.0, -2.0, 0.5])
    scores = table @ u
    oracle = [int(i) for i in np.lexsort((np.arange(40), -scores))]
    assert len(set(scores[~np.isnan(scores)])) < 38
    for k in (1, 3, 5, 20, 38, 39, 40, 41, 100):
        assert top_k_ids(scores[None], k).tolist() == [oracle[:k]], k
    assert top_k_ids(scores[None], 40)[0, -2:].tolist() == [7, 30]


def random_block(rng, b, m):
    """A (b, m) score block drawn from a few levels, so rows tie often (at
    the k-th score too), or from many, with -0.0 next to 0.0 and, in some
    rows, NaN."""
    levels = int(rng.choice([rng.integers(1, 12), 10**6]))
    block = (rng.integers(-levels, levels + 1, size=(b, m)) / levels).astype(rng.choice([np.float32, np.float64]))
    block[rng.random((b, m)) < 0.2] = -0.0
    nan_rows = rng.random(b) < 0.3
    block[nan_rows[:, None] & (rng.random((b, m)) < 0.3)] = np.nan
    return block


def test_block_functions_match_the_one_row_references_on_random_blocks():
    # Each block row must give what the list/lexsort references give for
    # that row alone.
    rng = np.random.default_rng(31)
    for trial in range(400):
        b, m = int(rng.integers(1, 9)), int(rng.integers(1, 80))
        k = int(rng.choice([1, m, m + 3, rng.integers(1, m + 1)]))
        p = float(rng.choice([0.5, 0.9, 0.99]))
        scores, other = random_block(rng, b, m), random_block(rng, b, m)
        tests = rng.integers(0, m, size=b)
        nan_tests = rng.random(b) < 0.2
        scores[nan_tests, tests[nan_tests]] = np.nan
        width = int(rng.integers(1, 2 * m + 2))
        cands = rng.integers(0, m, size=(b, width))  # with replacement: ids repeat
        cands[np.arange(b), rng.integers(0, width, size=b)] = tests
        padded = np.arange(width) >= rng.integers(0, width + 1, size=b)[:, None]
        cands = np.where(padded, tests[:, None], cands)  # rows may end in copies of their test item, as padding does

        ranks = rank_candidates(at_candidates(scores, cands), cands, tests)
        expected = [old_ranked(scores[r], cands[r]).index(tests[r]) + 1 for r in range(b)]
        assert ranks.tolist() == expected, trial

        hits, ndcgs = hr_ndcg_at_k(ranks, k)
        assert hits.tolist() == [int(r <= k) for r in expected]
        assert ndcgs.tolist() == [float(1.0 / np.log2(r + 1)) if r <= k else 0.0 for r in expected]

        top = top_k_ids(scores, k)
        assert top.tolist() == [list_top_k(scores[r], k) for r in range(b)], trial

        rbos = view_consistency_rbo(top, other, p)
        lists = [(list_top_k(scores[r], k), list_top_k(other[r], k)) for r in range(b)]
        assert rbos.tolist() == [list_rbo(a, o, p) for a, o in lists], trial

    scores = np.zeros((3, 3))
    cands = np.array([[0, 1, 2], [3, 4, 4], [1, 1, 2]])
    with pytest.raises(ProtocolError, match="test item 3 not among"):
        rank_candidates(scores, cands, np.array([2, 4, 3]))


def test_block_ndcg_discount_is_the_scalar_one_at_every_rank():
    for k in range(1, 101):
        ranks = np.arange(1, k + 2)
        hits, ndcgs = hr_ndcg_at_k(ranks, k)
        assert hits.tolist() == [1] * k + [0]
        assert ndcgs.tolist() == [float(1.0 / np.log2(r + 1)) for r in range(1, k + 1)] + [0.0]


def test_correlation_export_orthogonal_pair_all_zero(tmp_path):
    c_e = np.array([[1.0, 2.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    v = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 1.0], [1.0, -2.0]])
    path = tmp_path / "corr.csv"
    out = export_correlation_matrix(c_e, v, str(path))
    assert np.array_equal(out, np.zeros((2, 2)))
    rows = path.read_text().strip().split("\n")
    assert rows == ["0,0", "0,0"]


def test_correlation_clip_zero_is_raw():
    rng = np.random.default_rng(6)
    c_e, v = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    assert np.array_equal(correlation_matrix(c_e, v, clip=0.0), c_e.T @ v)


def test_correlation_count_monotone_in_clip():
    rng = np.random.default_rng(7)
    c_e, v = rng.normal(scale=0.05, size=(20, 6)), rng.normal(scale=0.05, size=(20, 6))
    counts = []
    for clip in [0.0, 0.001, 0.003, 0.01, 0.05]:
        counts.append(int((correlation_matrix(c_e, v, clip) != 0).sum()))
    assert counts == sorted(counts, reverse=True)


def test_metrics_csv_format():
    rows = [
        RoundMetrics(0, 0.5, 0.25, 0.75, 1.0, 2.0, 3.0, 24),
        RoundMetrics(1, 0.6, 0.3, None, 0.9, 1.9, 2.9, 24),
    ]
    lines = metrics_csv_lines(rows, 50)
    assert lines[0] == "round,hr10,ndcg10,rbo50,loss_rec,loss_a,loss_o,clients_evaluated"
    assert lines[1] == "0,0.5,0.25,0.75,1.0,2.0,3.0,24"
    assert lines[2] == "1,0.6,0.3,,0.9,1.9,2.9,24"


@pytest.mark.parametrize("rbo_k", [20, 50])
def test_metrics_csv_header_names_the_configured_rbo_depth(rbo_k, tmp_path):
    # the header labels the RBO column with the depth the run configured,
    # and HR and NDCG with TOP_K
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[dataset]\nformat = toy\n[training]\nrounds = 1\nlocal_iters = 1\ndim = 4\n[eval]\nnegatives = 20\nrbo_k = {rbo_k}\n")
    run_experiment(load_config(str(cfg)), str(tmp_path / "run"), save_checkpoints=False)
    header = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[0]
    assert header == f"round,hr{TOP_K},ndcg{TOP_K},rbo{rbo_k},loss_rec,loss_a,loss_o,clients_evaluated"


def test_alignment_is_one_under_rotation_and_scale():
    planted = planted_item_vectors(96, 4, 3)
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(16, 16)))
    # rows of q[:4] are orthonormal: planted rotated into 16 dims, scaled and shifted
    table = 0.01 * planted @ q[:4] + 5.0
    assert consensus_alignment(table, planted) == pytest.approx(1.0, abs=1e-12)
    square, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(4, 4)))
    assert consensus_alignment(3.0 * planted @ square, planted) == pytest.approx(1.0, abs=1e-12)


def test_alignment_is_symmetric_and_lies_in_the_unit_interval():
    rng = np.random.default_rng(2)
    for width in (1, 4, 16):
        table, planted = rng.normal(size=(40, width)), rng.normal(size=(40, 3))
        score = consensus_alignment(table, planted)
        assert 0.0 <= score <= 1.0
        assert consensus_alignment(planted, table) == pytest.approx(score, rel=1e-12)


def test_alignment_is_zero_for_a_table_orthogonal_to_the_planted_vectors():
    planted = planted_item_vectors(96, 8, 0)
    centred = planted - planted.mean(axis=0)
    table = np.random.default_rng(3).normal(size=(96, 16))
    table -= table.mean(axis=0)
    table -= centred @ np.linalg.lstsq(centred, table, rcond=None)[0]
    assert np.abs(centred.T @ table).max() < 1e-12
    assert consensus_alignment(table, planted) == pytest.approx(0.0, abs=1e-12)


def test_alignment_is_unchanged_by_one_item_order_applied_to_both():
    planted = planted_item_vectors(96, 4, 5)
    table = np.random.default_rng(4).normal(size=(96, 8)) + planted @ np.ones((4, 8))
    order = np.random.default_rng(5).permutation(96)
    assert consensus_alignment(table[order], planted[order]) == pytest.approx(
        consensus_alignment(table, planted), rel=1e-12
    )


def test_alignment_needs_tables_of_equal_row_count():
    with pytest.raises(ShapeError):
        consensus_alignment(np.ones((5, 2)), np.ones((6, 2)))


@pytest.mark.parametrize(
    "table, planted",
    [(np.ones(6), np.ones((6, 2))), (np.ones((6, 2)), np.ones((6, 2, 1)))],
    ids=["one-dim-table", "three-dim-planted"],
)
def test_alignment_needs_two_dimensional_tables(table, planted):
    with pytest.raises(ShapeError):
        consensus_alignment(table, planted)
