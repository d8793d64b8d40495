"""Set-up fills the personal tables on worker threads. These tests pin what
that may not change: the tables' bits at any worker count, a failing fill
stopping the run before any client trains, the size below which no thread
starts, and that every function the benchmark's tracer wraps still runs on
the main thread only. No test asks for more than 3 threads."""

import functools
import hashlib
import os
import threading

import numpy as np
import pytest

import fed3cr.autodiff
import fed3cr.datasets
import fed3cr.federation
import fed3cr.model
from fed3cr import seeding
from fed3cr.cli import run_experiment
from fed3cr.config import load_config
from fed3cr.datasets import leave_one_out_split
from fed3cr.federation import HyperParams, VariantConfig, run_training
from fed3cr.model import draw_personal_tables, init_client
from fed3cr.toy import generate_toy_dataset

TOY_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "toy.cfg")
TOY = leave_one_out_split(generate_toy_dataset(seed=0), seed=0)
TINY = HyperParams(rounds=2, local_iters=1, dim=8, eval_negatives=20, seed=0, rbo_k=10)

# Every (owner, attribute) the benchmark's tracer wraps that run_training
# calls, listed here because importing perfbench/rep.py edits os.environ.
TRACED = (
    (fed3cr.federation, "init_client"),
    (fed3cr.federation, "init_server"),
    (fed3cr.federation, "build_eval_candidates"),
    (fed3cr.federation, "select_clients"),
    (fed3cr.federation, "local_update"),
    (fed3cr.federation, "forward_pass"),
    (fed3cr.federation, "total_loss_t"),
    (fed3cr.federation, "aggregate_consensus"),
    (fed3cr.federation, "aggregate_theta"),
    (fed3cr.federation, "evaluate_round"),
    (fed3cr.federation, "rank_candidates"),
    (fed3cr.federation, "hr_ndcg_at_k"),
    (fed3cr.federation, "view_consistency_rbo"),
    (fed3cr.datasets.NegativeSampler, "sample_batch"),
    (fed3cr.autodiff.Tensor, "backward"),
)


@pytest.fixture
def workers(monkeypatch):
    """`use(n, floor=1)` sets the usable CPU count to n and the size floor to
    `floor`, so a draw of enough values runs on min(n, tables) workers, and
    returns the threads started since the fixture was set up."""
    started = []
    start = threading.Thread.start

    def counting_start(self):
        started.append(self)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)

    def use(n, floor=1):
        monkeypatch.setattr(fed3cr.model, "_usable_cpus", lambda: n)
        monkeypatch.setattr(fed3cr.model, "VALUES_PER_WORKER", floor)
        return started

    return use


def per_client_draw(seed, d, M, client_id, dtype):
    """The loop's reference: one client's table drawn on its own."""
    v = seeding.rng(seed, seeding.CLIENT_INIT, client_id, 1).standard_normal((M, d), dtype=dtype)
    v *= 0.01
    return v


# ids that are not their positions catch a fill that keys a stream by the
# table's position
@pytest.mark.parametrize("ids", [range(7), (4, 0, 9, 2, 7, 5, 1)], ids=["positions", "shuffled"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tables_are_bit_identical_at_any_worker_count(n, dtype, ids, workers):
    started = workers(n)
    tables = draw_personal_tables(5, 4, 9, ids, dtype)
    assert len(started) == n - 1
    for c, table in zip(ids, tables, strict=True):
        expected = per_client_draw(5, 4, 9, c, dtype)
        assert table.dtype == dtype and table.shape == (9, 4)
        assert table.tobytes() == expected.tobytes()
        assert table.tobytes() == init_client(5, 4, 9, client_id=c, dtype=dtype).personal_table.tobytes()


def test_metrics_csv_does_not_depend_on_the_worker_count(workers, tmp_path):
    digests = []
    for n in (1, 3):
        started = workers(n)
        started.clear()
        config = load_config(TOY_CFG, overrides={"training.rounds": "3"})
        run_experiment(config, str(tmp_path / str(n)), save_checkpoints=False)
        assert bool(started) == (n > 1)
        digests.append(hashlib.sha256((tmp_path / str(n) / "metrics.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


class FailingFill:
    """A generator whose fill raises, noting the thread it ran on."""

    def __init__(self):
        self.thread = None

    def standard_normal(self, *args, **kwargs):
        self.thread = threading.current_thread()
        raise RuntimeError("fill failed")


@pytest.mark.parametrize("client, on_main", [(0, True), (1, False)], ids=["caller-share", "worker-share"])
def test_a_failing_fill_stops_the_run_before_any_client_trains(client, on_main, workers, monkeypatch):
    workers(2)
    failing = FailingFill()
    rng = seeding.rng

    def rng_with_one_failing_table(seed, tag, *ids):
        return failing if (tag, *ids) == (seeding.CLIENT_INIT, client, 1) else rng(seed, tag, *ids)

    monkeypatch.setattr(seeding, "rng", rng_with_one_failing_table)
    used = []
    for name in ("local_update", "evaluate_round"):
        monkeypatch.setattr(fed3cr.federation, name, lambda *a, name=name, **k: used.append(name))
    with pytest.raises(RuntimeError, match="fill failed"):
        run_training(TOY, TINY, VariantConfig.from_label("Fed3CR"))
    assert (failing.thread is threading.main_thread()) == on_main
    assert used == []


def test_a_toy_sized_fill_starts_no_thread(workers):
    started = workers(3, floor=fed3cr.model.VALUES_PER_WORKER)
    draw_personal_tables(0, 16, 96, range(24))  # configs/toy.cfg: 36,864 values
    init_client(0, 32, 4096)  # one table is one worker, however large
    assert started == []
    draw_personal_tables(0, 32, 2048, range(2))  # two floors' worth: one thread
    assert len(started) == 1


def test_traced_functions_run_on_the_main_thread_only(workers, monkeypatch):
    started = workers(2)
    entered = {}

    def on_entry(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered.setdefault(name, set()).add(threading.current_thread())
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr in TRACED:
        name = f"{owner.__name__}.{attr}"
        monkeypatch.setattr(owner, attr, on_entry(name, getattr(owner, attr)))
    run_training(TOY, TINY, VariantConfig.from_label("Fed3CR"))
    assert started, "the personal tables were filled without a worker thread"
    assert len(entered) == len(TRACED)
    assert {name: threads for name, threads in entered.items() if threads != {threading.main_thread()}} == {}
