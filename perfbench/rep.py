"""One benchmark repetition, in a process of its own so that its peak RSS
belongs to this workload alone.

It runs one experiment through ``fed3cr.cli.run_experiment``, times set-up,
every round and the write phase, times the host-speed loop of
``hostspeed.py`` before set-up and between rounds, checks the outputs, and
prints one JSON object on stdout. With ``--trace-out`` it also records spans around the
layers listed in ``LAYERS`` and writes them to that file.

    python3 perfbench/rep.py --config perfbench/workloads/toy.cfg --seed 1 \
        --outdir perfbench/out/work [--trace-out perfbench/out/spans.jsonl]
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy is imported.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)
os.environ.pop("FED3CR_SEED", None)  # the seed comes from the command line only

import argparse
import hashlib
import json
import math
import resource
import shutil
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import fed3cr.cli  # noqa: E402
import fed3cr.federation  # noqa: E402
from fed3cr.config import load_config  # noqa: E402

from hostspeed import calibrate  # noqa: E402
from tracer import Tracer, counts_under, descendant_self_time, summarize  # noqa: E402

# (metric prefix, module whose attribute is replaced, attribute). The patch
# site is the binding the caller looks up, not the defining module.
LAYERS = (
    ("federation.run_training", "fed3cr.cli", "run_training"),
    ("config.build_dataset", "fed3cr.config", "ExperimentConfig.build_dataset"),
    ("toy.generate_toy_dataset", "fed3cr.config", "generate_toy_dataset"),
    ("datasets.leave_one_out_split", "fed3cr.config", "leave_one_out_split"),
    ("model.init_client", "fed3cr.federation", "init_client"),
    ("federation.init_server", "fed3cr.federation", "init_server"),
    ("datasets.build_eval_candidates", "fed3cr.federation", "build_eval_candidates"),
    ("federation.select_clients", "fed3cr.federation", "select_clients"),
    ("federation.local_update", "fed3cr.federation", "local_update"),
    ("datasets.sample_batch", "fed3cr.datasets", "NegativeSampler.sample_batch"),
    ("model.forward_pass", "fed3cr.federation", "forward_pass"),
    ("losses.total_loss_t", "fed3cr.federation", "total_loss_t"),
    ("autodiff.backward", "fed3cr.autodiff", "Tensor.backward"),
    ("federation.aggregate_consensus", "fed3cr.federation", "aggregate_consensus"),
    ("federation.aggregate_theta", "fed3cr.federation", "aggregate_theta"),
    ("federation.evaluate_round", "fed3cr.federation", "evaluate_round"),
    ("evaluation.rank_candidates", "fed3cr.federation", "rank_candidates"),
    ("evaluation.hr_ndcg_at_k", "fed3cr.federation", "hr_ndcg_at_k"),
    ("evaluation.view_consistency_rbo", "fed3cr.federation", "view_consistency_rbo"),
    ("checkpoint.save_client_state", "fed3cr.cli", "save_client_state"),
)
TENSOR_COUNTER = ("autodiff.Tensor", "fed3cr.autodiff", "Tensor.__init__")
UPLOAD_BLOCKS = ("consensus", "transfer_net.w0", "transfer_net.b0", "transfer_net.w1", "transfer_net.b1")


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced repetition reports when no layer is absent."""
    names = [f"{prefix}.{field}" for prefix, _, _ in LAYERS for field in ("calls", "s", "self_s")]
    names += ["model.forward_pass.s.train", "model.forward_pass.s.eval", "autodiff.tensors_per_step"]
    names += [f"federation.upload.bytes.{b}" for b in UPLOAD_BLOCKS] + ["federation.upload.calls"]
    names += ["cli.write_s", "checkpoint.bytes", "trace.round_s", "trace.round_coverage", "trace.spans"]
    return names


class RoundProbe:
    """Marks each round at its `select_clients` call, routes uploads through a
    counting `UploadChannel`, and notes when `run_training` returns.

    At each `select_clients` call the previous round ends, `calibrate` runs,
    and then the next round starts, so no round includes the calibration.
    Installed at module attributes, because `run_experiment` takes no channel
    and no round hook."""

    def __init__(self, clock, tracer: Tracer | None = None):
        self.clock = clock
        self.tracer = tracer
        self.enters: list[float] = []
        self.starts: list[float] = []
        self.cal_s: list[float] = []
        self.selected = 0
        self.train_end: float | None = None
        self.channel = fed3cr.federation.UploadChannel()
        self._round_span = None
        self._saved: list[tuple[object, str, object]] = []

    def _end_round(self) -> None:
        if self._round_span is not None and self._round_span.end is None:
            self.tracer.close(self._round_span)

    def install(self) -> None:
        fed, cli = fed3cr.federation, fed3cr.cli
        select, train = fed.select_clients, cli.run_training

        def select_clients(*args, **kwargs):
            self.enters.append(self.clock())
            if self.tracer is not None:
                self._end_round()
            self.cal_s.append(calibrate(self.clock))
            self.starts.append(self.clock())
            if self.tracer is not None:
                self._round_span = self.tracer.open("round")
            chosen = select(*args, **kwargs)
            self.selected += len(chosen)
            return chosen

        def run_training(*args, **kwargs):
            try:
                return train(*args, channel=self.channel, **kwargs)
            finally:
                if self.tracer is not None:
                    self._end_round()
                self.train_end = self.clock()

        self._saved = [(fed, "select_clients", select), (cli, "run_training", train)]
        fed.select_clients = select_clients
        cli.run_training = run_training

    def restore(self) -> None:
        for owner, name, original in self._saved:
            setattr(owner, name, original)
        self._saved = []

    def round_times(self) -> list[float]:
        ends = self.enters[1:] + [self.train_end]
        return [b - a for a, b in zip(self.starts, ends)]

    def calibration_time(self) -> float:
        return sum(b - a for a, b in zip(self.enters, self.starts))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
    }


def check_outputs(config, record, probe: RoundProbe, outdir: str) -> list[str]:
    """Correctness checks on one finished run; returns the failed ones."""
    failures = []
    n_clients = config.dataset["toy_clients"]
    if len(probe.starts) != config.hp.rounds:
        failures.append(f"{len(probe.starts)} rounds ran, {config.hp.rounds} configured")
    if not record.metrics or record.metrics[-1].round != config.hp.rounds - 1:
        failures.append("the last round was not evaluated")
    for m in record.metrics:
        terms = {"loss_rec": m.loss_rec, "loss_a": m.loss_a, "loss_o": m.loss_o, "hr": m.hr_at_k, "ndcg": m.ndcg_at_k}
        bad = [k for k, v in terms.items() if not math.isfinite(v)]
        if bad:
            failures.append(f"round {m.round}: non-finite {', '.join(bad)}")
        if m.clients_evaluated != n_clients:
            failures.append(f"round {m.round}: {m.clients_evaluated} clients evaluated, expected {n_clients}")
    for rec in probe.channel.records:
        names = [b[0] for b in rec["blocks"]]
        leaked = [n for n in names if n != "consensus" and not n.startswith("transfer_net.")]
        if leaked or "consensus" not in names:
            failures.append(f"round {rec['round']} client {rec['client_id']} uploaded blocks {names}")
            break
    ckpts = os.listdir(os.path.join(outdir, "checkpoints"))
    if len(ckpts) != n_clients:
        failures.append(f"{len(ckpts)} checkpoints written, expected {n_clients}")
    return failures


def measure(config_path: str, seed: int, outdir: str, trace_out: str | None = None) -> dict:
    """Run one experiment and return its timings, counts, checks and fingerprint."""
    config = load_config(config_path, {"training.seed": str(seed)})
    clock = time.perf_counter
    tracer = None
    if trace_out is not None:
        tracer = Tracer(clock)
        for name, module, attr in LAYERS:
            tracer.wrap(name, module, attr)
        tracer.wrap_count(*TENSOR_COUNTER)
    probe = RoundProbe(clock, tracer)
    probe.install()
    root = tracer.open("cli.run_experiment") if tracer else None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cal_start = calibrate(clock)
            t0 = clock()
            record = fed3cr.cli.run_experiment(config, outdir)
            t_end = clock()
    finally:
        probe.restore()  # installed over the tracer's wrappers, so removed first
        if tracer is not None:
            tracer.close(root)
            tracer.restore()

    last = record.metrics[-1] if record.metrics else None
    out = {
        "rounds": config.hp.rounds,
        "local_iters": config.hp.local_iters,
        "setup_s": probe.enters[0] - t0,
        "round_s": probe.round_times(),
        "run_s": t_end - t0 - probe.calibration_time(),
        "setup_cal_s": [cal_start, probe.cal_s[0]],
        "cal_s": probe.cal_s,
        "write_s": t_end - probe.train_end,
        "selected": probe.selected,
        "uploaded": len(probe.channel.records),
        "upload_bytes": sum(r["total_nbytes"] for r in probe.channel.records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "metrics_csv_sha256": _sha256(os.path.join(outdir, "metrics.csv")),
        "checkpoint_bytes": sum(e.stat().st_size for e in os.scandir(os.path.join(outdir, "checkpoints"))),
        "warnings": [str(w.message) for w in caught[:5]],
        "warning_count": len(caught),
        "fingerprint": None if last is None else {
            "round": last.round,
            "hr@10": last.hr_at_k,
            "ndcg@10": last.ndcg_at_k,
            "rbo": last.rbo,
            "loss_rec": last.loss_rec,
            "loss_a": last.loss_a,
            "loss_o": last.loss_o,
        },
        "failures": check_outputs(config, record, probe, outdir),
        "env": _environment(),
    }
    if tracer is not None:
        out["layers"] = _layer_metrics(tracer, probe, out)
        out["absent"] = list(tracer.absent)
        tracer.dump(trace_out)
    return out


def _layer_metrics(tracer: Tracer, probe: RoundProbe, out: dict) -> dict[str, float]:
    """Per-layer calls, times and counts of one traced repetition; absent layers are left out."""
    spans = tracer.spans
    table = summarize(spans)
    layers: dict[str, float] = {}
    for prefix, _, _ in LAYERS:
        if prefix in tracer.absent:
            continue
        row = table.get(prefix, {})
        for field in ("calls", "s", "self_s"):
            layers[f"{prefix}.{field}"] = row.get(field, 0.0)
    fwd = table.get("model.forward_pass")
    if fwd is not None:
        layers["model.forward_pass.s.train"] = fwd.get("s.federation.local_update", 0.0)
        layers["model.forward_pass.s.eval"] = fwd.get("s.federation.evaluate_round", 0.0)
    steps = table.get("autodiff.backward", {}).get("calls.federation.local_update", 0)
    if TENSOR_COUNTER[0] not in tracer.absent and steps:
        layers["autodiff.tensors_per_step"] = counts_under(spans, TENSOR_COUNTER[0], "federation.local_update") / steps
    per_block = dict.fromkeys(UPLOAD_BLOCKS, 0)
    for rec in probe.channel.records:
        for name, _, nbytes in rec["blocks"]:
            per_block[name] = per_block.get(name, 0) + nbytes
    layers.update({f"federation.upload.bytes.{k}": v for k, v in per_block.items()})
    layers["federation.upload.calls"] = len(probe.channel.records)
    layers["cli.write_s"] = out["write_s"]
    layers["checkpoint.bytes"] = out["checkpoint_bytes"]
    round_s = sum(out["round_s"])
    layers["trace.round_s"] = round_s
    layers["trace.round_coverage"] = descendant_self_time(spans, "round") / round_s
    layers["trace.spans"] = len(spans)
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    try:
        result = measure(args.config, args.seed, args.outdir, args.trace_out)
    finally:
        shutil.rmtree(args.outdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
