"""Experiment runner and command-line interface.

Subcommands: `run` (one training run), `ablate` (variant grid under a shared
seed and split), `sweep` (one config key over a value list), `dataset
stats` (ingestion statistics as JSON), and `degradation` (consensus-drift
bound verification on synthetic fixtures). Exit codes: 0 ok, 2 configuration
error, 3 data error, 4 runtime failure. A run picks its variant by
`variant.label` alone: C0-C6 and Fed3CR (the ablation grid), FedMF and
FedMF+ACE, or consensus-transfer and unified-transfer (the row maps, under
Fed3CR's losses). It picks its seed by `training.seed` alone. A
`--section.key` override beats the config file or manifest.json.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .config import VERSION, ExperimentConfig, load_config, resolve_config
from .datasets import load_dataset
from .degradation import QuadraticClient, bound_sweep, verify_bound
from .errors import ConfigurationError, DataError, ParseError
from .evaluation import TOP_K, RoundMetrics, metrics_csv_lines
from .federation import ABLATION_LABELS, run_training
from .checkpoint import save_client_state, save_server_state
from .toy import generate_toy_dataset


@dataclass
class ExperimentRecord:
    """What one run scored and how long it trained."""

    metrics: list[RoundMetrics]
    wall_clock_total: float = 0.0  # seconds in `run_training`
    best_hr: float = 0.0
    best_hr_round: int = -1
    best_ndcg: float = 0.0
    best_ndcg_round: int = -1

    def summary(self) -> dict:
        return {
            "best_hr": self.best_hr,
            "best_hr_round": self.best_hr_round,
            "best_ndcg": self.best_ndcg,
            "best_ndcg_round": self.best_ndcg_round,
            "rounds_evaluated": len(self.metrics),
            "wall_clock_total": self.wall_clock_total,
        }


def _prepare_outdir(outdir: str, force: bool) -> None:
    if os.path.exists(os.path.join(outdir, "manifest.json")) and not force:
        raise ConfigurationError(
            f"output directory {outdir!r} already holds a run; pass --force to overwrite"
        )
    os.makedirs(outdir, exist_ok=True)


def run_experiment(
    config: ExperimentConfig,
    outdir: str | None = None,
    force: bool = False,
    save_checkpoints: bool = True,
) -> ExperimentRecord:
    """Ingest, split, train, evaluate; write manifest, metrics CSV and final
    checkpoints under `outdir` when given: `server.bin` holds the shared
    blocks the last evaluation scored, `checkpoints/` one file of private
    blocks per client."""
    if outdir is not None:
        _prepare_outdir(outdir, force)
        with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(config.resolved(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    train, held = config.build_dataset()
    start = time.perf_counter()
    result = run_training(train, held, config.hp, config.variant)
    seconds = time.perf_counter() - start
    record = ExperimentRecord(metrics=result.metrics, wall_clock_total=seconds)
    if result.metrics:
        hr_best = max(result.metrics, key=lambda m: m.hr_at_k)
        ndcg_best = max(result.metrics, key=lambda m: m.ndcg_at_k)
        record.best_hr, record.best_hr_round = hr_best.hr_at_k, hr_best.round
        record.best_ndcg, record.best_ndcg_round = ndcg_best.ndcg_at_k, ndcg_best.round

    if outdir is not None:
        with open(os.path.join(outdir, "metrics.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(metrics_csv_lines(result.metrics, config.hp.rbo_depth(train.num_items))) + "\n")
        with open(os.path.join(outdir, "record.json"), "w", encoding="utf-8") as fh:
            json.dump(record.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        if save_checkpoints:
            save_server_state(os.path.join(outdir, "server.bin"), result.server, seed=config.hp.seed)
            ckpt_dir = os.path.join(outdir, "checkpoints")
            os.makedirs(ckpt_dir, exist_ok=True)
            for client in result.clients:
                save_client_state(
                    os.path.join(ckpt_dir, f"client_{client.client_id:05d}.bin"),
                    client,
                    seed=config.hp.seed,
                    round=config.hp.rounds,
                )
    return record


def run_ablation(
    config: ExperimentConfig,
    labels: list[str],
    outdir: str | None = None,
    force: bool = False,
) -> list[tuple[str, float, float]]:
    """One run per variant label under the shared seed and data split;
    returns (label, final hr, final ndcg) rows. An unknown label fails
    before the first run."""
    runs = [(label, dataclasses.replace(config, variant_label=label)) for label in labels]
    return _run_grid(runs, outdir, force, "ablation.csv", "variant")


def run_sweep(
    config: ExperimentConfig,
    param: str,
    values: list[str],
    outdir: str | None = None,
    force: bool = False,
) -> list[tuple[str, float, float]]:
    """One run per value of the dotted config key `param`, each value cast
    and checked as a command-line override of `config`'s manifest would
    be; returns (value, final hr, final ndcg) rows."""
    manifest = config.resolved()
    del manifest["version"]
    runs = [(str(value), resolve_config(manifest, {param: value})) for value in values]
    return _run_grid(runs, outdir, force, "sweep.csv", param, subdir_prefix=f"{param}_")


def _run_grid(
    runs: list[tuple[str, ExperimentConfig]],
    outdir: str | None,
    force: bool,
    csv_name: str,
    head: str,
    subdir_prefix: str = "",
) -> list[tuple[str, float, float]]:
    """Run each (name, config) pair without checkpoints, under
    `outdir/<subdir_prefix><name>` when `outdir` is given, and write the
    (name, final hr, final ndcg) rows to `outdir/<csv_name>` under the
    column `head`; returns the rows."""
    if outdir is not None:
        _prepare_outdir(outdir, force)
    rows = []
    for name, sub_config in runs:
        sub = os.path.join(outdir, subdir_prefix + name) if outdir is not None else None
        final = run_experiment(sub_config, sub, force=force, save_checkpoints=False).metrics[-1]
        rows.append((name, final.hr_at_k, final.ndcg_at_k))
    if outdir is not None:
        with open(os.path.join(outdir, csv_name), "w", encoding="utf-8", newline="") as fh:
            _write_rows(fh, head, rows)
    return rows


def _write_rows(fh, head: str, rows: list[tuple[str, float, float]]) -> None:
    """CSV of (head, hr10, ndcg10) rows, the cut-off being `TOP_K`; a value
    holding a comma is quoted."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([head, f"hr{TOP_K}", f"ndcg{TOP_K}"])
    writer.writerows((value, repr(hr), repr(ndcg)) for value, hr, ndcg in rows)


# -- argument handling -------------------------------------------------------------------


def _split_overrides(extra: list[str]) -> dict[str, str]:
    """Turn trailing `--section.key value` / `--section.key=value` pairs into a dict."""
    overrides: dict[str, str] = {}
    i = 0
    while i < len(extra):
        token = extra[i]
        if not token.startswith("--"):
            raise ConfigurationError(f"unexpected argument {token!r}")
        body = token[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(extra):
                raise ConfigurationError(f"override {token!r} is missing a value")
            value = extra[i + 1]
            i += 2
        if "." not in key:
            raise ConfigurationError(f"override {key!r} must be section.key")
        overrides[key] = value
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fed3cr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one training run")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--force", action="store_true")

    ab_p = sub.add_parser("ablate", help="run a variant grid under one seed/split")
    ab_p.add_argument("--config", required=True)
    ab_p.add_argument("--variants", default=",".join(ABLATION_LABELS))
    ab_p.add_argument("--out", default=None)
    ab_p.add_argument("--force", action="store_true")

    sw_p = sub.add_parser("sweep", help="sweep one config key (section.key) over a value list")
    sw_p.add_argument("--config", required=True)
    sw_p.add_argument("--param", required=True)
    sw_p.add_argument("--values", required=True, nargs="+")
    sw_p.add_argument("--out", default=None)
    sw_p.add_argument("--force", action="store_true")

    ds_p = sub.add_parser("dataset", help="dataset utilities")
    ds_sub = ds_p.add_subparsers(dest="dataset_command", required=True)
    stats_p = ds_sub.add_parser("stats", help="print ingestion statistics as JSON")
    stats_p.add_argument("--path", default="")
    stats_p.add_argument("--format", required=True, choices=("movielens-dat", "tsv", "csv", "toy"))
    stats_p.add_argument("--min-interactions", type=int, default=10)

    dg_p = sub.add_parser("degradation", help="verify the consensus-drift bound on fixtures")
    dg_p.add_argument("--fixtures", type=int, default=1000)
    dg_p.add_argument("--seed", type=int, default=0)
    dg_p.add_argument("--out", default=None)
    dg_p.add_argument("--delta-csv", default=None)
    return parser


def _cmd_run(args, overrides) -> int:
    config = load_config(args.config, overrides)
    record = run_experiment(config, args.out, force=args.force)
    print(json.dumps(record.summary(), sort_keys=True))
    return 0


def _cmd_ablate(args, overrides) -> int:
    config = load_config(args.config, overrides)
    labels = [v.strip() for v in args.variants.split(",") if v.strip()]
    rows = run_ablation(config, labels, args.out, force=args.force)
    _write_rows(sys.stdout, "variant", rows)
    return 0


def _cmd_sweep(args, overrides) -> int:
    config = load_config(args.config, overrides)
    rows = run_sweep(config, args.param, args.values, args.out, force=args.force)
    _write_rows(sys.stdout, args.param, rows)
    return 0


def _cmd_dataset_stats(args) -> int:
    if args.format == "toy":
        ds = generate_toy_dataset()
    else:
        ds = load_dataset(args.path, args.format, args.min_interactions)
    print(json.dumps(ds.stats(), sort_keys=True))
    return 0


def _cmd_degradation(args) -> int:
    summary = bound_sweep(args.fixtures, args.seed)
    worked = verify_bound(
        [
            QuadraticClient(np.array([1.0, 0.0])),
            QuadraticClient(np.array([0.0, 1.0])),
            QuadraticClient(np.array([-1.0, 0.0])),
        ]
    )
    report = {"sweep": summary, "worked_example": worked.to_dict(), "version": VERSION}
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    if args.delta_csv:
        with open(args.delta_csv, "w", encoding="utf-8") as fh:
            for row in worked.delta_matrix:
                fh.write(",".join(f"{x:.6g}" for x in row) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        if args.command in ("run", "ablate", "sweep") and "FED3CR_SEED" in os.environ:
            raise ConfigurationError("FED3CR_SEED is no longer read; pass the seed as --training.seed")
        overrides = _split_overrides(extra)
        if args.command == "run":
            return _cmd_run(args, overrides)
        if args.command == "ablate":
            return _cmd_ablate(args, overrides)
        if args.command == "sweep":
            return _cmd_sweep(args, overrides)
        if args.command == "dataset":
            if overrides:
                raise ConfigurationError("dataset stats takes no config overrides")
            return _cmd_dataset_stats(args)
        if args.command == "degradation":
            if overrides:
                raise ConfigurationError("degradation takes no config overrides")
            return _cmd_degradation(args)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ParseError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
