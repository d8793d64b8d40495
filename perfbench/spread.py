"""Run-to-run spread of the end-to-end metrics, for setting and checking bounds.

    python3 perfbench/spread.py --workload toy

Runs the benchmark for BENCHMARK.json's run_seconds once with each of the
seeds 1 to 10, one run at a time, and prints for each end-to-end metric the
median and the distance between the first and third quartile as a share of
the median, next to a third of the bound in BENCHMARK.json. Every run's last line is kept in perfbench/out/spread-*.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from summary import relative_iqr  # noqa: E402

SEEDS = range(1, 11)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", f"spread-{args.workload}.jsonl")
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in SEEDS:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}", file=sys.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(last, seed=seed, workload=args.workload)) + "\n")
        print(f"seed {seed}: wall={time.perf_counter() - started:.1f}s correct={last['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items()), flush=True)
        for name in values:
            values[name].append(last["metrics"][name]["value"])

    print(f"{'metric':24s} {'median':>12s} {'rel IQR':>8s} {'bound/3':>8s}")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        spread = relative_iqr(v)
        flag = "" if spread <= m["bound"] / 3 else "  WIDE"
        print(f"{m['name']:24s} {median(v):12.6g} {spread:8.4f} {m['bound'] / 3:8.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
