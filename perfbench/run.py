"""fed3cr benchmark: one workload, measured for a fixed time, checked, reported.

    python3 perfbench/run.py --workload toy --seed 1 --seconds 35 --trace 0

Each repetition is one ``fed3cr.cli.run_experiment`` call in a fresh process
(``perfbench/rep.py``). Repetitions start while the next one is expected to
finish inside ``--seconds``, and always until the pooled rounds support the
tail percentile. With ``--trace 0`` the end-to-end metrics come from untraced
repetitions, with every timing scaled to a reference host speed
(``hostspeed.py``). With ``--trace 1`` each untraced repetition is followed by a
traced one, and the per-layer metrics come from the traced ones.

The last stdout line is one JSON object: ``correct``, ``attempted`` (the
repetitions started), ``failed`` (those that crashed or failed a check) and
``metrics``. The lines before it give the environment, the fingerprints and
every metric with its unit. The full result is also written under
``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import fmean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from hostspeed import CAL_REF_S, scaled  # noqa: E402
from summary import highest_supported, min_samples_for, percentile, samples_beyond  # noqa: E402

WORKLOADS = ("toy", "ml1m-shape", "eval-full-rank")

# The tail percentile gated on every workload. p90 would need 100 rounds per
# run, more than ml1m-shape completes in one run (see README.md).
TAIL = 75.0
MIN_ROUNDS = min_samples_for(TAIL)

# Every run, child processes included, ends well inside the 180 s limit.
DEADLINE_S = 160.0

END_TO_END = (
    ("setup_s", "s"),
    ("round_s.p50", "s"),
    (f"round_s.p{TAIL:g}", "s"),
    ("client_steps_per_s", "steps/s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("upload_mb_per_round", "MB"),
    ("clients_ok_frac", "ratio"),
)
# The end-to-end metrics that are timings, scaled to the reference host speed.
TIMINGS = ("setup_s", "round_s.p50", f"round_s.p{TAIL:g}", "client_steps_per_s", "run_s")
# Values that are exact: every repetition of one workload and seed must agree.
EXACT = ("metrics_csv_sha256", "upload_bytes", "selected", "uploaded", "checkpoint_bytes")


EXACT_UNITS = ("count", "bytes", "tensors/step")


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("trace.spans", "federation.upload.calls"):
        return "count"
    if ".bytes" in name:
        return "bytes"
    if name == "autodiff.tensors_per_step":
        return "tensors/step"
    if name == "trace.round_coverage":
        return "ratio"
    return "s"


def run_rep(workload: str, seed: int, index: int, traced: bool, deadline: float) -> dict:
    """One repetition in a child process; never raises for a failed child."""
    tag = f"{workload}-seed{seed}-{os.getpid()}-{index}"
    outdir = os.path.join(OUT, f"work-{tag}")
    cmd = [
        sys.executable,
        os.path.join(HERE, "rep.py"),
        "--config", os.path.join(HERE, "workloads", f"{workload}.cfg"),
        "--seed", str(seed),
        "--outdir", outdir,
    ]
    if traced:
        cmd += ["--trace-out", os.path.join(OUT, f"spans-{workload}-seed{seed}-rep{index}.jsonl")]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - time.perf_counter(), 1.0)
        )
    except subprocess.TimeoutExpired:
        return {"failures": ["timed out"], "wall_s": time.perf_counter() - started, "traced": traced}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"failures": [f"crashed: {tail[0]}"], "wall_s": wall, "traced": traced}
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep.update(wall_s=wall, traced=traced)
    return rep


def run_reps(workload: str, seed: int, seconds: float, traced: bool, t0: float) -> list[dict]:
    """Repeat (untraced, or untraced then traced) until the time is used up."""
    deadline = t0 + DEADLINE_S
    # Untraced runs pool rounds until the tail percentile is supported; a
    # traced run needs one (untraced, traced) pair.
    min_rounds = 0 if traced else MIN_ROUNDS
    reps: list[dict] = []
    group_walls: list[float] = []
    while not any(r["failures"] for r in reps):
        elapsed = time.perf_counter() - t0
        rounds = sum(len(r["round_s"]) for r in reps if not r["traced"])
        if group_walls and rounds >= min_rounds and elapsed + median(group_walls) > seconds:
            break
        if elapsed > DEADLINE_S / 2:
            break
        start = time.perf_counter()
        reps.append(run_rep(workload, seed, len(reps), False, deadline))
        if traced and not reps[-1]["failures"]:
            reps.append(run_rep(workload, seed, len(reps), True, deadline))
        group_walls.append(time.perf_counter() - start)
    return reps


def cross_checks(reps: list[dict]) -> list[str]:
    """Exact values must agree across every repetition of one workload and seed."""
    ok = [r for r in reps if not r["failures"]]
    failures = []
    for key in EXACT:
        values = {r[key] for r in ok}
        if len(values) > 1:
            failures.append(f"{key} differs across repetitions: {sorted(values)}")
    traced = [r for r in ok if r["traced"]]
    exact_layers = [k for k in traced[0]["layers"] if layer_unit(k) in EXACT_UNITS] if traced else []
    for key in exact_layers:
        values = {r["layers"].get(key) for r in traced}
        if len(values) > 1:
            failures.append(f"{key} differs across traced repetitions: {sorted(values)}")
    return failures


def end_to_end(reps: list[dict], host_scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics. Each timing is scaled to the reference host
    speed by the calibration next to it (see hostspeed.py): a round by the
    loop timed just before it, set-up by the mean of the loops before and
    after it, a whole run by its repetition's median. With `host_scaled`
    false the timings are as measured."""
    scale = scaled if host_scaled else (lambda seconds, cal_s: seconds)
    rounds = [scale(t, c) for r in reps for t, c in zip(r["round_s"], r["cal_s"])]
    steps = sum(r["uploaded"] * r["local_iters"] for r in reps)
    return {
        "setup_s": median([scale(r["setup_s"], fmean(r["setup_cal_s"])) for r in reps]),
        "round_s.p50": percentile(rounds, 50.0),
        f"round_s.p{TAIL:g}": percentile(rounds, TAIL),
        "client_steps_per_s": steps / sum(rounds),
        "run_s": median([scale(r["run_s"], median(r["cal_s"])) for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "upload_mb_per_round": sum(r["upload_bytes"] for r in reps) / len(rounds) / 1e6,
        "clients_ok_frac": sum(r["uploaded"] for r in reps) / sum(r["selected"] for r in reps),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    # Counts agree across repetitions (see cross_checks); times are medians.
    layers = {
        k: v if layer_unit(k) in EXACT_UNITS else median([r["layers"][k] for r in traced])
        for k, v in traced[0]["layers"].items()
    }
    layers["trace.overhead_s"] = median([r["run_s"] for r in traced]) - median([r["run_s"] for r in untraced])
    return layers, traced[0]["absent"]


def cpu_times() -> list[int] | None:
    """The aggregate `cpu` line of /proc/stat, or None where there is none."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def steal_frac(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of all CPU time the hypervisor took (the 8th /proc/stat field)."""
    if not before or not after or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fed3cr", "cli.py")):
        print(f"benchmark: no fed3cr sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = environment()
    cpu_before = cpu_times()
    t0 = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace), t0)
    env["cpu_steal_frac"] = steal_frac(cpu_before, cpu_times())

    ok = [r for r in reps if not r["failures"]]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    failures = [f for r in reps for f in r["failures"]] + cross_checks(reps)
    # A run whose repetitions all crashed still reports, with no metrics.
    measured = bool(untraced) and (not args.trace or bool(traced))
    metrics, absent, n_rounds, fingerprint, unscaled = {}, [], 0, None, None

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# repetitions: {len(untraced)} untraced, {len(traced)} traced, {len(reps)} attempted")
    if measured:
        n_rounds = sum(len(r["round_s"]) for r in untraced)
        e2e = end_to_end(untraced)
        unscaled = {k: v for k, v in end_to_end(untraced, host_scaled=False).items() if k in TIMINGS}
        if args.trace:
            values, absent = per_layer(untraced, traced)
            units = {k: layer_unit(k) for k in values}
        else:
            values, units = e2e, dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        env.update(untraced[0]["env"])
        fingerprint = dict(untraced[0]["fingerprint"], metrics_csv_sha256=untraced[0]["metrics_csv_sha256"])
        tail = highest_supported(n_rounds)
        tail_text = f"p{tail:g}" if tail is not None else "none"
        print(
            f"# round_s: n={n_rounds} rounds pooled over {len(untraced)} untraced repetitions; "
            f"{samples_beyond(n_rounds, TAIL)} lie beyond p{TAIL:g}; "
            f"the highest percentile with >=10 beyond is {tail_text}"
        )
        print(f"# fingerprint: {json.dumps(fingerprint)}")
        print(f"# clients_failed_frac: {1.0 - e2e['clients_ok_frac']!r}")
        cal = median([c for r in untraced for c in r["cal_s"]])
        print(f"# host speed: calibration loop {cal * 1e6:.1f} us (reference {CAL_REF_S * 1e6:.1f} us); "
              "timings as measured: " + json.dumps(unscaled))
        for name, m in metrics.items():
            print(f"{name:44s} {m['value']!r} {m['unit']}")
        if absent:
            print(f"# absent layers (reported as absent, not measured): {', '.join(absent)}")
    else:
        print("# no repetition completed, so nothing was measured")
    print(f"# environment: {json.dumps(env)}")
    print("# checks: " + ("all passed" if not failures else "; ".join(failures)))

    result = {
        "correct": measured and not failures,
        "attempted": len(reps),
        "failed": sum(1 for r in reps if r["failures"]),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, environment=env,
                  fingerprint=fingerprint, unscaled=unscaled, failures=failures, absent=absent, rounds=n_rounds,
                  reps=reps)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if measured else 1


if __name__ == "__main__":
    sys.exit(main())
