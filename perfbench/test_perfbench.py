"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import rep  # noqa: E402
from hostspeed import CAL_REF_S, calibrate  # noqa: E402
import run  # noqa: E402
from summary import highest_supported, min_samples_for, percentile, samples_beyond  # noqa: E402
from tracer import Span, Tracer, counts_under, descendant_self_time, self_times, summarize  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- percentile rule ---------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 75) == 75.0
    assert percentile(values, 90) == 90.0
    assert percentile(list(reversed(values)), 100) == 100.0
    assert percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_needs_ten_samples_beyond():
    assert samples_beyond(40, 75) == 10
    assert samples_beyond(39, 75) == 9
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert min_samples_for(75) == 40
    assert min_samples_for(90) == 100
    assert min_samples_for(50) == 20


def test_highest_supported_percentile():
    assert highest_supported(150) == 90.0  # p95 leaves 7 beyond
    assert highest_supported(200) == 95.0
    assert highest_supported(45) == 75.0
    assert highest_supported(19) is None


def test_untraced_runs_pool_enough_rounds_for_the_gated_tail():
    assert run.MIN_ROUNDS == min_samples_for(run.TAIL)
    assert samples_beyond(run.MIN_ROUNDS, run.TAIL) >= 10


# -- host-speed scaling ------------------------------------------------------------------


def _rep(round_s, cal_s, setup_cal_s, **extra):
    return dict(round_s=round_s, cal_s=cal_s, setup_s=1.0, setup_cal_s=setup_cal_s, run_s=10.0,
                uploaded=4, selected=4, local_iters=5, upload_bytes=400, peak_rss_mb=50.0, **extra)


def test_timings_scale_by_the_calibration_beside_them():
    ref = CAL_REF_S
    reps = [_rep([0.2, 0.2], [ref, 2 * ref], [ref, 3 * ref])]
    raw = run.end_to_end(reps, host_scaled=False)
    assert raw["round_s.p50"] == 0.2 and raw["setup_s"] == 1.0 and raw["run_s"] == 10.0
    scaled = run.end_to_end(reps)
    assert scaled["round_s.p50"] == pytest.approx(0.1)  # the round timed at half speed
    assert scaled[f"round_s.p{run.TAIL:g}"] == pytest.approx(0.2)
    assert scaled["client_steps_per_s"] == pytest.approx(4 * 5 / 0.3)
    assert scaled["setup_s"] == pytest.approx(0.5)  # mean of the loops around set-up
    assert scaled["run_s"] == pytest.approx(10.0 / 1.5)  # the repetition's median loop
    for key in ("peak_rss_mb", "upload_mb_per_round", "clients_ok_frac"):
        assert scaled[key] == raw[key]


def test_calibration_times_the_loop():
    ticks = iter(range(100))
    assert calibrate(lambda: float(next(ticks))) == 1.0
    assert 0.0 < calibrate() < 1.0


# -- self time ---------------------------------------------------------------------------


def _span(id, start, end, parent=None, name="s"):
    s = Span(id, name, start, parent)
    s.end = end
    return s


def test_self_time_subtracts_merged_child_cover():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps span 1: [1, 5] is covered once
        _span(3, 9.0, 12.0, parent=0),  # clipped to the parent's end: [9, 10]
        _span(4, 2.5, 4.0, parent=2),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.5)
    assert own[1] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.5)


def test_tracer_spans_nest_and_summarize_by_parent():
    clock = FakeClock()
    t = Tracer(clock)
    root = t.open("update")
    clock.now = 1.0
    child = t.open("forward")
    clock.now = 3.0
    t.close(child)
    clock.now = 4.0
    t.close(root)
    clock.now = 5.0
    ev = t.open("evaluate")
    clock.now = 6.0
    inner = t.open("forward")
    clock.now = 6.5
    t.close(inner)
    clock.now = 7.0
    t.close(ev)

    table = summarize(t.spans)
    assert table["forward"]["calls"] == 2
    assert table["forward"]["s"] == pytest.approx(2.5)
    assert table["forward"]["s.update"] == pytest.approx(2.0)
    assert table["forward"]["s.evaluate"] == pytest.approx(0.5)
    assert table["update"]["self_s"] == pytest.approx(2.0)
    assert table["evaluate"]["self_s"] == pytest.approx(1.5)
    assert descendant_self_time(t.spans, "update") == pytest.approx(2.0)


def test_close_ends_open_descendants():
    clock = FakeClock()
    t = Tracer(clock)
    outer = t.open("outer")
    t.open("left-open")
    clock.now = 2.0
    t.close(outer)
    assert [s.end for s in t.spans] == [2.0, 2.0]
    assert t.stack == []


def test_counts_attach_to_innermost_span_and_roll_up():
    t = Tracer(FakeClock())
    outer = t.open("local_update")
    t.count("tensor")
    inner = t.open("forward")
    t.count("tensor")
    t.count("tensor")
    t.close(inner)
    t.close(outer)
    t.count("tensor")  # no open span
    assert counts_under(t.spans, "tensor", "local_update") == 3
    assert counts_under(t.spans, "tensor", "forward") == 2
    assert t.unattributed["tensor"] == 1


# -- absent names ------------------------------------------------------------------------


def test_missing_targets_are_reported_absent_not_raised():
    t = Tracer()
    assert not t.wrap("gone.fn", "json", "no_such_function")
    assert not t.wrap("gone.module", "perfbench_no_such_module", "fn")
    assert not t.wrap("gone.method", "json", "JSONDecoder.no_such_method")
    assert not t.wrap_count("gone.count", "json", "NoSuchClass.__init__")
    assert t.absent == ["gone.fn", "gone.module", "gone.method", "gone.count"]


def test_wrap_and_restore_are_transparent():
    original = json.dumps
    t = Tracer()
    assert t.wrap("json.dumps", "json", "dumps")
    assert json.dumps is not original
    assert json.dumps({"a": 1}) == original({"a": 1})
    t.restore()
    assert json.dumps is original
    assert summarize(t.spans)["json.dumps"]["calls"] == 1


# -- one repetition, end to end --------------------------------------------------------

TINY = """
[dataset]
format = toy
toy_clients = 8
toy_items = 64
toy_blocks = 4

[training]
rounds = 3
local_iters = 2
dim = 8

[eval]
interval = 1
negatives = 10
rbo_k = 10
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def test_traced_repetition_reports_every_layer_and_matches_untraced(tiny_config, tmp_path):
    plain = rep.measure(tiny_config, 3, str(tmp_path / "plain"))
    traced = rep.measure(tiny_config, 3, str(tmp_path / "traced"), str(tmp_path / "spans.jsonl"))
    assert plain["failures"] == [] and traced["failures"] == []
    assert traced["metrics_csv_sha256"] == plain["metrics_csv_sha256"]
    assert traced["absent"] == []
    assert sorted(traced["layers"]) == sorted(rep.layer_metric_names())
    layers = traced["layers"]
    assert layers["federation.local_update.calls"] == 8 * 3
    assert layers["autodiff.backward.calls"] == 8 * 3 * 2
    assert layers["autodiff.tensors_per_step"] > 0
    assert layers["model.forward_pass.calls"] == 8 * 3 * 2 + 8 * 3  # train steps + eval
    assert layers["federation.upload.calls"] == 8 * 3
    assert 0.9 <= layers["trace.round_coverage"] <= 1.0
    assert len(plain["round_s"]) == len(plain["cal_s"]) == 3
    assert all(c > 0 for c in plain["cal_s"] + plain["setup_cal_s"])
    assert plain["uploaded"] == plain["selected"] == 24
    with open(tmp_path / "spans.jsonl") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == layers["trace.spans"]
    assert all(row["end"] >= row["start"] for row in rows)


def test_renamed_layer_is_absent_and_the_run_still_completes(tiny_config, tmp_path, monkeypatch):
    monkeypatch.setattr(rep, "LAYERS", rep.LAYERS + (("model.moved_away", "fed3cr.model", "moved_away"),))
    out = rep.measure(tiny_config, 3, str(tmp_path / "run"), str(tmp_path / "spans.jsonl"))
    assert out["failures"] == []
    assert out["absent"] == ["model.moved_away"]
    assert not any(k.startswith("model.moved_away") for k in out["layers"])


def test_cross_checks_catch_disagreeing_exact_values():
    base = {"failures": [], "metrics_csv_sha256": "a", "upload_bytes": 10, "selected": 4, "uploaded": 4,
            "checkpoint_bytes": 7}
    traced = dict(base, traced=True, layers={"autodiff.tensors_per_step": 94.0, "autodiff.backward.s": 1.0})
    assert run.cross_checks([dict(base, traced=False), traced, dict(traced)]) == []
    other = dict(traced, layers={"autodiff.tensors_per_step": 95.0, "autodiff.backward.s": 2.0})
    assert run.cross_checks([dict(base, traced=False), traced, other]) == [
        "autodiff.tensors_per_step differs across traced repetitions: [94.0, 95.0]"
    ]
    assert run.cross_checks([dict(base, traced=False), dict(base, traced=False, metrics_csv_sha256="b")]) == [
        "metrics_csv_sha256 differs across repetitions: ['a', 'b']"
    ]


@pytest.mark.parametrize("trace", [0, 1])
def test_crashed_repetition_still_prints_a_failed_result(tmp_path, monkeypatch, capsys, trace):
    # rep.py gets a config that does not exist, so measure() raises in the child.
    real_run_rep = run.run_rep
    monkeypatch.setattr(run, "run_rep", lambda workload, *args: real_run_rep("no-such-workload", *args))
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    assert run.main(["--workload", "toy", "--seed", "1", "--seconds", "1", "--trace", str(trace)]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert json.loads(out[-1]) == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    assert out[-2].startswith("# checks: crashed: FileNotFoundError")
    with open(tmp_path / f"result-toy-seed1-trace{trace}.json", encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["correct"] is False and record["failures"][0].startswith("crashed: FileNotFoundError")


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == rep.layer_metric_names() + ["trace.overhead_s"]
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])
