import dataclasses
import json
import os
import re

import pytest

from fed3cr.cli import main, run_ablation, run_experiment, run_sweep
from fed3cr.config import load_config
from fed3cr.errors import ConfigurationError
from fed3cr.federation import VARIANT_LABELS, HyperParams, VariantConfig, config_key

TOY_CFG = """
[dataset]
format = toy
toy_items = 48
toy_blocks = 4

[training]
rounds = 2
local_iters = 2
dim = 8
seed = 3
lr = 0.1

[variant]
label = Fed3CR

[eval]
negatives = 20
rbo_k = 10
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_CFG)
    return str(path)


def test_config_defaults_applied(cfg_path):
    config = load_config(cfg_path)
    assert config.hp.rounds == 2
    assert config.hp.batch_size == 2048  # default recorded
    assert config.hp.eval_negatives == 20
    assert config.variant.enhancement_kind == "ace"
    snapshot = config.resolved()
    assert snapshot["training"]["batch_size"] == 2048
    assert snapshot["dataset"]["toy_items"] == 48


def test_unknown_key_named_in_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[training]\nbeta_x = 1\n")
    with pytest.raises(ConfigurationError, match="beta_x"):
        load_config(str(path))


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[extras]\nfoo = 1\n")
    with pytest.raises(ConfigurationError, match="extras"):
        load_config(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("[variant]\nconsistency = maybe\n", "bad value for variant.consistency: not a boolean: 'maybe'"),
        ("[training]\nrounds 3\n", "bad.cfg:2: expected key = value, got 'rounds 3'"),
        ("rounds = 3\n[training]\n", "bad.cfg:1: key outside of any [section]"),
    ],
    ids=["bad-boolean", "no-equals", "no-section"],
)
def test_malformed_config_line_is_named(text, message, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_config(str(path))


def test_non_integer_env_seed_rejected(cfg_path, monkeypatch):
    monkeypatch.setenv("FED3CR_SEED", "seven")
    with pytest.raises(ConfigurationError, match="FED3CR_SEED must be an integer, got 'seven'"):
        load_config(cfg_path)


def test_file_backed_format_needs_a_path(tmp_path):
    path = tmp_path / "nopath.cfg"
    path.write_text("[dataset]\nformat = csv\n")
    config = load_config(str(path))
    with pytest.raises(ConfigurationError, match="dataset.path is required"):
        config.build_dataset()


def test_dotted_override(cfg_path):
    config = load_config(cfg_path, overrides={"training.lr": "0.05", "variant.label": "C1"})
    assert config.hp.lr == 0.05
    assert config.variant_label == "C1"
    assert not config.variant.consistency_enabled


def test_override_unknown_key_rejected(cfg_path):
    with pytest.raises(ConfigurationError, match="training.nope"):
        load_config(cfg_path, overrides={"training.nope": "1"})


def test_env_seed_override(cfg_path, monkeypatch):
    monkeypatch.setenv("FED3CR_SEED", "99")
    assert load_config(cfg_path).hp.seed == 99
    monkeypatch.delenv("FED3CR_SEED")
    assert load_config(cfg_path).hp.seed == 3


def test_explicit_seed_override_beats_env_seed(cfg_path, tmp_path, monkeypatch, capsys):
    # file < FED3CR_SEED < --training.seed
    monkeypatch.setenv("FED3CR_SEED", "5")
    assert load_config(cfg_path, {"training.seed": "1"}).hp.seed == 1
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg_path, "--out", out, "--training.seed", "1"]) == 0
    assert json.load(open(os.path.join(out, "manifest.json")))["training"]["seed"] == 1


def test_sweep_over_seed_beats_env_seed(cfg_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FED3CR_SEED", "5")
    out = str(tmp_path / "sw")
    argv = ["sweep", "--config", cfg_path, "--param", "training.seed", "--values", "1", "2", "--out", out]
    assert main(argv) == 0
    for value in (1, 2):
        manifest = json.load(open(os.path.join(out, f"training.seed_{value}", "manifest.json")))
        assert manifest["training"]["seed"] == value


def test_manifest_seed_beats_env_seed(cfg_path, tmp_path, monkeypatch):
    # A manifest replays its own seed: FED3CR_SEED < manifest < --training.seed
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(load_config(cfg_path).resolved()))
    monkeypatch.setenv("FED3CR_SEED", "5")
    assert load_config(str(manifest)).hp.seed == 3
    assert load_config(str(manifest), {"training.seed": "7"}).hp.seed == 7
    out = str(tmp_path / "sw")
    argv = ["sweep", "--config", str(manifest), "--param", "training.lr", "--values", "0.05", "--out", out]
    assert main(argv) == 0
    assert json.load(open(os.path.join(out, "training.lr_0.05", "manifest.json")))["training"]["seed"] == 3


def test_variant_explicit_flags_override_label(tmp_path):
    path = tmp_path / "v.cfg"
    path.write_text("[variant]\nlabel = Fed3CR\ncomplementarity = l2-distance\n")
    config = load_config(str(path))
    assert config.variant.complementarity_kind == "l2-distance"
    assert config.variant.consistency_enabled


def test_run_writes_outputs_and_is_reproducible(cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    run_experiment(load_config(cfg_path), out1)
    run_experiment(load_config(cfg_path), out2)
    csv1 = open(os.path.join(out1, "metrics.csv"), "rb").read()
    csv2 = open(os.path.join(out2, "metrics.csv"), "rb").read()
    assert csv1 == csv2
    assert os.path.exists(os.path.join(out1, "manifest.json"))
    assert os.listdir(os.path.join(out1, "checkpoints"))


def test_manifest_round_trips_to_identical_run(cfg_path, tmp_path):
    # FedMF+ACE is reachable only through its label, which the manifest keeps
    for label in ("Fed3CR", "FedMF+ACE"):
        out1 = str(tmp_path / f"orig-{label}")
        run_experiment(load_config(cfg_path, {"variant.label": label}), out1)
        manifest = os.path.join(out1, "manifest.json")
        out2 = str(tmp_path / f"replay-{label}")
        replayed = load_config(manifest)
        assert replayed.variant_label == label
        run_experiment(replayed, out2)
        assert (
            open(os.path.join(out1, "metrics.csv"), "rb").read()
            == open(os.path.join(out2, "metrics.csv"), "rb").read()
        )


def test_checkpoints_reload_to_the_last_evaluated_metrics(cfg_path, tmp_path):
    # server.bin plus the private client files are the model the last
    # evaluation scored: evaluating them again gives the last metrics row
    from fed3cr.checkpoint import load_client_state, load_server_state
    from fed3cr.datasets import build_eval_candidates
    from fed3cr.evaluation import metrics_csv_lines
    from fed3cr.federation import evaluate_round
    from fed3cr.losses import LossBreakdown

    for label in ("Fed3CR", "FedMF+ACE"):
        config = load_config(cfg_path, {"variant.label": label})
        out = str(tmp_path / label)
        run_experiment(config, out)
        server, header = load_server_state(os.path.join(out, "server.bin"))
        assert header["round"] == server.round == config.hp.rounds
        ckpt_dir = os.path.join(out, "checkpoints")
        clients = [load_client_state(os.path.join(ckpt_dir, f))[0] for f in sorted(os.listdir(ckpt_dir))]
        ds = config.build_dataset()
        hp = config.hp
        candidates = [build_eval_candidates(ds, c, hp.eval_negatives, hp.seed) for c in range(ds.num_clients)]
        no_loss = LossBreakdown(0.0, 0.0, 0.0, 0.0)
        again = evaluate_round(clients, server, ds, hp, config.variant, candidates, hp.rounds - 1, no_loss)
        last = open(os.path.join(out, "metrics.csv")).read().strip().splitlines()[-1]
        # round, HR@10, NDCG@10 and RBO, compared as their exact float reprs
        assert metrics_csv_lines([again], hp.rbo_k)[1].split(",")[:4] == last.split(",")[:4]


def test_rerun_refuses_without_force(cfg_path, tmp_path):
    out = str(tmp_path / "run")
    run_experiment(load_config(cfg_path), out)
    with pytest.raises(ConfigurationError, match="force"):
        run_experiment(load_config(cfg_path), out)
    run_experiment(load_config(cfg_path), out, force=True)


def test_ablation_rows_share_split(cfg_path, tmp_path):
    rows = run_ablation(load_config(cfg_path), ["C0", "C1"], str(tmp_path / "ab"))
    assert [r[0] for r in rows] == ["C0", "C1"]
    text = open(os.path.join(tmp_path, "ab", "ablation.csv")).read()
    assert text.startswith("variant,hr10,ndcg10\nC0,")


def test_ablation_rejects_unknown_label(cfg_path):
    with pytest.raises(ConfigurationError, match="C9"):
        run_ablation(load_config(cfg_path), ["C9"])


def test_sweep_beta_a_standard_grid(cfg_path, tmp_path):
    values = ["0.1", "0.3", "0.5", "0.7", "1"]
    rows = run_sweep(load_config(cfg_path), "training.beta_a", values, str(tmp_path / "sw"))
    assert [r[0] for r in rows] == values
    lines = open(os.path.join(tmp_path, "sw", "sweep.csv")).read().strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "training.beta_a,hr10,ndcg10"


def test_sweep_layer_counts(cfg_path, tmp_path):
    schedules = ["2,4", "2,4,8", "2,4,8,16"]
    rows = run_sweep(load_config(cfg_path), "training.transfer_layers", schedules)
    assert [r[0] for r in rows] == schedules
    # a bad value fails before any run, through the checks an override gets
    for param, values in (
        ("training.transfer_layers", ["2,4", "3,4"]),
        ("training.nope", ["1"]),
        ("beta_a", ["0.5"]),
    ):
        out = tmp_path / param
        with pytest.raises(ConfigurationError, match=param):
            run_sweep(load_config(cfg_path), param, values, str(out))
        assert not out.exists()


def test_single_value_sweep_equals_run(cfg_path):
    config = load_config(cfg_path)
    for param, value in (("training.beta_a", "0.5"), ("variant.label", "C0"), ("eval.rbo_k", "5")):
        rows = run_sweep(config, param, [value])
        record = run_experiment(load_config(cfg_path, {param: value}))
        assert rows[0][1] == record.metrics[-1].hr_at_k
        assert rows[0][2] == record.metrics[-1].ndcg_at_k


def test_cli_sweep_takes_a_dotted_key_and_one_value_per_token(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "sw")
    argv = ["sweep", "--config", cfg_path, "--param", "training.transfer_layers", "--values", "2,4", "2,4,8"]
    assert main(argv + ["--out", out, "--training.rounds", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "training.transfer_layers,hr10,ndcg10"
    assert [line.split('",')[0] for line in lines[1:]] == ['"2,4', '"2,4,8']
    assert open(os.path.join(out, "sweep.csv")).read().strip().splitlines() == lines
    manifest = json.load(open(os.path.join(out, "training.transfer_layers_2,4,8", "manifest.json")))
    assert manifest["training"]["transfer_layers"] == [2, 4, 8]
    assert manifest["training"]["rounds"] == 1

    assert main(["sweep", "--config", cfg_path, "--param", "training.nope", "--values", "1"]) == 2
    assert "training.nope" in capsys.readouterr().err


def test_cli_run_and_exit_codes(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "cli_run")
    assert main(["run", "--config", cfg_path, "--out", out]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "best_hr" in summary
    assert isinstance(summary["wall_clock_total"], float) and summary["wall_clock_total"] > 0
    assert json.load(open(os.path.join(out, "record.json"))) == summary

    # rerun without --force -> config error exit code
    assert main(["run", "--config", cfg_path, "--out", out]) == 2
    capsys.readouterr()

    # missing dataset file -> data error exit code
    bad = tmp_path / "missing.cfg"
    bad.write_text("[dataset]\nformat = csv\npath = /nonexistent.csv\n[training]\nrounds = 1\n")
    assert main(["run", "--config", str(bad)]) == 3
    capsys.readouterr()

    # a variant with one item view cannot turn on a term that compares two
    argv = ["run", "--config", cfg_path, "--variant.label", "FedMF", "--variant.consistency", "true"]
    assert main(argv) == 2
    assert "personal table" in capsys.readouterr().err

    # an out-of-range knob is a configuration error that names its key
    for key, value in (
        ("training.dim", "0"),
        ("eval.interval", "0"),
        ("training.transfer_layers", "3,4"),
        ("training.batch_size", "0"),
        ("training.negatives_per_positive", "-1"),
        ("training.lr_gamma", "-1"),
        ("eval.rbo_k", "0"),
        # a non-finite float knob would make every client's loss non-finite
        ("training.beta_a", "nan"),
        ("training.beta_a", "inf"),
        ("training.beta_o", "-inf"),
        ("training.lr", "inf"),
        ("training.lr_gamma", "inf"),
    ):
        assert main(["run", "--config", cfg_path, f"--{key}", value]) == 2
        assert key in capsys.readouterr().err


def test_cli_override_flags(cfg_path, capsys):
    assert main(["run", "--config", cfg_path, "--training.rounds", "1"]) == 0
    capsys.readouterr()
    assert main(["run", "--config", cfg_path, "--training.rounds=1"]) == 0
    capsys.readouterr()
    assert main(["run", "--config", cfg_path, "--training.nope", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key", ["training.ace_scale", "eval.top_k", "eval.rbo_p"])
def test_removed_knob_is_an_unknown_key(key, cfg_path, tmp_path, capsys):
    # W is the net's output, and HR/NDCG at TOP_K and the RBO's persistence
    # are constants: a config, a manifest or an override naming a removed
    # key exits 2 and names it
    section, name = key.split(".")
    value = {"ace_scale": "1.0", "top_k": "10", "rbo_p": "0.99"}[name]
    cfg = tmp_path / "old.cfg"
    cfg.write_text(TOY_CFG.replace(f"[{section}]\n", f"[{section}]\n{name} = {value}\n"))
    manifest = tmp_path / "manifest.json"
    snapshot = load_config(cfg_path).resolved()
    snapshot[section][name] = float(value)
    manifest.write_text(json.dumps(snapshot))
    for argv in (
        ["run", "--config", str(cfg)],
        ["run", "--config", str(manifest)],
        ["run", "--config", cfg_path, f"--{key}", value],
    ):
        assert main(argv) == 2
        assert f"unknown key {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["stray"], "unexpected argument 'stray'"),
        (["--training.rounds"], "override '--training.rounds' is missing a value"),
        (["--rounds", "1"], "override 'rounds' must be section.key"),
        (["--rounds=1"], "override 'rounds' must be section.key"),
    ],
    ids=["stray-token", "no-value", "no-section", "no-section-inline"],
)
def test_malformed_override_exits_2_naming_the_token(extra, message, cfg_path, capsys):
    assert main(["run", "--config", cfg_path] + extra) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["dataset", "stats", "--format", "toy"], ["degradation", "--fixtures", "1"]],
    ids=["dataset-stats", "degradation"],
)
def test_subcommands_without_a_config_refuse_overrides(argv, capsys):
    assert main(argv + ["--training.rounds", "1"]) == 2
    captured = capsys.readouterr()
    assert "takes no config overrides" in captured.err and captured.out == ""


def test_cli_runtime_failure_exits_4(cfg_path, capsys):
    # at lr 1e30 every client's loss turns non-finite in round 0, so the
    # round has no upload to aggregate
    with pytest.warns(UserWarning, match="non-finite loss"):
        assert main(["run", "--config", cfg_path, "--training.lr", "1e30"]) == 4
    assert "runtime failure: round 0: every selected client failed" in capsys.readouterr().err


def test_cli_dataset_stats(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("user,item\nu1,a\nu1,b\nu2,a\nu2,b\n")
    code = main(["dataset", "stats", "--path", str(data), "--format", "csv", "--min-interactions", "1"])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats == {
        "avg": 2.0,
        "clients": 2,
        "interactions": 4,
        "items": 2,
        "sparsity": 0.0,
    }


def test_cli_dataset_stats_of_the_bundled_generator(capsys):
    from fed3cr.toy import generate_toy_dataset

    assert main(["dataset", "stats", "--format", "toy"]) == 0
    assert json.loads(capsys.readouterr().out) == generate_toy_dataset().stats()


def test_cli_ablate(cfg_path, tmp_path, capsys):
    assert main(["ablate", "--config", cfg_path, "--variants", "C0,C1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("variant,hr10,ndcg10")

    # labels outside the default grid are valid too
    out = str(tmp_path / "ab")
    assert main(["ablate", "--config", cfg_path, "--variants", "FedMF,FedMF+ACE", "--out", out]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(",")[0] for line in lines] == ["variant", "FedMF", "FedMF+ACE"]
    manifest = json.load(open(os.path.join(out, "FedMF+ACE", "manifest.json")))
    assert manifest["variant"]["label"] == "FedMF+ACE"


def test_cli_runs_fedmf_labels_with_checkpoints(cfg_path, tmp_path, capsys):
    from fed3cr.checkpoint import load_client_state, load_server_state

    for label in ("FedMF", "FedMF+ACE"):
        out = str(tmp_path / label)
        assert main(["run", "--config", cfg_path, "--variant.label", label, "--out", out]) == 0
        rows = open(os.path.join(out, "metrics.csv")).read().strip().splitlines()[1:]
        assert all(row.split(",")[3] == "" for row in rows)  # no RBO with one item view
        ckpts = sorted(os.listdir(os.path.join(out, "checkpoints")))
        state, header = load_client_state(os.path.join(out, "checkpoints", ckpts[0]))
        assert state.personal_table is None
        assert [b["name"] for b in header["blocks"]] == ["user_embedding"]
        server, _ = load_server_state(os.path.join(out, "server.bin"))
        assert (server.theta is not None) == (label == "FedMF+ACE")
    capsys.readouterr()


def test_cli_degradation(tmp_path, capsys):
    delta = str(tmp_path / "delta.csv")
    assert main(["degradation", "--fixtures", "50", "--delta-csv", delta]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sweep"]["violations"] == 0
    assert report["worked_example"]["all_satisfied"] is True
    assert len(open(delta).read().strip().splitlines()) == 3


def test_cli_degradation_out_writes_the_json_it_prints(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["degradation", "--fixtures", "5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    assert json.loads(printed)["sweep"]["fixtures"] == 5


def test_bundled_toy_config_completes_quickly(tmp_path):
    import time

    bundled = os.path.join(os.path.dirname(__file__), "..", "configs", "toy.cfg")
    t0 = time.perf_counter()
    assert main(["run", "--config", bundled, "--out", str(tmp_path / "toy_run")]) == 0
    assert time.perf_counter() - t0 < 60.0


def test_manifest_json_loadable_as_config(cfg_path, tmp_path):
    config = load_config(cfg_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(config.resolved()))
    reloaded = load_config(str(manifest))
    assert reloaded.resolved() == config.resolved()


def test_manifest_override_of_the_label_matches_the_cfg_override(tmp_path):
    # the manifest writes a variant flag only where it leaves its label's
    # preset, so a new label gets that label's flags, as on the .cfg
    bundled = os.path.join(os.path.dirname(__file__), "..", "configs", "toy.cfg")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(load_config(bundled).resolved()))
    for label in VARIANT_LABELS:
        assert load_config(str(manifest), {"variant.label": label}) == load_config(
            bundled, {"variant.label": label}
        )
    # a manifest that spells out every flag still loads to the same config
    for label in ("C0", "FedMF+ACE"):
        config = load_config(bundled, {"variant.label": label, "variant.complementarity": "l2-distance"})
        snapshot = config.resolved()
        assert snapshot["variant"]["consistency"] is None
        assert snapshot["variant"]["complementarity"] == "l2-distance"
        v = config.variant
        snapshot["variant"].update(
            enhancement=v.enhancement_kind,
            consistency=v.consistency_enabled,
            orthogonality=v.orthogonality_enabled,
            complementarity=v.complementarity_kind,
        )
        manifest.write_text(json.dumps(snapshot))
        assert load_config(str(manifest)) == config


# valid non-default values for the str knobs; the other types derive theirs
STR_KNOB_VALUES = {
    "ace_init": "identity",
    "eq12_mode": "literal-ratio",
    "dtype": "float64",
    "enhancement_kind": "consensus-transfer",
    "complementarity_kind": "l2-distance",
}


def _non_default(f):
    if f.name in STR_KNOB_VALUES:
        return STR_KNOB_VALUES[f.name]
    if isinstance(f.default, bool):
        return str(not f.default).lower()
    if isinstance(f.default, tuple):
        return ",".join(map(str, f.default + (2 * f.default[-1],)))
    if isinstance(f.default, float):
        return repr(f.default / 2)
    return str(f.default + 1)


def test_every_knob_round_trips_through_the_manifest(cfg_path, tmp_path):
    # a field of HyperParams or VariantConfig that missed the schema, the
    # manifest or resolve_config would fail here
    owners = [("hp", f, "training") for f in dataclasses.fields(HyperParams)]
    owners += [("variant", f, "variant") for f in dataclasses.fields(VariantConfig)]
    base = load_config(cfg_path)
    checked = 0
    for holder, f, section in owners:
        key = config_key(f, section)
        if key is None:
            continue
        config = load_config(cfg_path, {key: _non_default(f)})
        value = getattr(getattr(config, holder), f.name)
        assert value != getattr(getattr(base, holder), f.name), key
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(config.resolved(), indent=2, sort_keys=True))
        assert load_config(str(manifest)) == config, key
        checked += 1
    # every HyperParams field, and every VariantConfig field but personal_table
    assert checked == len(dataclasses.fields(HyperParams)) + 4
