import argparse
import dataclasses
import importlib.util
import itertools
import json
import os
import re
from pathlib import Path

import pytest

import fed3cr
from fed3cr import seeding
from fed3cr.cli import _build_parser, main, run_ablation, run_experiment, run_sweep
from fed3cr.config import SCHEMA, _read_sectioned, load_config
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
    assert config.hp.client_fraction == 1.0  # default recorded
    assert config.hp.eval_negatives == 20
    assert config.variant.enhancement_kind == "ace"
    snapshot = config.resolved()
    assert snapshot["training"]["client_fraction"] == 1.0
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
        ("[training]\nrounds = many\n", "bad value for training.rounds: invalid literal for int() with base 10: 'many'"),
        ("[training]\nrounds 3\n", "bad.cfg:2: expected key = value, got 'rounds 3'"),
        ("rounds = 3\n[training]\n", "bad.cfg:1: key outside of any [section]"),
    ],
    ids=["bad-number", "no-equals", "no-section"],
)
def test_malformed_config_line_is_named(text, message, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_config(str(path))


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


def test_seed_override_beats_the_file_and_the_manifest(cfg_path, tmp_path, capsys):
    # file or manifest < --training.seed; a manifest replays its own seed
    assert load_config(cfg_path, {"training.seed": "1"}).hp.seed == 1
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg_path, "--out", out, "--training.seed", "1"]) == 0
    manifest = os.path.join(out, "manifest.json")
    assert json.loads(Path(manifest).read_text())["training"]["seed"] == 1
    assert load_config(manifest).hp.seed == 1
    assert load_config(manifest, {"training.seed": "7"}).hp.seed == 7
    out = str(tmp_path / "sw")
    argv = ["sweep", "--config", manifest, "--param", "training.seed", "--values", "2", "3", "--out", out]
    assert main(argv) == 0
    for value in (2, 3):
        swept = json.loads(Path(out, f"training.seed_{value}", "manifest.json").read_text())
        assert swept["training"]["seed"] == value


@pytest.mark.parametrize("command", ["run", "ablate", "sweep"])
def test_env_seed_is_refused(command, cfg_path, tmp_path, monkeypatch, capsys):
    # the seed is set by training.seed alone; the old environment variable
    # is refused rather than silently ignored
    monkeypatch.setenv("FED3CR_SEED", "5")
    out = tmp_path / "run"
    argv = [command, "--config", cfg_path, "--out", str(out)]
    if command == "sweep":
        argv += ["--param", "training.lr", "--values", "0.05"]
    assert main(argv) == 2
    assert "--training.seed" in capsys.readouterr().err
    assert not out.exists()


def test_run_writes_outputs_and_is_reproducible(cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    run_experiment(load_config(cfg_path), out1)
    run_experiment(load_config(cfg_path), out2)
    csv1 = Path(out1, "metrics.csv").read_bytes()
    csv2 = Path(out2, "metrics.csv").read_bytes()
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
        assert Path(out1, "metrics.csv").read_bytes() == Path(out2, "metrics.csv").read_bytes()


def test_checkpoints_reload_to_the_last_evaluated_metrics(cfg_path, tmp_path):
    # server.bin plus the private client files are the model the last
    # evaluation scored: evaluating them again gives the last metrics row
    from fed3cr.checkpoint import load_client_state, load_server_state
    from fed3cr.datasets import build_eval_candidates
    from fed3cr.evaluation import metrics_csv_lines
    from fed3cr.federation import EvalRecord, evaluate_round
    from fed3cr.losses import LossBreakdown

    for label in ("Fed3CR", "FedMF+ACE"):
        config = load_config(cfg_path, {"variant.label": label})
        out = str(tmp_path / label)
        run_experiment(config, out)
        server, header = load_server_state(os.path.join(out, "server.bin"))
        assert header["round"] == server.round == config.hp.rounds
        ckpt_dir = os.path.join(out, "checkpoints")
        clients = [load_client_state(os.path.join(ckpt_dir, f))[0] for f in sorted(os.listdir(ckpt_dir))]
        ds, held = config.build_dataset()
        hp = config.hp
        candidates = [build_eval_candidates(ds, held, c, hp.eval_negatives, hp.seed) for c in range(ds.num_clients)]
        record = EvalRecord.build(clients, candidates, held, hp, ds.num_items)
        no_loss = LossBreakdown(0.0, 0.0, 0.0, 0.0)
        again = evaluate_round(clients, server, ds, hp, config.variant, record, hp.rounds - 1, no_loss)
        last = Path(out, "metrics.csv").read_text().strip().splitlines()[-1]
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
    text = Path(tmp_path, "ab", "ablation.csv").read_text()
    assert text.startswith("variant,hr10,ndcg10\nC0,")


def test_ablation_rejects_unknown_label(cfg_path):
    with pytest.raises(ConfigurationError, match="C9"):
        run_ablation(load_config(cfg_path), ["C9"])


def test_sweep_beta_a_standard_grid(cfg_path, tmp_path):
    values = ["0.1", "0.3", "0.5", "0.7", "1"]
    rows = run_sweep(load_config(cfg_path), "training.beta_a", values, str(tmp_path / "sw"))
    assert [r[0] for r in rows] == values
    lines = Path(tmp_path, "sw", "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "training.beta_a,hr10,ndcg10"


def test_sweep_checks_every_value_before_the_first_run(cfg_path, tmp_path):
    # a bad value fails before any run, through the checks an override gets
    for param, values in (
        ("training.dim", ["8", "0"]),
        ("training.local_iters", ["2", "two"]),
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
    argv = ["sweep", "--config", cfg_path, "--param", "training.local_iters", "--values", "1", "3"]
    assert main(argv + ["--out", out, "--training.rounds", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "training.local_iters,hr10,ndcg10"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "3"]
    assert Path(out, "sweep.csv").read_text().strip().splitlines() == lines
    manifest = json.loads(Path(out, "training.local_iters_3", "manifest.json").read_text())
    assert manifest["training"]["local_iters"] == 3
    assert manifest["training"]["rounds"] == 1

    # a value holding a comma is quoted; the toy format ignores dataset.path
    out = str(tmp_path / "sw_path")
    argv = ["sweep", "--config", cfg_path, "--param", "dataset.path", "--values", "a,b", "c"]
    assert main(argv + ["--out", out, "--training.rounds", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.rsplit(",", 2)[0] for line in lines[1:]] == ['"a,b"', "c"]
    assert Path(out, "sweep.csv").read_text().strip().splitlines() == lines

    assert main(["sweep", "--config", cfg_path, "--param", "training.nope", "--values", "1"]) == 2
    assert "training.nope" in capsys.readouterr().err


def test_cli_run_and_exit_codes(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "cli_run")
    assert main(["run", "--config", cfg_path, "--out", out]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "best_hr" in summary
    assert isinstance(summary["wall_clock_total"], float) and summary["wall_clock_total"] > 0
    assert json.loads(Path(out, "record.json").read_text()) == summary

    # rerun without --force -> config error exit code
    assert main(["run", "--config", cfg_path, "--out", out]) == 2
    capsys.readouterr()

    # missing dataset file -> data error exit code
    bad = tmp_path / "missing.cfg"
    bad.write_text("[dataset]\nformat = csv\npath = /nonexistent.csv\n[training]\nrounds = 1\n")
    assert main(["run", "--config", str(bad)]) == 3
    capsys.readouterr()

    # an out-of-range knob is a configuration error that names its key
    for key, value in (
        ("training.dim", "0"),
        ("eval.interval", "0"),
        ("eval.rbo_k", "0"),
        # a non-finite float knob would make every client's loss non-finite
        ("training.beta_a", "nan"),
        ("training.beta_a", "inf"),
        ("training.beta_o", "-inf"),
        ("training.lr", "inf"),
        # a negative loss weight would reward the two views for disagreeing
        ("training.beta_a", "-0.5"),
        ("training.beta_o", "-0.5"),
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


REMOVED_KNOBS = {
    "training.ace_scale": 1.0,
    "eval.top_k": 10,
    "eval.rbo_p": 0.99,
    "training.ace_init": "identity",
    "dataset.holdout": "random",
    "variant.enhancement": "none",
    "variant.consistency": False,
    "variant.orthogonality": False,
    "variant.complementarity": "l2-distance",
    "training.transfer_layers": [2, 4],
    "training.batch_size": 2048,
    "training.negatives_per_positive": 4,
    "training.lr_gamma": 0.999,
    "dataset.toy_sharpness": 2.5,
    "training.dtype": "float32",
}


@pytest.mark.parametrize("key", list(REMOVED_KNOBS))
def test_removed_knob_is_an_unknown_key(key, cfg_path, tmp_path, capsys):
    # W is the net's output and starts near zero, HR/NDCG at TOP_K and the
    # RBO's persistence are constants, the split always holds out the latest
    # item, variant.label alone picks a variant, the transfer net has one
    # shape, the batch size, negatives per positive, step-size decay and the
    # toy's sharpness are constants, and every run is float32: a config, a
    # manifest (an older one that carries variant flags or net widths among
    # them) or an override naming a removed key exits 2 and names it
    section, name = key.split(".")
    value = REMOVED_KNOBS[key]
    cfg = tmp_path / "old.cfg"
    cfg.write_text(TOY_CFG.replace(f"[{section}]\n", f"[{section}]\n{name} = {value}\n"))
    manifest = tmp_path / "manifest.json"
    snapshot = load_config(cfg_path).resolved()
    snapshot[section][name] = value
    manifest.write_text(json.dumps(snapshot))
    for argv in (
        ["run", "--config", str(cfg)],
        ["run", "--config", str(manifest)],
        ["run", "--config", cfg_path, f"--{key}", str(value)],
    ):
        assert main(argv) == 2
        assert f"unknown key {key}" in capsys.readouterr().err


def _manifest_with(cfg_path, path, key, value):
    section, name = key.split(".")
    snapshot = load_config(cfg_path).resolved()
    snapshot[section][name] = value
    path.write_text(json.dumps(snapshot))
    return str(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("training.rounds", 2.5),
        ("training.rounds", True),
        ("training.lr", False),
        ("training.eq12_mode", 1),
        ("dataset.path", None),
        ("eval.negatives", {"n": 20}),
        ("training.lr", 10**400),
    ],
    ids=["float-for-int", "bool-for-int", "bool-for-float", "int-for-str", "null", "object", "int-too-large-for-float"],
)
def test_manifest_value_of_the_wrong_type_exits_2_naming_its_key(key, value, cfg_path, tmp_path, capsys):
    manifest = _manifest_with(cfg_path, tmp_path / "manifest.json", key, value)
    out = tmp_path / "run"
    assert main(["run", "--config", manifest, "--out", str(out)]) == 2
    assert f"configuration error: bad value for {key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"training": ', "manifest.json"),
        ('{"training": 5}', "'training'"),
        ('{"training": [["rounds", 2]]}', "'training'"),
    ],
    ids=["not-json", "section-not-an-object", "section-of-pairs"],
)
def test_broken_manifest_exits_2_naming_the_file_or_section(text, named, tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    out = tmp_path / "run"
    assert main(["run", "--config", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err
    assert not out.exists()


def test_a_list_is_the_wrong_type_for_every_key(cfg_path, tmp_path):
    for section, keys in SCHEMA.items():
        for key, (_, default) in keys.items():
            manifest = _manifest_with(cfg_path, tmp_path / "manifest.json", f"{section}.{key}", [default])
            with pytest.raises(ConfigurationError, match=re.escape(f"bad value for {section}.{key}: ")):
                load_config(manifest)


def test_manifest_takes_a_string_or_a_value_of_its_keys_type(cfg_path, tmp_path):
    # an int serves for a float key, and is stored as the float it stands for
    snapshot = load_config(cfg_path).resolved()
    snapshot["training"].update(lr=1, rounds="3")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(snapshot))
    hp = load_config(str(manifest)).hp
    assert (hp.lr, type(hp.lr), hp.rounds) == (1.0, float, 3)


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


@pytest.mark.parametrize("argv", [["dataset", "stats", "--format", "toy"]], ids=["dataset-stats"])
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
    manifest = json.loads(Path(out, "FedMF+ACE", "manifest.json").read_text())
    assert manifest["variant"] == {"label": "FedMF+ACE"}


def test_cli_ablate_checks_every_label_before_the_first_run(cfg_path, tmp_path, capsys):
    out = tmp_path / "ab"
    assert main(["ablate", "--config", cfg_path, "--variants", "C0,Nope", "--out", str(out)]) == 2
    assert "Nope" in capsys.readouterr().err
    assert not (out / "C0").exists()


def test_cli_runs_fedmf_labels_with_checkpoints(cfg_path, tmp_path, capsys):
    from fed3cr.checkpoint import load_client_state, load_server_state

    for label in ("FedMF", "FedMF+ACE"):
        out = str(tmp_path / label)
        assert main(["run", "--config", cfg_path, "--variant.label", label, "--out", out]) == 0
        rows = Path(out, "metrics.csv").read_text().strip().splitlines()[1:]
        assert all(row.split(",")[3] == "" for row in rows)  # no RBO with one item view
        ckpts = sorted(os.listdir(os.path.join(out, "checkpoints")))
        state, header = load_client_state(os.path.join(out, "checkpoints", ckpts[0]))
        assert state.personal_table is None
        assert [b["name"] for b in header["blocks"]] == ["user_embedding"]
        server, _ = load_server_state(os.path.join(out, "server.bin"))
        assert (server.theta is not None) == (label == "FedMF+ACE")
    capsys.readouterr()


def test_retired_degradation_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["degradation"])
    assert exc.value.code == 2
    assert "invalid choice: 'degradation'" in capsys.readouterr().err


def test_retired_degradation_module_and_fixture_stream_are_gone():
    assert importlib.util.find_spec("fed3cr.degradation") is None
    assert not hasattr(seeding, "FIXTURE")
    assert not {"verify_bound", "bound_sweep", "toy_example_report"} & set(fed3cr.__all__)


def test_bundled_toy_config_completes_quickly(tmp_path):
    import time

    bundled = os.path.join(os.path.dirname(__file__), "..", "configs", "toy.cfg")
    t0 = time.perf_counter()
    assert main(["run", "--config", bundled, "--out", str(tmp_path / "toy_run")]) == 0
    assert time.perf_counter() - t0 < 60.0


def test_metrics_header_names_the_rbo_depth_the_run_used(tmp_path):
    # RBO ranks at most every item, so an eval.rbo_k past the 96 toy items
    # is labelled with the depth it was taken at
    bundled = os.path.join(os.path.dirname(__file__), "..", "configs", "toy.cfg")
    out = tmp_path / "deep_rbo"
    argv = ["run", "--config", bundled, "--out", str(out), "--training.rounds", "1", "--eval.rbo_k", "500"]
    assert main(argv) == 0
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header.split(",")[3] == "rbo96"


def test_readme_documents_every_config_key():
    # README's key table lists each key once: a new key must be documented,
    # and a retired key must leave it
    readme = Path(__file__).parent.joinpath("..", "README.md").read_text(encoding="utf-8")
    table = re.findall(rf"^\| `((?:{'|'.join(SCHEMA)})\.\w+)` \|", readme, re.M)
    assert sorted(table) == sorted(f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys)


def parser_commands(parser, prefix=""):
    """Every command path the parser takes, nested subcommands spelled out
    (`dataset stats`)."""
    paths = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                paths += parser_commands(sub, prefix + name + " ") or [prefix + name]
    return paths


def test_readme_documents_every_subcommand():
    # README's command-line block shows each subcommand: a new one must be
    # documented, and a retired one must leave it
    readme = Path(__file__).parent.joinpath("..", "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```bash\n(.*?)^```", readme, re.M | re.S).group(1)
    shown = set()
    for line in block.splitlines():
        words = line.split()
        assert words[0] == "fed3cr", line
        shown.add(" ".join(itertools.takewhile(lambda word: not word.startswith("-"), words[1:])))
    assert sorted(shown) == sorted(parser_commands(_build_parser()))


# The SCHEMA keys that no committed config or benchmark workload sets, each
# kept settable for the reason beside it. A key no file sets and no reason
# holds is a constant.
UNSET_KEYS = {
    "dataset.path",  # file-backed data: names the ratings file
    "dataset.min_interactions",  # file-backed data: drops sparse users on ingestion
    "training.eq12_mode",  # `literal-ratio` stays until a leak-free run with a stable ACE step tests it
}


def test_every_config_key_is_set_by_a_committed_file_or_listed_with_a_reason():
    root = Path(__file__).parent.parent
    paths = sorted(root.glob("configs/*.cfg")) + sorted(root.glob("perfbench/workloads/*.cfg"))
    assert paths
    files = [_read_sectioned(str(path)) for path in paths]
    set_keys = {f"{section}.{key}" for sections in files for section, keys in sections.items() for key in keys}
    schema = {f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys}
    assert sorted(schema - set_keys) == sorted(UNSET_KEYS)


def test_manifest_json_loadable_as_config(cfg_path, tmp_path):
    config = load_config(cfg_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(config.resolved()))
    reloaded = load_config(str(manifest))
    assert reloaded.resolved() == config.resolved()


def test_manifest_override_of_the_label_matches_the_cfg_override(tmp_path):
    # the label is the manifest's whole variant, so a new label gives that
    # label's variant, as on the .cfg
    bundled = os.path.join(os.path.dirname(__file__), "..", "configs", "toy.cfg")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(load_config(bundled).resolved()))
    for label in VARIANT_LABELS:
        config = load_config(str(manifest), {"variant.label": label})
        assert config == load_config(bundled, {"variant.label": label})
        assert config.variant == VariantConfig.from_label(label)


# valid non-default values for the str knobs; the other types derive theirs
STR_KNOB_VALUES = {"eq12_mode": "literal-ratio"}


def _non_default(f):
    if f.name in STR_KNOB_VALUES:
        return STR_KNOB_VALUES[f.name]
    if isinstance(f.default, float):
        return repr(f.default / 2)
    return str(f.default + 1)


def test_every_knob_round_trips_through_the_manifest(cfg_path, tmp_path):
    # a field of HyperParams that missed the schema, the manifest or
    # resolve_config would fail here
    base = load_config(cfg_path)
    for f in dataclasses.fields(HyperParams):
        key = config_key(f, "training")
        config = load_config(cfg_path, {key: _non_default(f)})
        assert getattr(config.hp, f.name) != getattr(base.hp, f.name), key
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(config.resolved(), indent=2, sort_keys=True))
        assert load_config(str(manifest)) == config, key
