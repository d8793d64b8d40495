"""The bits of `configs/toy.cfg`: the sha256 of `metrics.csv` under every
variant label and both row maps; and of one full-ranking run, which ranks
every unseen item of 1000, with RBO at k=50 and d=16.

A change meant to keep every metric byte for byte (a refactor, a speed-up)
must leave these hashes as they are. A change that moves them on purpose
updates them here and says why in CHANGES.md.
"""

import hashlib
import os

import pytest

from fed3cr.cli import run_experiment
from fed3cr.config import load_config

TOY_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "toy.cfg")

FINGERPRINTS = {
    "C0": "321183a2758d2ece4cbaebeeb5e144d84e835c1dc1479c39d0f43ad44d33fa4e",
    "C1": "d46543e7667a7ff195420c65d75a91df7886a66de59f6dbf0f5db5544bc97867",
    "C2": "dc956e2ee4de89bd75985f7a36cd9442ce6c1fb7908e1f48aba5b75ddba601b5",
    "C3": "941af2498c78147371a1ae562d1498c0c5172e9ea4d0648bba0d694510c7159e",
    "C4": "d2478625eebeef8d1354e65d7c04ea08c71092d3eaec8e3349cdc03341f4876e",
    "C5": "1483cfdfff4593fb37b2eef17efe09a144ca2c318645b040498d6ff5d8be564e",
    "C6": "119c0590ceeed96706da91554eb2010dd51a03ca84bcba8d7d78c71a590f463b",
    "Fed3CR": "4fa0a390d2e440bd0062c8ef9d4ad12de59a6a82ffe249a51c7bdc5dfb1e8906",
    "FedMF": "cfec2d09f646dd5639dd59c0053d6417642c2fdbf348d297704e1cb2d8939931",
    "FedMF+ACE": "46b1f4b033f917fbdb99536cf55d3b7c5a321a11ffb86b6ead401a1dc71970ee",
    # the row maps, under the config's own label (Fed3CR)
    "consensus-transfer": "7f89de0674af923f2deb685aaa8b62245576bbc9ccecac94aeb2ffc24cc3167f",
    "unified-transfer": "d30bf87abebbb8325d05fd4027d3952aace9824b9b29ed16117401bc03a55e2a",
}


@pytest.mark.parametrize("name", list(FINGERPRINTS))
def test_toy_metrics_csv_is_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.delenv("FED3CR_SEED", raising=False)
    key = "variant.enhancement" if name.endswith("-transfer") else "variant.label"
    config = load_config(TOY_CFG, overrides={key: name})
    outdir = tmp_path / "run"
    run_experiment(config, str(outdir), save_checkpoints=False)
    digest = hashlib.sha256((outdir / "metrics.csv").read_bytes()).hexdigest()
    assert digest == FINGERPRINTS[name]


# Full ranking with RBO at k=50 every round, at training.seed = 1: 200 clients
# x 1000 items, d=16, one local step, 20 clients a round, 25 rounds.
FULL_RANK_CFG = """
[dataset]
format = toy
toy_clients = 200
toy_items = 1000
toy_blocks = 4
toy_min_positives = 20
toy_max_positives = 60

[training]
seed = 1
rounds = 25
local_iters = 1
dim = 16
lr = 0.1
beta_a = 0.5
beta_o = 0.5
client_fraction = 0.1

[variant]
label = Fed3CR

[eval]
negatives = -1
rbo_k = 50
interval = 1
"""
FULL_RANK_FINGERPRINT = "fe9ff352e7f143cc5f5874f15e85a995c15c7113241d2d78cbea56672c3d9f6d"


def test_full_ranking_metrics_csv_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("FED3CR_SEED", raising=False)
    path = tmp_path / "full-rank.cfg"
    path.write_text(FULL_RANK_CFG)
    outdir = tmp_path / "run"
    run_experiment(load_config(str(path)), str(outdir), save_checkpoints=False)
    digest = hashlib.sha256((outdir / "metrics.csv").read_bytes()).hexdigest()
    assert digest == FULL_RANK_FINGERPRINT
