"""The bits of `configs/toy.cfg`: the sha256 of `metrics.csv` under every
variant label and both row maps.

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
    "C0": "b3dace42c0ce5a4256c6023112f2d581ced7b6c8d093737618613c2fb9f2e3d6",
    "C1": "75bb8b7efb6e99c146f6dc3d8a94aee1aad1fd2b7f3e21fff29c8aede47bb45e",
    "C2": "25480fee51a649ef0df6cd606b8326480c1bf9ccabe8ea8f6d099575993a89fb",
    "C3": "5dbdc7c7efd6801266e5b56d1f98ea128170673bd8a4d342d3a6281da13d4d9a",
    "C4": "bfe6e5a6fdeb2bcbe0c478133e88494722a3e3d6f6b71547aed4561753b65fb1",
    "C5": "fc91520cb834147fa9a897309a7c985a0372a2cbb179a7bdcd483fe7a569c8fc",
    "C6": "47cb434fb2bf5cb71402bf382bc24a45f287aee7fb334d60e513a2c51d19f07d",
    "Fed3CR": "bf1fedc113e2df9dfe6672f8d8ed5737a5cb81f5f64db5bc155f83255902c50a",
    "FedMF": "a33ba24c9e5286eb13775f30297d5dc0a07284f61a7b99705d537bcf0515f664",
    "FedMF+ACE": "0aab893e77d1a8f5e6a8d19edb120ede5ee7c2cff0f0d6ea3de75b2d78ae0484",
    # the row maps, under the config's own label (Fed3CR)
    "consensus-transfer": "12300fd37560c2a3ef5b6f123ee1a64390deae12810494986fe0ea7a8def9f12",
    "unified-transfer": "ee47d5266b5a0e85b517bb01f56290499282040ecd4c6461be9d7acb2211984f",
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
