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
    "C0": "96d8c570bb778d29b6f7aaa200203dfa019c2100fa7d00b2ff3eeaec28fd360e",
    "C1": "4904d24babc17fae35774a7fbc86454b76a9b6e013913eefd02a29a192ba0a6e",
    "C2": "dea914aad32cb6df382d852726ac422acdb23e616077bdba0140944e61d7a4a4",
    "C3": "dc6fb47b81d934b745bd50a28c2df7b3e26720647477413585d2c18e98edc2b4",
    "C4": "3b9c4cf08df3ca88e2f1cb09690fefa8c0963a2208f585a3031bef80e099aaa6",
    "C5": "1dfa2e3badaf6e844e0c95f631d1b6fe383bf6089e27d016af1fc3ff10536686",
    "C6": "c8602d710a278034e667c90b47b8d0ccd1e8beca1e1a5b4a3e2e88ecdadd87ce",
    "Fed3CR": "2fee21f6a0be76c879722ff1cbed803ecb63933e6e3b6841c4ea937683e5dc19",
    "FedMF": "a33ba24c9e5286eb13775f30297d5dc0a07284f61a7b99705d537bcf0515f664",
    "FedMF+ACE": "0aab893e77d1a8f5e6a8d19edb120ede5ee7c2cff0f0d6ea3de75b2d78ae0484",
    # the row maps, under the config's own label (Fed3CR)
    "consensus-transfer": "6a396d9b68610de37da68eab03bc0d473dde7175d312942be46f3a872e0e7e19",
    "unified-transfer": "cab0d93013d572c51a1dc4fc675530b5add545f7a3681f6c634e84a2a62ab692",
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
