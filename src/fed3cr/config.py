"""Experiment configuration: a flat sectioned key=value file, overridable
key-by-key from the command line, resolved to explicit defaults and written
back out as a manifest JSON that reproduces the run when loaded again."""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field

from .datasets import HeldOut, InteractionDataset, leave_one_out_split, load_dataset
from .errors import ConfigurationError
from .federation import HyperParams, VariantConfig, config_key
from .toy import generate_toy_dataset

VERSION = "fed3cr-0.1.0"

# section -> key -> (type, default), where the type also casts a string
# value. The [dataset] keys are listed here; the other sections are filled
# in below from the dataclass fields.
SCHEMA: dict[str, dict] = {
    "dataset": {
        "path": (str, ""),
        "format": (str, "toy"),
        "min_interactions": (int, 10),
        "toy_clients": (int, 24),
        "toy_items": (int, 96),
        "toy_blocks": (int, 4),
        "toy_min_positives": (int, 6),
        "toy_max_positives": (int, 10),
    },
    "training": {},
    "variant": {},
    "eval": {},
}


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description. The variant is the one its
    label names, so an unknown label fails on construction."""

    dataset: dict = field(default_factory=dict)
    hp: HyperParams = field(default_factory=HyperParams)
    variant_label: str = field(default="Fed3CR", metadata={"config": "variant.label"})
    variant: VariantConfig = field(init=False)

    def __post_init__(self) -> None:
        self.variant = VariantConfig.from_label(self.variant_label)

    def resolved(self) -> dict:
        """Snapshot of every knob, defaults included, as plain JSON data."""
        out = {"version": VERSION, **{section: {} for section in SCHEMA}}
        out["dataset"] = dict(self.dataset)
        for (section, key), (holder, name) in _FIELDS.items():
            out[section][key] = getattr(getattr(self, holder) if holder else self, name)
        return out

    def build_dataset(self) -> tuple[InteractionDataset, HeldOut]:
        """Materialize and split the configured dataset: (train, held out)."""
        d = self.dataset
        if d["format"] == "toy":
            ds = generate_toy_dataset(
                num_clients=d["toy_clients"],
                num_items=d["toy_items"],
                num_blocks=d["toy_blocks"],
                min_positives=d["toy_min_positives"],
                max_positives=d["toy_max_positives"],
                seed=self.hp.seed,
            )
        else:
            if not d["path"]:
                raise ConfigurationError("dataset.path is required for file-backed formats")
            ds = load_dataset(d["path"], d["format"], d["min_interactions"])
        return leave_one_out_split(ds, self.hp.seed)


def _knob_fields() -> dict[tuple[str, str], tuple[str, str]]:
    """Add every knob field to SCHEMA: `variant.label` of ExperimentConfig
    and each field of HyperParams. Returns (section, key) -> (the
    ExperimentConfig attribute that holds the field, "" for the config
    itself; the field's name)."""
    knobs = {}
    for holder, cls, section in (("", ExperimentConfig, None), ("hp", HyperParams, "training")):
        types = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            dotted = f.metadata.get("config") if section is None else config_key(f, section)
            if dotted:
                key = tuple(dotted.split("."))
                SCHEMA[key[0]][key[1]] = (types[f.name], f.default)
                knobs[key] = (holder, f.name)
    return knobs


_FIELDS = _knob_fields()


def _read_sectioned(path: str) -> dict[str, dict[str, str]]:
    raw: dict[str, dict[str, str]] = {}
    section = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                raw.setdefault(section, {})
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{line_no}: expected key = value, got {line!r}")
            if section is None:
                raise ConfigurationError(f"{path}:{line_no}: key outside of any [section]")
            key, value = (part.strip() for part in line.split("=", 1))
            raw[section][key] = value
    return raw


def resolve_config(values: dict[str, dict], overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Merge the dotted overrides into `values` (a file's or a manifest's),
    so an override beats the file. Cast and check every key, fill in the
    defaults, and build the typed config. A string is parsed by its key's
    caster. Any other value (as a manifest holds) must already have the
    key's type: an int also serves a float key, and a bool serves none."""
    for section, entries in values.items():
        if not isinstance(entries, dict):
            raise ConfigurationError(f"config section {section!r} must be an object of keys, got {entries!r}")
    raw = {section: dict(entries) for section, entries in values.items()}
    for dotted, value in (overrides or {}).items():
        section, dot, key = dotted.partition(".")
        if not dot:
            raise ConfigurationError(f"override {dotted!r} must be section.key")
        raw.setdefault(section, {})[key] = value

    full = {section: {key: default for key, (_, default) in keys.items()} for section, keys in SCHEMA.items()}
    for section, entries in raw.items():
        if section not in SCHEMA:
            raise ConfigurationError(f"unknown config section {section!r}")
        for key, value in entries.items():
            if key not in SCHEMA[section]:
                raise ConfigurationError(f"unknown key {section}.{key}")
            caster, _ = SCHEMA[section][key]
            accepted = (int, float) if caster is float else caster
            if not isinstance(value, str) and (isinstance(value, bool) or not isinstance(value, accepted)):
                raise ConfigurationError(f"bad value for {section}.{key}: expected {caster.__name__}, got {value!r}")
            try:
                full[section][key] = caster(value)
            except (ValueError, OverflowError) as exc:  # an int too large for a float key overflows
                raise ConfigurationError(f"bad value for {section}.{key}: {exc}") from exc

    kwargs: dict[str, dict] = {"": {}, "hp": {}}
    for (section, key), (holder, name) in _FIELDS.items():
        kwargs[holder][name] = full[section][key]
    hp = HyperParams(**kwargs["hp"])
    hp.validate()
    return ExperimentConfig(dataset=full["dataset"], hp=hp, **kwargs[""])


def load_config(path: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Load either a sectioned key=value file or a manifest JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(1)
    if head == "{":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise ConfigurationError(f"{path}: not a valid manifest JSON: {exc}") from exc
        data.pop("version", None)
        return resolve_config(data, overrides)
    return resolve_config(_read_sectioned(path), overrides)
