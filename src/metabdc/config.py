"""Experiment configuration: strict JSON parsing, profiles, digests.

One ExperimentConfig drives the whole pipeline: which pretraining kind
feeds which fine-tuning columns, the episode shape, both synthetic
sources, and every nested training config. Parsing is strict: unknown
keys anywhere are an error, so a typo cannot silently fall back to a
default. Profiles rescale only the episode/repeat budget.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing
from dataclasses import dataclass, field, replace

from .core import config_digest
from .data import HierarchySpec, SyntheticConfig
from .encoder import EncoderConfig
from .finetune import FinetuneConfig
from .ssl import AugmentConfig, IpIrmConfig

PRETRAIN_KINDS = ("none", "supervised-proxy", "simclr", "ipirm")
FINETUNE_KINDS = (
    "meta-fine-same",
    "meta-fine-other",
    "meta-coarse-same",
    "meta-coarse-other",
    "fully-supervised",
)
LABEL_SPACES = ("fine", "coarse")


def train_label_space(kind: str) -> str:
    """Meta-train label space implied by the fine-tune kind."""
    if kind == "fully-supervised":
        return "coarse"
    return "fine" if "-fine-" in kind else "coarse"


def train_source(kind: str) -> str:
    return "other" if kind.endswith("-other") else "same"


@dataclass(frozen=True)
class ProxyConfig:
    """Labeled-proxy supervised pretraining (the stand-in for borrowed
    fully supervised weights)."""

    epochs: int = 10
    batch_size: int = 64
    lr: float = 1e-2
    weight_decay: float = 1e-4
    label_space: str = "fine"

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size < 2:
            raise ValueError("proxy training needs positive epochs and batches of at least 2")
        if self.lr <= 0:
            raise ValueError("proxy LR must be positive")
        if self.label_space not in LABEL_SPACES:
            raise ValueError(f"unknown proxy label space {self.label_space!r}")


def _default_other_data() -> SyntheticConfig:
    # the cross-source stand-in: different texture family and hierarchy,
    # noisier acquisition, and wider frequency bands than the primary source
    return SyntheticConfig(
        texture_family="rings",
        hierarchy=HierarchySpec.nested(8, 4),
        noise=0.45,
        band_step=4.0,
        seed=107,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    pretrain: str = "ipirm"
    pretrain_kinds: tuple[str, ...] = ("supervised-proxy", "simclr", "ipirm")
    finetune_kinds: tuple[str, ...] = (
        "meta-fine-same",
        "meta-fine-other",
        "meta-coarse-other",
        "fully-supervised",
    )
    k_shots: tuple[int, ...] = (1, 5)
    n_way: int = 2
    q_query: int = 10
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    data: SyntheticConfig = field(default_factory=SyntheticConfig)
    other_data: SyntheticConfig = field(default_factory=_default_other_data)
    val_fraction: float = 0.5  # share of the eval-domain rows that go to val
    train_domain: int = 0
    eval_domain: int = 1
    fov_mm: float = 100.0
    ipirm: IpIrmConfig = field(default_factory=IpIrmConfig)
    proxy: ProxyConfig = field(default_factory=ProxyConfig)
    tune: FinetuneConfig = field(default_factory=FinetuneConfig)
    test_episodes: int = 300
    test_repeats: int = 1
    grid: tuple[tuple[str, tuple], ...] = ()

    def __post_init__(self) -> None:
        if self.pretrain not in PRETRAIN_KINDS:
            raise ValueError(f"unknown pretrain kind {self.pretrain!r}")
        for kind in self.pretrain_kinds:
            if kind not in PRETRAIN_KINDS:
                raise ValueError(f"unknown pretrain kind {kind!r}")
        if len(set(self.pretrain_kinds)) != len(self.pretrain_kinds) or not self.pretrain_kinds:
            raise ValueError("pretrain_kinds must be nonempty and unique")
        for kind in self.finetune_kinds:
            if kind not in FINETUNE_KINDS:
                raise ValueError(f"unknown fine-tune kind {kind!r}")
        if len(set(self.finetune_kinds)) != len(self.finetune_kinds) or not self.finetune_kinds:
            raise ValueError("finetune_kinds must be nonempty and unique")
        if not self.k_shots or len(set(self.k_shots)) != len(self.k_shots) or min(self.k_shots) < 1:
            raise ValueError("k_shots must be nonempty, unique, and positive")
        if self.n_way < 2 or self.q_query < 1:
            raise ValueError("need n_way >= 2 and q_query >= 1")
        if self.test_episodes < 1 or self.test_repeats < 1:
            raise ValueError("test episodes and repeats must be positive")
        if self.train_domain == self.eval_domain:
            raise ValueError("train and eval domains must differ")
        if not 0.0 <= self.val_fraction <= 1.0:
            raise ValueError(f"val_fraction: must lie in [0, 1], got {self.val_fraction}")
        if self.encoder.height != self.encoder.width:
            # preprocessing resizes every image to encoder.height x encoder.height
            raise ValueError(f"encoder: input must be square, got {self.encoder.height}x{self.encoder.width}")
        # the label spaces each configured column needs must exist at episode width
        for kind in self.finetune_kinds:
            if kind == "fully-supervised":
                continue
            src = self.data if train_source(kind) == "same" else self.other_data
            n_train = src.hierarchy.n_fine if train_label_space(kind) == "fine" else src.hierarchy.n_coarse
            if self.n_way > n_train:
                raise ValueError(f"{kind}: {self.n_way}-way episodes over {n_train} training classes")
        if self.n_way > self.data.hierarchy.n_coarse:
            raise ValueError(
                f"{self.n_way}-way evaluation over {self.data.hierarchy.n_coarse} coarse classes"
            )
        for path, values in self.grid:
            _grid_target(path)  # raises on a bad path
            if not values:
                raise ValueError(f"grid axis {path!r} has no values")

    def digest(self) -> str:
        return config_digest(config_to_dict(self))


# ---------------------------------------------------------------------------
# dict <-> config
#
# A field's name and type live only in its dataclass: parsing walks
# dataclasses.fields and the resolved annotations and coerces nothing (an
# int field takes a JSON integer, a float field a finite integer or float,
# a tuple field a list, null only a field that allows None; a bool is never
# a number). Every rejection names the dotted path of the value. Two fields
# have their own JSON form: a HierarchySpec is its fine -> coarse list, and
# the grid maps each axis path to a list of values of that field's type.

_EXPECTED = {int: "an integer", float: "a finite number", str: "a string"}
_JSON_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string", list: "list", dict: "object"}


def _json_type(value) -> str:
    return "null" if value is None else _JSON_NAMES.get(type(value), type(value).__name__)


def _from_json(tp, raw, path: str):
    """`raw`, as parsed from JSON, converted to a value of annotation `tp`."""
    if tp is HierarchySpec:
        return _construct(HierarchySpec, {"mapping": _from_json(tuple[int, ...], raw, path)}, path)
    if dataclasses.is_dataclass(tp):
        return _from_object(tp, raw, path)
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if raw is None and type(None) in args:
            return None
        (tp,) = [arg for arg in args if arg is not type(None)]
        return _from_json(tp, raw, path)
    if typing.get_origin(tp) is tuple:
        if not isinstance(raw, list):
            raise ValueError(f"{path}: expected a list, got {_json_type(raw)}")
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(raw)
        elif len(raw) != len(args):
            raise ValueError(f"{path}: expected {len(args)} items, got {len(raw)}")
        return tuple(_from_json(arg, item, f"{path}[{i}]") for i, (arg, item) in enumerate(zip(args, raw)))
    if tp not in _EXPECTED:
        raise TypeError(f"{path}: no JSON form for annotation {tp!r}")
    if tp is float and type(raw) in (int, float) and abs(raw) <= sys.float_info.max:
        return float(raw)
    if tp is not float and type(raw) is tp:
        return raw
    raise ValueError(f"{path}: expected {_EXPECTED[tp]}, got {_json_type(raw)}")


def _from_object(cls, raw, path: str):
    section = path or "config"
    if not isinstance(raw, dict):
        raise ValueError(f"{section} section must be an object, got {_json_type(raw)}")
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in raw.items():
        sub = f"{path}.{name}" if path else name
        kwargs[name] = _grid_axes(value) if sub == "grid" else _from_json(hints[name], value, sub)
    return _construct(cls, kwargs, path)


def _construct(cls, kwargs: dict, path: str):
    """cls(**kwargs), its ValueError prefixed with `path`; a message that
    starts with a field's own path, as in "stages[0]: ...", extends it."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not path:
            raise
        msg = str(exc)
        head = msg.partition(":")[0].partition("[")[0]
        sep = "." if head in {f.name for f in dataclasses.fields(cls)} else ": "
        raise ValueError(f"{path}{sep}{msg}") from None


def _grid_axes(raw) -> tuple[tuple[str, tuple], ...]:
    if not isinstance(raw, dict):
        raise ValueError(f"grid section must be an object, got {_json_type(raw)}")
    return tuple(
        (axis, _from_json(tuple[_grid_target(axis)[2], ...], values, f"grid.{axis}"))
        for axis, values in raw.items()
    )


def config_from_dict(raw: dict) -> ExperimentConfig:
    return _from_object(ExperimentConfig, raw, "")


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return config_from_dict(json.load(f))


def _plain(obj):
    if isinstance(obj, HierarchySpec):
        return list(obj.mapping)
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [_plain(x) for x in obj]
    return obj


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = _plain(cfg)
    out["grid"] = {path: _plain(values) for path, values in cfg.grid}
    return out


def save_config(path: str, cfg: ExperimentConfig) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(config_to_dict(cfg), f, indent=2, sort_keys=False)
        f.write("\n")


# ---------------------------------------------------------------------------
# grid paths and profiles


def _grid_target(path: str) -> tuple[str, str, object]:
    """Split a dotted grid path into (section, field, field annotation),
    checking it names a real tunable field."""
    parts = path.split(".")
    if len(parts) != 2 or parts[0] not in ("tune", "ipirm", "proxy"):
        raise ValueError(f"grid path {path!r} must look like tune.lr, ipirm.weight_decay, ...")
    section, name = parts
    hints = typing.get_type_hints(typing.get_type_hints(ExperimentConfig)[section])
    if name not in hints:
        raise ValueError(f"grid path {path!r}: no field {name!r} in {section}")
    return section, name, hints[name]


def apply_grid_overrides(cfg: ExperimentConfig, overrides: dict[str, object]) -> ExperimentConfig:
    for path, value in overrides.items():
        section, name, _ = _grid_target(path)
        cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})
    return cfg


PROFILES = ("ci", "paper")


def apply_profile(cfg: ExperimentConfig, profile: str) -> ExperimentConfig:
    """Rescale the episode/repeat budget; everything else stays as configured."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    if profile == "ci":
        counts = dict(episodes_per_epoch=100, val_episodes=100)
        return replace(cfg, tune=replace(cfg.tune, **counts), test_episodes=100, test_repeats=3)
    counts = dict(episodes_per_epoch=600, val_episodes=600)
    return replace(cfg, tune=replace(cfg.tune, **counts), test_episodes=600, test_repeats=5)
