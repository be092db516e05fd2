"""Strict JSON experiment configuration.

CONFIG_KEYS is the file format: one row per key, in the order that
`to_dict` writes them. The rows alone drive unknown-key rejection,
parsing and serialization; each default is read from its dataclass field.
An empty object is a complete configuration; unknown keys are rejected so
typos cannot silently fall back to defaults; a rejected value (of the
wrong type, out of bounds, or not finite) names its key. `to_dict` and
`parse_config` are mutually inverse, so parse -> serialize -> parse is a
fixed point.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Callable

from .data import STREAM_MODES
from .errors import ConfigError
from .federation import MODES, ExperimentConfig

# dataset files store the base seed as a signed 64-bit integer
SEED_MAX = 2**63 - 1


@dataclass(frozen=True)
class Key:
    """One config key.

    section: None for a top-level key, else the nested object holding it.
    attr: the ExperimentConfig attribute path the value lands on.
    kind: the parser, called as kind(key, value), that checks the value
    against the bounds (lo, hi, lo_open) or choices and converts it.
    """

    name: str
    section: str | None
    attr: str
    kind: Callable
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    choices: tuple = ()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(label: str, v) -> float:
    try:
        f = float(v)
    except OverflowError:  # an integer beyond the float range
        f = math.inf if v > 0 else -math.inf
    if not math.isfinite(f):
        raise ConfigError(f"{label}: expected a finite number, got {f:g}")
    return f


def _int(key: Key, v) -> int:
    if not _is_int(v):
        raise ConfigError(f"{key.name}: expected an integer, got {v!r}")
    if v < key.lo:
        raise ConfigError(f"{key.name}: must be at least {key.lo}, got {v}")
    if key.hi is not None and v > key.hi:
        raise ConfigError(f"{key.name}: must be at most {key.hi}, got {v}")
    return v


def _nullable_seed(key: Key, v) -> int | None:
    label = f"{key.section}.{key.name}"
    if v is not None and (not _is_int(v) or v < 0):
        raise ConfigError(f"{label}: expected null or a non-negative integer, got {v!r}")
    return None if v is None else _int(replace(key, name=label), v)


def _float(key: Key, v) -> float:
    if not _is_number(v):
        raise ConfigError(f"{key.name}: expected a number, got {v!r}")
    v = _finite(key.name, v)
    if v < key.lo or (key.lo_open and v == key.lo):
        bound = f"greater than {key.lo:g}" if key.lo_open else f"at least {key.lo:g}"
        raise ConfigError(f"{key.name}: must be {bound}, got {v:g}")
    if key.hi is not None and v > key.hi:
        raise ConfigError(f"{key.name}: must be at most {key.hi:g}, got {v:g}")
    return v


def _bool(key: Key, v) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{key.name}: expected true or false, got {v!r}")
    return v


def _choice(key: Key, v) -> str:
    if v not in key.choices:
        raise ConfigError(f"{key.name}: must be one of {', '.join(key.choices)}; got {v!r}")
    return v


def _list_of(key: Key, v, item_ok, what: str) -> tuple:
    if not isinstance(v, list) or not v or not all(map(item_ok, v)):
        raise ConfigError(f"{key.name}: expected a non-empty list of {what}")
    return tuple(v)


def _degrees(key: Key, v) -> tuple:
    return tuple(_finite(key.name, d) for d in _list_of(key, v, _is_number, "numbers"))


def _dims(key: Key, v) -> tuple:
    return _list_of(key, v, lambda h: _is_int(h) and h >= 1, "positive integers")


CONFIG_KEYS = (
    Key("mode", None, "federation.mode", _choice, choices=MODES),
    Key("seed", None, "federation.seed", _int, lo=0, hi=SEED_MAX),
    Key("clients", None, "federation.num_clients", _int, lo=1),
    Key("active_fraction", None, "federation.active_fraction", _float,
        lo=0.0, hi=1.0, lo_open=True),
    Key("rounds_per_task", None, "federation.rounds_per_task", _int, lo=1),
    Key("local_epochs", None, "federation.local_epochs", _int, lo=1),
    Key("batch_size", None, "federation.batch_size", _int, lo=1),
    Key("lr", None, "federation.lr", _float, lo=0.0, lo_open=True),
    Key("weight_decay", None, "federation.weight_decay", _float, lo=0.0),
    Key("lambda", None, "federation.lam", _float, lo=0.0, hi=1.0),
    Key("alpha", None, "federation.alpha", _float, lo=0.0, lo_open=True),
    Key("max_pool_size", None, "federation.max_pool_size", _int, lo=1),
    Key("km_include_self", None, "federation.km_include_self", _bool),
    Key("num_classes", "data", "data.num_classes", _int, lo=2),
    Key("input_dim", "data", "data.input_dim", _int, lo=1),
    Key("samples_per_class", "data", "data.samples_per_class", _int, lo=5),
    Key("class_separation", "data", "data.class_separation", _float,
        lo=0.0, lo_open=True),
    Key("rotation_degrees", "data", "data.rotation_degrees", _degrees),
    Key("domain_noise_sigma", "data", "data.domain_noise_sigma", _float, lo=0.0),
    Key("stream_mode", "data", "data.stream_mode", _choice, choices=STREAM_MODES),
    Key("seed", "data", "data.seed", _nullable_seed, lo=0, hi=SEED_MAX),
    Key("hidden_dims", "arch", "hidden_dims", _dims),
    Key("noise_sigma_scale", "negatives", "negatives.noise_sigma_scale", _float,
        lo=0.0, lo_open=True),
    Key("permute_fraction", "negatives", "negatives.permute_fraction", _float,
        lo=0.0, hi=1.0),
)
_SECTIONS = tuple(dict.fromkeys(k.section for k in CONFIG_KEYS if k.section))
# the keys each section allows; the top level also holds the sections
_ALLOWED = {s: {k.name for k in CONFIG_KEYS if k.section == s} for s in (None, *_SECTIONS)}
_ALLOWED[None] |= set(_SECTIONS)
# the ExperimentConfig fields holding a nested config object, with its class
_NESTED = {f.name: f.default_factory for f in fields(ExperimentConfig)
           if f.default_factory is not MISSING}


def parse_config(obj: dict) -> ExperimentConfig:
    """Validate a plain dict (e.g. parsed JSON) into an ExperimentConfig."""
    if not isinstance(obj, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    docs = {None: obj}
    for section in (None, *_SECTIONS):
        doc = docs[section] = obj if section is None else obj.get(section, {})
        if not isinstance(doc, dict):
            raise ConfigError(f"{section}: expected an object")
        unknown = sorted(set(doc) - _ALLOWED[section])
        if unknown:
            raise ConfigError(f"unknown {section or 'config'} key(s): {', '.join(unknown)}")
    values: dict = {name: {} for name in _NESTED}
    for key in CONFIG_KEYS:
        if key.name in docs[key.section]:
            holder, _, attr = key.attr.rpartition(".")
            value = key.kind(key, docs[key.section][key.name])
            (values[holder] if holder else values)[attr] = value
    nested = {name: factory(**values.pop(name)) for name, factory in _NESTED.items()}
    return ExperimentConfig(**nested, **values)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The config as a JSON-ready object, keys in CONFIG_KEYS order."""
    out: dict = {}
    for key in CONFIG_KEYS:
        value = attrgetter(key.attr)(cfg)
        doc = out if key.section is None else out.setdefault(key.section, {})
        doc[key.name] = list(value) if isinstance(value, tuple) else value
    return out


def default_config() -> ExperimentConfig:
    return parse_config({})


def benchmark_config(**overrides) -> ExperimentConfig:
    """The desk-scale benchmark preset: default data and federation knobs
    with a shorter 80-round schedule. Keyword overrides use config-file
    key names; a nested "data"/"arch"/"negatives" dict sets only the keys
    it names, like the same object in a config file."""
    return parse_config({"rounds_per_task": 80, **overrides})


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file; parse errors carry line/column."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror or e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}, "
                          f"column {e.colno}: {e.msg}") from e
    return parse_config(obj)
