"""Single structured run configuration shared by all pipeline stages."""

from __future__ import annotations

import copy
import dataclasses
import math

import yaml

from .baselines import FdeConfig
from .errors import ConfigInvalid
from .evaluation import STRATEGIES, check_strategy_names
from .nn import TrainConfig
from .sim import EPOCHS_PER_SESSION, ScenarioConfig, check_campaign

CONFIG_VERSION = 1

# Run settings that have a dataclass take their defaults from it; the
# training seed is the run's top-level ``seed``.
DEFAULTS = {
    "version": CONFIG_VERSION,
    "seed": 42,
    "simulate": {
        "profiles": ["urban_canyon", "suburban", "open_sky"],
        "sessions_per_profile": 10,
        "epochs_per_session": EPOCHS_PER_SESSION,
        "rate_hz": ScenarioConfig.rate_hz,
        "noise_sigma_m": ScenarioConfig.noise_sigma_m,
        "nlos_bias_mean_m": ScenarioConfig.nlos_bias_mean_m,
    },
    "train": {k: v for k, v in dataclasses.asdict(TrainConfig()).items() if k != "seed"},
    "evaluate": {
        "strategies": list(STRATEGIES),
        "fde": dataclasses.asdict(FdeConfig()),
    },
}


def _check_leaf(where: str, value, default) -> None:
    """``value`` must have the type of its default: a finite number (an int
    will do) for a float, an int (not a bool) for an int, a list of strings
    for a list, a string for a string."""
    if isinstance(default, float):
        ok = isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
        want = "a finite number"
    elif isinstance(default, list):
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        want = "a list of strings"
    else:
        ok = isinstance(value, type(default))
        want = "an integer" if isinstance(default, int) else "a string"
    if isinstance(value, bool) or not ok:
        raise ConfigInvalid(f"'{where}' must be {want}, got {value!r}")


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigInvalid(f"unknown config key '{where}'")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigInvalid(f"'{where}' must be a mapping")
            out[key] = _merge(base[key], value, where)
        else:
            _check_leaf(where, value, base[key])
            out[key] = value
    return out


def _validate(cfg: dict) -> None:
    if cfg["version"] != CONFIG_VERSION:
        raise ConfigInvalid(f"config version {cfg['version']} unsupported (want {CONFIG_VERSION})")
    if cfg["seed"] < 0:
        raise ConfigInvalid("'seed' must be >= 0")
    check_campaign(**cfg["simulate"])
    tr = cfg["train"]
    if tr["feature_mode"] not in ("full", "residual"):
        raise ConfigInvalid("'train.feature_mode' must be 'full' or 'residual'")
    if tr["max_epochs"] < 1 or tr["batch_size"] < 1 or tr["hidden"] < 1:
        raise ConfigInvalid("'train' sizes must be >= 1")
    if tr["patience"] < 0:
        raise ConfigInvalid("'train.patience' must be >= 0")
    if tr["learning_rate"] <= 0:
        raise ConfigInvalid("'train.learning_rate' must be > 0")
    check_strategy_names(cfg["evaluate"]["strategies"])
    fde = cfg["evaluate"]["fde"]
    if fde["threshold"] <= 0:
        raise ConfigInvalid("'evaluate.fde.threshold' must be > 0")
    if fde["noise_sigma_m"] <= 0:
        raise ConfigInvalid("'evaluate.fde.noise_sigma_m' must be > 0")
    if fde["max_exclusions"] < 0:
        raise ConfigInvalid("'evaluate.fde.max_exclusions' must be >= 0")
    if fde["min_retained"] < 0:
        raise ConfigInvalid("'evaluate.fde.min_retained' must be >= 0")


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Merge file + overrides onto defaults, validating every key.

    A config file that cannot be read or parsed as YAML raises
    ConfigInvalid naming the file.
    """
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = yaml.safe_load(fh) or {}
        except (OSError, UnicodeDecodeError, yaml.YAMLError) as e:
            detail = " ".join(str(e).split())  # yaml's messages span lines
            raise ConfigInvalid(f"cannot read config file {path}: {detail}") from e
        if not isinstance(data, dict):
            raise ConfigInvalid("config file must contain a mapping")
        cfg = _merge(cfg, data)
    if overrides:
        cfg = _merge(cfg, overrides)
    _validate(cfg)
    return cfg
