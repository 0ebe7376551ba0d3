"""Flat `key = value` experiment configuration.

One schema drives everything: file parsing, CLI override flags and the
defaults.  Precedence is command-line flags over the ARTRIP_OUTPUT_DIR
environment variable (which can only move the output directory) over
the config file over built-in defaults.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from artrip.decoding import DecodeConfig
from artrip.model import ModelConfig

OUTPUT_DIR_ENV = "ARTRIP_OUTPUT_DIR"

GENERATORS = ("model", "popularity", "markov")


class ConfigError(ValueError):
    """Bad config file contents or bad override values."""


@dataclass
class ExperimentConfig:
    # data
    poi_file: str = ""
    visits_file: str = ""
    output_dir: str = "out"
    min_traj_len: int = 3
    train_ratio: float = 0.8
    val_ratio: float = 0.1
    test_ratio: float = 0.1
    split_seed: int = 0
    # model
    arch: str = "one_shot"
    embed_dim: int = 32
    num_layers: int = 2
    num_heads: int = 2
    hidden_dim: int = 64
    alpha: float = 1.0
    learning_rate: float = 1e-3
    epochs: int = 50
    model_seed: int = 0
    # mechanism switches
    guiding: bool = True
    drifting: bool = True
    adapting: bool = True
    # decoding
    strategy: str | None = None
    top_k: int = 5
    top_p: float = 0.8
    lam: float = 1.0
    adaptive_mode: str = "temperature"
    no_repeat_mask: bool = False
    decode_seed: int = 0
    # evaluation and analysis
    generator: str = "model"
    repeats: int = 5
    j_max: int = 10
    noise_sigma: float = 0.1
    noise_seed: int = 0

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            arch=self.arch,
            embed_dim=self.embed_dim,
            num_layers=self.num_layers,
            num_heads=self.num_heads,
            hidden_dim=self.hidden_dim,
            alpha=self.alpha,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            seed=self.model_seed,
        )

    def decode_config(self) -> DecodeConfig:
        """A set `strategy` (file or flag) wins; unset, `adapting` picks adaptive or greedy."""
        strategy = self.strategy
        if strategy is None:
            strategy = "adaptive" if self.adapting else "greedy"
        return DecodeConfig(
            strategy=strategy,
            top_k=self.top_k,
            top_p=self.top_p,
            lam=self.lam,
            adaptive_mode=self.adaptive_mode,
            no_repeat_mask=self.no_repeat_mask,
            seed=self.decode_seed,
        )

    def validate(self) -> None:
        # the model and decode settings are checked by the objects the
        # commands build from them; their messages name the key
        for build in (self.model_config, self.decode_config):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        for key in ("split_seed", "model_seed", "decode_seed", "noise_seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be non-negative, got {getattr(self, key)}")
        for key in ("train_ratio", "val_ratio", "test_ratio"):
            # NaN fails this comparison too
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ConfigError(f"{key} must lie in [0, 1], got {getattr(self, key)}")
        ratios = (self.train_ratio, self.val_ratio, self.test_ratio)
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {sum(ratios)}")
        if self.generator not in GENERATORS:
            raise ConfigError(f"generator must be one of {GENERATORS}, got {self.generator!r}")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if self.min_traj_len < 2:
            raise ConfigError("min_traj_len must be at least 2")
        if self.j_max < 0:
            raise ConfigError("j_max must be non-negative")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"noise_sigma must be finite and non-negative, got {self.noise_sigma}")


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}

CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        raise ConfigError(f"{key} expects true or false, got {raw!r}")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} expects {kind}, got {raw!r}") from exc
    return raw


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines; '#' starts a comment, blanks are skipped."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line.strip()!r}")
            key, raw = stripped.split("=", 1)
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = _coerce(key, raw)
    return values


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    """Assemble the effective config from file, environment and flags."""
    values: dict = {}
    if path is not None:
        values.update(parse_config_file(path))
    env_out = os.environ.get(OUTPUT_DIR_ENV)
    if env_out:
        values["output_dir"] = env_out
    for key, raw in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, raw) if isinstance(raw, str) else raw
    config = ExperimentConfig(**values)
    config.validate()
    return config
