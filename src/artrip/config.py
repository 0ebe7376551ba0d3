"""Flat `key = value` experiment configuration.

One schema drives everything: file parsing, CLI override flags and the
defaults.  Each key is declared once, here, as a field of `ExperimentConfig`
(data, mechanism switches, evaluation) or of the `ModelConfig` and
`DecodeConfig` it holds, whose `seed`s are the keys `model_seed` and
`decode_seed`; each record raises `ConfigError` for a bad field, its seed
included.  Every override value is coerced as its flag string is.  Precedence
is command-line flags over the ARTRIP_OUTPUT_DIR environment variable (which
can only move the output directory) over the config file over defaults.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, fields, replace

from artrip.data import open_text
from artrip.guidance import GuidanceMatrix, zero_guidance

OUTPUT_DIR_ENV = "ARTRIP_OUTPUT_DIR"

GENERATORS = ("model", "popularity", "markov")

ARCH_ONE_SHOT = "one_shot"
ARCH_RECURRENT = "recurrent"

STRATEGIES = ("greedy", "top_k", "top_p", "adaptive")
ADAPTIVE_MODES = ("temperature", "threshold")


class ConfigError(ValueError):
    """Bad config file contents or bad override values."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and optimizer settings; frozen, see `ModelParams.freeze`.

    Defaults match the reference experimental setup: 32-dim embeddings,
    two encoder layers with two heads, Adam at 1e-3 for 50 epochs and a
    repetition penalty weight of 1.0.
    """

    arch: str = ARCH_ONE_SHOT
    embed_dim: int = 32
    num_layers: int = 2
    num_heads: int = 2
    hidden_dim: int = 64
    alpha: float = 1.0
    learning_rate: float = 1e-3
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.arch not in (ARCH_ONE_SHOT, ARCH_RECURRENT):
            raise ConfigError(f"unknown arch {self.arch!r}")
        if self.embed_dim <= 0:
            raise ConfigError("embed_dim must be positive")
        if self.num_heads < 1:
            raise ConfigError(f"num_heads must be at least 1, got {self.num_heads}")
        if self.arch == ARCH_ONE_SHOT and self.embed_dim % self.num_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.num_layers < 0:
            raise ConfigError(f"num_layers must be non-negative, got {self.num_layers}")
        if self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be at least 1, got {self.hidden_dim}")
        if not 0.0 <= self.alpha < math.inf:
            raise ConfigError(f"alpha must be finite and non-negative, got {self.alpha}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ConfigError(f"model_seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class DecodeConfig:
    """Selection strategy settings, frozen once validated; `seed` drives all sampling.

    `seed` is the entropy of the decode stream (`artrip.streams`): an
    integer, or a tuple of integers such as the (base seed, ordinal) pair of
    `decode_config_for_query`.  Anything else raises `ConfigError` here, not
    later inside numpy, and so does a negative integer or tuple part.
    """

    strategy: str = "greedy"
    top_k: int = 5
    top_p: float = 0.8
    lam: float = 1.0
    adaptive_mode: str = "temperature"
    no_repeat_mask: bool = False
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.adaptive_mode not in ADAPTIVE_MODES:
            raise ConfigError(f"unknown adaptive_mode {self.adaptive_mode!r}")
        if self.top_k < 1:
            raise ConfigError("top_k must be at least 1")
        if not 0.0 < self.top_p <= 1.0:
            raise ConfigError("top_p must lie in (0, 1]")
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError(f"lam must be finite and non-negative, got {self.lam}")
        parts = self.seed if isinstance(self.seed, tuple) else (self.seed,)
        # numbers.Integral: Python's and numpy's ints, and bool
        if not all(isinstance(part, numbers.Integral) for part in parts):
            raise ConfigError(f"seed must be an integer or a tuple of integers, got {self.seed!r}")
        if any(part < 0 for part in parts):
            raise ConfigError(f"decode_seed must be non-negative, got {self.seed!r}")


@dataclass(kw_only=True)
class ExperimentConfig:
    """One run's settings, as `load_config` resolves them.

    The switches are already applied to `model` and `decode`: with
    `drifting` off the model's alpha is 0, and a `strategy` left unset is
    `adaptive` with `adapting` on, `greedy` otherwise.
    """

    # data
    poi_file: str = ""
    visits_file: str = ""
    output_dir: str = "out"
    min_traj_len: int = 3
    train_ratio: float = 0.8
    val_ratio: float = 0.1
    test_ratio: float = 0.1
    split_seed: int = 0
    model: ModelConfig
    # mechanism switches
    guiding: bool = True
    drifting: bool = True
    adapting: bool = True
    decode: DecodeConfig
    # evaluation and analysis
    generator: str = "model"
    repeats: int = 5
    j_max: int = 10
    noise_sigma: float = 0.1
    noise_seed: int = 0

    def __post_init__(self):
        for key in ("poi_file", "visits_file", "output_dir"):
            if "\0" in getattr(self, key):
                raise ConfigError(f"{key} holds a NUL byte, which no path can")
        for key in ("split_seed", "noise_seed"):
            seed = getattr(self, key)
            if seed < 0:
                raise ConfigError(f"{key} must be non-negative, got {seed}")
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

    def guidance(self, pm: GuidanceMatrix) -> GuidanceMatrix:
        """The guidance training and decoding apply: `pm`, or zero guidance with `guiding` off."""
        return pm if self.guiding else zero_guidance(pm.k, pm.m_max)


_SECTIONS = {"model": ModelConfig, "decode": DecodeConfig}


def _schema() -> dict:
    """Flat key -> (section, dataclass field) in declaration order; section None is a key of the run's own."""
    schema = {}
    for own in fields(ExperimentConfig):
        if own.name not in _SECTIONS:
            schema[own.name] = (None, own)
            continue
        for field in fields(_SECTIONS[own.name]):
            schema[f"{own.name}_seed" if field.name == "seed" else field.name] = (own.name, field)
    return schema


_SCHEMA = _schema()

CONFIG_KEYS = tuple(_SCHEMA)


def _coerce(key: str, raw: str, where: str = ""):
    # `where` is a config file's "<path>:<line>: ", prefixed to an error
    kind = type(_SCHEMA[key][1].default)
    raw = raw.strip()
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        raise ConfigError(f"{where}{key} expects true or false, got {raw!r}")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}{key} expects {kind.__name__}, got {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines; '#' starts a comment, blanks are skipped."""
    values: dict = {}
    with open_text(path, ConfigError) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line.strip()!r}")
            key, raw = stripped.split("=", 1)
            key = key.strip()
            if key not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = _coerce(key, raw, f"{path}:{lineno}: ")
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
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, str(raw))
    sections: dict = {None: {}, "model": {}, "decode": {}}
    for key, value in values.items():
        section, field = _SCHEMA[key]
        sections[section][field.name] = value
    own, model, decode = sections.values()
    decode.setdefault("strategy", "adaptive" if own.get("adapting", ExperimentConfig.adapting) else "greedy")
    model, decode = ModelConfig(**model), DecodeConfig(**decode)
    if not own.get("drifting", ExperimentConfig.drifting):
        # only after ModelConfig has refused a bad alpha
        model = replace(model, alpha=0.0)
    return ExperimentConfig(model=model, decode=decode, **own)
