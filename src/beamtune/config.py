"""Configuration loading.

One YAML file covers lattice geometry, the trial generator ranges,
optimizer hyperparameters, LLM backend endpoints and the noise mode. A
user file only needs the keys it overrides; everything else comes from the
packaged defaults, and a key the defaults do not have is an error. So
``llm.backends`` holds exactly one section per wire dialect in
``llm.DIALECTS``. The lattice and trial generator sections must be ones
their constructors accept. The noise sigma, the llm loop's scalars, each
backend's ``base_url`` and rate limit, the es and bo options and the
harness counts must each be of the kind ``_VALUE_RULES`` names for it;
every harness count is an integer >= 1. Credentials never live in config
files; the API key is read from the ``LLM_API_KEY`` environment variable by
the llm module.
"""

from __future__ import annotations

import math
from importlib import resources
from pathlib import Path

import yaml

from .llm import DIALECTS
from .optics import LatticeGeometry
from .task import TrialGeneratorConfig

__all__ = ["CONFIG_SCHEMA", "Config", "load_config"]

CONFIG_SCHEMA = "beamtune/config/v1"


def _merged(default: dict, override: dict, path: tuple = ()) -> tuple[dict, list[str]]:
    """``default`` overlaid with ``override``, and the dotted paths of the
    ``override`` keys that ``default`` does not have."""
    merged, unknown = dict(default), []
    for key, value in override.items():
        here = (*path, key)
        if key not in default:
            unknown.append(".".join(map(str, here)))
        elif isinstance(value, dict) and isinstance(default[key], dict):
            merged[key], below = _merged(default[key], value, here)
            unknown.extend(below)
        else:
            merged[key] = value
    return merged, unknown


class Config:
    """Validated view over the merged configuration mapping."""

    def __init__(self, data: dict) -> None:
        if data.get("schema") != CONFIG_SCHEMA:
            raise ValueError(
                f"unsupported config schema {data.get('schema')!r}, expected {CONFIG_SCHEMA!r}"
            )
        self.data = data

    def geometry(self) -> LatticeGeometry:
        lat = self.data["lattice"]
        return LatticeGeometry(**{key: float(lat[key]) for key in lat})

    def noise_sigma(self) -> float:
        return float(self.data["noise"]["screen_position_sigma_m"])

    def trial_generator(self) -> TrialGeneratorConfig:
        gen = self.data["trial_generator"]
        return TrialGeneratorConfig(
            **{key: tuple(float(v) for v in gen[key]) for key in gen}
        )

    def optimizer_options(self, kind: str) -> dict:
        return dict(self.data["optimizers"].get(kind, {}))

    def llm_options(self) -> dict:
        return dict(self.data["llm"])

    def backend_options(self, dialect: str) -> dict:
        return dict(self.data["llm"]["backends"][dialect])

    def harness_options(self) -> dict:
        return dict(self.data["harness"])


def default_config_text() -> str:
    return (
        resources.files("beamtune.resources")
        .joinpath("default_config.yaml")
        .read_text(encoding="utf-8")
    )


def load_config(path: str | Path | None = None) -> Config:
    """Packaged defaults, optionally overlaid with a user YAML file."""
    data = yaml.safe_load(default_config_text())
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            override = yaml.safe_load(handle) or {}
        if not isinstance(override, dict):
            raise ValueError(f"config file {path} must contain a mapping")
        override.setdefault("schema", CONFIG_SCHEMA)
        data, unknown = _merged(data, override)
        if unknown:
            raise ValueError("unknown config key: " + ", ".join(unknown))
    return _checked(Config(data))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_integer(value) and value >= 1


# (dotted key, what its value must be, the test of that)
_VALUE_RULES = (
    ("noise.screen_position_sigma_m", "a finite value >= 0",
     lambda v: _is_number(v) and v >= 0),
    ("llm.window", "an integer >= 1", _is_count),
    ("llm.temperature", "null or a finite value >= 0",
     lambda v: v is None or (_is_number(v) and v >= 0)),
    ("llm.timeout_s", "a finite value > 0", lambda v: _is_number(v) and v > 0),
    ("llm.second_chance_feedback", "true or false", lambda v: isinstance(v, bool)),
    ("optimizers.es.gain", "a finite value", _is_number),
    ("optimizers.es.amplitude", "a finite value >= 0", lambda v: _is_number(v) and v >= 0),
    ("optimizers.es.dt", "a finite value", _is_number),
    ("optimizers.bo.n_init", "an integer", _is_integer),
    ("optimizers.bo.n_candidates", "an integer >= 1", _is_count),
    ("optimizers.bo.n_refine", "an integer >= 0", lambda v: _is_integer(v) and v >= 0),
    *((f"harness.{count}", "an integer >= 1", _is_count)
      for count in ("budget", "seeds", "workers")),
    *(rule for dialect in DIALECTS for rule in (
        (f"llm.backends.{dialect}.base_url", "a non-empty string",
         lambda v: isinstance(v, str) and v != ""),
        (f"llm.backends.{dialect}.requests_per_minute", "null or a finite value > 0",
         lambda v: v is None or (_is_number(v) and v > 0)),
    )),
)


def _lookup(data: dict, dotted: str):
    section = data
    path = dotted.split(".")
    for depth, key in enumerate(path):
        if not isinstance(section, dict):
            raise ValueError(f"{'.'.join(path[:depth])} must be a mapping, got {section!r}")
        section = section[key]
    return section


def _checked(config: Config) -> Config:
    """Reject the values a run would fail on or silently misread."""
    for section, build in (("lattice", config.geometry),
                           ("trial_generator", config.trial_generator)):
        try:
            build()
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{section}: {exc}") from exc
    for key, kind, valid in _VALUE_RULES:
        value = _lookup(config.data, key)
        if not valid(value):
            raise ValueError(f"{key} must be {kind}, got {value!r}")
    return config
