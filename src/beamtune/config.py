"""Configuration loading.

One YAML file covers lattice geometry, the trial generator ranges,
optimizer hyperparameters, LLM backend endpoints and the noise mode. A
user file only needs the keys it overrides; everything else comes from the
packaged defaults, and a key the defaults do not have is an error, except
a new backend name under ``llm.backends``, whose keys must be ones the
packaged backends have; every backend needs a ``base_url``. Credentials
never live in config files; the API key is read from the ``LLM_API_KEY``
environment variable by the llm module.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import yaml

from .optics import LatticeGeometry
from .task import TrialGeneratorConfig

__all__ = ["CONFIG_SCHEMA", "Config", "load_config"]

CONFIG_SCHEMA = "beamtune/config/v1"


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


# A new LLM backend may be added by name, with any of the keys the packaged
# backends have.
_NEW_NAMES_ALLOWED = ("llm", "backends")


def _unknown_keys(default: dict, override: dict, path: tuple = ()) -> list[str]:
    """Dotted paths of the ``override`` keys that ``default`` does not have."""
    unknown = []
    for key, value in override.items():
        here = (*path, key)
        if key not in default:
            if path != _NEW_NAMES_ALLOWED:
                unknown.append(".".join(map(str, here)))
            elif isinstance(value, dict):
                backend_keys = {name: None for backend in default.values() for name in backend}
                unknown.extend(_unknown_keys(backend_keys, value, here))
        elif isinstance(value, dict) and isinstance(default[key], dict):
            unknown.extend(_unknown_keys(default[key], value, here))
    return unknown


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
        return LatticeGeometry(
            quad_length=float(lat["quad_length"]),
            q1=float(lat["q1"]),
            q2=float(lat["q2"]),
            cv=float(lat["cv"]),
            q3=float(lat["q3"]),
            ch=float(lat["ch"]),
            screen=float(lat["screen"]),
        )

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

    def backend_options(self, name: str) -> dict:
        backends = self.data["llm"]["backends"]
        if name not in backends:
            raise KeyError(
                f"backend {name!r} not configured; available: {sorted(backends)}"
            )
        return dict(backends[name])

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
        unknown = _unknown_keys(data, override)
        if unknown:
            raise ValueError("unknown config key: " + ", ".join(unknown))
        data = _deep_merge(data, override)
        missing = [
            f"llm.backends.{name}.base_url"
            for name, options in data["llm"]["backends"].items()
            if not isinstance(options, dict) or options.get("base_url") is None
        ]
        if missing:
            raise ValueError("missing config key: " + ", ".join(missing))
    return Config(data)
