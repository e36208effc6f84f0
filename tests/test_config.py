"""Configuration loading: defaults, overrides, validation."""

from __future__ import annotations

import inspect

import pytest

from beamtune.config import load_config
from beamtune.harness import LLMOptimizer, evaluate
from beamtune.optics import LatticeGeometry
from beamtune.optimizers import BayesianOptimizer, ExtremumSeeking
from beamtune.task import TrialGeneratorConfig


def test_defaults_load_without_file():
    config = load_config()
    assert config.geometry() == LatticeGeometry()
    assert config.noise_sigma() == 0.0
    assert config.harness_options()["budget"] == 50
    assert config.harness_options()["seeds"] == 3


def test_partial_override_merges(tmp_path):
    path = tmp_path / "override.yaml"
    path.write_text(
        "lattice:\n  screen: 3.0\nnoise:\n  screen_position_sigma_m: 2.0e-5\n"
    )
    config = load_config(path)
    geometry = config.geometry()
    assert geometry.screen == 3.0
    assert geometry.quad_length == 0.122  # untouched default
    assert config.noise_sigma() == 2.0e-5


@pytest.mark.parametrize("value, shown", [
    ("-1", "-1"), (".nan", "nan"), (".inf", "inf"),
], ids=["negative", "nan", "inf"])
def test_negative_or_nonfinite_noise_rejected(tmp_path, value, shown):
    # read_screen adds noise only above 0, so such a value would run noiseless
    path = tmp_path / "noise.yaml"
    path.write_text(f"noise:\n  screen_position_sigma_m: {value}\n")
    expected = rf"^noise\.screen_position_sigma_m must be a finite value >= 0, got {shown}$"
    with pytest.raises(ValueError, match=expected):
        load_config(path)


@pytest.mark.parametrize("key", ["budget", "seeds", "workers"])
@pytest.mark.parametrize("value", [0, -2])
def test_harness_counts_below_one_rejected(tmp_path, key, value):
    # every command reads these counts, so each is checked at load
    path = tmp_path / "harness.yaml"
    path.write_text(f"harness:\n  {key}: {value}\n")
    with pytest.raises(ValueError, match=rf"^harness\.{key} must be an integer >= 1, got {value}$"):
        load_config(path)


def test_trial_generator_ranges_parsed(tmp_path):
    path = tmp_path / "override.yaml"
    path.write_text("trial_generator:\n  target_position_mm: [-1.0, 1.0]\n")
    generator = load_config(path).trial_generator()
    assert generator.target_position_mm == (-1.0, 1.0)
    assert generator.target_sigma_mm == (0.05, 0.5)


def test_backend_options_lookup():
    config = load_config()
    assert config.backend_options("openai") == {
        "base_url": "https://api.openai.com", "requests_per_minute": 60,
    }
    assert config.backend_options("ollama")["requests_per_minute"] is None


def test_one_backend_section_per_dialect():
    # --backend names a wire dialect, and each dialect has one config section
    from beamtune.harness.cli import build_parser
    from beamtune.llm import DIALECTS

    run = build_parser()._subparsers._group_actions[0].choices["run"]
    (backend,) = [action for action in run._actions if action.dest == "backend"]
    assert set(load_config().data["llm"]["backends"]) == set(DIALECTS) == set(backend.choices)


def test_unknown_override_keys_rejected_by_dotted_path(tmp_path):
    from beamtune.harness.cli import main as cli_main

    path = tmp_path / "typos.yaml"
    path.write_text("lattice:\n  scren: 3.0\nharness:\n  worker: 2\nllm:\n  windw: 10\n")
    with pytest.raises(ValueError, match="lattice.scren, harness.worker, llm.windw"):
        load_config(path)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", "--optimizer", "do-nothing", "--config", str(path),
                  "--out", str(tmp_path / "r")])
    assert isinstance(exit_info.value.code, str)  # exits with status 1
    for key in ("lattice.scren", "harness.worker", "llm.windw"):
        assert key in exit_info.value.code
    assert not (tmp_path / "r").exists()


def test_unknown_optimizer_section_rejected(tmp_path):
    path = tmp_path / "typo.yaml"
    path.write_text("optimizers:\n  bayes:\n    n_init: 3\n")
    with pytest.raises(ValueError, match=r"optimizers\.bayes\b"):
        load_config(path)


def test_non_dialect_backend_name_rejected(tmp_path):
    path = tmp_path / "backend.yaml"
    path.write_text('llm:\n  backends:\n    mine:\n      base_url: "http://x"\n')
    with pytest.raises(ValueError, match=r"^unknown config key: llm\.backends\.mine$"):
        load_config(path)


def test_backend_base_url_override(tmp_path):
    # another OpenAI-compatible server is reached by overriding the openai section
    path = tmp_path / "backend.yaml"
    path.write_text("llm:\n  backends:\n    openai:\n      base_url: http://127.0.0.1:8080\n")
    assert load_config(path).backend_options("openai") == {
        "base_url": "http://127.0.0.1:8080", "requests_per_minute": 60,
    }


def test_unknown_keys_below_packaged_sections_rejected(tmp_path):
    path = tmp_path / "typos.yaml"
    path.write_text(
        "optimizers:\n  bo:\n    n_candidate: 512\n"
        "llm:\n  backends:\n    openai:\n      rate: 5\n"
    )
    with pytest.raises(
        ValueError, match=r"optimizers\.bo\.n_candidate, llm\.backends\.openai\.rate"
    ):
        load_config(path)


def test_wrong_schema_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("schema: something/else\n")
    with pytest.raises(ValueError):
        load_config(path)


def test_optimizer_options():
    config = load_config()
    assert config.optimizer_options("bo")["n_init"] == 5
    assert config.optimizer_options("es")["gain"] == 16.0
    assert config.optimizer_options("unknown") == {}


def _defaults(function) -> dict:
    return {
        name: parameter.default
        for name, parameter in inspect.signature(function).parameters.items()
    }


def test_packaged_values_equal_library_defaults():
    # each packaged value restates a library default; if the two differ, a
    # run through the CLI is not the run the library builds by default
    config = load_config()
    for name, constructor in (("es", ExtremumSeeking), ("bo", BayesianOptimizer)):
        defaults = _defaults(constructor)
        for key, value in config.optimizer_options(name).items():
            assert value == defaults[key], f"optimizers.{name}.{key}"

    llm, defaults = config.llm_options(), _defaults(LLMOptimizer)
    assert llm["window"] == defaults["window"]
    assert llm["timeout_s"] == defaults["timeout"]
    assert llm["second_chance_feedback"] == defaults["second_chance_feedback"]
    assert llm["temperature"] == defaults["temperature"]

    harness, defaults = config.harness_options(), _defaults(evaluate)
    assert harness["budget"] == defaults["budget"]
    assert harness["budget"] == _defaults(BayesianOptimizer)["budget"]
    assert harness["seeds"] == defaults["n_seeds"]
    assert harness["workers"] == defaults["workers"]
    assert config.noise_sigma() == defaults["noise_sigma"]

    assert config.geometry() == LatticeGeometry()
    # canonical_trials generates the suite from these ranges
    assert config.trial_generator() == TrialGeneratorConfig()
