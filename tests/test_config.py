import pytest

from gnssweight.config import DEFAULTS, load_config
from gnssweight.dataio import Dataset
from gnssweight.errors import ConfigInvalid
from gnssweight.evaluation import StrategyModels, compare_strategies
from gnssweight.sim import generate_campaign


def test_defaults_load_and_validate():
    cfg = load_config()
    assert cfg == DEFAULTS
    assert cfg is not DEFAULTS  # caller gets a private copy


def test_file_and_override_merge(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("seed: 7\nsimulate:\n  epochs_per_session: 50\n", encoding="utf-8")
    cfg = load_config(path, {"train": {"hidden": 8}})
    assert cfg["seed"] == 7
    assert cfg["simulate"]["epochs_per_session"] == 50
    assert cfg["train"]["hidden"] == 8
    # untouched keys keep their defaults
    assert cfg["simulate"]["rate_hz"] == DEFAULTS["simulate"]["rate_hz"]


def test_unknown_key_is_named(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("simulate:\n  epocs_per_session: 50\n", encoding="utf-8")
    with pytest.raises(ConfigInvalid, match="simulate.epocs_per_session"):
        load_config(path)


def test_value_validation():
    with pytest.raises(ConfigInvalid, match="feature_mode"):
        load_config(None, {"train": {"feature_mode": "everything"}})
    with pytest.raises(ConfigInvalid, match="version"):
        load_config(None, {"version": 2})
    # wrong-typed leaves name their dotted key
    for overrides, key in (
        ({"simulate": {"rate_hz": "fast"}}, "simulate.rate_hz"),
        ({"simulate": {"noise_sigma_m": float("nan")}}, "simulate.noise_sigma_m"),
        ({"simulate": {"epochs_per_session": 2.5}}, "simulate.epochs_per_session"),
        ({"train": {"hidden": "big"}}, "train.hidden"),
        ({"train": {"patience": True}}, "train.patience"),
        ({"seed": "x"}, "seed"),
        ({"evaluate": {"fde": {"threshold": None}}}, "evaluate.fde.threshold"),
    ):
        with pytest.raises(ConfigInvalid, match=f"'{key}'"):
            load_config(None, overrides)
    # out-of-range values
    for overrides, key in (
        ({"seed": -1}, "seed"),
        ({"train": {"batch_size": 0}}, "train"),
        ({"train": {"patience": -1}}, "train.patience"),
        ({"train": {"learning_rate": 0.0}}, "train.learning_rate"),
        ({"evaluate": {"fde": {"threshold": -3.0}}}, "evaluate.fde.threshold"),
        ({"evaluate": {"fde": {"noise_sigma_m": 0}}}, "evaluate.fde.noise_sigma_m"),
        ({"evaluate": {"fde": {"max_exclusions": -1}}}, "evaluate.fde.max_exclusions"),
        ({"evaluate": {"fde": {"min_retained": -5}}}, "evaluate.fde.min_retained"),
    ):
        with pytest.raises(ConfigInvalid, match=f"'{key}'"):
            load_config(None, overrides)
    # an int where a float is expected is fine
    assert load_config(None, {"simulate": {"rate_hz": 2}})["simulate"]["rate_hz"] == 2


@pytest.mark.parametrize("simulate, key", [
    ({"sessions_per_profile": 2}, "sessions_per_profile"),
    ({"epochs_per_session": 0}, "epochs_per_session"),
    ({"rate_hz": 0.0}, "rate_hz"),
    ({"rate_hz": -1.0}, "rate_hz"),
    ({"noise_sigma_m": -0.5}, "noise_sigma_m"),
    ({"nlos_bias_mean_m": -1}, "nlos_bias_mean_m"),
    # no profile, or one twice (its sessions would share ids)
    ({"profiles": []}, "profiles"),
    ({"profiles": ["open_sky", "open_sky"]}, "profiles"),
    ({"profiles": ["urban_canyon", "suburban", "urban_canyon"]}, "profiles"),
    ({"profiles": ["indoor"]}, "profiles"),
])
def test_simulate_rules_are_one_for_config_and_simulator(simulate, key):
    """A ``simulate`` setting out of range fails with one ConfigInvalid
    message, naming its key, from a run configuration and from a
    ``generate_campaign`` call (which once divided by a zero rate, and
    refused zero epochs as ``duration_s``)."""
    with pytest.raises(ConfigInvalid, match=f"'simulate.{key}'") as from_config:
        load_config(None, {"simulate": simulate})
    with pytest.raises(ConfigInvalid) as from_call:
        generate_campaign(seed=0, **{**DEFAULTS["simulate"], "epochs_per_session": 1, **simulate})
    assert str(from_call.value) == str(from_config.value)


@pytest.mark.parametrize("strategies, message", [
    (["magic"], "'evaluate.strategies' entry 'magic' not one of"),
    # a repeated strategy would write each of its records twice
    (["equal", "equal"], "'evaluate.strategies' repeats 'equal'"),
    (["truth", "fde_sota", "truth"], "'evaluate.strategies' repeats 'truth'"),
])
def test_strategy_rules_are_one_for_config_and_library(strategies, message):
    """An unknown or repeated strategy fails with one ConfigInvalid
    message from a run configuration and from ``compare_strategies``,
    before the missing models are."""
    with pytest.raises(ConfigInvalid, match=message) as from_config:
        load_config(None, {"evaluate": {"strategies": strategies}})
    with pytest.raises(ConfigInvalid) as from_call:
        compare_strategies(Dataset(seed=0, sessions=[]), strategies, StrategyModels())
    assert str(from_call.value) == str(from_config.value)


def test_non_mapping_rejected(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("- just\n- a\n- list\n", encoding="utf-8")
    with pytest.raises(ConfigInvalid):
        load_config(path)
    path.write_text("simulate: 12\n", encoding="utf-8")
    with pytest.raises(ConfigInvalid, match="mapping"):
        load_config(path)
