import pytest

from gnssweight.config import DEFAULTS, load_config
from gnssweight.errors import ConfigInvalid


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
    with pytest.raises(ConfigInvalid, match="rate_hz"):
        load_config(None, {"simulate": {"rate_hz": 0.0}})
    with pytest.raises(ConfigInvalid, match="feature_mode"):
        load_config(None, {"train": {"feature_mode": "everything"}})
    with pytest.raises(ConfigInvalid, match="strategies"):
        load_config(None, {"evaluate": {"strategies": ["magic"]}})
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
        ({"simulate": {"sessions_per_profile": 2}}, "simulate.sessions_per_profile"),
        ({"simulate": {"epochs_per_session": 0}}, "simulate.epochs_per_session"),
        ({"simulate": {"noise_sigma_m": -0.5}}, "simulate.noise_sigma_m"),
        ({"simulate": {"nlos_bias_mean_m": -1}}, "simulate.nlos_bias_mean_m"),
        ({"train": {"batch_size": 0}}, "train"),
        ({"train": {"patience": -1}}, "train.patience"),
        ({"train": {"learning_rate": 0.0}}, "train.learning_rate"),
        ({"evaluate": {"fde": {"threshold": -3.0}}}, "evaluate.fde.threshold"),
        ({"evaluate": {"fde": {"noise_sigma_m": 0}}}, "evaluate.fde.noise_sigma_m"),
        ({"evaluate": {"fde": {"max_exclusions": -1}}}, "evaluate.fde.max_exclusions"),
        ({"evaluate": {"fde": {"min_retained": -5}}}, "evaluate.fde.min_retained"),
        # a repeated strategy would write each of its records twice
        ({"evaluate": {"strategies": ["equal", "equal"]}}, "evaluate.strategies"),
        ({"evaluate": {"strategies": ["truth", "fde_sota", "truth"]}}, "evaluate.strategies"),
    ):
        with pytest.raises(ConfigInvalid, match=f"'{key}'"):
            load_config(None, overrides)
    # no profile, or one twice (its sessions would share ids), is refused
    for profiles in ([], ["open_sky", "open_sky"], ["urban_canyon", "suburban", "urban_canyon"]):
        with pytest.raises(ConfigInvalid, match="'simulate.profiles'"):
            load_config(None, {"simulate": {"profiles": profiles}})
    # an int where a float is expected is fine
    assert load_config(None, {"simulate": {"rate_hz": 2}})["simulate"]["rate_hz"] == 2


def test_non_mapping_rejected(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("- just\n- a\n- list\n", encoding="utf-8")
    with pytest.raises(ConfigInvalid):
        load_config(path)
    path.write_text("simulate: 12\n", encoding="utf-8")
    with pytest.raises(ConfigInvalid, match="mapping"):
        load_config(path)
