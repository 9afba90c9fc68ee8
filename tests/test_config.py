import json

import jsonschema
import pytest

from mfpsim.config import SCHEMA, _deep_merge, config_hash, default_config, load_config
from mfpsim.errors import ConfigError


def test_defaults_load_and_validate():
    cfg = load_config()
    assert cfg.rounds == 10
    assert cfg.policy.value == "SISCC"
    assert cfg.scaled_cells() == (10, 400, 10)
    assert cfg.quanta().freq_hz == 1e6


def test_partial_override_merges():
    cfg = load_config({"rounds": 3, "scenario": {"n_clients": 5}})
    assert cfg.rounds == 3
    assert cfg.scenario["n_clients"] == 5
    assert cfg.scenario["n_targets"] == 100  # untouched default


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        load_config({"scenario": {"n_clientz": 5}})
    assert "scenario.n_clientz" in str(err.value)


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        load_config({"rounds": -1})
    with pytest.raises(ConfigError):
        load_config({"policy": "BOGUS"})
    with pytest.raises(ConfigError):
        load_config({"resources": {"scale": [1.0, 1.0]}})


def test_two_errors_report_what_jsonschema_validate_reports():
    # the scan meets scenario.n_clients first; jsonschema's best match is the
    # shallower error
    override = {"scenario": {"n_clients": 0}, "output": 5}
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(_deep_merge(default_config(), override), SCHEMA)
    for _ in range(2):  # the cached validator answers the same every time
        with pytest.raises(ConfigError) as err:
            load_config(override)
        assert err.value.path == "output"
        assert str(err.value) == f"output: {expected.value.message}"


def test_scale_floors_with_minimum_one(tmp_path):
    cfg = load_config({"resources": {"scale": [0.25, 0.25, 0.01]}})
    assert cfg.scaled_cells() == (2, 100, 1)


def test_config_hash_stable_and_sensitive():
    a = load_config({"seed": 1})
    b = load_config({"seed": 1})
    c = load_config({"seed": 2})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_load_from_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"rounds": 2}))
    assert load_config(path).rounds == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_defaults_document_is_complete():
    # every schema key present; defaults must validate on their own
    raw = default_config()
    assert raw["resources"]["time_cells"] == 10
    assert raw["scenario"]["channel"]["tx_power_server_dbm"] == 55.0


def test_overrides_merge_after_the_source_and_validate_once():
    cfg = load_config({"policy": "BOGUS", "rounds": 4}, {"policy": "MLPG"})
    assert cfg.policy.value == "MLPG" and cfg.rounds == 4
    with pytest.raises(ConfigError) as err:
        load_config({"rounds": 4}, {"scenario": {"n_clientz": 5}})
    assert err.value.path == "scenario.n_clientz"


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_number_rejected_with_path(value):
    with pytest.raises(ConfigError) as err:
        load_config({"market": {"gain_window": value}})
    assert err.value.path == "market/gain_window"
    with pytest.raises(ConfigError) as err:
        load_config({"resources": {"scale": [1.0, value, 1.0]}})
    assert err.value.path == "resources/scale/1"


def test_non_finite_number_in_file_rejected(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"market": {"gain_window": Infinity}}')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.path == "market/gain_window"


@pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"x"'])
def test_file_top_level_must_be_an_object(tmp_path, text):
    path = tmp_path / "top.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(path, {"seed": 5})
    assert err.value.path == str(path)


def test_unreadable_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path / "missing.json")
    assert err.value.path == str(tmp_path / "missing.json")
