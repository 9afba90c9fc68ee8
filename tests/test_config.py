import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfpsim
from mfpsim.config import (
    SCHEMA,
    _deep_merge,
    _plainly_valid,
    _validator,
    config_hash,
    default_config,
    load_config,
)
from mfpsim.errors import ConfigError

from test_golden import CONFIGS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"


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


@pytest.mark.parametrize("layer", [{}, {"rounds": 1.0}], ids=["fast-check", "jsonschema"])
def test_integer_beyond_float_range_rejected_with_path(layer):
    # 1.0 is an integer to jsonschema alone, so the second document takes
    # the jsonschema path, and both pass the schema
    big = 10**400
    for doc, path in [
        ({**layer, "scenario": {"area_m": big}}, "scenario/area_m"),
        ({**layer, "resources": {"scale": [1, big, 1]}}, "resources/scale/1"),
    ]:
        merged = _deep_merge(default_config(), doc)
        assert _plainly_valid(merged, SCHEMA) == (not layer)
        assert list(_validator().iter_errors(merged)) == []
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert err.value.path == path
    load_config({**layer, "scenario": {"area_m": 10**300}})  # fits a float


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


@pytest.mark.parametrize(
    "override",
    [
        {"task": {"cycles_per_sample": 5e-324}},
        {"task": {"cycles_per_sample": 1e-300}, "prices": {"compute": 1e-30}},
        {"resources": {"quanta": {"compute_cycles_per_s": 1e300, "time_s": 1e10}}},
        {"task": {"cycles_per_sample": 1e-200}, "prices": {"time": 1e-200}},
    ],
    ids=["subnormal", "compute-price", "cell-cycles-overflow", "time-price"],
)
def test_cycles_per_sample_whose_consumption_bound_divides_by_zero_rejected(override):
    # the consumption bounds divide by prices.time * cycles and by
    # cycles / (compute_cycles_per_s * time_s) * prices.compute
    with pytest.raises(ConfigError) as err:
        load_config(override)
    assert err.value.path == "task/cycles_per_sample"
    assert "underflow to 0" in str(err.value)


def test_zero_cycles_per_sample_still_accepted():
    assert load_config({"task": {"cycles_per_sample": 0.0}}).raw["task"]["cycles_per_sample"] == 0


def test_schema_is_a_valid_schema():
    jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)


def _accepted_documents():
    docs = {"defaults": default_config()}
    workloads = json.loads(PERFBENCH.read_text())["workloads"]
    for name, w in workloads.items():
        docs[f"perfbench-{name}"] = _deep_merge(default_config(), w["config"])
    for name, cfg in CONFIGS.items():
        docs[f"golden-{name}"] = _deep_merge(default_config(), cfg)
    return docs


@pytest.mark.parametrize("name", sorted(_accepted_documents()))
def test_fast_check_accepts_shipped_and_golden_configs(name):
    assert _plainly_valid(_accepted_documents()[name], SCHEMA)


def test_fast_check_declines_keywords_it_does_not_read():
    assert not _plainly_valid("abc", {"type": "string", "pattern": "^x"})
    schema = copy.deepcopy(SCHEMA)
    schema["properties"]["scenario"]["properties"]["sensing_mode"]["pattern"] = "^m"
    assert not _plainly_valid(default_config(), schema)
    assert not _plainly_valid(1, {"type": ["integer", "null"]})


def _paths(doc, here=()):
    yield here
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, (*here, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, (*here, i))


_DEFAULTS = default_config()
_PATHS = list(_paths(_DEFAULTS))[1:]
_DELETE, _EXTRA = "<delete>", "<extra key>"


def _at(path):
    node = _DEFAULTS
    for step in path:
        node = node[step]
    return node


def _near_misses(value):
    """Replacements one step off the default `value`: deletion, wrong types,
    edge floats, non-finite numbers, wrong lengths, enum near-misses."""
    if isinstance(value, bool):
        return st.sampled_from([_DELETE, None, 0, 1, "true", not value])
    if isinstance(value, (int, float)):
        edges = [
            float(value), int(value), -value, value + 1, 0, 0.0, -0.0, 5e-324, -5e-324,
            float("nan"), float("inf"), float("-inf"), 300, 300.0, 300.00000000000006,
        ]
        return st.one_of(
            st.booleans(),
            st.sampled_from([_DELETE, None, str(value), 2**64, 10**400]),
            st.sampled_from(edges),
            st.integers(-3, 3),
            st.floats(),
        )
    if isinstance(value, str):
        return st.sampled_from(
            [_DELETE, value.lower(), value.upper(), value + " ", value[:-1], "", None, 1]
        )
    if isinstance(value, list):
        return st.sampled_from(
            [_DELETE, value[:-1], [*value, 1.0], [], [True] * len(value), None, "x", {}]
        )
    return st.sampled_from([_DELETE, _EXTRA, {}, None, [], "x"])


_MUTATION = st.sampled_from(_PATHS).flatmap(
    lambda path: st.tuples(st.just(path), _near_misses(_at(path)))
)


def _mutate(doc, path, value):
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    if value == _DELETE:
        del node[key]
    elif value == _EXTRA:
        node[key]["bogus"] = 1
    else:
        node[key] = copy.deepcopy(value)


@settings(max_examples=400, deadline=None)
@given(st.lists(_MUTATION, min_size=1, max_size=3))
@example([(("rounds",), True)])
@example([(("scenario", "n_clients"), 1.0)])
@example([(("scenario", "channel", "sensitivity_ws_dbm"), float("nan"))])
@example([(("market", "gain_window"), float("inf"))])
@example([(("prices", "time"), 0)])
@example([(("prices", "freq"), -0.0)])
@example([(("scenario", "channel"), _EXTRA)])
@example([(("policy",), "siscc")])
@example([(("version",), True)])
@example([(("resources", "scale"), [1.0, 1.0])])
def test_fast_check_accepts_nothing_jsonschema_rejects(mutations):
    doc = default_config()
    for path, value in mutations:
        try:
            _mutate(doc, path, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or retyped the path
    if _plainly_valid(doc, SCHEMA):
        assert list(_validator().iter_errors(doc)) == []


def test_cold_load_of_a_valid_config_leaves_jsonschema_unimported():
    script = (
        "import sys, mfpsim\n"
        "mfpsim.load_config({'rounds': 1, 'policy': 'MLPG'})\n"
        "assert 'jsonschema' not in sys.modules, 'imported on a valid config'\n"
        "try:\n"
        "    mfpsim.load_config({'rounds': -1})\n"
        "except mfpsim.ConfigError as err:\n"
        "    print(err.path)\n"
        "assert 'jsonschema' in sys.modules\n"
    )
    src = str(Path(mfpsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "rounds\n"


def test_prices_are_floats_while_the_document_keeps_its_numbers():
    cfg = load_config({"prices": {"time": 10**308, "sample": 2}})
    prices = cfg.prices()
    assert type(prices.time) is float and prices.time == 1e308
    assert type(prices.sample) is float and prices.sample == 2.0
    assert cfg.raw["prices"]["time"] == 10**308 and type(cfg.raw["prices"]["sample"]) is int
    assert config_hash(cfg) != config_hash(load_config({"prices": {"time": 1e308, "sample": 2.0}}))
