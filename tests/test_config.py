import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfpsim
from mfpsim.config import (
    SCHEMA,
    ExperimentConfig,
    _deep_merge,
    _parse,
    config_hash,
    default_config,
    load_config,
)
from mfpsim.errors import ConfigError
from mfpsim.resource_pool import ResourceQuanta
from mfpsim.runner import run
from mfpsim.scenario import ChannelParams, SensingGeometry, SensingProfile

from oracles import schema_validator, schema_violations
from test_golden import BENCH, CONFIGS, TINY


def test_defaults_load_and_validate():
    cfg = load_config()
    assert cfg.rounds == 10
    assert cfg.policy.value == "SISCC"
    assert cfg.scaled_cells() == (10, 400, 10)
    assert cfg.quanta().freq_hz == 1e6


def test_dataclass_defaults_are_the_packaged_defaults():
    # tests build these directly and must see what run() sees; the prices'
    # dataclass default is unit prices on purpose
    cfg = load_config()
    assert ChannelParams() == cfg.channel()
    assert SensingProfile() == cfg.profile()
    assert SensingGeometry() == cfg.geometry()
    assert ResourceQuanta() == cfg.quanta()


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


def _shallowest(violations):
    """The violation jsonschema's best match picks by depth; among equally
    deep ones, the first it finds."""
    path, message = min(violations, key=lambda v: len(v[0]))
    return "/".join(map(str, path)), message


def test_two_errors_report_what_jsonschema_validate_reports():
    # the walk meets scenario.n_clients first; the shallower error wins
    override = {"scenario": {"n_clients": 0}, "output": 5}
    violations = schema_violations(_deep_merge(default_config(), override))
    assert len(violations) == 2
    with pytest.raises(ConfigError) as err:
        load_config(override)
    assert err.value.path == "output" == _shallowest(violations)[0]
    assert str(err.value) == "output: 5 is not of type 'object'"


def test_equally_deep_errors_report_the_first_in_schema_order():
    # jsonschema's best match takes the greater path, "scenario"
    with pytest.raises(ConfigError) as err:
        load_config({"mode": "x", "scenario": 5})
    assert str(err.value) == "mode: 'x' is not one of ['zeros', 'serial']"


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


@pytest.mark.parametrize("rounds", [1, 1.0], ids=["int-rounds", "float-rounds"])
def test_integer_beyond_float_range_rejected_with_path(rounds):
    # an integral float at an integer key changes nothing in the verdict
    big = 10**400
    for doc, path in [
        ({"scenario": {"area_m": big}}, ("scenario", "area_m")),
        ({"resources": {"scale": [1, big, 1]}}, ("resources", "scale", 1)),
        ({"resources": {"freq_cells": big}}, ("resources", "freq_cells")),
    ]:
        doc["rounds"] = rounds
        message = "integer too large for a float"
        assert schema_violations(_deep_merge(default_config(), doc)) == [(path, message)]
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert str(err.value) == f"{'/'.join(map(str, path))}: {message}"
    load_config({"rounds": rounds, "scenario": {"area_m": 10**150}})  # fits a float


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
    schema_validator.cache_clear()
    schema_validator()  # checks SCHEMA against its metaschema first


def _accepted_documents():
    docs = {"defaults": default_config()}
    workloads = BENCH["workloads"]
    for name, w in workloads.items():
        docs[f"perfbench-{name}"] = _deep_merge(default_config(), w["config"])
    for name, cfg in CONFIGS.items():
        docs[f"golden-{name}"] = _deep_merge(default_config(), cfg)
    return docs


@pytest.mark.parametrize("name", sorted(_accepted_documents()))
def test_fast_check_accepts_shipped_and_golden_configs(name):
    # the one walk over SCHEMA finds nothing, and its typed copy has the
    # document's values
    doc = _accepted_documents()[name]
    errors = []
    assert _parse(doc, SCHEMA, (), errors) == doc
    assert errors == [] == schema_violations(doc)


class _Recording(dict):
    """A schema node that notes each of its keys looked up."""

    def __init__(self, node, read):
        super().__init__(node)
        self.read = read

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _recording(node, read, used):
    """`node` with every schema node recording its reads into `read`, and
    every keyword it uses added to `used`."""
    used.update(node)
    out = dict(node)
    if "properties" in node:
        out["properties"] = {k: _recording(v, read, used) for k, v in node["properties"].items()}
    if "items" in node:
        out["items"] = _recording(node["items"], read, used)
    return _Recording(out, read)


def _keywords_unread(schema, doc):
    read, used = set(), set()
    _parse(doc, _recording(schema, read, used), (), [])
    return used - read


def test_parse_reads_every_keyword_schema_uses():
    # on the defaults alone, every keyword SCHEMA uses is looked up
    assert _keywords_unread(SCHEMA, default_config()) == set()
    schema = copy.deepcopy(SCHEMA)
    schema["properties"]["scenario"]["properties"]["sensing_mode"]["pattern"] = "^m"
    assert _keywords_unread(schema, default_config()) == {"pattern"}


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


def _at(path, node=_DEFAULTS):
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
@example([(("scenario", "area_m"), 10**400)])
@example([(("resources", "scale"), [1.0, 1.0, 1.0, 1.0])])
def test_parse_finds_what_jsonschema_finds(mutations):
    # the oracle is jsonschema with finite numbers and the float-range rule
    doc = default_config()
    for path, value in mutations:
        try:
            _mutate(doc, path, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or retyped the path
    errors = []
    _parse(doc, SCHEMA, (), errors)
    expected = schema_violations(doc)
    assert errors == expected
    if not expected:
        ExperimentConfig(doc)
        return
    path, message = _shallowest(expected)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(doc)
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}" if path else message)


def test_cold_load_of_a_valid_config_leaves_jsonschema_unimported():
    # with jsonschema made unimportable, a valid config loads and an invalid
    # one is rejected at its path
    script = (
        "import sys\n"
        "sys.modules['jsonschema'] = None\n"
        "import mfpsim\n"
        "mfpsim.load_config({'rounds': 1, 'policy': 'MLPG'})\n"
        "try:\n"
        "    mfpsim.load_config({'rounds': -1})\n"
        "except mfpsim.ConfigError as err:\n"
        "    print(err.path)\n"
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


def _integer_paths(schema=SCHEMA, here=()):
    if schema.get("type") == "integer":
        yield here
    for key, sub in schema.get("properties", {}).items():
        yield from _integer_paths(sub, (*here, key))


def _tiny_texts(doc):
    texts = run(load_config(doc)).output_texts()
    del texts["run.json"]  # it carries the document as given, and its hash
    return texts


@pytest.mark.parametrize("path", list(_integer_paths()), ids="/".join)
def test_integral_float_at_an_integer_key_writes_the_same_outputs(path):
    doc = _deep_merge(default_config(), {**TINY, "seed": 3})
    as_int = _tiny_texts(doc)
    _mutate(doc, path, float(_at(path, doc)))
    cfg = load_config(doc)
    assert type(_at(path, cfg.typed)) is int and type(_at(path, cfg.raw)) is float
    assert _tiny_texts(doc) == as_int


def test_number_leaves_are_floats_in_the_typed_copy():
    cfg = load_config({"scenario": {"area_m": 500, "channel": {"pathloss_exponent": 2}}})
    assert type(cfg.scenario["area_m"]) is float and type(cfg.channel().pathloss_exponent) is float
    assert type(cfg.raw["scenario"]["area_m"]) is int
    assert cfg.typed["resources"]["scale"] == [1.0, 1.0, 1.0]
