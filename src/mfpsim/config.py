"""Experiment configuration: schema-validated JSON with shipped defaults.

User files only need the keys they override; everything else comes from the
packaged defaults (stock vehicular-network values).  Unknown keys are
rejected so typos fail loudly.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import operator
from importlib import resources
from pathlib import Path

from .baselines import Policy
from .costs import ConsumptionTask, PriceVector
from .errors import ConfigError
from .resource_pool import ResourceQuanta
from .scenario import ChannelParams, SensingGeometry, SensingProfile

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
# each scenario count is the length of a numpy axis, and n_classes also the
# exclusive top of an int64 class draw; the clients' and targets' (n, 2)
# float64 positions take 16 bytes a count, and numpy sizes no array past
# 2**63 - 1 bytes
_COUNT_MAX = (2**63 - 1) // 16
_COUNT = {"type": "integer", "minimum": 1, "maximum": _COUNT_MAX}
# 10 ** ((p - 30) / 10) watts overflows a float near 3110 dBm
_TX_POWER = {"type": "number", "maximum": 300}
# the most samples a client quotes for one round
QUOTE_CAP = 10**7


def _obj(properties: dict) -> dict:
    return {
        "type": "object",
        "properties": properties,
        "additionalProperties": False,
        "required": sorted(properties),
    }


SCHEMA = _obj(
    {
        "version": {"const": 1},
        "seed": {"type": "integer", "minimum": 0},
        "rounds": {"type": "integer", "minimum": 0},
        "policy": {"enum": [p.value for p in Policy]},
        "mode": {"enum": ["zeros", "serial"]},
        "scenario": _obj(
            {
                "area_m": _POS,
                "n_clients": _COUNT,
                "n_targets": {"type": "integer", "minimum": 0, "maximum": _COUNT_MAX},
                "n_classes": _COUNT,
                "max_speed_mps": _NONNEG,
                "visual_radius_m": _POS,
                "wireless_radius_m": _POS,
                "frame_rate_hz": _POS,
                "visual_efficiency": _NONNEG,
                "wireless_efficiency": _NONNEG,
                "sensing_mode": {"enum": ["msg", "vsg", "wsg"]},
                "channel": _obj(
                    {
                        "carrier_hz": _POS,
                        "noise_density_w_per_hz": _POS,
                        "tx_power_server_dbm": _TX_POWER,
                        "tx_power_client_dbm": _TX_POWER,
                        "tx_power_sensing_dbm": _TX_POWER,
                        "sensitivity_ws_dbm": _NUM,
                        "sensitivity_wc_dbm": _NUM,
                        "pathloss_exponent": _POS,
                        "reference_loss_db": _NONNEG,
                    }
                ),
            }
        ),
        "resources": _obj(
            {
                "time_cells": _POS_INT,
                "freq_cells": _POS_INT,
                "compute_cells": _POS_INT,
                "scale": {
                    "type": "array",
                    "items": _POS,
                    "minItems": 3,
                    "maxItems": 3,
                },
                "quanta": _obj(
                    {"time_s": _POS, "freq_hz": _POS, "compute_cycles_per_s": _POS}
                ),
            }
        ),
        "task": _obj(
            {
                "model_down_bits": _NONNEG,
                "model_up_bits": _NONNEG,
                "cycles_per_sample": _NONNEG,
            }
        ),
        "prices": _obj(
            {"time": _POS, "freq": _POS, "compute": _POS, "sample": _POS, "gain": _POS}
        ),
        "market": _obj(
            {
                "alpha": _NONNEG,
                "beta": _NONNEG,
                "gain_floor": _NONNEG,
                "gain_window": _POS,
                "gain_target_mode": {"enum": ["per_round", "cumulative"]},
                "max_active_clients": _POS_INT,
                "gain_factor": _POS,
            }
        ),
        "output": _obj({"trajectories": {"type": "boolean"}}),
    }
)


_TYPES = {
    "object": lambda x: type(x) is dict,
    "array": lambda x: type(x) is list,
    "boolean": lambda x: type(x) is bool,
    # JSON Schema counts 5.0 as an integer.  A number must be finite: Python's
    # json reads Infinity and NaN, and NaN passes every bound check.
    "integer": lambda x: type(x) is int or (type(x) is float and x.is_integer()),
    "number": lambda x: type(x) is int or (type(x) is float and math.isfinite(x)),
}
_BOUNDS = (
    ("minimum", operator.lt, "is less than the minimum of"),
    ("maximum", operator.gt, "is greater than the maximum of"),
    ("exclusiveMinimum", operator.le, "is less than or equal to the minimum of"),
)


def _same(x, y) -> bool:
    """JSON equality: 1 equals 1.0, but no bool equals a number."""
    return x == y and (type(x) is bool) == (type(y) is bool)


def _parse(x, schema: dict, path: tuple, errors: list):
    """`x` as the engine reads it: each "number" leaf a float, each "integer"
    leaf an int.  Each violation of `schema` is appended to `errors` as
    (path, message), in the order and with the wording of jsonschema, plus
    one rule of the engine's: an integer at a "number" or "integer" key must
    fit a float, as the engine mixes it with floats."""
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](x):
        errors.append((path, f"{x!r} is not of type {kind!r}"))
        kind = None
    if "enum" in schema and not any(_same(x, e) for e in schema["enum"]):
        errors.append((path, f"{x!r} is not one of {schema['enum']!r}"))
    if "const" in schema and not _same(x, schema["const"]):
        errors.append((path, f"{schema['const']!r} was expected"))
    if _TYPES["number"](x):
        for key, fails, words in _BOUNDS:
            if key in schema and fails(x, schema[key]):
                errors.append((path, f"{x!r} {words} {schema[key]!r}"))
    if kind in ("number", "integer"):
        try:
            as_float = float(x)
        except OverflowError:
            errors.append((path, "integer too large for a float"))
            return x
        return as_float if kind == "number" else int(x)
    if type(x) is dict:
        props = schema.get("properties", {})
        out = {k: _parse(x[k], sub, (*path, k), errors) for k, sub in props.items() if k in x}
        if schema.get("additionalProperties") is False and (
            extras := sorted(k for k in x if k not in props)
        ):
            listed, verb = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
            message = f"Additional properties are not allowed ({listed} {verb} unexpected)"
            errors.append((path, message))
        for k in schema.get("required", ()):
            if k not in x:
                errors.append((path, f"{k!r} is a required property"))
        return out
    if type(x) is list:
        out = x
        if "items" in schema:
            out = [_parse(v, schema["items"], (*path, i), errors) for i, v in enumerate(x)]
        if len(x) < schema.get("minItems", 0):
            errors.append((path, f"{x!r} is too short"))
        if len(x) > schema.get("maxItems", len(x)):
            errors.append((path, f"{x!r} is too long"))
        return out
    return x


def default_config() -> dict:
    with resources.files("mfpsim.data").joinpath("defaults.json").open() as fh:
        return json.load(fh)


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in merged:
            raise ConfigError("unknown key", here)
        if isinstance(merged[key], dict) and isinstance(value, dict):
            merged[key] = _deep_merge(merged[key], value, here)
        else:
            merged[key] = value
    return merged


class ExperimentConfig:
    """A merged configuration document, checked against SCHEMA.

    `raw` is the document as given, which `config_hash` hashes; the
    accessors read `typed`, its copy with each "number" leaf a float and
    each "integer" leaf an int.  Raises ConfigError with the
    shallowest violation, the first in schema order among equally deep ones.
    """

    def __init__(self, raw: dict):
        errors = []
        self.raw = raw
        self.typed = _parse(raw, SCHEMA, (), errors)
        if errors:
            path, message = min(errors, key=lambda e: len(e[0]))
            raise ConfigError(message, "/".join(map(str, path)))

    @property
    def seed(self) -> int:
        return self.typed["seed"]

    @property
    def rounds(self) -> int:
        return self.typed["rounds"]

    @property
    def policy(self) -> Policy:
        return Policy(self.typed["policy"])

    @property
    def mode(self) -> str:
        return self.typed["mode"]

    @property
    def scenario(self) -> dict:
        return self.typed["scenario"]

    @property
    def market(self) -> dict:
        return self.typed["market"]

    @property
    def output(self) -> dict:
        return self.typed["output"]

    def geometry(self) -> SensingGeometry:
        s = self.scenario
        return SensingGeometry(d_vs=s["visual_radius_m"], d_ws=s["wireless_radius_m"])

    def channel(self) -> ChannelParams:
        return ChannelParams(**self.scenario["channel"])

    def profile(self) -> SensingProfile:
        s = self.scenario
        return SensingProfile(
            frame_rate_hz=s["frame_rate_hz"],
            visual_efficiency=s["visual_efficiency"],
            wireless_efficiency=s["wireless_efficiency"],
            mode=s["sensing_mode"],
        )

    def quanta(self) -> ResourceQuanta:
        return ResourceQuanta(**self.typed["resources"]["quanta"])

    def prices(self) -> PriceVector:
        return PriceVector(**self.typed["prices"])

    def scaled_cells(self) -> tuple[int, int, int]:
        """Pool dimensions after the resource-scaling triple, floored, >= 1."""
        r = self.typed["resources"]
        cells = (r["time_cells"], r["freq_cells"], r["compute_cells"])
        return tuple(
            max(1, math.floor(c * s + 1e-9)) for c, s in zip(cells, r["scale"])
        )

    def task_for(self, eff_down: float, eff_up: float) -> ConsumptionTask:
        t = self.typed["task"]
        return ConsumptionTask(
            d_down_bits=t["model_down_bits"],
            d_up_bits=t["model_up_bits"],
            cycles_per_sample=t["cycles_per_sample"],
            eff_down=eff_down,
            eff_up=eff_up,
        )


def load_config(
    source: dict | str | Path | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Merge `source` (a dict or a JSON file), then `overrides`, over the
    shipped defaults and validate once, so an override can fix a bad value
    in `source`.

    Raises ConfigError with the JSON path of the first offending key, or with
    the file's path when it cannot be read or its top level is not an object.
    """
    where = ""
    if isinstance(source, (str, Path)):
        where = str(source)
        try:
            source = json.loads(Path(source).read_text())
        except OSError as err:
            raise ConfigError(f"cannot read: {err.strerror or err}", where) from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"not valid JSON: {err}", where) from err
    elif source is None:
        source = {}
    merged = default_config()
    for layer in (source, overrides or {}):
        if not isinstance(layer, dict):
            raise ConfigError("top level must be a JSON object", where)
        merged = _deep_merge(merged, layer)
    config = ExperimentConfig(merged)
    # the checks across keys run on the engine's numbers
    t = config.typed
    m, sc, r = t["market"], t["scenario"], t["resources"]
    # the market allocates between the floor and floor plus window
    if m["gain_floor"] + m["gain_window"] <= m["gain_floor"]:
        raise ConfigError("plus market/gain_window rounds back to itself", "market/gain_floor")
    # every SNR divides by the noise power over one frequency cell
    if sc["channel"]["noise_density_w_per_hz"] * r["quanta"]["freq_hz"] == 0:
        raise ConfigError(
            "times resources/quanta/freq_hz, the noise power underflows to 0 W",
            "scenario/channel/noise_density_w_per_hz",
        )
    # the sensing discs nest and have finite areas; the target density
    # divides by the square's area
    if sc["visual_radius_m"] >= sc["wireless_radius_m"]:
        raise ConfigError(
            "is not less than scenario/wireless_radius_m", "scenario/visual_radius_m"
        )
    if math.isinf(math.pi * (sc["wireless_radius_m"] * sc["wireless_radius_m"])):
        raise ConfigError("the disc's area pi * r**2 overflows", "scenario/wireless_radius_m")
    if not 0 < sc["area_m"] * sc["area_m"] < math.inf:
        raise ConfigError("squared underflows to 0 or overflows", "scenario/area_m")
    # scaled pools, and mobility folding positions back into the square,
    # need a finite round, longest move in it and 2 * area_m
    for key, s in zip(("time_cells", "freq_cells", "compute_cells"), r["scale"]):
        if math.isinf(r[key] * s):
            raise ConfigError("a pool dimension times its scale overflows", "resources/scale")
    reach = sc["max_speed_mps"] * (config.scaled_cells()[0] * r["quanta"]["time_s"])
    if not math.isfinite(2.0 * sc["area_m"] + reach):
        key = "area_m" if math.isfinite(reach) else "max_speed_mps"
        raise ConfigError("twice the area plus a round's longest move overflows", f"scenario/{key}")
    # the consumption bounds divide by the time price times the cycles per
    # sample, and by the compute price times a sample's share of a compute cell
    cycles, p, q = t["task"]["cycles_per_sample"], t["prices"], r["quanta"]
    if cycles > 0 and p["time"] * cycles == 0:
        raise ConfigError(
            "times prices/time, the cycles per sample underflow to 0", "task/cycles_per_sample"
        )
    if cycles > 0 and cycles / (q["compute_cycles_per_s"] * q["time_s"]) * p["compute"] == 0:
        raise ConfigError(
            "per compute cell of resources/quanta, times prices/compute,"
            " the cycles per sample underflow to 0",
            "task/cycles_per_sample",
        )
    # a round pays at most this many clients for at most QUOTE_CAP samples
    # each, each sample worth at most gain_factor of gain (quality is at
    # most 1): settlement stays finite
    paid = min(sc["n_clients"], m["max_active_clients"])
    payments, gains = p["sample"] * paid * QUOTE_CAP, p["gain"] * m["gain_factor"] * paid * QUOTE_CAP
    if math.isinf(payments):
        raise ConfigError(
            "times the paid clients and the 10**7 quote cap, a round's payments overflow",
            "prices/sample",
        )
    if math.isinf(gains):
        raise ConfigError(
            "times market/gain_factor, the paid clients and the 10**7 quote cap,"
            " a round's gain payment overflows",
            "prices/gain",
        )
    # welfare weighs the server's profit (at most the larger total) by alpha
    # and the clients' (at most the payments, bar MLPG's losses) by beta
    for key, total in (("alpha", max(payments, gains)), ("beta", payments)):
        if math.isinf(m[key] * total):
            raise ConfigError("times the round totals it weighs, the welfare overflows", f"market/{key}")
    return config


def config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
