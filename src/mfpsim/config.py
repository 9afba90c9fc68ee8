"""Experiment configuration: schema-validated JSON with shipped defaults.

User files only need the keys they override; everything else comes from the
packaged defaults (stock vehicular-network values).  Unknown keys are
rejected so typos fail loudly.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
from dataclasses import dataclass
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
# 10 ** ((p - 30) / 10) watts overflows a float near 3110 dBm
_TX_POWER = {"type": "number", "maximum": 300}


def _obj(properties: dict, required: list[str] | None = None) -> dict:
    return {
        "type": "object",
        "properties": properties,
        "additionalProperties": False,
        "required": required or sorted(properties),
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
                "n_clients": _POS_INT,
                "n_targets": {"type": "integer", "minimum": 0},
                "n_classes": _POS_INT,
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


@functools.cache
def _validator():
    """SCHEMA's validator, built on the first config the fast check does not
    accept; jsonschema is imported only then.

    A "number" must be finite: Python's `json` reads Infinity and NaN, and
    NaN passes every bound check.
    """
    import jsonschema

    cls = jsonschema.validators.validator_for(SCHEMA)
    finite = cls.TYPE_CHECKER.redefine(
        "number",
        lambda checker, x: cls.TYPE_CHECKER.is_type(x, "number")
        and (not isinstance(x, float) or math.isfinite(x)),
    )
    return jsonschema.validators.extend(cls, type_checker=finite)(SCHEMA)


_STRICT_TYPES = {
    "object": lambda x: type(x) is dict,
    "array": lambda x: type(x) is list,
    "integer": lambda x: type(x) is int,
    "number": lambda x: type(x) is int or (type(x) is float and math.isfinite(x)),
    "boolean": lambda x: type(x) is bool,
}
_PLAIN_KEYWORDS = {
    "type", "properties", "additionalProperties", "required", "items",
    "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum", "enum", "const",
}


def _plainly_valid(x, schema: dict) -> bool:
    """True only when `_validator()` would find no error in `x`.

    A sufficient check, read off the keywords SCHEMA uses, with types taken
    strictly (a bool is no integer or number, 1.0 is no integer, a number is
    finite) and checked before anything else.  Any other keyword, or any
    doubt, answers False and leaves the verdict to jsonschema.
    """
    if not _PLAIN_KEYWORDS.issuperset(schema):
        return False
    if "type" in schema:
        strict = _STRICT_TYPES.get(schema["type"]) if type(schema["type"]) is str else None
        if strict is None or not strict(x):
            return False
    if "enum" in schema and not (type(x) is str and x in schema["enum"]):
        return False
    if "const" in schema:
        c = schema["const"]
        if type(c) not in (str, int) or type(x) is not type(c) or x != c:
            return False
    if {"minimum", "maximum", "exclusiveMinimum"} & schema.keys():
        # only a strict number type above makes x a finite number
        if schema.get("type") not in ("integer", "number"):
            return False
        if not schema.get("minimum", x) <= x <= schema.get("maximum", x):
            return False
        if "exclusiveMinimum" in schema and x <= schema["exclusiveMinimum"]:
            return False
    if {"properties", "additionalProperties", "required"} & schema.keys():
        props = schema.get("properties", {})
        if (
            type(x) is not dict
            or schema.get("additionalProperties") is not False
            or not all(k in x for k in schema.get("required", []))
            or not all(k in props and _plainly_valid(v, props[k]) for k, v in x.items())
        ):
            return False
    if {"items", "minItems", "maxItems"} & schema.keys():
        if (
            type(x) is not list
            or not schema.get("minItems", 0) <= len(x) <= schema.get("maxItems", len(x))
            or not all(_plainly_valid(v, schema.get("items", {})) for v in x)
        ):
            return False
    return True


def _unfloatable(x, schema: dict, path: str = "") -> str | None:
    """JSON path of the first integer at a "number" key of a valid `x` that
    overflows a float, or None.  The schema's "number" takes any integer,
    and the engine's float arithmetic raises OverflowError on such a one."""
    if schema.get("type") == "number" and type(x) is int:
        try:
            float(x)
        except OverflowError:
            return path
    for key, sub in schema.get("properties", {}).items():
        if key in x and (found := _unfloatable(x[key], sub, f"{path}/{key}" if path else key)):
            return found
    if "items" in schema:
        for i, v in enumerate(x):
            if found := _unfloatable(v, schema["items"], f"{path}/{i}"):
                return found
    return None


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


@dataclass(slots=True)
class ExperimentConfig:
    """Typed view over the merged, validated configuration document."""

    raw: dict

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def rounds(self) -> int:
        return self.raw["rounds"]

    @property
    def policy(self) -> Policy:
        return Policy(self.raw["policy"])

    @property
    def mode(self) -> str:
        return self.raw["mode"]

    @property
    def scenario(self) -> dict:
        return self.raw["scenario"]

    @property
    def market(self) -> dict:
        return self.raw["market"]

    @property
    def output(self) -> dict:
        return self.raw["output"]

    def geometry(self) -> SensingGeometry:
        s = self.scenario
        return SensingGeometry(d_vs=s["visual_radius_m"], d_ws=s["wireless_radius_m"])

    def channel(self) -> ChannelParams:
        c = self.scenario["channel"]
        return ChannelParams(
            carrier_hz=c["carrier_hz"],
            noise_density_w_per_hz=c["noise_density_w_per_hz"],
            tx_power_server_dbm=c["tx_power_server_dbm"],
            tx_power_client_dbm=c["tx_power_client_dbm"],
            tx_power_sensing_dbm=c["tx_power_sensing_dbm"],
            sensitivity_ws_dbm=c["sensitivity_ws_dbm"],
            sensitivity_wc_dbm=c["sensitivity_wc_dbm"],
            pathloss_exponent=c["pathloss_exponent"],
            reference_loss_db=c["reference_loss_db"],
        )

    def profile(self) -> SensingProfile:
        s = self.scenario
        return SensingProfile(
            frame_rate_hz=s["frame_rate_hz"],
            visual_efficiency=s["visual_efficiency"],
            wireless_efficiency=s["wireless_efficiency"],
            mode=s["sensing_mode"],
        )

    def quanta(self) -> ResourceQuanta:
        q = self.raw["resources"]["quanta"]
        return ResourceQuanta(
            time_s=q["time_s"],
            freq_hz=q["freq_hz"],
            compute_cycles_per_s=q["compute_cycles_per_s"],
        )

    def prices(self) -> PriceVector:
        """The prices as floats, whatever JSON number the config gave: an
        integer price would keep the engine's products in exact integers,
        which overflow on conversion later."""
        p = self.raw["prices"]
        return PriceVector(
            time=float(p["time"]), freq=float(p["freq"]), compute=float(p["compute"]),
            sample=float(p["sample"]), gain=float(p["gain"]),
        )

    def scaled_cells(self) -> tuple[int, int, int]:
        """Pool dimensions after the resource-scaling triple, floored, >= 1."""
        r = self.raw["resources"]
        cells = (r["time_cells"], r["freq_cells"], r["compute_cells"])
        return tuple(
            max(1, math.floor(c * s + 1e-9)) for c, s in zip(cells, r["scale"])
        )

    def task_for(self, eff_down: float, eff_up: float) -> ConsumptionTask:
        t = self.raw["task"]
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
    # a document the fast check accepts has no schema error; any other gets
    # the error jsonschema.validate would raise
    if not _plainly_valid(merged, SCHEMA):
        from jsonschema.exceptions import best_match

        err = best_match(_validator().iter_errors(merged))
        if err is not None:
            path = "/".join(str(p) for p in err.absolute_path)
            raise ConfigError(err.message, path) from err
    too_large = _unfloatable(merged, SCHEMA)
    if too_large is not None:
        raise ConfigError("integer too large for a float", too_large)
    # the market allocates between the floor and floor plus window
    m = merged["market"]
    if m["gain_floor"] + m["gain_window"] <= m["gain_floor"]:
        raise ConfigError("plus market/gain_window rounds back to itself", "market/gain_floor")
    # every SNR divides by the noise power over one frequency cell
    noise = merged["scenario"]["channel"]["noise_density_w_per_hz"]
    if noise * merged["resources"]["quanta"]["freq_hz"] == 0:
        raise ConfigError(
            "times resources/quanta/freq_hz, the noise power underflows to 0 W",
            "scenario/channel/noise_density_w_per_hz",
        )
    # scaled pools, and mobility folding positions back into the square,
    # need a finite round, longest move in it and 2 * area_m
    config, r, sc = ExperimentConfig(raw=merged), merged["resources"], merged["scenario"]
    for key, s in zip(("time_cells", "freq_cells", "compute_cells"), r["scale"]):
        try:  # an integer times a float converts the integer first
            scaled = r[key] * s
        except OverflowError:
            raise ConfigError("integer too large for a float", f"resources/{key}") from None
        if not math.isfinite(scaled):
            raise ConfigError("a pool dimension times its scale overflows", "resources/scale")
    reach = sc["max_speed_mps"] * (config.scaled_cells()[0] * r["quanta"]["time_s"])
    if not math.isfinite(2.0 * sc["area_m"] + reach):
        key = "area_m" if math.isfinite(reach) else "max_speed_mps"
        raise ConfigError("twice the area plus a round's longest move overflows", f"scenario/{key}")
    # the consumption bounds divide by the time price times the cycles per
    # sample, and by the compute price times a sample's share of a compute cell
    cycles, p, q = merged["task"]["cycles_per_sample"], merged["prices"], r["quanta"]
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
    return config


def config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
