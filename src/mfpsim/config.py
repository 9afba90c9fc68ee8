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

import jsonschema

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
    """SCHEMA's validator, with the schema itself checked once per process.

    A "number" must be finite: Python's `json` reads Infinity and NaN, and
    NaN passes every bound check.
    """
    cls = jsonschema.validators.validator_for(SCHEMA)
    cls.check_schema(SCHEMA)
    finite = cls.TYPE_CHECKER.redefine(
        "number",
        lambda checker, x: cls.TYPE_CHECKER.is_type(x, "number")
        and (not isinstance(x, float) or math.isfinite(x)),
    )
    return jsonschema.validators.extend(cls, type_checker=finite)(SCHEMA)


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


@dataclass(frozen=True)
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
        p = self.raw["prices"]
        return PriceVector(
            time=p["time"], freq=p["freq"], compute=p["compute"],
            sample=p["sample"], gain=p["gain"],
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
    # the same error jsonschema.validate would raise, without re-checking the
    # constant schema on every call
    err = jsonschema.exceptions.best_match(_validator().iter_errors(merged))
    if err is not None:
        path = "/".join(str(p) for p in err.absolute_path)
        raise ConfigError(err.message, path) from err
    return ExperimentConfig(raw=merged)


def config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
