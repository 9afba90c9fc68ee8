import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mfpsim
from mfpsim.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from mfpsim.runner import validate_summary_rows


def test_solve_one_time_boxed_case(capsys):
    code = main(
        [
            "solve-one", "--n", "4", "--a", "1", "--b", "1",
            "--time-cells", "1", "--freq-cells", "10",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["kind"] == "Optimal"
    assert out["cost"] == pytest.approx(4.0)
    assert out["schedule"]["gen"]["t_vs"] == pytest.approx(1.0)
    assert out["active_constraints"] == ["gen_time"]


def test_solve_one_infeasible_exit_code(capsys):
    code = main(
        [
            "solve-one", "--n", "100", "--a", "1", "--b", "1",
            "--time-cells", "2", "--freq-cells", "3",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_INFEASIBLE
    assert out["kind"] == "Infeasible"
    assert out["mtv"] == 8


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "-1", "--a", "1", "--b", "1"],
        ["--n", "1", "--a", "1", "--b", "1", "--price-time", "0"],
        ["--n", "1", "--a", "1", "--b", "1", "--time-quantum", "0"],
        ["--n", "1", "--a", "1", "--b", "1", "--d-down", "-5"],
        ["--n", "1", "--a", "nan", "--b", "1"],
        ["--n", "1", "--a", "-1", "--b", "1"],
    ],
    ids=["n-negative", "price-zero", "quantum-zero", "bits-negative", "rate-nan", "rate-negative"],
)
def test_solve_one_rejects_out_of_range_flags(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["solve-one", *flags])
    assert exc.value.code == EXIT_CONFIG
    assert "must be" in capsys.readouterr().err


def test_solve_one_overflowing_budget_time_price(capsys):
    # the chain's budget time price squares past the float range: the solve
    # prints its outcome instead of raising, and the schedule it finds costs
    # past the float range too, so there is none
    code = main(
        [
            "solve-one", "--n", "1", "--a", "1", "--b", "0", "--time-cells", "1.000001",
            "--freq-cells", "1", "--compute-cells", "1e308", "--d-down", "1",
            "--cycles-per-sample", "1", "--price-compute", "1e308",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_INFEASIBLE
    assert (out["kind"], out["cost"]) == ("Infeasible", None)


def test_solve_one_has_no_cycle_flag(capsys):
    # the window is --time-cells alone
    with pytest.raises(SystemExit) as err:
        main(["solve-one", "--n", "1", "--a", "1", "--b", "1", "--cycle-cells", "2"])
    assert err.value.code == EXIT_CONFIG
    assert "--cycle-cells" in capsys.readouterr().err


def test_solve_one_zero_workload(capsys):
    code = main(["solve-one", "--n", "0", "--a", "1", "--b", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["cost"] == 0.0


def test_run_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": 1, "scenario": {"n_clients": 3, "n_targets": 10}}))
    code = main(["run", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "summary.csv").exists()
    meta = json.loads((tmp_path / "out" / "run.json").read_text())
    assert meta["rounds"] == 1


@pytest.fixture
def windows_text_mode(monkeypatch):
    """`Path.write_text` as on Windows: "\r\n" newlines, a legacy code page."""
    write_text = Path.write_text

    def windows_write_text(self, data, encoding=None, errors=None, newline=None):
        return write_text(self, data, encoding="cp1252", errors=errors, newline="\r\n")

    monkeypatch.setattr(Path, "write_text", windows_write_text)


@pytest.mark.usefixtures("windows_text_mode")
def test_run_writes_the_bytes_its_outputs_hash(tmp_path, capsys):
    # every file `run --out` writes is the UTF-8 of its output text, in
    # any platform's text mode
    cfg = tmp_path / "cfg.json"
    raw = {"seed": 5, "rounds": 2, "scenario": {"n_clients": 3, "n_targets": 10}, "output": {"trajectories": True}}
    cfg.write_bytes(json.dumps(raw).encode())
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    texts = mfpsim.run(mfpsim.load_config(str(cfg))).output_texts()
    assert "trajectories.csv" in texts
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(texts)
    for name, text in texts.items():
        assert (tmp_path / "out" / name).read_bytes() == text.encode(), name


def test_nan_profit_identity_is_an_audit_finding(tmp_path, capsys):
    # a sample price of 1e308 would make the payments inf: the config is
    # rejected at its price, and a row whose totals are inf still leaves
    # both identities a residual of inf - inf = nan, which no
    # "residual > 1e-6" test would catch
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prices": {"sample": 1e308}}))
    code = main(["run", "--rounds", "2", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "config error: prices/sample: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    rows = [
        {"round": r, "app_payment": 5000.0, "payments_total": math.inf, "server_profit": -math.inf,
         "costs_total": 10.0, "client_profits_total": math.inf}
        for r in (1, 2)
    ]
    assert validate_summary_rows(rows) == [
        f"round{r}:{side}_profit_identity" for r in (1, 2) for side in ("server", "client")
    ]


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"prices": {"sample": 1e308}}, "prices/sample"),
        ({"prices": {"sample": 1e301}, "market": {"max_active_clients": 20}}, "prices/sample"),
        ({"prices": {"gain": 1e308}}, "prices/gain"),
        ({"prices": {"gain": 1e300}, "market": {"gain_factor": 1e3}}, "prices/gain"),
        ({"market": {"alpha": 1e308}}, "market/alpha"),
        ({"prices": {"gain": 1e301}, "market": {"alpha": 100.0}}, "market/alpha"),
        ({"market": {"beta": 1e308}}, "market/beta"),
        ({"prices": {"sample": 1e300}, "market": {"beta": 100.0}}, "market/beta"),
    ],
    ids=["sample", "sample-by-cap", "gain", "gain-by-factor", "alpha", "alpha-by-gain", "beta", "beta-by-sample"],
)
def test_prices_whose_settlement_overflows_exit_2(tmp_path, capsys, raw, key):
    # a round pays at most min(n_clients, max_active_clients) clients for
    # at most 10**7 samples each, each of gain at most gain_factor; the
    # welfare weighs the larger of the two totals by alpha and the
    # payments by beta
    cfg = _write(tmp_path, "price.json", json.dumps(raw))
    assert main(["run", "--config", cfg, "--rounds", "1"]) == EXIT_CONFIG
    assert f"config error: {key}: " in capsys.readouterr().err


def test_prices_just_inside_the_settlement_bound_run(tmp_path, capsys):
    # 20 clients, 10 of them paid: 1e300 * 10 * 10**7 = 1e308 is finite,
    # and so is 1e301 * 0.01 * 10 * 10**7 = 1e307
    cfg = _write(tmp_path, "price.json", json.dumps({"prices": {"sample": 1e300, "gain": 1e301}}))
    assert main(["validate-config", "--config", cfg]) == EXIT_OK
    # the paid clients are at most the fleet, even under a larger cap:
    # 5e299 * 20 * 10**7 = 1e308
    cfg = _write(tmp_path, "cap.json", json.dumps(
        {"prices": {"sample": 5e299}, "market": {"max_active_clients": 10**9}}
    ))
    assert main(["validate-config", "--config", cfg]) == EXIT_OK
    # so are welfare weights on those totals: 10 * 1e307 and 1e300 * 10**8
    cfg = _write(tmp_path, "weights.json", json.dumps(
        {"prices": {"gain": 1e301}, "market": {"alpha": 10.0, "beta": 1e300}}
    ))
    assert main(["validate-config", "--config", cfg]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


def test_run_config_error_exit(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "channel, key",
    [
        ({"tx_power_server_dbm": 4000}, "tx_power_server_dbm"),
        ({"tx_power_client_dbm": 4000}, "tx_power_client_dbm"),
        ({"tx_power_sensing_dbm": 4000}, "tx_power_sensing_dbm"),
        ({"reference_loss_db": -4000}, "reference_loss_db"),
    ],
    ids=["tx-server", "tx-client", "tx-sensing", "reference-loss"],
)
def test_run_rejects_channel_values_that_overflow(tmp_path, capsys, channel, key):
    # 10 ** (dB / 10) overflows a float for these
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": 1, "scenario": {"channel": channel}}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"scenario": {"max_speed_mps": 1e308}}, "scenario/max_speed_mps"),
        ({"resources": {"quanta": {"time_s": 1e308}}}, "scenario/max_speed_mps"),
        ({"scenario": {"area_m": 1e308}}, "scenario/area_m"),
        ({"resources": {"scale": [1e308, 1, 1]}}, "resources/scale"),
    ],
    ids=["speed", "round-duration", "area", "scale"],
)
def test_run_rejects_mobility_and_pool_sizes_that_overflow(tmp_path, capsys, raw, key):
    # a round's longest move, twice the area plus it, or a scaled pool
    # dimension is inf
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": 1, **raw}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_run_rejects_noise_power_that_underflows(tmp_path, capsys):
    # 5e-324 W/Hz over a 0.1 Hz cell is 0 W, and every SNR divides by it
    cfg = tmp_path / "cfg.json"
    raw = {
        "rounds": 1,
        "scenario": {"channel": {"noise_density_w_per_hz": 5e-324}},
        "resources": {"quanta": {"freq_hz": 0.1}},
    }
    cfg.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "scenario/channel/noise_density_w_per_hz" in capsys.readouterr().err


def test_run_with_underflowing_path_gain(tmp_path, capsys):
    # the linear gain underflows to 0: every link is unusable, and the run
    # completes with nobody sensing wirelessly or transferring
    cfg = tmp_path / "cfg.json"
    channel = {"pathloss_exponent": 150}
    cfg.write_text(json.dumps({"rounds": 1, "scenario": {"n_clients": 3, "channel": channel}}))
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rounds"] == 1


def test_validate_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": 2}))
    assert main(["validate-config", "--config", str(cfg)]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    assert body["valid"] is True and len(body["config_hash"]) == 64


def test_scale_flag_parses_fractions(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "run", "--rounds", "1", "--scale", "1/4:1/2:1",
            "--config", _tiny(tmp_path), "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    meta = json.loads((out / "run.json").read_text())
    assert meta["rounds"] == 1


def _tiny(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"scenario": {"n_clients": 3, "n_targets": 10}}))
    return str(cfg)


def test_bad_scale_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--scale", "1:2"])


@pytest.mark.usefixtures("windows_text_mode")
def test_sweep_writes_merged_csv(tmp_path):
    out = tmp_path / "sweep_out"
    code = main(
        [
            "sweep", "--config", _tiny(tmp_path), "--rounds", "1",
            "--axis", "scenario.n_clients", "--values", "2,3", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    text = (out / "sweep.csv").read_bytes().decode()
    assert "\r" not in text
    header = text.splitlines()[0]
    assert header.startswith("swept_value,round,gain")
    assert len(text.splitlines()) == 3


def test_sweep_bad_axis_is_config_error(tmp_path, capsys):
    code = main(
        [
            "sweep", "--config", _tiny(tmp_path),
            "--axis", "scenario.nope", "--values", "1",
        ]
    )
    assert code == EXIT_CONFIG


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_flag_fixes_a_bad_value_in_the_config_file(tmp_path, capsys):
    cfg = _write(tmp_path, "bogus.json", json.dumps({"policy": "BOGUS"}))
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    assert main(["validate-config", "--config", cfg, "--policy", "MLPG"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    assert body["valid"] is True


@pytest.mark.parametrize("flags", [[], ["--seed", "5"]])
def test_non_object_config_file_exits_2(tmp_path, capsys, flags):
    cfg = _write(tmp_path, "list.json", "[1,2]")
    assert main(["run", "--config", cfg, *flags]) == EXIT_CONFIG
    assert "list.json: top level must be a JSON object" in capsys.readouterr().err


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "inf.json", '{"market": {"gain_window": Infinity}}')
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    assert main(["run", "--config", cfg, "--rounds", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("market/gain_window") == 2


def test_sweep_non_finite_value_exits_2(tmp_path, capsys):
    code = main(
        [
            "sweep", "--config", _tiny(tmp_path), "--rounds", "1",
            "--axis", "market.gain_window", "--values", "Infinity",
        ]
    )
    assert code == EXIT_CONFIG
    assert "market/gain_window" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_solve_one_explain_trace(capsys):
    code = main(
        [
            "solve-one", "--n", "4", "--a", "1", "--b", "1",
            "--time-cells", "1", "--freq-cells", "10", "--explain",
        ]
    )
    trace = json.loads(capsys.readouterr().out)["trace"]
    assert code == EXIT_OK
    assert trace == {"solution": "active-set", "gen_active": ["gen_time"], "cons_active": []}


# `solve-one --explain` stdout pinned by its sha256, one case per solve
# path and per kind of binding constraint: (flags, exit code, trace, digest)
EXPLAINED = [
    ("--n 0 --a 1 --b 1 --time-cells 2 --freq-cells 3", EXIT_OK, {},
     "ddbfbb020d565fd2e12be9a29adc7d63db1c73ed2e9d81da3547d212b711c54f"),
    ("--n 9 --a 1 --b 1 --time-cells 2 --freq-cells 3", EXIT_INFEASIBLE, {},
     "5fa0117c27cc9f26b03660425a5583b89a5e482a4cc2d1224db7d7b8feff7180"),
    ("--n 3 --a 2 --b 0.5 --time-cells 10 --freq-cells 10 --compute-cells 10 --d-down 5 --d-up 5 "
     "--cycles-per-sample 2", EXIT_OK, {"solution": "unconstrained"},
     "e51449b6c4c7435a84a0fb68371b8b1d663a08ebce76685a73a8c97575c0a3b0"),
    ("--n 12 --a 0 --b 3 --time-cells 4 --freq-cells 1", EXIT_OK,
     {"solution": "active-set", "gen_active": ["gen_bandwidth"], "cons_active": []},
     "9e3d12943a001aa4edd193853f7404b62ea0ddcb148bc70b61751e51dd522e5d"),
    ("--n 5 --a 2 --b 0.5 --time-cells 10 --freq-cells 10 --compute-cells 2 --d-down 5 --d-up 5 "
     "--cycles-per-sample 2", EXIT_OK,
     {"solution": "active-set", "gen_active": [], "cons_active": ["compute"]},
     "20dc9522b89b309120fbc23a311fe0e99afb795bb9aa21efe99d11be3032ed7f"),
    ("--n 6 --a 10 --b 0 --time-cells 4 --freq-cells 100 --compute-cells 100 --d-down 3 --d-up 3 "
     "--cycles-per-sample 3 --price-time 0.01", EXIT_OK,
     {"solution": "active-set", "gen_active": [], "cons_active": ["cons_time"]},
     "f78a2cbf19763d651470fc2d7b088599701864c537752e0bbc558f39f756d899"),
]


@pytest.mark.parametrize(
    "flags, code, trace, digest", EXPLAINED,
    ids=["zero", "past_mtv", "closed_form", "sensing_box", "chain_box", "chain_time"],
)
def test_solve_one_explain_output_is_pinned(capsys, flags, code, trace, digest):
    assert main(["solve-one", *flags.split(), "--explain"]) == code
    out = capsys.readouterr().out
    assert json.loads(out)["trace"] == trace
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cycles_per_sample_that_underflows_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "tiny.json", json.dumps({"task": {"cycles_per_sample": 5e-324}}))
    assert main(["run", "--config", cfg, "--rounds", "1"]) == EXIT_CONFIG
    assert "task/cycles_per_sample" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"scenario": {"area_m": 10**400}}, "scenario/area_m"),
        ({"market": {"gain_window": 10**400}}, "market/gain_window"),
        ({"scenario": {"channel": {"sensitivity_wc_dbm": -(10**400)}}},
         "scenario/channel/sensitivity_wc_dbm"),
        ({"task": {"model_up_bits": 10**400}}, "task/model_up_bits"),
    ],
    ids=["area", "gain-window", "sensitivity", "upload-bits"],
)
def test_integer_beyond_float_range_exits_2(tmp_path, capsys, raw, key):
    # a JSON integer is a "number" of any size; float arithmetic overflows on it
    cfg = _write(tmp_path, "big.json", json.dumps(raw))
    assert main(["run", "--config", cfg, "--rounds", "1"]) == EXIT_CONFIG
    assert f"{key}: integer too large for a float" in capsys.readouterr().err


def test_wireless_efficiency_whose_bound_squares_overflow_runs(tmp_path, capsys):
    cfg = _write(tmp_path, "eff.json", json.dumps({"scenario": {"wireless_efficiency": 1e300}}))
    assert main(["run", "--config", cfg, "--rounds", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rounds"] == 1


@pytest.mark.parametrize("key", ["time_cells", "freq_cells", "compute_cells"])
def test_pool_dimension_beyond_float_range_exits_2(tmp_path, capsys, key):
    # an "integer" pool key of any size passes the schema; scaling it by a
    # float converts it first
    cfg = _write(tmp_path, "pool.json", json.dumps({"resources": {key: 10**400}}))
    assert main(["run", "--config", cfg, "--rounds", "1"]) == EXIT_CONFIG
    assert f"resources/{key}: integer too large for a float" in capsys.readouterr().err


def test_gain_floor_that_swallows_the_window_exits_2(tmp_path, capsys):
    # 1e308 + 8.0 == 1e308: the market would get an empty gain window
    cfg = _write(tmp_path, "floor.json", json.dumps({"market": {"gain_floor": 1e308}}))
    assert main(["run", "--config", cfg, "--rounds", "1"]) == EXIT_CONFIG
    assert "market/gain_floor" in capsys.readouterr().err


def test_integer_price_near_the_float_limit_runs_or_exits_2(tmp_path, capsys):
    # an integer price kept as an int would make exact integer products that
    # overflow on conversion; the engine prices in floats
    cfg = _write(tmp_path, "price.json", json.dumps({"prices": {"time": 10**308}}))
    assert main(["run", "--config", cfg, "--rounds", "1"]) in (EXIT_OK, EXIT_CONFIG)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw",
    [
        {"scenario": {"n_clients": 5.0}},
        {"scenario": {"n_targets": 100.0}},
        {"scenario": {"n_classes": 10.0}},
        {"seed": 3.0},
        {"rounds": 1.0},
    ],
    ids=["n-clients", "n-targets", "n-classes", "seed", "rounds"],
)
def test_integral_float_at_an_integer_key_runs(tmp_path, capsys, raw):
    cfg = _write(tmp_path, "int.json", json.dumps(raw))
    assert main(["validate-config", "--config", cfg]) == EXIT_OK
    assert main(["run", "--config", cfg, "--rounds", "1"]) == EXIT_OK


@pytest.mark.parametrize(
    "raw",
    [
        {"scenario": {"channel": {"pathloss_exponent": 10**308}}},
        {"resources": {"scale": [10**308, 1, 1]}},
        {"resources": {"quanta": {"time_s": 10**308}}},
        {"market": {"gain_floor": 10**308}},
    ],
    ids=["pathloss-exponent", "scale", "time-quantum", "gain-floor"],
)
def test_integer_near_the_float_limit_acts_as_its_float(tmp_path, capsys, raw):
    # a "number" leaf reaches the engine as a float: 10**308 acts as 1e308
    as_int = _write(tmp_path, "int.json", json.dumps(raw))
    as_float = _write(tmp_path, "float.json", json.dumps(raw).replace("1" + "0" * 308, "1e308"))
    codes = [main(["run", "--config", path, "--rounds", "1"]) for path in (as_int, as_float)]
    assert codes[0] == codes[1] in (EXIT_OK, EXIT_CONFIG)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw",
    [
        {"scenario": {"frame_rate_hz": 1e308}},
        {"policy": "COMP_OPT", "scenario": {"wireless_efficiency": 1.7976931348623157e308}},
        {"scenario": {"area_m": 1e-150}},
    ],
    ids=["frame-rate", "wireless-efficiency", "tiny-area"],
)
def test_solve_whose_cost_is_not_finite_is_infeasible(tmp_path, capsys, raw):
    # the closed form gives an infinite sensing width, or inf - inf
    raw = {**raw, "scenario": {"n_clients": 3, "n_targets": 10, **raw["scenario"]}}
    cfg = _write(tmp_path, "solve.json", json.dumps(raw))
    assert main(["run", "--config", cfg, "--rounds", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["audit_violations"] == []


@pytest.mark.parametrize(
    "scenario, key",
    [
        ({"visual_radius_m": 100.0}, "visual_radius_m"),
        ({"visual_radius_m": 150.0}, "visual_radius_m"),
        ({"wireless_radius_m": 1e308}, "wireless_radius_m"),
        ({"area_m": 1e-200}, "area_m"),
        ({"area_m": 1e200}, "area_m"),
    ],
    ids=["equal-radii", "visual-wider", "wireless-area", "area-underflow", "area-overflow"],
)
def test_sensing_geometry_the_engine_cannot_use_exits_2(tmp_path, capsys, scenario, key):
    cfg = _write(tmp_path, "geometry.json", json.dumps({"scenario": scenario}))
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    assert main(["run", "--config", cfg, "--rounds", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.count(f"scenario/{key}") == 2


@pytest.mark.parametrize(
    "prices", [{"freq": 1e308}, {"freq": 5e-324, "time": 1e308}], ids=["tau-overflows", "underflow"]
)
@pytest.mark.parametrize("policy", ["SISCC", "SENS_OPT", "MC_FC"])
def test_free_time_that_rounds_to_zero_is_infeasible(tmp_path, capsys, policy, prices):
    # sqrt(v*p / tau) is 0 when tau overflows to inf or the ratio underflows:
    # that sub-process would need an infinite width
    raw = {"policy": policy, "scenario": {"n_clients": 3, "n_targets": 10}, "prices": prices}
    cfg = _write(tmp_path, "prices.json", json.dumps(raw))
    assert main(["run", "--config", cfg, "--rounds", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["audit_violations"] == []


@pytest.mark.parametrize(
    "key, count",
    [("n_clients", 10**24), ("n_targets", 10**24), ("n_classes", 10**20)],
    ids=["n-clients", "n-targets", "n-classes"],
)
def test_count_beyond_the_int64_range_exits_2(tmp_path, capsys, key, count):
    # each count sizes a numpy axis; n_classes also tops an int64 class draw
    cfg = _write(tmp_path, "count.json", json.dumps({"scenario": {key: count}}))
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    assert main(["run", "--config", cfg, "--rounds", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.count(f"scenario/{key}: {count} is greater than the maximum") == 2


@pytest.mark.parametrize("key", ["n_clients", "n_targets", "n_classes"])
def test_count_whose_positions_numpy_cannot_size_exits_2(tmp_path, capsys, key):
    # (n, 2) float64 positions take 16 bytes a count; numpy sizes no array
    # past 2**63 - 1 bytes, so 10**18 targets ended in "array is too big"
    bound = (2**63 - 1) // 16
    cfg = _write(tmp_path, "bound.json", json.dumps({"scenario": {key: bound}}))
    assert main(["validate-config", "--config", cfg]) == EXIT_OK
    for count in (bound + 1, 10**18):
        cfg = _write(tmp_path, "count.json", json.dumps({"scenario": {key: count}}))
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: scenario/{key}: {count} is greater than the maximum of {bound}\n"


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 7.28 TiB"), "out of memory: Unable to allocate 7.28 TiB"),
        (MemoryError(), "out of memory: MemoryError"),
    ],
    ids=["numpy", "bare"],
)
def test_run_out_of_memory_exits_2_with_one_line(monkeypatch, capsys, error, line):
    # a count within the schema can still size arrays past the memory at hand
    def run(config):
        raise error

    monkeypatch.setattr("mfpsim.cli.run", run)
    assert main(["run", "--rounds", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {line}\n"


def _run_cli_child(tmp_path, raw, timeout, limit_bytes=None):
    """`mfpsim run --rounds 1` on `raw` in a child Python, optionally under
    an address-space limit the child sets on itself."""
    cfg = _write(tmp_path, "child.json", json.dumps(raw))
    code = "import resource, sys\n"
    if limit_bytes:
        code += f"resource.setrlimit(resource.RLIMIT_AS, ({limit_bytes}, {limit_bytes}))\n"
    code += f"from mfpsim.cli import main\nsys.exit(main(['run', '--rounds', '1', '--config', {cfg!r}]))\n"
    src = str(Path(mfpsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_huge_window_runs(tmp_path):
    # realization stops where every later time is dominated, and placement
    # keeps no per-column list, so a 10**20-cell window runs
    raw = {"scenario": {"n_clients": 3, "n_targets": 10}, "resources": {"time_cells": 10**20}}
    done = _run_cli_child(tmp_path, raw, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr


@pytest.mark.parametrize(
    "raw",
    [
        # a download leg of about 5 * 10**17 cells at one cell of width: one
        # candidate, where the per-cell loop stepped through every time
        {"scenario": {"n_clients": 3, "n_targets": 10}, "resources": {"time_cells": 10**20},
         "task": {"model_down_bits": 1e25}},
        # wireless sensing alone at a tiny rate: 400 widths over about
        # 4 * 10**8 cells of time before the width falls to one cell
        {"scenario": {"n_clients": 3, "n_targets": 10, "sensing_mode": "wsg",
                      "wireless_efficiency": 1e-8}, "resources": {"time_cells": 10**12}},
    ],
    ids=["huge-leg", "wsg-tiny-rate"],
)
def test_realization_searches_widths_not_the_window(tmp_path, raw):
    done = _run_cli_child(tmp_path, raw, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr


def test_huge_fleet_fails_fast_naming_the_array(tmp_path):
    # the scenario's arrays are sized before the client ids are built, so
    # numpy refuses the whole fleet at once
    raw = {"scenario": {"n_clients": 10**11, "n_targets": 0}}
    done = _run_cli_child(tmp_path, raw, timeout=60, limit_bytes=2 * 10**9)
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert "with shape (100000000000, 2)" in done.stderr
