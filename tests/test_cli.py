import json

import pytest

from mfpsim.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main


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


def test_sweep_writes_merged_csv(tmp_path):
    out = tmp_path / "sweep_out"
    code = main(
        [
            "sweep", "--config", _tiny(tmp_path), "--rounds", "1",
            "--axis", "scenario.n_clients", "--values", "2,3", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    text = (out / "sweep.csv").read_text()
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
