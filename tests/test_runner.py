import json
import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mfpsim.baselines import Policy, schedule_with_policy
from mfpsim.config import load_config
from mfpsim.costs import ConsumptionTask, PriceVector, ScheduleDecision, TransferSchedule
from mfpsim.resource_pool import ResourceQuanta
from mfpsim.runner import (
    SUMMARY_COLUMNS,
    _policy_solve,
    _RunContext,
    load_summary_csv,
    run,
    sweep,
    validate_summary_rows,
)
from mfpsim.scenario import StatusAttributes
from mfpsim.solver import Budgets, OutcomeKind, SolveInput, mtv, mutv

import mfpsim.runner as runner
from oracles import output_hashes
from test_golden import CONFIGS

SMALL = {"rounds": 3, "scenario": {"n_clients": 5, "n_targets": 30}, "seed": 7}


@pytest.fixture(scope="module")
def small_record():
    return run(load_config(SMALL))


def test_zero_rounds_header_only():
    rec = run(load_config({"rounds": 0}))
    assert rec.summary_rows == []
    assert rec.summary_csv().splitlines() == [",".join(SUMMARY_COLUMNS)]
    assert rec.cr_count == 0


def test_determinism_identical_hashes():
    a = run(load_config(SMALL))
    b = run(load_config(SMALL))
    assert output_hashes(a) == output_hashes(b)


def test_different_seed_changes_outputs():
    a = run(load_config(SMALL))
    b = run(load_config({**SMALL, "seed": 8}))
    assert output_hashes(a)["summary.csv"] != output_hashes(b)["summary.csv"]


def test_window_counts_by_mode(small_record):
    assert small_record.cr_count == 4  # 3 rounds pipelined into 4 windows
    serial = run(load_config({**SMALL, "mode": "serial"}))
    assert serial.cr_count == 6


def test_no_audit_violations(small_record):
    assert small_record.audit_violations == []


def test_summary_identities_roundtrip(small_record):
    text = small_record.summary_csv()
    rows = load_summary_csv(text)
    assert validate_summary_rows(rows) == []
    assert [r["round"] for r in rows] == [1, 2, 3]


def test_client_rows_cover_population(small_record):
    per_round = [r for r in small_record.client_rows if r["round"] == 1]
    assert len(per_round) == 5
    assert {r["client"] for r in per_round} == {f"c{i:03d}" for i in range(5)}


def test_timeline_rows_schema(small_record):
    assert small_record.timeline_rows, "expected at least one placement"
    sample = small_record.timeline_rows[0]
    assert list(sample) == [
        "round", "client", "process", "start_cell", "end_cell", "b_cells", "f_cells",
    ]


def test_gain_lands_in_window_without_shortfall(small_record):
    market = load_config(SMALL).market
    for row in small_record.summary_rows:
        if not row["shortfall"]:
            assert market["gain_floor"] - 1e-9 <= row["gain"]
            assert row["gain"] < market["gain_floor"] + market["gain_window"]


def test_scaling_down_resources_never_raises_gain():
    base = run(load_config(SMALL))
    squeezed = run(load_config({**SMALL, "resources": {"scale": [0.25, 0.25, 0.25]}}))
    for full, tight in zip(base.summary_rows, squeezed.summary_rows):
        assert tight["gain"] <= full["gain"] + 1e-9


def test_trajectories_emitted_when_enabled():
    rec = run(load_config({**SMALL, "rounds": 1, "output": {"trajectories": True}}))
    kinds = {r["kind"] for r in rec.trajectory_rows}
    assert kinds == {"client", "target"}
    assert "trajectories.csv" in rec.output_texts()


def test_write_outputs(tmp_path, small_record):
    paths = small_record.write(tmp_path)
    names = {p.name for p in paths}
    assert {"summary.csv", "clients.jsonl", "timeline.csv", "run.json"} <= names
    meta = json.loads((tmp_path / "run.json").read_text())
    assert meta["config_hash"] == small_record.config_hash
    assert meta["cr_count"] == 4
    # jsonl parses line by line
    for line in (tmp_path / "clients.jsonl").read_text().splitlines():
        json.loads(line)


def test_cumulative_target_mode_stops_after_reach():
    cfg = load_config(
        {
            **SMALL,
            "rounds": 4,
            "market": {"gain_target_mode": "cumulative", "gain_floor": 3.0, "gain_window": 4.0},
        }
    )
    rec = run(cfg)
    total = sum(r["gain"] for r in rec.summary_rows)
    assert total < 3.0 + 4.0
    # once the target window is consumed, later rounds stay idle
    reached = False
    for row in rec.summary_rows:
        if reached:
            assert row["gain"] == 0.0
        if row["gain"] > 0 and sum(
            x["gain"] for x in rec.summary_rows if x["round"] <= row["round"]
        ) >= 3.0:
            reached = True


def test_sweep_shares_seed_and_merges():
    cfg = load_config({**SMALL, "rounds": 1})
    records, merged = sweep(cfg, "scenario.n_clients", [2, 4])
    assert len(records) == 2 and len(merged) == 2
    assert merged[0]["swept_value"] == 2 and merged[1]["swept_value"] == 4
    assert all(rec.seed == 7 for rec in records)


def test_serial_mode_budget_is_full_window():
    serial = run(load_config({**SMALL, "mode": "serial"}))
    assert all(r["t_delta_cells"] == 10 for r in serial.summary_rows)


# the cumulative target is met in round 1, so the last round allocates
# nothing and the trailing window has no chain to place
MET_IN_ROUND_1 = {
    **SMALL, "rounds": 2,
    "market": {"gain_target_mode": "cumulative", "gain_floor": 3.0, "gain_window": 4.0},
}


@pytest.mark.parametrize(
    "raw",
    [{"seed": 3, "mode": "zeros"}, {"seed": 3, "mode": "serial"}, MET_IN_ROUND_1],
    ids=["zeros", "serial", "trailing_window_empty"],
)
def test_placement_builds_pools_only_for_the_clients_it_places(monkeypatch, raw):
    # serial placement never puts last round's chains in this round's window,
    # so it builds no pool for a client that only ran a chain last round
    seen = []
    plan_round = runner.plan_round

    def checked(ir, t_cells, pools, prev_consumption, generation, **kwargs):
        seen.append((set(pools), set(prev_consumption) | set(generation)))
        return plan_round(ir, t_cells, pools, prev_consumption, generation, **kwargs)

    monkeypatch.setattr(runner, "plan_round", checked)
    rec = run(load_config(raw))
    assert seen and all(pools == placed for pools, placed in seen)
    if raw is MET_IN_ROUND_1:
        assert rec.summary_rows[-1]["active_count"] == 0
        assert seen[-1] == (set(), set())


@st.composite
def solve_cases(
    draw,
    b=st.sampled_from([0.0, 5e-324]) | st.floats(1e-3, 0.5) | st.floats(0.0, 1e-300),
):
    """One client's solve in the ranges the packaged scenario produces, plus
    wireless coefficients so small (down to subnormal) that their products
    with prices or cell counts underflow to 0."""
    bits = st.sampled_from([0.0, 1e7, 1e8, 4e8])
    at = StatusAttributes(a=draw(st.floats(0.0, 60.0)), b=draw(b), label_dist=None)
    task = ConsumptionTask(
        d_down_bits=draw(bits),
        d_up_bits=draw(bits),
        cycles_per_sample=draw(st.floats(50.0, 1000.0)),
        eff_down=draw(st.floats(0.5, 40.0)),
        eff_up=draw(st.floats(0.5, 40.0)),
    )
    freq = float(draw(st.integers(20, 400)))
    budgets = Budgets(
        10.0,
        freq,
        float(draw(st.integers(2, 10))),
        cycle_cells=float(draw(st.integers(3, 10))),
        gen_freq_cells=draw(st.none() | st.floats(0.0, freq)),
    )
    prices = PriceVector(
        time=draw(st.floats(0.2, 5.0)),
        freq=draw(st.floats(0.01, 0.5)),
        compute=draw(st.floats(0.1, 2.0)),
        sample=1.0,
        gain=1000.0,
    )
    quanta = ResourceQuanta(1.0, 1e6, 1e5)
    n_max = mtv(at, task, budgets, quanta)
    assume(n_max >= 1)
    n = draw(st.integers(1, int(min(n_max, 10**6))))
    return n, at, task, prices, budgets, quanta


# the cap only exists beside a wireless sensing block, so b > 0
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.sampled_from(list(Policy)), solve_cases(b=st.floats(1e-2, 0.5)))
def test_capped_resolve_skip_matches_forced_resolve(policy, case):
    n, at, task, prices, budgets, quanta = case
    plain = schedule_with_policy(policy, SolveInput(n, at, task, prices, budgets, quanta))
    assume(plain.kind == OutcomeKind.OPTIMAL)
    sensing_width = math.ceil(plain.decision.gen.b_ws - 1e-9)
    cap = max(1.0, budgets.freq_cells - sensing_width)
    assume(sensing_width > 0 and cap < budgets.cons_bandwidth)
    assume(max(plain.decision.comm_down.b, plain.decision.comm_up.b) <= cap)

    ctx = _RunContext(None, policy, prices, quanta, None, pipelined=True, client_ids=())
    out, used = _policy_solve(ctx, n, at, task, budgets)
    capped = replace(budgets, cons_freq_cells=cap)
    forced = schedule_with_policy(policy, SolveInput(n, at, task, prices, capped, quanta))
    assert used == capped
    assert forced.kind == OutcomeKind.OPTIMAL
    assert out.cost == forced.cost
    assert out.decision == forced.decision


@settings(max_examples=100, deadline=None)
@given(solve_cases())
def test_precomputed_bounds_give_the_same_outcome(case):
    n, at, task, prices, budgets, quanta = case
    inp = SolveInput(n, at, task, prices, budgets, quanta)
    bounds = (mtv(at, task, budgets, quanta), mutv(at, task, prices, budgets, quanta))
    for policy in Policy:
        assert schedule_with_policy(policy, inp, bounds=bounds) == schedule_with_policy(policy, inp)


@pytest.mark.parametrize("policy", ["SISCC", "MLPG"])
def test_huge_gain_window_runs(policy):
    # (room - 1e-9) // gain_rate overflows to inf: the load caps at capacity
    rec = run(load_config({
        "policy": policy,
        "market": {"gain_window": 1e308},
        "scenario": {"n_clients": 4, "n_targets": 20},
        "rounds": 1,
    }))
    assert len(rec.summary_rows) == 1
    assert rec.summary_rows[0]["active_count"] >= 1
    assert rec.audit_violations == []


def test_settlement_solves_no_curve_point(monkeypatch):
    # settlement pays the quantized schedules' costs; MLPG's saturated
    # allocation reads no curve either, so no curve point is ever solved
    calls = []
    curve_cls = runner.CostCurve

    def counting_curve(cost_fn, mtv):
        def counted(n):
            calls.append(n)
            return cost_fn(n)

        return curve_cls(counted, mtv)

    monkeypatch.setattr(runner, "CostCurve", counting_curve)
    run(load_config(CONFIGS["mlpg"]))
    assert calls == []


def test_placement_drops_sensing_beside_a_wider_chain(monkeypatch):
    # take round 1's placement inputs, then put a chain beside one client's
    # sensing block that is wider than the quote assumed (it assumed none):
    # the block no longer fits the rows the chain leaves free, so placement
    # takes the client out of the round
    place = runner._place_round
    calls = []
    monkeypatch.setattr(runner, "_place_round", lambda *args: calls.append(args))
    run(load_config({**SMALL, "rounds": 1, "policy": "MC_T"}))
    ctx, record, r, clients, prev_cons, budgets = calls[0]
    assert prev_cons == {}
    cid = min(cid for cid, c in clients.items() if c.n > 0)
    c = clients[cid]
    free = int(c.quantized.gen.b_ws) - 1
    assert free >= 0
    chain = ScheduleDecision(comm_down=TransferSchedule(t=1, b=ctx.cells[1] - free))

    place(ctx, record, r, clients, {cid: chain}, budgets)

    assert c.note == "sensing does not fit the shared window"
    assert c.n == 0 and c.quantized is None
    sensed = {row["client"] for row in record.timeline_rows if row["process"] == "sense"}
    assert cid not in sensed


@st.composite
def tiny_runs(draw):
    """One to two rounds of up to four clients, over every policy, mode,
    sensing mode, resource scaling and gain target, with models up to 5e9
    bits on as few as 20 frequency cells, so transfer chains can be wide next
    to sensing."""
    scale = st.sampled_from([0.5, 0.75, 1.0])
    bits = st.sampled_from([1e8, 1e9, 5e9])
    return {
        "seed": draw(st.integers(0, 2**16)),
        "rounds": draw(st.integers(1, 2)),
        "policy": draw(st.sampled_from([p.value for p in Policy])),
        "mode": draw(st.sampled_from(["zeros", "serial"])),
        "scenario": {
            "n_clients": draw(st.integers(1, 4)),
            "n_targets": draw(st.integers(0, 40)),
            "sensing_mode": draw(st.sampled_from(["msg", "vsg", "wsg"])),
        },
        "resources": {
            "freq_cells": draw(st.sampled_from([20, 400])),
            "scale": [draw(scale), draw(scale), draw(scale)],
        },
        "task": {"model_down_bits": draw(bits), "model_up_bits": draw(bits)},
        "market": {
            "gain_target_mode": draw(st.sampled_from(["per_round", "cumulative"])),
            "gain_floor": draw(st.sampled_from([0.0, 2.0, 12.0])),
        },
    }


# sensing on a narrow spectrum beside last round's chain; without the
# quote's narrowing, round 2's block does not fit
WIDE_CHAIN = {
    "seed": 0, "rounds": 2, "policy": "SISCC", "mode": "zeros",
    "scenario": {"n_clients": 1, "n_targets": 12, "sensing_mode": "msg"},
    "resources": {"freq_cells": 20, "scale": [0.5, 0.5, 0.5]},
    "market": {"gain_target_mode": "per_round", "gain_floor": 0.0},
}


@settings(max_examples=60, deadline=None)
@given(tiny_runs())
@example(WIDE_CHAIN)
def test_whole_run_properties(raw):
    config = load_config(raw)
    with mock.patch.object(runner, "plan_round", wraps=runner.plan_round) as plan:
        rec = run(config)
    assert rec.audit_violations == []
    assert run(config).output_texts() == rec.output_texts()
    rounds = config.rounds
    windows = rounds + 1 if config.mode == "zeros" else 2 * rounds
    assert plan.call_count == rec.cr_count == windows
    if config.policy != Policy.MLPG:
        assert all(row["profit"] >= -1e-9 for row in rec.client_rows)
    # quotes size sensing beside last round's chain, so every block fits
    assert all(row["note"] != "sensing does not fit the shared window" for row in rec.client_rows)
