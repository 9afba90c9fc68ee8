import itertools
import json
import logging
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from mfpsim.baselines import POLICIES, WIDTH_TIME_PRICE, Policy, schedule_with_policy
from mfpsim.config import ExperimentConfig, _deep_merge, load_config
from mfpsim.costs import ConsumptionTask, PriceVector, ScheduleDecision, TransferSchedule
from mfpsim.market import _DIP_SLACK
from mfpsim.resource_pool import ResourceQuanta
from mfpsim.runner import (
    CLIENT_COLUMNS,
    SUMMARY_COLUMNS,
    _clients_jsonl,
    _policy_solve,
    _curve_fn,
    _RunContext,
    load_summary_csv,
    run,
    sweep,
    validate_summary_rows,
)
from mfpsim.scenario import StatusAttributes
from mfpsim.solver import Budgets, OutcomeKind, SolveInput, fleet_bounds, mtv, mutv

import mfpsim.runner as runner
from oracles import output_hashes, policy_solve_reference, quotes_per_client, reference_run
from test_golden import CONFIGS

SMALL = {"rounds": 3, "scenario": {"n_clients": 5, "n_targets": 30}, "seed": 7}


@pytest.fixture(scope="module")
def small_record():
    return run(load_config(SMALL))


def test_zero_rounds_header_only():
    rec = run(load_config({"rounds": 0}))
    assert rec.summary_rows == []
    assert rec.output_texts()["summary.csv"].splitlines() == [",".join(SUMMARY_COLUMNS)]
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


def test_fast_entities_stay_in_the_square():
    # at 5000 m/s a 10 s round crosses the 500 m square up to 100 times
    raw = {**SMALL, "output": {"trajectories": True}}
    raw["scenario"] = {**SMALL["scenario"], "max_speed_mps": 5000}
    rec = run(load_config(raw))
    xy = [row[k] for row in rec.trajectory_rows for k in ("x", "y")]
    assert len(xy) == 3 * 35 * 2
    assert 0 <= min(xy) and max(xy) <= 500


def test_no_audit_violations(small_record):
    assert small_record.audit_violations == []


def test_summary_identities_roundtrip(small_record):
    text = small_record.output_texts()["summary.csv"]
    rows = load_summary_csv(text)
    assert validate_summary_rows(rows) == []
    assert [r["round"] for r in rows] == [1, 2, 3]

    # every column reads back to the value, and the type, the run wrote
    def typed(rows):
        return [[(k, type(v), v) for k, v in row.items()] for row in rows]

    assert typed(rows) == typed(small_record.summary_rows)


# a value of each kind json writes in its own way: quotes, backslashes,
# control characters, non-BMP text and lone surrogates; NaN, the infinities,
# -0.0 and subnormals; ints past 64 bits
_STR = st.text(st.characters(), max_size=12) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\u2028", "\U0001f600", "\ud800"]
)
_KINDS = {str: _STR, float: st.floats(), int: st.integers() | st.integers(-(2**70), 2**70)}
_CLIENT_KINDS = dict(zip(CLIENT_COLUMNS, [str, float, float, int, int, int, str, float, float, float, int]))


@st.composite
def client_rows(draw):
    """A clients.jsonl row, its keys in any order."""
    keys = draw(st.permutations(CLIENT_COLUMNS))
    return {k: draw(_KINDS[_CLIENT_KINDS[k]]) for k in keys}


_GOOD_ROW = dict.fromkeys(CLIENT_COLUMNS, 0)
_GOOD_ROW.update(client="c000", note="", cost=0.0, gain_rate=0.0, payment=0.0, profit=0.0, qod=0.0)
_NO_QOD = {k: v for k, v in _GOOD_ROW.items() if k != "qod"}


@settings(max_examples=300, deadline=None)
@given(st.lists(client_rows(), max_size=4))
# the payments and profits of a settlement that overflows, which
# load_config rejects: json writes Infinity, NaN and -Infinity
@example([{**_GOOD_ROW, "payment": math.inf, "profit": math.nan, "cost": -math.inf}])
def test_client_line_is_the_sorted_json_dump(rows):
    assert _clients_jsonl(rows) == "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


@pytest.mark.parametrize(
    "row",
    [
        {**_GOOD_ROW, "n": True},  # json writes true
        {**_GOOD_ROW, "round": 1.0},  # json writes 1.0
        {**_GOOD_ROW, "cost": 1},  # json writes 1
        {**_GOOD_ROW, "note": None},  # json writes null
        {**_GOOD_ROW, "client": 7},
        {**_GOOD_ROW, "mtv": np.int64(3)},  # json cannot write it
        {**_GOOD_ROW, "extra": 0.0},
        _NO_QOD,
        {**_NO_QOD, "quality": 0.0},
    ],
    ids=[
        "bool", "float-at-int", "int-at-float", "none-at-str", "int-at-str", "int64",
        "extra-key", "missing-key", "renamed-key",
    ],
)
def test_client_line_refuses_rows_it_would_write_otherwise(row):
    good = [_GOOD_ROW] * 3
    assert _clients_jsonl(good) == "".join(json.dumps(r, sort_keys=True) + "\n" for r in good)
    # alone, and in the middle of a record whose other rows are good, also
    # past the first batch of rows the writer encodes
    many = [_GOOD_ROW] * 300
    for rows in ([row], [_GOOD_ROW, row, _GOOD_ROW], many + [row] + many):
        with pytest.raises((TypeError, ValueError, KeyError)):
            _clients_jsonl(rows)


@pytest.mark.parametrize(
    "raw",
    [{"policy": p.value} for p in Policy] + [{"prices": {"sample": 1e308}}],
    ids=[p.value for p in Policy] + ["sample-price-1e308"],
)
def test_clients_jsonl_equals_the_per_row_json_dump(raw):
    # ExperimentConfig checks the schema alone, so it takes the sample
    # price whose payments load_config refuses as overflowing
    rec = run(ExperimentConfig(_deep_merge(load_config({**SMALL, "rounds": 2}).raw, raw)))
    assert all(tuple(sorted(row)) == CLIENT_COLUMNS for row in rec.client_rows)
    text = rec.output_texts()["clients.jsonl"]
    assert text == "".join(json.dumps(row, sort_keys=True) + "\n" for row in rec.client_rows)
    if "prices" in raw:  # a payment of inf is written as json writes it
        assert '"payment": Infinity' in text


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

    def checked(ir, pools, prev_consumption, generation, t_delta):
        seen.append((set(pools), set(prev_consumption) | set(generation)))
        return plan_round(ir, pools, prev_consumption, generation, t_delta)

    monkeypatch.setattr(runner, "plan_round", checked)
    rec = run(load_config(raw))
    assert seen and all(pools == placed for pools, placed in seen)
    if raw is MET_IN_ROUND_1:
        assert rec.summary_rows[-1]["active_count"] == 0
        assert seen[-1] == (set(), set())


@pytest.mark.parametrize("mode", ["zeros", "serial"])
def test_only_a_pipelined_round_hands_on_its_chains(monkeypatch, mode):
    # a serial round runs its chains in a window of its own, so the next
    # round carries none; a pipelined round carries exactly the chains that
    # settled, those of the clients still holding a workload
    carried, settled = [], []
    quote, settle = runner._scenario_and_quotes, runner._settle

    def quote_spy(ctx, state, buffers, prev_cons):
        carried.append(prev_cons)
        return quote(ctx, state, buffers, prev_cons)

    def settle_spy(ctx, record, r, clients, *args):
        out = settle(ctx, record, r, clients, *args)
        settled.append({cid: c.quantized for cid, c in clients.items() if c.n > 0})
        return out

    monkeypatch.setattr(runner, "_scenario_and_quotes", quote_spy)
    monkeypatch.setattr(runner, "_settle", settle_spy)
    run(load_config({**SMALL, "mode": mode}))
    assert len(carried) == len(settled) == SMALL["rounds"] and all(settled)
    if mode == "serial":
        assert carried == [{}] * SMALL["rounds"]
        return
    assert carried[0] == {}
    for now, before in zip(carried[1:], settled):
        assert list(now) == list(before) and all(now[cid] is before[cid] for cid in now)


@pytest.mark.parametrize("scale", [[1.0, 1.0, 1.0], [1.0, 0.05, 1.0]], ids=["defaults", "narrow_spectrum"])
def test_no_placement_drops_a_client(monkeypatch, scale):
    # the quotes size sensing to the rows last round's chain leaves free, so
    # the pools' conflict check only guards: no window drops a client
    plans = []
    plan_round = runner.plan_round

    def recorded(*args):
        plans.append(plan_round(*args))
        return plans[-1]

    monkeypatch.setattr(runner, "plan_round", recorded)
    for policy in Policy:
        for mode in ("zeros", "serial"):
            raw = {
                "seed": 5, "rounds": 2, "policy": policy.value, "mode": mode,
                "scenario": {"n_clients": 6}, "resources": {"scale": scale},
            }
            run(load_config(raw))
    assert len(plans) == len(Policy) * (3 + 4)
    assert [plan.dropped for plan in plans if plan.dropped] == []
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
    compute = float(draw(st.integers(2, 10)))
    budgets = Budgets(
        float(draw(st.integers(3, 10))),  # the cycle, within a 10-cell pool
        freq,
        compute,
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
    out, used, _ = _policy_solve(ctx, n, at, task, budgets)
    capped = replace(budgets, cons_freq_cells=cap)
    forced = schedule_with_policy(policy, SolveInput(n, at, task, prices, capped, quanta))
    assert used == capped
    assert forced.kind == OutcomeKind.OPTIMAL
    assert out.cost == forced.cost
    assert out.decision == forced.decision


@st.composite
def capped_clients(draw):
    """A pipelined client priced under the cost objective: the packaged
    scenario's ranges, with heavy training so that the whole curve is a few
    hundred workloads long."""
    bits = st.sampled_from([1e7, 1e8, 4e8])
    return dict(
        a=draw(st.floats(0.0, 60.0)), b=draw(st.floats(1e-2, 0.5)),
        down=draw(bits), up=draw(bits), cycles=draw(st.floats(2000.0, 20000.0)),
        eff_down=draw(st.floats(0.5, 40.0)), eff_up=draw(st.floats(0.5, 40.0)),
        freq=draw(st.integers(20, 400)), compute=draw(st.integers(2, 10)),
        cycle=draw(st.integers(3, 10)), time_price=draw(st.floats(0.2, 5.0)),
        freq_price=draw(st.floats(0.01, 0.5)), compute_price=draw(st.floats(0.1, 2.0)),
    )


# one policy per scheduling objective
OBJECTIVE_POLICIES = [Policy.SISCC, Policy.MC_T, Policy.SENS_OPT, Policy.COMM_OPT, Policy.COMP_OPT, Policy.MC_FC]


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.sampled_from(OBJECTIVE_POLICIES), capped_clients())
@example(Policy.SISCC, dict(  # falls back at 385 of 396 and dips there by 0.11
    a=8.062, b=0.4252, down=1e7, up=1e8, cycles=4123.0, eff_down=30.558, eff_up=19.154,
    freq=214, compute=5, cycle=4, time_price=2.542, freq_price=0.448, compute_price=0.841,
))
def test_runner_curve_keeps_the_cost_curve_contract(policy, p):
    # every objective but comm labels each finite point, and keeps the
    # contract within each segment
    at = StatusAttributes(a=p["a"], b=p["b"], label_dist=None)
    task = ConsumptionTask(p["down"], p["up"], p["cycles"], p["eff_down"], p["eff_up"])
    budgets = Budgets(float(p["cycle"]), float(p["freq"]), float(p["compute"]))
    prices = PriceVector(time=p["time_price"], freq=p["freq_price"], compute=p["compute_price"], sample=1.0, gain=1000.0)
    quanta = ResourceQuanta(1.0, 1e6, 1e5)
    cap = mtv(at, task, budgets, quanta)
    assume(cap >= 1)
    bounds = (cap, mutv(at, task, prices, budgets, quanta))
    ctx = _RunContext(None, policy, prices, quanta, None, pipelined=True, client_ids=())
    _, used, fell_back = _policy_solve(ctx, int(cap), at, task, budgets, bounds)
    assume(fell_back or used is not budgets)  # the sensing cap binds at capacity
    fn = _curve_fn(ctx, at, task, budgets, bounds)
    points = [fn(n) for n in range(int(cap) + 1)]
    event("falls back" if any(seg and seg[1] for _, seg in points) else "capped throughout")
    closed, previous = set(), None
    peak = {}  # largest cost so far in each segment
    for c, seg in points:
        if seg != previous:  # segments are intervals
            assert seg is None or seg not in closed
            closed.add(previous)
            previous = seg
        if seg is None:
            assert not math.isfinite(c) or POLICIES[policy].schedule == "comm"
            continue
        assert peak.get(seg, -math.inf) <= c + _DIP_SLACK * (1 + abs(c))
        peak[seg] = max(peak.get(seg, -math.inf), c)


def test_width_curve_is_labelled_only_where_time_costs_its_solve_price():
    # the width objective's true-price cost keeps the contract only where
    # time costs at least the time price its chain is solved at
    at = StatusAttributes(a=8.062, b=0.4252, label_dist=None)
    task = ConsumptionTask(1e7, 1e8, 4123.0, 30.558, 19.154)
    budgets = Budgets(4.0, 214.0, 5.0)
    quanta = ResourceQuanta(1.0, 1e6, 1e5)
    for time_price, labelled in ((WIDTH_TIME_PRICE, True), (WIDTH_TIME_PRICE / 2, False)):
        prices = PriceVector(time=time_price, freq=0.448, compute=0.841, sample=1.0, gain=1000.0)
        bounds = (mtv(at, task, budgets, quanta), mutv(at, task, prices, budgets, quanta))
        ctx = _RunContext(None, Policy.MC_FC, prices, quanta, None, pipelined=True, client_ids=())
        cost, seg = _curve_fn(ctx, at, task, budgets, bounds)(1)
        assert math.isfinite(cost) and (seg is not None) == labelled


def test_capped_chain_whose_cost_leaves_the_float_range_falls_back():
    # 8 sensing rows cap the transfers at 2 of 10: the download then takes
    # 1.5 of the 2 cells, and training at the compute price 1e308 in the
    # 0.5 left needs 3 cells of width, which costs inf; uncapped it fits
    at = StatusAttributes(a=0.0, b=1.0, label_dist=None)
    task = ConsumptionTask(3.0, 0.0, 1.5 / 16, 1.0, 1.0)
    prices = PriceVector(time=1.0, freq=1.0, compute=1e308)
    quanta, budgets = ResourceQuanta(1.0, 1.0, 1.0), Budgets(2.0, 10.0, 1e308)
    bounds = (mtv(at, task, budgets, quanta), mutv(at, task, prices, budgets, quanta))
    ctx = _RunContext(None, Policy.SISCC, prices, quanta, None, pipelined=True, client_ids=())
    out, used, fell_back = _policy_solve(ctx, 16, at, task, budgets, bounds)
    assert (out.kind, used, fell_back) == (OutcomeKind.OPTIMAL, budgets, True)
    assert math.isfinite(out.cost) and out.decision.comm_down.b == 10.0


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.sampled_from([Policy.MLPG, Policy.MC_T, Policy.SENS_OPT, Policy.COMM_OPT]), capped_clients())
def test_capped_mtv_decides_the_fallback_as_the_resolve_did(policy, p):
    # past the capped mtv the runner falls back at once; the reference takes
    # the capped (mtv, mutv) pair and re-solves, Infeasible there.  Every
    # workload of the curve, so the capped mtv itself and the one past it
    at = StatusAttributes(a=p["a"], b=p["b"], label_dist=None)
    task = ConsumptionTask(p["down"], p["up"], p["cycles"], p["eff_down"], p["eff_up"])
    budgets = Budgets(float(p["cycle"]), float(p["freq"]), float(p["compute"]))
    prices = PriceVector(time=p["time_price"], freq=p["freq_price"], compute=p["compute_price"], sample=1.0, gain=1000.0)
    quanta = ResourceQuanta(1.0, 1e6, 1e5)
    cap = mtv(at, task, budgets, quanta)
    assume(cap >= 1)
    bounds = (cap, mutv(at, task, prices, budgets, quanta))
    ctx = _RunContext(None, policy, prices, quanta, None, pipelined=True, client_ids=())
    _, used, fell_back = policy_solve_reference(ctx, int(cap), at, task, budgets, bounds)
    assume(fell_back or used is not budgets)  # the sensing cap binds at capacity
    kinds = []
    for n in range(1, int(cap) + 1):
        got = _policy_solve(ctx, n, at, task, budgets, bounds)
        expected = policy_solve_reference(ctx, n, at, task, budgets, bounds)
        assert repr(got) == repr(expected), n
        kinds.append("falls back" if expected[2] else "capped" if expected[1] is not budgets else "plain")
    event(" then ".join(k for k, _ in itertools.groupby(kinds)))


@settings(max_examples=100, deadline=None)
@given(solve_cases())
def test_precomputed_bounds_give_the_same_outcome(case):
    n, at, task, prices, budgets, quanta = case
    inp = SolveInput(n, at, task, prices, budgets, quanta)
    bounds = (mtv(at, task, budgets, quanta), mutv(at, task, prices, budgets, quanta))
    for policy in Policy:
        assert schedule_with_policy(policy, inp, bounds=bounds) == schedule_with_policy(policy, inp)


DEFAULTS = load_config()


def _fleet(*clients, task=(1e8, 1e8, 500.0), prices=(1.0, 0.05, 0.5),
           cells=(10.0, 400.0, 10.0, 10.0), pipelined=True, global_=(1, 1, 1, 1)):
    """A round's fleet at the quote.  A client is (a, b, eff_down, eff_up,
    peak of last round's chain or None, label counts or None); cells are
    (time, freq, compute, cycle)."""
    return dict(task=task, prices=prices, cells=cells, pipelined=pipelined,
                global_=global_, clients=list(clients))


def _eff_down_at_slack(fleet, eff_up, slack):
    """The download efficiency that leaves the box-free chain of `mutv` a
    time slack of `slack` cells (default quanta), or None."""
    (d_down, d_up, _), (p_time, p_freq, _) = fleet["task"], fleet["prices"]
    t_b = min(fleet["cells"][0], fleet["cells"][3])
    up_t = math.sqrt(d_up / (eff_up * 1e6) * p_freq / p_time) if d_up > 0 and eff_up > 0 else 0.0
    down_t = t_b - slack - up_t
    if d_down <= 0 or down_t < 1e-3:
        return None
    return d_down * p_freq / (down_t**2 * p_time * 1e6)


@st.composite
def fleets(draw):
    """Fleets at the edges of every `mtv`/`mutv` branch: sensing
    coefficients of 0 and 5e-324, dead links under nonzero model sizes, zero
    sizes and cycles, a zero time budget, sensing bandwidth used up by last
    round's chain, and download times that leave `mutv` a slack within 2e-9
    of zero."""
    bits = st.sampled_from([0.0, 1e7, 1e8, 4e8])
    freq = draw(st.integers(1, 400))
    labels = st.lists(st.integers(0, 5), min_size=4, max_size=4).filter(any)
    fleet = _fleet(
        task=(draw(bits), draw(bits), draw(st.sampled_from([0.0]) | st.floats(50.0, 1000.0))),
        prices=(draw(st.floats(0.2, 5.0)), draw(st.floats(0.01, 0.5)), draw(st.floats(0.1, 2.0))),
        cells=(10.0, float(freq), float(draw(st.integers(1, 10))), float(draw(st.integers(0, 10)))),
        pipelined=draw(st.booleans()),
        global_=draw(st.none() | labels),
    )
    for _ in range(draw(st.integers(1, 6))):
        eff_down, eff_up = draw(st.floats(0.0, 40.0)), draw(st.floats(0.0, 40.0))
        slack = draw(st.none() | st.floats(-2e-9, 2e-9))
        if slack is not None:
            eff_down = _eff_down_at_slack(fleet, eff_up, slack) or eff_down
        fleet["clients"].append((
            draw(st.floats(0.0, 60.0)),
            draw(st.sampled_from([0.0, 5e-324]) | st.floats(1e-3, 0.5) | st.floats(0.0, 1e-300)),
            eff_down,
            eff_up,
            draw(st.none() | st.sampled_from([0.0, float(freq)]) | st.floats(0.0, freq + 10.0)),
            draw(st.none() | labels),
        ))
    return fleet


def _quote_inputs(fleet):
    """`runner._quote_fleet`'s arguments for a drawn fleet."""
    (d_down, d_up, cycles), (p_time, p_freq, p_compute) = fleet["task"], fleet["prices"]
    config = ExperimentConfig({
        **DEFAULTS.raw,
        "task": {"model_down_bits": d_down, "model_up_bits": d_up, "cycles_per_sample": cycles},
        "prices": {**DEFAULTS.raw["prices"], "time": p_time, "freq": p_freq, "compute": p_compute},
    })
    clients = fleet["clients"]
    ids = tuple(f"c{i:03d}" for i in range(len(clients)))
    ctx = _RunContext(config, config.policy, config.prices(), config.quanta(), None,
                      fleet["pipelined"], ids)
    time, freq, compute, cycle = fleet["cells"]
    statuses = [
        StatusAttributes(a, b, None if label is None else np.array(label) / sum(label))
        for a, b, _, _, _, label in clients
    ]
    prev_cons = {
        cid: ScheduleDecision(
            comm_down=TransferSchedule(1.0, c[4]), comm_up=TransferSchedule(1.0, c[4] / 2)
        )
        for cid, c in zip(ids, clients) if c[4] is not None
    }
    g = fleet["global_"]
    return (
        ctx, Budgets(min(time, cycle), freq, compute), statuses,
        np.array([c[2] for c in clients]), np.array([c[3] for c in clients]),
        None if g is None else np.array(g) / sum(g), prev_cons,
    )


# every `mtv`/`mutv` branch, one or two fleets each
DEAD_LINKS = _fleet(  # mtv: a dead link, an infinite transfer volume, a chain
    # longer than the window; mutv: a box-free transfer wider than the band
    (10.0, 0.1, 0.0, 12.0, None, (1, 0, 0, 0)), (10.0, 0.1, 5e-324, 12.0, None, None),
    (10.0, 0.1, 0.5, 0.5, None, None), (10.0, 0.1, 40.0, 40.0, None, (0, 1, 1, 0)),
    cells=(10.0, 1.0, 10.0, 10.0),
)
NO_CHAIN = _fleet(  # nothing to transfer or train: mtv from sensing alone;
    # mutv: nothing sensed, visual only, visual regime at b = 5e-324
    (0.0, 0.0, 1.0, 1.0, None, None), (10.0, 0.0, 1.0, 1.0, None, (1, 2, 3, 4)),
    (10.0, 5e-324, 1.0, 1.0, None, None), (0.0, 5e-324, 1.0, 1.0, None, None),
    task=(0.0, 0.0, 0.0),
)
ZERO_WINDOW = _fleet((10.0, 0.1, 12.0, 8.0, None, None), cells=(10.0, 400.0, 10.0, 0.0))
ZERO_WINDOW_NO_CHAIN = _fleet((10.0, 0.1, 12.0, 8.0, None, None), task=(0.0, 0.0, 0.0),
                              cells=(10.0, 400.0, 10.0, 0.0))
BAND_USED_UP = _fleet(  # a chain as wide as the band leaves no sensing bandwidth
    (0.0, 0.2, 12.0, 8.0, 400.0, None), (10.0, 0.2, 12.0, 8.0, 400.0, (2, 0, 1, 1)),
    (10.0, 0.2, 12.0, 8.0, 399.5, None), (10.0, 0.2, 12.0, 8.0, 0.0, None),
)
SENSING_CURVE = _fleet(  # mutv's time box, band box and visual regime
    (20.0, 0.3, 12.0, 8.0, None, (1, 1, 0, 0)), (0.5, 0.01, 12.0, 8.0, None, (0, 0, 1, 1)),
    (50.0, 0.001, 12.0, 8.0, None, None), (0.0, 0.4, 12.0, 8.0, 350.0, None),
    task=(1e7, 1e7, 50.0), cells=(10.0, 400.0, 10.0, 3.0),
)
UNBOUNDED = _fleet((10.0, 0.1, 12.0, 8.0, None, None), (0.0, 0.0, 12.0, 8.0, None, None),
                   cells=(math.inf, math.inf, math.inf, math.inf))
SLACK_NEAR_ZERO = _fleet(*(
    (10.0, 0.1, _eff_down_at_slack(_fleet(), 8.0, s), 8.0, None, None)
    for s in (-1.5e-9, -1e-9, -0.5e-9, 0.0, 1e-9)
))
# a square that overflows is inf in both (sensing band, then chain slack);
# what the scalar calls raise, the batched pass raises: a subnormal cycle count
SQUARE_OVERFLOWS = _fleet((1.0, 1e300, 12.0, 8.0, None, None))
SLACK_SQUARE_OVERFLOWS = _fleet((10.0, 0.0, 12.0, 8.0, None, None),
                                cells=(1e200, 400.0, 10.0, 1e200))
SUBNORMAL_CYCLES = _fleet((10.0, 0.1, 12.0, 8.0, None, None), task=(1e8, 1e8, 5e-324))
# b * time_price overflows: the band bound is nan, which Python's min skips
NAN_BAND_BOUND = _fleet((1.0, 1e308, 12.0, 8.0, None, None), prices=(5.0, 0.05, 0.5))


@settings(max_examples=300, deadline=None)
@given(fleets())
@example(DEAD_LINKS)
@example(NO_CHAIN)
@example(ZERO_WINDOW)
@example(ZERO_WINDOW_NO_CHAIN)
@example(BAND_USED_UP)
@example(SENSING_CURVE)
@example(UNBOUNDED)
@example(SLACK_NEAR_ZERO)
@example(SQUARE_OVERFLOWS)
@example(SLACK_SQUARE_OVERFLOWS)
@example(SUBNORMAL_CYCLES)
@example(NAN_BAND_BOUND)
def test_quotes_equal_the_per_client_oracle(fleet):
    args = _quote_inputs(fleet)
    errors = (OverflowError, ZeroDivisionError, ValueError)
    try:
        expected = quotes_per_client(*args)
    except errors:
        # which error comes first can differ when two clients raise different
        # ones, as the pass takes each step for the whole fleet at once
        with pytest.raises(errors):
            runner._quote_fleet(*args)
        return
    pairs = []  # what the batched pass gave every client, quoting or not

    def kernel(*a, **k):
        pairs.extend(fleet_bounds(*a, **k))
        return pairs

    with mock.patch.object(runner, "fleet_bounds", kernel):
        clients = runner._quote_fleet(*args)
    assert list(clients) == list(expected)
    for (cid, (task, budgets, cap, quote)), pair in zip(expected.items(), pairs):
        c = clients[cid]
        # the cost-objective policy's curve read the task of each quoted client
        assert (c._task is not None) == (quote is not None)
        assert repr(c.task) == repr(task)
        assert repr(c.budgets) == repr(budgets)
        if quote is None:
            event("no quote")
            assert repr(pair) == repr((cap, None))
            assert (c.quote, c.note) == (None, "no feasible workload")
            continue
        n_unc, q = quote
        event(f"quote, mutv {'-1' if n_unc == -1 else type(n_unc).__name__}")
        assert repr(pair) == repr((cap, n_unc))
        # the quote's ints: mtv capped at 10**7, an infinite mutv at that mtv
        cap_i = int(min(cap, 10**7))
        ints = (cap_i, int(n_unc) if math.isfinite(n_unc) else cap_i)
        assert repr((c.quote.mtv, c.quote.mutv)) == repr(ints)
        assert repr(c.quote.qod) == repr(q)


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


@pytest.mark.parametrize("policy", ["SISCC", "ML_CC"])
def test_market_policies_quote_every_client_a_curve(monkeypatch, policy):
    # ranked or not, the market reads a curve for every quote it sees
    seen = []
    select = runner._select_and_allocate

    def spy(ctx, clients, *args):
        seen.extend(c.quote for c in clients.values() if c.quote is not None)
        return select(ctx, clients, *args)

    monkeypatch.setattr(runner, "_select_and_allocate", spy)
    run(load_config(CONFIGS["mlpg"], {"policy": policy}))
    assert seen
    assert all(isinstance(q.curve, runner.CostCurve) and q.curve.mtv == q.mtv for q in seen)


def test_mlpg_builds_no_curve_and_tasks_only_for_workloads(monkeypatch):
    # a quoted client that is never traded builds neither a curve nor a
    # task: per round, the quote pass asks `task_for` once, for the fleet's
    # sizes, and the solve once per client with a workload
    curves, tasks, rounds = [], [], []
    task_for, curve_cls, solve = ExperimentConfig.task_for, runner.CostCurve, runner._solve_and_quantize

    def counted_task_for(config, eff_down, eff_up):
        tasks.append((eff_down, eff_up))
        return task_for(config, eff_down, eff_up)

    def counted_curve(cost_fn, mtv):
        curves.append(mtv)
        return curve_cls(cost_fn, mtv)

    def spy(ctx, clients):
        quoted = sum(c.quote is not None for c in clients.values())
        assert all(c.quote.curve is None for c in clients.values() if c.quote is not None)
        held = [(c.eff_down, c.eff_up) for _, c in sorted(clients.items()) if c.n > 0]
        assert tasks == [(1.0, 1.0)]
        solve(ctx, clients)
        assert tasks[1:] == held
        rounds.append((quoted, len(held)))
        tasks.clear()

    monkeypatch.setattr(ExperimentConfig, "task_for", counted_task_for)
    monkeypatch.setattr(runner, "CostCurve", counted_curve)
    monkeypatch.setattr(runner, "_solve_and_quantize", spy)
    run(load_config(CONFIGS["mlpg"], {"market": {"max_active_clients": 2}}))
    assert curves == []
    assert len(rounds) == CONFIGS["mlpg"]["rounds"]
    assert all(0 < held < quoted for quoted, held in rounds), rounds


def test_placement_drops_sensing_beside_a_wider_chain(monkeypatch):
    # take round 1's placement inputs, then put a chain beside one client's
    # sensing block that is wider than the quote assumed (it assumed none):
    # the block no longer fits the rows the chain leaves free, so placement
    # takes the client out of the round
    place = runner._place_round
    calls = []
    monkeypatch.setattr(runner, "_place_round", lambda *args: calls.append(args))
    run(load_config({**SMALL, "rounds": 1, "policy": "MC_T"}))
    ctx, record, r, clients, prev_cons, t_delta = calls[0]
    assert prev_cons == {}
    cid = min(cid for cid, c in clients.items() if c.n > 0)
    c = clients[cid]
    free = int(c.quantized.gen.b_ws) - 1
    assert free >= 0
    chain = ScheduleDecision(comm_down=TransferSchedule(t=1, b=ctx.cells[1] - free))

    place(ctx, record, r, clients, {cid: chain}, t_delta)

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


@st.composite
def oracle_runs(draw):
    """One or two rounds over every policy, mode and sensing mode, at drawn
    pool scales, prices and gain windows; most with eight clients on full
    pools, whose streaks run into the window's ceiling."""
    return {
        "seed": draw(st.integers(0, 2**16)),
        "rounds": draw(st.integers(1, 2)),
        "policy": draw(st.sampled_from([p.value for p in Policy])),
        "mode": draw(st.sampled_from(["zeros", "serial"])),
        "scenario": {
            "n_clients": draw(st.sampled_from([3, 8, 8])),
            "n_targets": draw(st.sampled_from([10, 30])),
            "sensing_mode": draw(st.sampled_from(["msg", "vsg", "wsg"])),
        },
        "resources": {
            "scale": draw(st.sampled_from([[1.0, 1.0, 1.0], [0.5, 0.5, 0.5], [1.0, 0.05, 1.0]])),
        },
        "prices": {
            "time": draw(st.sampled_from([1e-13, 1.0, 50.0])),
            "freq": draw(st.sampled_from([0.001, 0.05, 0.5])),
            "gain": draw(st.sampled_from([200.0, 1000.0])),
        },
        "market": {
            "gain_floor": draw(st.sampled_from([0.5, 2.0])),
            "gain_window": draw(st.sampled_from([1.0, 8.0])),
        },
    }


@settings(max_examples=60, deadline=None)
@given(oracle_runs())
# the packaged market on eight clients: streaks end at the window's ceiling
@example({
    "seed": 21, "rounds": 1, "policy": "SISCC", "mode": "zeros",
    "scenario": {"n_clients": 8, "n_targets": 30, "sensing_mode": "msg"},
    "resources": {"scale": [1.0, 1.0, 1.0]},
    "prices": {"time": 1.0, "freq": 0.05, "gain": 1000.0},
    "market": {"gain_floor": 2.0, "gain_window": 8.0},
})
def test_whole_run_equals_the_run_on_the_oracles(raw):
    config = load_config(raw)
    assert run(config).output_texts() == reference_run(config).output_texts()


@pytest.mark.parametrize("policy", [p.value for p in Policy if not POLICIES[p].saturate])
def test_debug_logging_leaves_the_outputs_as_they_are(caplog, policy):
    config = load_config({**SMALL, "rounds": 2, "policy": policy})
    quiet = run(config).output_texts()
    with caplog.at_level(logging.DEBUG, logger="mfpsim"):
        loud = run(config).output_texts()
    assert any(r.getMessage().startswith("scan grant ") for r in caplog.records)
    assert loud == quiet
