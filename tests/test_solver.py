import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfpsim.baselines import Policy, realize_with_policy
from mfpsim.costs import ConsumptionTask, PriceVector, ScheduleDecision
from mfpsim.resource_pool import ResourceQuanta
from mfpsim.scenario import StatusAttributes
from mfpsim.solver import (
    COMPUTE,
    DOWN_BANDWIDTH,
    GEN_BANDWIDTH,
    GEN_TIME,
    UP_BANDWIDTH,
    Budgets,
    OutcomeKind,
    SolveInput,
    _Process,
    _consumption_processes,
    _enumerate_consumption,
    constrained_schedule,
    mtv,
    mutv,
    realize_schedule,
)

import mfpsim.solver as solver

from oracles import (
    REALIZE_PAIRS,
    consumption_by_multiplier,
    consumption_grid_min,
    enumerate_consumption_reference,
    first_times_reference,
    gen_grid_min,
    int_gen_best_reference,
    int_proc_candidates_reference,
    part_key_reference,
    total_min_cost_unconstrained,
)

UNIT = ResourceQuanta(time_s=1.0, freq_hz=1.0, compute_cycles_per_s=1.0)
OBJECTIVES = ["cost", "time", "sensing", "comm", "comp", "width"]
ZERO_TASK = ConsumptionTask(0, 0, 0, 1, 1)


def attrs(a, b):
    return StatusAttributes(a=a, b=b)


def prices(t=1.0, b=1.0, f=1.0):
    return PriceVector(time=t, freq=b, compute=f)


def solve(n, a, b, budgets, task=ZERO_TASK, pv=None, quanta=UNIT):
    return constrained_schedule(SolveInput(n, attrs(a, b), task, pv or prices(), budgets, quanta))


def random_instance(rng):
    a, b = rng.uniform(0.1, 10, 2)
    pt, pb, pf = rng.uniform(0.1, 10, 3)
    t_cells, b_cells, f_cells = rng.integers(1, 11, 3)
    budgets = Budgets(float(t_cells), float(b_cells), float(f_cells))
    eff = rng.uniform(0.5, 20, 2)
    # keep the fixed transfers comfortably inside the budget so workloads exist
    d_down = rng.uniform(0, 0.25 * t_cells * b_cells * eff[0])
    d_up = rng.uniform(0, 0.25 * t_cells * b_cells * eff[1])
    task = ConsumptionTask(d_down, d_up, rng.uniform(0.1, 5), eff[0], eff[1])
    return attrs(a, b), task, prices(pt, pb, pf), budgets


def verify_decision(out, n, at, task, pv, budgets, quanta=UNIT):
    """Exact feasibility + cost-accounting check of a returned schedule."""
    d = out.decision
    g = d.gen
    produced = at.a * g.t_vs + at.b * g.t_ws * g.b_ws
    assert produced == pytest.approx(n, rel=1e-9, abs=1e-9)
    assert g.t_ws <= g.t_vs + 1e-9
    assert g.t_vs <= budgets.time_cells + 1e-9
    assert g.b_ws <= budgets.gen_bandwidth + 1e-9
    cell_bits = quanta.time_s * quanta.freq_hz
    if task.d_down_bits > 0:
        assert d.comm_down.t * d.comm_down.b * task.eff_down * cell_bits == pytest.approx(
            task.d_down_bits, rel=1e-9
        )
    if task.d_up_bits > 0:
        assert d.comm_up.t * d.comm_up.b * task.eff_up * cell_bits == pytest.approx(
            task.d_up_bits, rel=1e-9
        )
    cycles = n * task.cycles_per_sample
    if cycles > 0:
        work = d.comp.t * d.comp.f * quanta.compute_cycles_per_s * quanta.time_s
        assert work == pytest.approx(cycles, rel=1e-9)
    assert d.consumption_time <= budgets.time_cells * (1 + 1e-9) + 1e-9
    assert max(d.comm_down.b, d.comm_up.b) <= budgets.freq_cells + 1e-9
    assert d.comp.f <= budgets.compute_cells + 1e-9
    assert out.cost == pytest.approx(d.cost(pv), rel=1e-12)


def oracle_total(n, at, task, pv, budgets, grid=300):
    gen_ref, gen_step = gen_grid_min(
        n, at.a, at.b, budgets.time_cells, budgets.gen_bandwidth, pv.time, pv.freq, grid
    )
    if gen_ref is None:
        return None, 0.0
    procs = _consumption_processes(n, task, pv, budgets, UNIT)
    vols = [p.volume for p in procs]
    wmax = [p.width_max for p in procs]
    wprices = [p.width_price for p in procs]
    cons_ref, cons_step = consumption_grid_min(vols, wmax, pv.time, wprices, budgets.time_cells, grid)
    if cons_ref is None:
        return None, 0.0
    return gen_ref + cons_ref, max(gen_step, cons_step)


class TestMutv:
    def test_generation_side_bound(self):
        got = mutv(attrs(1, 1), ZERO_TASK, prices(), Budgets(2, 10, 5), UNIT)
        assert got == 4
        # definition check: the box-free optimum fits exactly up to that point
        for n in range(0, 5):
            out = solve(n, 1, 1, Budgets(math.inf, math.inf, math.inf))
            assert out.decision.gen.t_vs <= 2 + 1e-9
        out = solve(5, 1, 1, Budgets(math.inf, math.inf, math.inf))
        assert out.decision.gen.t_vs > 2

    def test_infinite_budgets(self):
        got = mutv(attrs(1, 1), ZERO_TASK, prices(), Budgets(math.inf, math.inf, math.inf), UNIT)
        assert math.isinf(got)

    def test_zero_time(self):
        assert mutv(attrs(1, 1), ZERO_TASK, prices(), Budgets(0, 10, 10), UNIT) == 0

    def test_visual_only_regime_bound(self):
        # tight time box binds while the optimum is still visual-only
        got = mutv(attrs(10, 0.1), ZERO_TASK, prices(), Budgets(2, 100, 1), UNIT)
        assert got == 20  # a * time budget

    def test_never_exceeds_mtv(self):
        rng = np.random.default_rng(0)
        for _ in range(200)        :
            at, task, pv, budgets = random_instance(rng)
            assert mutv(at, task, pv, budgets, UNIT) <= mtv(at, task, budgets, UNIT)


class TestMtv:
    def test_generation_side(self):
        assert mtv(attrs(1, 1), ZERO_TASK, Budgets(2, 3, 5), UNIT) == 8

    def test_consumption_side_compute_bound(self):
        task = ConsumptionTask(0, 0, 1.0, 1, 1)
        got = mtv(attrs(100, 100), task, Budgets(2, 100, 10), UNIT)
        assert got == 20

    def test_fixed_overhead_sentinel(self):
        # the downlink alone cannot fit the window
        task = ConsumptionTask(d_down_bits=100, d_up_bits=0, cycles_per_sample=1, eff_down=1, eff_up=1)
        got = mtv(attrs(1, 1), task, Budgets(2, 4, 10), UNIT)  # needs 100/4 = 25 > 2 cells
        assert got == -1

    def test_feasibility_scan_matches_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            a, b = rng.uniform(0.1, 10, 2)
            t_cells, b_cells = rng.integers(1, 9, 2)
            budgets = Budgets(float(t_cells), float(b_cells), 5.0)
            formula = math.floor(a * t_cells + b * t_cells * b_cells + 1e-9)
            assert mtv(attrs(a, b), ZERO_TASK, budgets, UNIT) == formula
            assert solve(formula, a, b, budgets).kind == OutcomeKind.OPTIMAL
            assert solve(formula + 1, a, b, budgets).kind == OutcomeKind.INFEASIBLE


class TestConstrainedSchedule:
    def test_time_boxed_case(self):
        out = solve(4, 1, 1, Budgets(1, 10, 5))
        assert out.kind == OutcomeKind.OPTIMAL
        assert out.decision.gen.t_vs == pytest.approx(1.0)
        assert out.decision.gen.b_ws == pytest.approx(3.0)
        assert out.cost == pytest.approx(4.0)
        assert GEN_TIME in out.active_constraints
        ref, step = gen_grid_min(4, 1, 1, 1, 10, 1, 1, grid=4000)
        assert out.cost <= ref + 1e-9

    def test_unconstrained_region_matches_closed_forms(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            at, task, pv, budgets = random_instance(rng)
            n_unc = mutv(at, task, pv, budgets, UNIT)
            if n_unc < 1:
                continue
            n = int(rng.integers(1, n_unc + 1))
            out = constrained_schedule(SolveInput(n, at, task, pv, budgets, UNIT))
            expect = total_min_cost_unconstrained(n, at, task, pv, UNIT)
            assert out.cost == pytest.approx(expect, rel=1e-12)
            assert out.active_constraints == frozenset()

    def test_matches_infinite_pool_total(self):
        rng = np.random.default_rng(3)
        inf_budgets = Budgets(math.inf, math.inf, math.inf)
        for _ in range(50):
            at, task, pv, _ = random_instance(rng)
            n = int(rng.integers(1, 60))
            out = constrained_schedule(SolveInput(n, at, task, pv, inf_budgets, UNIT))
            assert out.cost == pytest.approx(
                total_min_cost_unconstrained(n, at, task, pv, UNIT), rel=1e-12
            )

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 250:
            at, task, pv, budgets = random_instance(rng)
            n_max = mtv(at, task, budgets, UNIT)
            if n_max < 1:
                continue
            n = int(rng.integers(1, n_max + 1))
            out = constrained_schedule(SolveInput(n, at, task, pv, budgets, UNIT))
            assert out.kind == OutcomeKind.OPTIMAL, (at, task, budgets, n)
            verify_decision(out, n, at, task, pv, budgets)
            ref, rel = oracle_total(n, at, task, pv, budgets)
            assert ref is not None
            # optimality: no feasible grid point beats the closed form
            assert out.cost <= ref + 1e-9
            # achievability: the grid tracks the optimum within its resolution
            gen_corr = rel * at.a * pv.freq / at.b if at.b > 0 else 0.0
            assert out.cost >= ref - 3 * rel * ref - gen_corr - 1e-9
            checked += 1

    def test_solution_boundary_continuity(self):
        # at the largest box-free workload both dispatch paths agree
        rng = np.random.default_rng(5)
        for _ in range(80):
            at, task, pv, budgets = random_instance(rng)
            n_unc = mutv(at, task, pv, budgets, UNIT)
            if not (1 <= n_unc < 10_000) or math.isinf(n_unc):
                continue
            n = int(n_unc)
            out = constrained_schedule(SolveInput(n, at, task, pv, budgets, UNIT))
            expect = total_min_cost_unconstrained(n, at, task, pv, UNIT)
            assert out.cost == pytest.approx(expect, rel=1e-9)

    def test_infeasible_above_mtv(self):
        rng = np.random.default_rng(6)
        for _ in range(80):
            at, task, pv, budgets = random_instance(rng)
            n_max = mtv(at, task, budgets, UNIT)
            if n_max < 0 or math.isinf(n_max):
                continue
            for n in (int(n_max), int(n_max) + 1, int(n_max) + 2):
                out = constrained_schedule(SolveInput(n, at, task, pv, budgets, UNIT))
                expect = OutcomeKind.OPTIMAL if n <= n_max else OutcomeKind.INFEASIBLE
                assert out.kind == expect, (n, n_max, at, task, budgets)

    def test_yield_equality_holds_at_optimum(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            at, task, pv, budgets = random_instance(rng)
            n_max = mtv(at, task, budgets, UNIT)
            if n_max < 1:
                continue
            n = int(rng.integers(1, n_max + 1))
            out = constrained_schedule(SolveInput(n, at, task, pv, budgets, UNIT))
            g = out.decision.gen
            produced = at.a * g.t_vs + at.b * g.t_ws * g.b_ws
            assert produced == pytest.approx(n, rel=1e-9, abs=1e-9)

    def test_uniqueness_by_perturbation(self):
        rng = np.random.default_rng(8)
        tested = 0
        while tested < 60:
            at, task, pv, budgets = random_instance(rng)
            n_max = mtv(at, task, budgets, UNIT)
            n_unc = mutv(at, task, pv, budgets, UNIT)
            if n_max <= n_unc + 1 or n_max < 2:
                continue
            n = int(min(n_max, n_unc + max(1, (n_max - n_unc) // 2)))
            out = constrained_schedule(SolveInput(n, at, task, pv, budgets, UNIT))
            if out.kind != OutcomeKind.OPTIMAL:
                continue
            g = out.decision.gen
            if g.b_ws <= 1e-9:
                continue
            moved = False
            for factor in (0.95, 1.05):
                x = g.t_vs * factor
                if x > budgets.time_cells + 1e-12:
                    continue
                y = (n - at.a * x) / (at.b * x)
                if y < 0 or y > budgets.gen_bandwidth + 1e-12:
                    continue
                perturbed = x * pv.time + y * pv.freq
                base = g.t_vs * pv.time + g.b_ws * pv.freq
                assert perturbed > base - 1e-9
                if abs(x - g.t_vs) > 1e-9:
                    assert perturbed > base * (1 + 1e-10)
                    moved = True
            if moved:
                tested += 1

    def test_tightened_generation_bandwidth(self):
        base = solve(20, 1, 1, Budgets(4, 10, 5))
        tight = solve(20, 1, 1, Budgets(4, 10, 5, gen_freq_cells=6))
        assert tight.kind == OutcomeKind.OPTIMAL
        assert tight.cost >= base.cost
        assert tight.decision.gen.b_ws <= 6 + 1e-9
        # the cut can also make the workload outright infeasible
        assert solve(30, 1, 1, Budgets(4, 10, 5, gen_freq_cells=6)).kind == OutcomeKind.INFEASIBLE

    def test_zero_workload_empty_schedule(self):
        out = solve(0, 1, 1, Budgets(2, 2, 2), task=ConsumptionTask(50, 50, 1, 1, 1))
        assert out.kind == OutcomeKind.OPTIMAL
        assert out.cost == 0.0
        assert out.decision.time_cells == 0

    def test_trace_json_round_trip(self):
        import json

        from mfpsim.cli import _trace

        out = solve(4, 1, 1, Budgets(1, 10, 5))
        blob = json.dumps({**out.to_json_dict(), "trace": _trace(4, out)})
        parsed = json.loads(blob)
        assert parsed["kind"] == "Optimal"
        assert parsed["trace"]["solution"] == "active-set"


class TestConsumptionEnumeration:
    def test_matches_multiplier_bisection(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            vols = rng.uniform(0.05, 20, 3)
            wmax = rng.uniform(1, 10, 3)
            pt = rng.uniform(0.1, 10)
            pw = rng.uniform(0.1, 10, 3)
            floor_t = float(sum(v / w for v, w in zip(vols, wmax)))
            t_budget = floor_t * rng.uniform(1.01, 4)
            procs = [
                _Process(name, float(v), float(p), float(w))
                for name, v, p, w in zip(("d", "c", "u"), vols, pw, wmax)
            ]
            got = _enumerate_consumption(procs, pt, t_budget)
            assert got is not None
            ref = consumption_by_multiplier(vols, wmax, pt, pw, t_budget)
            assert got[1] == pytest.approx(ref, rel=1e-6)

    def test_returns_none_when_floor_exceeds_budget(self):
        procs = [_Process("d", 10.0, 1.0, 2.0)]
        assert _enumerate_consumption(procs, 1.0, 4.0) is None


@st.composite
def chains(draw):
    """Consumption chains that make every kind of candidate win: idle links,
    infinite, zero and exactly-at-the-optimum width limits, budgets that are
    infinite, barely feasible or exactly the box-free chain time, forced
    boxes, and the near-zero time price of the MC_FC baseline.  One chain in
    four sits near the box-free exit's guard: no forced box, every width
    limit free_width * (1 + d) and the budget sum(free_time) * (1 + d), with
    d from 0 to 1e-4 on both sides of where the cost gaps clear 1e-9, and
    down to -1e-9, where the box-free chain is still feasible but a shorter
    candidate ties with it."""
    time_price = draw(st.sampled_from([1e-12]) | st.floats(0.05, 20.0))
    near_guard = draw(st.integers(0, 3)) == 0
    slack = st.sampled_from([-5e-10, 0.0, 1e-6]) | st.floats(-1e-9, 1e-4)
    procs, free_time = [], []
    for name in (DOWN_BANDWIDTH, COMPUTE, UP_BANDWIDTH):
        volume = draw(st.sampled_from([0.0]) | st.floats(1e-3, 50.0))
        price = draw(st.floats(0.05, 20.0))
        free_width = math.sqrt(volume * time_price / price)
        if near_guard:
            width_max = free_width * (1 + draw(slack))
        else:
            width_max = draw(
                st.sampled_from([math.inf, 0.0, free_width])
                | st.floats(0.2, 3.0).map(lambda f: free_width * f)
                | st.floats(1e-3, 50.0)
            )
        procs.append(_Process(name, volume, price, width_max))
        if volume > 0:
            free_time.append(math.sqrt(volume * price / time_price))
    if near_guard:
        return procs, time_price, sum(free_time) * (1 + draw(slack)), frozenset()
    floor = sum(p.volume / p.width_max for p in procs if p.volume > 0 and p.width_max > 0)
    t_budget = draw(
        st.sampled_from([math.inf, floor, sum(free_time)])
        | st.floats(0.9, 4.0).map(lambda f: floor * f)
        | st.floats(1e-3, 100.0)
    )
    forced = draw(st.frozensets(st.sampled_from([DOWN_BANDWIDTH, COMPUTE, UP_BANDWIDTH])))
    return procs, time_price, t_budget, forced


def _assert_same_as_reference(case):
    got = _enumerate_consumption(*case)
    ref = enumerate_consumption_reference(*case)
    if ref is None:
        assert got is None
        return
    splits, cost, active = got
    assert list(splits.items()) == list(ref[0].items())
    assert cost == ref[1]
    assert active == ref[2]


@settings(max_examples=800, deadline=None)
@given(chains())
def test_enumeration_equals_dict_per_candidate_reference(case):
    _assert_same_as_reference(case)


def test_box_free_exit_and_full_enumeration_both_reached(monkeypatch):
    # the exit ends the enumeration in its first box set, the empty one;
    # the full enumeration takes every box set.  With these prices the
    # smallest cost gap, 0.316 * d**2 for the upload box, clears 1e-9 from
    # d of about 5.6e-5 on; a budget just under the box-free chain time
    # leaves that chain feasible but ties it with the budget's tau
    taken = []
    box_sets = solver._box_sets

    def counted(*args):
        for item in box_sets(*args):
            taken.append(item)
            yield item

    monkeypatch.setattr(solver, "_box_sets", counted)
    names = (DOWN_BANDWIDTH, COMPUTE, UP_BANDWIDTH)
    volumes, prices = (3.0, 5.0, 2.0), (0.05, 0.5, 0.05)
    free_width = [math.sqrt(v / p) for v, p in zip(volumes, prices)]
    chain_time = sum(math.sqrt(v * p) for v, p in zip(volumes, prices))
    enumerated, expected = [], []
    for d in (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        procs = [
            _Process(name, v, p, w * (1 + d))
            for name, v, p, w in zip(names, volumes, prices, free_width)
        ]
        for t_budget in (chain_time * (1 + d), chain_time * (1 - 5e-10), math.inf):
            del taken[:]
            _assert_same_as_reference((procs, 1.0, t_budget, frozenset()))
            enumerated.append(len(taken) > 1)
            expected.append(d < 5e-5 or t_budget < chain_time)
    assert enumerated == expected
    assert True in enumerated and False in enumerated


def test_subnormal_wireless_coefficient_solves_and_realizes():
    # b * time_price and b * t_max underflow to 0 for b = 5e-324
    budgets = Budgets(0.4, 5.0, 5.0)
    pv = prices(t=0.2)
    assert mutv(attrs(0.0, 5e-324), ZERO_TASK, pv, budgets, UNIT) < 1
    at = attrs(20.0, 5e-324)
    out = solve(6, 20.0, 5e-324, budgets, pv=pv)
    assert out.kind == OutcomeKind.OPTIMAL
    assert (out.decision.gen.t_vs, out.decision.gen.b_ws) == (6 / 20.0, 0.0)
    q = realize_schedule(6, at, ZERO_TASK, pv, Budgets(4.0, 5.0, 5.0), UNIT)
    assert (q.gen.t_vs, q.gen.b_ws) == (1, 0)
    q = realize_schedule(30, attrs(1.0, 5e-324), ZERO_TASK, pv, Budgets(4.0, 5.0, 5.0), UNIT)
    assert q is None


class TestRealizeSchedule:
    def test_integral_and_never_under_provisions(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            at, task, pv, budgets = random_instance(rng)
            n_max = mtv(at, task, budgets, UNIT)
            if n_max < 1:
                continue
            n = int(rng.integers(1, n_max + 1))
            q = realize_schedule(n, at, task, pv, budgets, UNIT)
            if q is None:
                continue  # an integral schedule may genuinely not fit
            g = q.gen
            assert float(g.t_vs).is_integer() and float(g.b_ws).is_integer()
            produced = at.a * g.t_vs + at.b * g.t_ws * g.b_ws
            assert produced >= n - 1e-9
            assert g.t_vs <= budgets.time_cells and g.b_ws <= budgets.gen_bandwidth
            chain_t = q.comm_down.t + q.comp.t + q.comm_up.t
            assert chain_t <= budgets.time_cells
            assert q.comm_down.b <= budgets.freq_cells
            assert q.comm_up.b <= budgets.freq_cells
            assert q.comp.f <= budgets.compute_cells
            cell_bits = UNIT.time_s * UNIT.freq_hz
            if task.d_down_bits > 0:
                assert q.comm_down.t * q.comm_down.b * task.eff_down * cell_bits >= (
                    task.d_down_bits * (1 - 1e-9)
                )
            if task.d_up_bits > 0:
                assert q.comm_up.t * q.comm_up.b * task.eff_up * cell_bits >= (
                    task.d_up_bits * (1 - 1e-9)
                )
            if n * task.cycles_per_sample > 0:
                assert q.comp.t * q.comp.f >= n * task.cycles_per_sample - 1e-9

    def test_integer_cost_beats_naive_ceiling(self):
        rng = np.random.default_rng(12)
        for _ in range(120):
            at, task, pv, budgets = random_instance(rng)
            n_max = mtv(at, task, budgets, UNIT)
            if n_max < 1:
                continue
            n = int(rng.integers(1, n_max + 1))
            out = constrained_schedule(SolveInput(n, at, task, pv, budgets, UNIT))
            q = realize_schedule(n, at, task, pv, budgets, UNIT)
            if q is None:
                continue
            d = out.decision
            up = lambda v: math.ceil(v - 1e-9)
            chain_cells = up(d.comm_down.t) + up(d.comp.t) + up(d.comm_up.t)
            if chain_cells <= budgets.time_cells:  # naive rounding must be feasible
                naive = (
                    up(d.gen.t_vs) + chain_cells
                ) * pv.time + (
                    up(d.gen.b_ws) + up(d.comm_down.b) + up(d.comm_up.b)
                ) * pv.freq + up(d.comp.f) * pv.compute
                assert q.cost(pv) <= naive + 1e-9
            # and never below the continuous optimum
            assert q.cost(pv) >= out.cost - 1e-9

    def test_matches_exhaustive_integer_search_on_generation(self):
        rng = np.random.default_rng(13)
        pv = prices(2.0, 0.7)
        for _ in range(60):
            a, b = rng.uniform(0.3, 4, 2)
            t_int, b_int = (int(x) for x in rng.integers(2, 8, 2))
            budgets = Budgets(float(t_int), float(b_int), 4.0)
            n = int(rng.integers(1, int(a * t_int + b * t_int * b_int) + 1))
            for a in (a, 0.0):  # without a visual rate the search stops at one wireless cell
                q = realize_schedule(n, attrs(a, b), ZERO_TASK, pv, budgets, UNIT)
                best = None
                for x in range(1, t_int + 1):
                    for y in range(0, b_int + 1):
                        if a * x + b * x * y >= n - 1e-9:
                            cost = x * pv.time + y * pv.freq
                            best = cost if best is None else min(best, cost)
                if best is None:
                    assert q is None
                else:
                    assert q is not None
                    assert q.gen.t_vs * pv.time + q.gen.b_ws * pv.freq == pytest.approx(best)

    def test_none_when_nothing_fits(self):
        task = ConsumptionTask(100, 0, 1, 1, 1)  # needs 25 time cells at width 4
        q = realize_schedule(5, attrs(1, 1), task, prices(), Budgets(3, 4, 4), UNIT)
        assert q is None

    def test_zero_workload_empty(self):
        q = realize_schedule(0, attrs(1, 1), ZERO_TASK, prices(), Budgets(3, 4, 4), UNIT)
        assert q.time_cells == 0


@st.composite
def realize_cases(draw):
    """A realization on a window of up to 300 cells, with needs down to a
    fraction of a cell on every leg and wireless rates up to a whole
    workload per cell.  The other needs scale with the window, so that most
    draws fit: each chain leg asks up to 40% of what its pool carries over
    the window, and the wireless rate covers up to three times the samples
    the visual rate leaves."""
    t, freq, compute = (draw(st.integers(1, 300)) for _ in range(3))
    n, a = draw(st.integers(1, 60)), draw(st.sampled_from([0.0, 0.5, 31.4]))
    tiny = st.sampled_from([0.0, 1e-300, 1e-9, 1e-3])

    def need(capacity):
        return draw(tiny | st.floats(0.0, 0.4).map(lambda share: share * capacity))

    wireless = st.floats(0.0, 3.0).map(lambda share: share * max(n - a * t, 0.0) / (t * freq))
    at = attrs(a, draw(tiny | wireless | st.floats(1e3, 1e14)))
    task = ConsumptionTask(need(t * freq), need(t * freq), need(t * compute) / n, 1.0, 1.0)
    pv = prices(*(draw(st.floats(0.01, 10.0)) for _ in range(3)))
    budgets = Budgets(float(t), float(freq), float(compute))
    return n, at, task, pv, budgets, UNIT, draw(st.sampled_from(OBJECTIVES))


def _packaged(b, cons_freq_cells, d_down_bits=1e8, cycles_per_sample=500.0):
    """A client of the packaged scenario's first two rounds, where three
    configs realized a leg of width 0."""
    task = ConsumptionTask(d_down_bits, 1e8, cycles_per_sample, 21.194291268187765, 11.561176705022062)
    budgets = Budgets(10.0, 400.0, 10.0, cons_freq_cells=cons_freq_cells)
    pv = prices(1.0, 0.05, 0.5)
    return 1232, attrs(31.415926535897935, b), task, pv, budgets, ResourceQuanta(), "cost"


@settings(max_examples=300, deadline=None)
@given(realize_cases())
@example(_packaged(29700712291778.164, 399.0))  # wireless_efficiency 1e10: sensing (1, 0)
@example(_packaged(0.2970071229177817, 90.0, cycles_per_sample=1e-9))  # compute (1, 0)
@example(_packaged(0.2970071229177817, 90.0, d_down_bits=1e-3))  # download (1, 0)
def test_realization_covers_every_positive_need(case):
    # a positive need takes at least one whole cell: no leg of width 0, and
    # sensing delivers the workload
    n, at, task, pv, budgets, quanta, objective = case
    q = realize_schedule(n, at, task, pv, budgets, quanta, objective)
    if q is None:
        return
    g = q.gen
    assert at.a * g.t_vs + at.b * g.t_ws * g.b_ws >= n * (1 - 1e-9)
    cell_bits = quanta.time_s * quanta.freq_hz
    legs = [
        (task.d_down_bits / (task.eff_down * cell_bits), q.comm_down.t, q.comm_down.b),
        (n * task.cycles_per_sample / (quanta.compute_cycles_per_s * quanta.time_s), q.comp.t, q.comp.f),
        (task.d_up_bits / (task.eff_up * cell_bits), q.comm_up.t, q.comm_up.b),
    ]
    for volume, t, w in legs:
        if volume > 0:
            assert w >= 1 and t * w >= volume * (1 - 1e-9)


# needs from nothing to many cells per time cell: widths repeat across
# times, or change at every one
NEEDS = st.sampled_from([0.0, 1e-300, 1e-9, 1e-3, 1e19]) | st.floats(0.0, 1e5)


@settings(max_examples=300, deadline=None)
@given(NEEDS, st.sampled_from([0, 1, 10**9]) | st.integers(0, 600), st.integers(1, 1500))
@example(1e5, 400, 10)  # a width per time cell
@example(37.5, 10**9, 1000)  # widths repeating over ever longer runs of times
@example(1e19, 100, 10**19)  # a huge leg in a huge window: 100 widths
def test_leg_candidates_equal_the_per_cell_loop(vol, w_int, t_int):
    got = solver._int_proc_candidates(vol, w_int, t_int)
    # a raced leg's key starts with its time, least at the first candidate
    assert solver._int_proc_candidates(vol, w_int, t_int, True) == got[:1]
    if t_int > 10**4:  # the loop would take about t_int steps
        def width(t):
            return max(1, math.ceil(vol / t - 1e-9))

        # every width to the cap, each at its first time
        assert [w for _, w in got] == list(range(w_int, 0, -1))
        assert all(width(t) == w < width(t - 1) for t, w in got)
        return
    assert got == int_proc_candidates_reference(vol, w_int, t_int)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 10**4),
    st.sampled_from([0.0, 0.5, 31.4]) | st.floats(0.0, 100.0),
    st.sampled_from([0.0, 5e-324, 1e-4]) | st.floats(1e-6, 1e3),
    st.floats(0.01, 10.0), st.floats(0.01, 10.0),
    st.integers(1, 1500), st.integers(0, 500), st.sampled_from(OBJECTIVES),
)
@example(1000, 0.0, 1e-4, 1.0, 1.0, 10**12, 1, "cost")  # 10**7 cells before y = 1
def test_sensing_search_equals_the_per_cell_loop(n, a, b, p_time, p_freq, t_int, b_int, objective):
    pv = prices(p_time, p_freq)
    raced = solver.RACED[objective]
    key = functools.partial(solver._part_key, raced and raced & {GEN_BANDWIDTH})
    got = solver._int_gen_best(n, a, b, pv, t_int, b_int, key)
    if raced and GEN_BANDWIDTH in raced:  # the first candidate wins a raced key
        assert solver._int_gen_best(n, a, b, pv, t_int, b_int, key, True) == got
    if t_int > 10**4:  # the loop would take 10**7 steps: the first x at width 1
        x = got.t_vs
        assert got.b_ws == 1 and n / (b * x) - 1e-9 <= 1 < n / (b * (x - 1)) - 1e-9
        return
    assert got == int_gen_best_reference(n, a, b, pv, t_int, b_int, key)


@st.composite
def step_widths(draw):
    """A non-increasing step function over times 1..t_int, as runs of
    (length, width) from the widest (inf: no width fits) to the narrowest,
    with the window, the bound and the stopping width."""
    widths = sorted(
        draw(st.lists(st.integers(0, 40) | st.just(math.inf), min_size=1, max_size=12)),
        reverse=True,
    )
    runs = [(draw(st.integers(1, 30)), w) for w in widths]
    steps = [w for length, w in runs for _ in range(length)]
    t_int = draw(st.integers(1, len(steps) + 5))
    bound = draw(st.sampled_from([math.inf, widths[0], widths[-1]]) | st.integers(0, 45))
    return steps, t_int, bound, draw(st.integers(-1, 3))


@settings(max_examples=300, deadline=None)
@given(step_widths())
@example(([5, 5, 3, 3, 1], 1, math.inf, 1))  # a window of one cell
@example(([4, 4, 4, 4], 4, 4, 0))  # the width never falls below the bound
@example(([math.inf] * 9 + [2] * 7 + [0], 20, math.inf, 0))  # past the window's end
@example(([7, 6, 5, 4, 3, 2, 1, 0], 8, 9, 0))  # a width per cell
def test_first_times_equal_the_per_cell_scan(case):
    steps, t_int, bound, last = case

    def width(t):
        return steps[min(t, len(steps)) - 1]

    got = solver._first_times(width, t_int, bound, last)
    assert got == first_times_reference(width, t_int, bound, last)


@st.composite
def wide_realize_cases(draw):
    """A realization on a window of up to a few hundred cells, where the
    legs and the sensing search visit many widths."""
    at = attrs(
        draw(st.sampled_from([0.0, 0.5, 31.4]) | st.floats(0.0, 100.0)),
        draw(st.sampled_from([0.0, 5e-324]) | st.floats(1e-6, 1e3)),
    )
    task = ConsumptionTask(draw(NEEDS), draw(NEEDS), draw(st.floats(0.0, 50.0)), 1.0, 1.0)
    pv = prices(*(draw(st.floats(0.01, 10.0)) for _ in range(3)))
    budgets = Budgets(
        float(draw(st.integers(1, 300))), float(draw(st.integers(1, 500))),
        float(draw(st.integers(1, 60))),
    )
    return draw(st.integers(1, 10**4)), at, task, pv, budgets, UNIT, draw(st.sampled_from(OBJECTIVES))


@settings(max_examples=200, deadline=None)
@given(st.one_of(realize_cases(), wide_realize_cases()))
@example(_packaged(29700712291778.164, 399.0))
@example(_packaged(0.2970071229177817, 90.0, d_down_bits=1e-3))
def test_realization_by_widths_equals_the_per_cell_loops(case):
    # the same decision as the per-cell loops give the down x compute x
    # upload search, whose (k1 + k2) + k3 keys are unchanged
    n, at, task, pv, budgets, quanta, objective = case
    got = realize_schedule(n, at, task, pv, budgets, quanta, objective)
    with (
        mock.patch.object(solver, "_int_gen_best", int_gen_best_reference),
        mock.patch.object(solver, "_int_proc_candidates", int_proc_candidates_reference),
    ):
        expected = realize_schedule(n, at, task, pv, budgets, quanta, objective)
    assert repr(got) == repr(expected)


@settings(max_examples=150, deadline=None)
@given(st.one_of(realize_cases(), wide_realize_cases()))
# training raced or the transfers, and cost ties broken by time or by width
# spend, give different chains here
@example((11, attrs(0.5, 0.5), ConsumptionTask(8.0, 3.0, 1.0, 1.0, 1.0), prices(2.0, 1.0, 2.0), Budgets(9.0, 4.0, 4.0), UNIT, None))
def test_realization_keys_follow_the_schedule_objective(case):
    # the keys each side derives from a policy's schedule objective give
    # the decision of the (sensing, chain) pair the policy used to name
    n, at, task, pv, budgets, quanta, _ = case
    for policy in Policy:
        got = realize_with_policy(policy, SolveInput(n, at, task, pv, budgets, quanta))
        pair = REALIZE_PAIRS[policy.value]

        def key(raced, kind, *rest):
            return part_key_reference(pair[kind in solver.CHAIN], kind, *rest)

        with mock.patch.object(solver, "_part_key", key):
            expected = realize_schedule(n, at, task, pv, budgets, quanta)
        assert repr(got) == repr(expected), policy


def test_budget_time_price_that_overflows_leaves_its_candidate_infeasible():
    # the budget's tau (sum(root) / rem)**2 overflows: it is inf, its free
    # leg gets the width inf, and the boxed training leg carries the chain
    task = ConsumptionTask(1.0, 0.0, 1.0, 1.0, 1.0)
    budgets, pv = Budgets(1.000001, 1.0, 1e308), prices(1.0, 1.0, 1e308)
    procs = _consumption_processes(1, task, pv, budgets, UNIT)
    splits, cost, active = _enumerate_consumption(procs, pv.time, budgets.time_cells)
    assert active == {COMPUTE}
    assert splits[COMPUTE] == (1e-308, 1e308)
    assert splits[DOWN_BANDWIDTH] == (1.0, 1.0)
    # training 1e308 cells wide at the price 1e308 costs past the float
    # range, so the solve has no schedule to report
    assert cost == math.inf
    assert solve(1, 1.0, 0.0, budgets, task=task, pv=pv).kind == OutcomeKind.INFEASIBLE


@pytest.mark.parametrize("cost", [math.inf, math.nan])
def test_a_cost_that_is_not_a_finite_float_is_infeasible(cost):
    out = solver.solved(ScheduleDecision(), cost, (5, 2), frozenset({COMPUTE}))
    assert (out.kind, out.decision, out.cost, out.mtv, out.mutv) == (OutcomeKind.INFEASIBLE, None, None, 5, 2)
    assert out.active_constraints == frozenset()
    assert solver.solved(ScheduleDecision(), 0.0, (5, 2)).kind == OutcomeKind.OPTIMAL


def test_bound_squares_that_overflow_bound_nothing():
    # libm `pow` where the square is finite, inf where it overflows
    for x in (0.0, 3.0, 1e-200, 1e154, 1.3407807929942596e154, math.inf):
        assert repr(solver._square(x)) == repr(x**2)
    assert solver._square(1e200) == math.inf
    task = ConsumptionTask(1e7, 1e7, 50.0, 12.0, 8.0)
    cases = [
        # (a + b * band)**2 of the sensing side
        (StatusAttributes(1.0, 1e300), Budgets(10.0, 400.0, 10.0)),
        # the chain's slack squared
        (StatusAttributes(10.0, 0.0), Budgets(1e200, 400.0, 10.0)),
    ]
    for at, budgets in cases:
        n_unc = mutv(at, task, PriceVector(), budgets)
        assert isinstance(n_unc, int) and 1 <= n_unc <= mtv(at, task, budgets)


# floor inputs: the infinities, nan, -0.0, values a hair under an integer
# (the tolerance lifts some of them over it), 2**53 + 1 rounded, 1e308, the
# sentinel, and the largest float, whose tolerance overflows
_FLOOR_VALUES = (
    st.floats()
    | st.sampled_from(
        [math.inf, -math.inf, math.nan, -0.0, 0.0, float(2**53 + 1), 1e308, -1.0, 1.7976931348623157e308]
    )
    | st.integers(-(10**6), 10**6).map(lambda k: math.nextafter(k, -math.inf))
    | st.integers(-(10**6), 10**6).map(lambda k: k - 0.5e-9 * max(1, abs(k)))
)


def _floors_or_error(pairs):
    """`_floor_tol(min(gen, cons))` client by client, or the sentinel where
    cons is; the first error's type where one raises."""
    out = []
    for gen, cons in pairs:
        if cons == solver.INFEASIBLE_SENTINEL:
            out.append(solver.INFEASIBLE_SENTINEL)
            continue
        try:
            out.append(solver._floor_tol(min(gen, cons)))
        except (ValueError, OverflowError) as err:
            return type(err)
    return [(type(x), repr(x)) for x in out]


@settings(max_examples=500, deadline=None)
@example([(math.nan, 5.0), (1.7976931348623157e308, 1.7976931348623157e308)])
@example([(1.7976931348623157e308, math.inf), (math.nan, 5.0)])
@example([(math.nan, -1.0), (float(2**53 + 1), math.inf), (-0.0, 0.0), (4.9999999995, 7.0)])
@given(st.lists(st.tuples(_FLOOR_VALUES, _FLOOR_VALUES), min_size=1, max_size=8))
def test_fleet_floor_equals_floor_tol_per_client(pairs):
    want = _floors_or_error(pairs)
    gen, cons = (np.array(column, dtype=float) for column in zip(*pairs))
    with np.errstate(all="ignore"):
        if isinstance(want, type):
            with pytest.raises(want):
                solver._fleet_floor(gen, cons)
        else:
            assert [(type(x), repr(x)) for x in solver._fleet_floor(gen, cons)] == want
