import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpsim.costs import ConsumptionTask, PriceVector
from mfpsim.resource_pool import ResourceQuanta
from mfpsim.scenario import StatusAttributes
from mfpsim.solver import (
    COMPUTE,
    CONS_TIME,
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
    consumption_by_multiplier,
    consumption_grid_min,
    enumerate_consumption_reference,
    gen_grid_min,
    total_min_cost_unconstrained,
)

UNIT = ResourceQuanta(time_s=1.0, freq_hz=1.0, compute_cycles_per_s=1.0)
ZERO_TASK = ConsumptionTask(0, 0, 0, 1, 1)


def attrs(a, b):
    return StatusAttributes(a=a, b=b, label_dist=None)


def prices(t=1.0, b=1.0, f=1.0):
    return PriceVector(time=t, freq=b, compute=f)


def solve(n, a, b, budgets, task=ZERO_TASK, pv=None, quanta=UNIT, explain=False):
    return constrained_schedule(
        SolveInput(n, attrs(a, b), task, pv or prices(), budgets, quanta), explain=explain
    )


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
    assert g.t_vs <= budgets.t_budget + 1e-9
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
    assert d.consumption_time <= budgets.t_budget * (1 + 1e-9) + 1e-9
    assert max(d.comm_down.b, d.comm_up.b) <= budgets.freq_cells + 1e-9
    assert d.comp.f <= budgets.compute_cells + 1e-9
    assert out.cost == pytest.approx(d.cost(pv), rel=1e-12)


def oracle_total(n, at, task, pv, budgets, grid=300):
    gen_ref, gen_step = gen_grid_min(
        n, at.a, at.b, budgets.t_budget, budgets.gen_bandwidth, pv.time, pv.freq, grid
    )
    if gen_ref is None:
        return None, 0.0
    procs = _consumption_processes(n, task, pv, budgets, UNIT)
    vols = [p.volume for p in procs]
    wmax = [p.width_max for p in procs]
    wprices = [p.width_price for p in procs]
    cons_ref, cons_step = consumption_grid_min(vols, wmax, pv.time, wprices, budgets.t_budget, grid)
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
        out = solve(4, 1, 1, Budgets(1, 10, 5), explain=True)
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
                if x > budgets.t_budget + 1e-12:
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

        out = solve(4, 1, 1, Budgets(1, 10, 5), explain=True)
        blob = json.dumps(out.to_json_dict())
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
    # the full enumeration is the only caller of _box_sets.  With these
    # prices the smallest cost gap, 0.316 * d**2 for the upload box, clears
    # 1e-9 from d of about 5.6e-5 on; a budget just under the box-free chain
    # time leaves that chain feasible but ties it with the budget's tau
    calls = []
    box_sets = solver._box_sets
    monkeypatch.setattr(solver, "_box_sets", lambda *a: calls.append(a) or box_sets(*a))
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
            del calls[:]
            _assert_same_as_reference((procs, 1.0, t_budget, frozenset()))
            enumerated.append(bool(calls))
            expected.append(d < 5e-5 or t_budget < chain_time)
    assert enumerated == expected
    assert True in enumerated and False in enumerated


def test_subnormal_wireless_coefficient_solves_and_realizes():
    # b * time_price and b * t_max underflow to 0 for b = 5e-324
    budgets = Budgets(4.0, 5.0, 5.0, cycle_cells=0.4)
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
            assert g.t_vs <= budgets.t_budget and g.b_ws <= budgets.gen_bandwidth
            chain_t = q.comm_down.t + q.comp.t + q.comm_up.t
            assert chain_t <= budgets.t_budget
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
            if chain_cells <= budgets.t_budget:  # naive rounding must be feasible
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
