import numpy as np
import pytest

from mfpsim.baselines import (
    POLICIES,
    Policy,
    SelectionMetrics,
    schedule_with_policy,
    select_clients,
)
from mfpsim.costs import ConsumptionTask, PriceVector
from mfpsim.market import ClientQuote
from mfpsim.resource_pool import ResourceQuanta
from mfpsim.scenario import StatusAttributes
from mfpsim.solver import Budgets, OutcomeKind, SolveInput, constrained_schedule, mtv

from oracles import curve_from_samples

UNIT = ResourceQuanta(1.0, 1.0, 1.0)


def attrs(a, b):
    return StatusAttributes(a=a, b=b)


def quote(cid, rate=0.05, mtv_=10, first_marginal=0.1):
    samples = [first_marginal * n for n in range(mtv_ + 1)]
    return ClientQuote(cid, mtv_, mtv_, rate, curve_from_samples(samples))


def metric(comm=1.0, comp=1.0, sense=1.0, targets=5, rate=2.0):
    return SelectionMetrics(comm, comp, sense, targets, rate)


def test_policy_table_covers_every_policy():
    assert set(POLICIES) == set(Policy)


class TestSelection:
    def test_select_all_under_every_policy(self):
        quotes = [quote("a"), quote("b"), quote("c")]
        metrics = {q.client_id: metric() for q in quotes}
        for policy in Policy:
            if POLICIES[policy].rank is not None:
                assert sorted(select_clients(policy, quotes, metrics, 3)) == ["a", "b", "c"]

    def test_unranked_policy_selects_nobody(self):
        quotes = [quote("a"), quote("b")]
        metrics = {q.client_id: metric() for q in quotes}
        for policy in Policy:
            if POLICIES[policy].rank is None:
                with pytest.raises(ValueError, match="no selection ranking"):
                    select_clients(policy, quotes, metrics, 1)

    def test_zero_latency_client_first_under_ml_c(self):
        quotes = [quote("a"), quote("b")]
        metrics = {"a": metric(comm=5.0), "b": metric(comm=0.0)}
        assert select_clients(Policy.ML_C, quotes, metrics, 1)[0] == "b"

    def test_ml_variants_add_latency_terms(self):
        quotes = [quote("a"), quote("b")]
        # b wins on comm alone but loses once compute+sensing are counted
        metrics = {
            "a": metric(comm=2.0, comp=1.0, sense=1.0),
            "b": metric(comm=1.0, comp=5.0, sense=5.0),
        }
        assert select_clients(Policy.ML_C, quotes, metrics, 1) == ["b"]
        assert select_clients(Policy.ML_CC, quotes, metrics, 1) == ["a"]
        assert select_clients(Policy.ML_SCC, quotes, metrics, 1) == ["a"]

    def test_mp_tsc_ranks_by_target_product(self):
        quotes = [quote("a"), quote("b")]
        metrics = {"a": metric(targets=10, rate=1.0), "b": metric(targets=2, rate=3.0)}
        assert select_clients(Policy.MP_TSC, quotes, metrics, 1) == ["a"]

    def test_oversubscription_rejected(self):
        with pytest.raises(ValueError):
            select_clients(Policy.ML_C, [quote("a")], {"a": metric()}, 2)


def solve_input(n, a=2.0, b=1.0, budgets=None, task=None, pv=None):
    return SolveInput(
        n,
        attrs(a, b),
        task or ConsumptionTask(4, 4, 0.5, 1.0, 1.0),
        pv or PriceVector(time=1.0, freq=0.5, compute=0.5),
        budgets or Budgets(6, 4, 4),
        UNIT,
    )


class TestPolicySchedules:
    def test_cost_policies_match_solver(self):
        inp = solve_input(10)
        ref = constrained_schedule(inp)
        for policy in (Policy.SISCC, Policy.WISCC, Policy.ML_C, Policy.MP_TSC):
            got = schedule_with_policy(policy, inp)
            assert got.cost == pytest.approx(ref.cost)

    def test_mc_t_minimizes_time_at_cost_premium(self):
        inp = solve_input(10)
        fast = schedule_with_policy(Policy.MC_T, inp)
        ref = constrained_schedule(inp)
        assert fast.kind == OutcomeKind.OPTIMAL
        assert fast.decision.time_cells <= ref.decision.time_cells + 1e-9
        assert fast.cost >= ref.cost - 1e-9
        # widths all maxed
        assert fast.decision.comm_down.b == pytest.approx(4)
        assert fast.decision.comp.f == pytest.approx(4)

    def test_no_schedule_beats_mc_t_on_time(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            inp = solve_input(
                int(rng.integers(1, 20)),
                a=float(rng.uniform(0.5, 4)),
                b=float(rng.uniform(0.1, 2)),
            )
            cap = mtv(inp.attrs, inp.task, inp.budgets, UNIT)
            if inp.n > cap:
                continue
            fast = schedule_with_policy(Policy.MC_T, inp)
            ref = constrained_schedule(inp)
            assert fast.decision.time_cells <= ref.decision.time_cells + 1e-9

    def test_mc_fc_minimizes_width_spend(self):
        inp = solve_input(10)
        lean = schedule_with_policy(Policy.MC_FC, inp)
        ref = constrained_schedule(inp)
        width_spend = lambda d: 0.5 * (d.freq_cells + d.compute_cells)
        assert width_spend(lean.decision) <= width_spend(ref.decision) + 1e-9
        assert lean.cost >= ref.cost - 1e-9

    def test_mlpg_saturates_at_capacity(self):
        inp = solve_input(0)
        cap = int(mtv(inp.attrs, inp.task, inp.budgets, UNIT))
        out = schedule_with_policy(Policy.MLPG, solve_input(cap))
        assert out.kind == OutcomeKind.OPTIMAL
        assert out.decision.comm_down.b == pytest.approx(4)
        assert schedule_with_policy(Policy.MLPG, solve_input(cap + 1)).kind == (
            OutcomeKind.INFEASIBLE
        )

    def test_comm_opt_pins_transfer_width(self):
        inp = solve_input(10)
        out = schedule_with_policy(Policy.COMM_OPT, inp)
        assert out.decision.comm_down.b == pytest.approx(4)
        assert out.decision.comm_up.b == pytest.approx(4)
        assert out.cost >= constrained_schedule(inp).cost - 1e-9

    def test_comm_opt_without_transfers_degenerates(self):
        inp = solve_input(10, task=ConsumptionTask(0, 0, 1.0, 1.0, 1.0))
        out = schedule_with_policy(Policy.COMM_OPT, inp)
        assert out.cost == pytest.approx(constrained_schedule(inp).cost)

    def test_comp_opt_pins_compute_width(self):
        inp = solve_input(10)
        out = schedule_with_policy(Policy.COMP_OPT, inp)
        assert out.decision.comp.f == pytest.approx(4)

    def test_sens_opt_fastest_sensing(self):
        inp = solve_input(10)
        out = schedule_with_policy(Policy.SENS_OPT, inp)
        assert out.decision.gen.b_ws == pytest.approx(4)
        ref = constrained_schedule(inp)
        assert out.decision.gen.t_vs <= ref.decision.gen.t_vs + 1e-9

    def test_all_policies_respect_constraints(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            inp = solve_input(
                int(rng.integers(1, 15)),
                a=float(rng.uniform(0.5, 4)),
                b=float(rng.uniform(0.1, 2)),
            )
            cap = mtv(inp.attrs, inp.task, inp.budgets, UNIT)
            if inp.n > cap:
                continue
            for policy in Policy:
                out = schedule_with_policy(policy, inp)
                assert out.kind == OutcomeKind.OPTIMAL, (policy, inp.n)
                d = out.decision
                assert d.gen.t_vs <= inp.budgets.time_cells + 1e-9
                assert d.gen.b_ws <= inp.budgets.freq_cells + 1e-9
                assert d.consumption_time <= inp.budgets.time_cells + 1e-9
                assert max(d.comm_down.b, d.comm_up.b) <= inp.budgets.freq_cells + 1e-9
                assert d.comp.f <= inp.budgets.compute_cells + 1e-9
                produced = inp.attrs.a * d.gen.t_vs + inp.attrs.b * d.gen.t_ws * d.gen.b_ws
                assert produced >= inp.n - 1e-6
                # cost-optimal solve is the floor for every policy
                assert out.cost >= constrained_schedule(inp).cost - 1e-9


@pytest.mark.parametrize("policy", [Policy.MC_T, Policy.COMP_OPT])
def test_policy_schedule_whose_cost_leaves_the_float_range_is_infeasible(policy):
    # training at its box of 1e308 cells, at the compute price 1e308, costs inf
    inp = SolveInput(
        1, attrs(1.0, 0.0), ConsumptionTask(1.0, 0.0, 1.0, 1.0, 1.0),
        PriceVector(compute=1e308), Budgets(2.0, 1.0, 1e308), UNIT,
    )
    out = schedule_with_policy(policy, inp)
    assert (out.kind, out.decision, out.cost) == (OutcomeKind.INFEASIBLE, None, None)
