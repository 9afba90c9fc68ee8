import collections
import itertools
import logging
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from mfpsim.baselines import POLICIES, Policy
from mfpsim.config import load_config
from mfpsim.costs import ConsumptionTask, PriceVector
from mfpsim.errors import GainShortfallError
from mfpsim.market import (
    _DIP_SLACK,
    ClientQuote,
    CostCurve,
    allocate_workloads,
    build_report,
    loses,
    saturated_load,
    _CHUNK,
    _span,
)
from mfpsim.resource_pool import ResourceQuanta
from mfpsim.runner import run
from mfpsim.scenario import StatusAttributes
from mfpsim.solver import Budgets, SolveInput, constrained_schedule, mtv

import mfpsim.market as market
import mfpsim.runner as runner
from oracles import (
    _allocation_welfare,
    allocate_workloads_reference,
    allocation_endpoints,
    allocation_exhaustive,
    curve_from_samples,
    saturated_allocation_reference,
    settlement_findings,
    streak_span_reference,
)
from test_golden import BENCH

UNIT = ResourceQuanta(1.0, 1.0, 1.0)


def certified_curve(samples):
    """A cost curve over a fixed non-decreasing table, vouched for as one
    segment, so that the market may grant streaks on it."""
    return CostCurve(lambda n: (samples[n], 0), len(samples) - 1)


def quote(cid, rate, samples):
    return ClientQuote(
        client_id=cid,
        mtv=len(samples) - 1,
        mutv=len(samples) - 1,
        gain_rate=rate,
        curve=certified_curve(samples),
    )


class CountingCurve(CostCurve):
    """A fixed table's curve counting its `cost` calls; the segment None
    vouches for no streak, so the market grants one sample at a time.
    `segment` labels every load, or is a function of the load."""

    def __init__(self, samples, counter, segment=0):
        label = segment if callable(segment) else lambda n: segment
        super().__init__(lambda n: (samples[n], label(n)), len(samples) - 1)
        self._counter = counter

    def cost(self, n):
        self._counter[0] += 1
        return super().cost(n)


def quadratic_curve(mtv, lin, quad):
    return [lin * n + quad * n * n for n in range(mtv + 1)]


class TestPayments:
    def report(self, workloads, costs, sample=2.0, gain=10.0, alpha=1.0, beta=1.0):
        quotes = {"a": quote("a", 0.5, [0.0] * 101), "b": quote("b", 0.25, [0.0] * 101)}
        return build_report(quotes, workloads, costs, PriceVector(sample=sample, gain=gain), alpha, beta)

    def test_app_payment(self):
        assert self.report({}, {}).app_payment == 0.0
        assert self.report({"a": 5}, {"a": 0.0}).app_payment == pytest.approx(25.0)
        assert self.report({"a": 5}, {"a": 0.0}, gain=20.0).app_payment == pytest.approx(50.0)

    def test_client_payment(self):
        report = self.report({"a": 100, "b": 0}, {"a": 30.0})
        assert report.client_payments == {"a": pytest.approx(200.0)}
        assert report.client_profits == {"a": pytest.approx(170.0)}

    def test_social_welfare(self):
        # gain 2.5 pays 25, the client earns 10 at cost 8: server 15, clients 2
        report = self.report({"a": 5}, {"a": 8.0})
        assert report.welfare == pytest.approx(17.0)
        assert self.report({"a": 5}, {"a": 8.0}, beta=0.0).welfare == pytest.approx(15.0)
        assert self.report({}, {}).welfare == 0.0

    def test_totals_are_the_sums_in_dict_order(self):
        costs = {"b": 0.1, "a": 0.2}
        report = self.report({"b": 3, "a": 7}, costs, sample=0.1)
        assert report.payments_total == sum(report.client_payments.values())
        assert report.costs_total == sum(costs.values())
        assert report.welfare == report.server_profit + (report.payments_total - report.costs_total)


@pytest.mark.parametrize(
    "n, cost, loss",
    [
        (4, 1.0, False),
        (4, 0.5, False),
        (4, 1.5, True),
        # no sample at cost -p leaves the profit p exactly
        (0, 0.0, False),
        (0, 1e-9, False),
        (0, -math.nextafter(-1e-9, -math.inf), True),
    ],
)
def test_loses_is_a_loss_beyond_the_tolerance(n, cost, loss):
    assert loses(n, cost, PriceVector(sample=0.25, gain=1.0)) is loss


class TestAllocate:
    def prices(self, sample=1.0, gain=100.0):
        return PriceVector(sample=sample, gain=gain)

    def test_identical_clients_cap_one_concentrates_by_id(self):
        curve = quadratic_curve(20, 0.1, 0.0)
        quotes = [quote("c2", 0.05, curve), quote("c1", 0.05, curve)]
        alloc, report = allocate_workloads(
            quotes, self.prices(), gain_floor=0.5, gain_window=10.0, max_active=1
        )
        assert set(alloc.workloads) == {"c1"}
        assert alloc.workloads["c1"] >= 10
        assert settlement_findings(report, 1.0, 1.0) == []

    def test_cheaper_client_receives_at_least_as_much(self):
        cheap = quote("a", 0.05, quadratic_curve(20, 0.1, 0.01))
        dear = quote("b", 0.05, quadratic_curve(20, 0.3, 0.02))
        alloc, _ = allocate_workloads(
            [cheap, dear], self.prices(), gain_floor=1.0, gain_window=5.0, max_active=2
        )
        assert alloc.workloads.get("a", 0) >= alloc.workloads.get("b", 0)

    def test_zero_floor_negative_marginals_empty(self):
        # per-sample payment below marginal cost and gain revenue below payment
        expensive = quote("a", 0.01, quadratic_curve(10, 5.0, 0.0))
        alloc, report = allocate_workloads(
            [expensive], PriceVector(sample=1.0, gain=1.0), 0.0, 100.0, 1
        )
        assert alloc.workloads == {}
        assert report.welfare == 0.0

    def test_floor_unreachable_raises(self):
        q = quote("a", 0.1, quadratic_curve(5, 0.1, 0.0))
        with pytest.raises(GainShortfallError) as err:
            allocate_workloads([q], self.prices(), gain_floor=10.0, gain_window=1.0, max_active=1)
        assert err.value.reason == "floor out of reach"

    def test_window_overshoot_is_error(self):
        # each grant adds 1.0 gain; the window [0.5, 0.9) can never be hit
        q = quote("a", 1.0, quadratic_curve(5, 0.01, 0.0))
        with pytest.raises(GainShortfallError):
            allocate_workloads([q], self.prices(), gain_floor=0.5, gain_window=0.4, max_active=1)

    def test_gain_lands_in_window(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            quotes = [
                quote(
                    f"c{i}",
                    float(rng.uniform(0.02, 0.2)),
                    quadratic_curve(30, float(rng.uniform(0, 0.3)), float(rng.uniform(0, 0.02))),
                )
                for i in range(4)
            ]
            floor = float(rng.uniform(0.5, 3.0))
            alloc, report = allocate_workloads(
                quotes, self.prices(), floor, gain_window=50.0, max_active=3
            )
            assert floor - 1e-9 <= report.gain < floor + 50.0
            assert len(alloc.workloads) <= 3
            assert settlement_findings(report, 1.0, 1.0) == []

    def test_rationality_removal_reallocates(self):
        # b's costs exceed any payment it could receive; load must land on a
        loser_curve = [0.0] + [100.0 + n for n in range(1, 21)]
        quotes = [quote("a", 0.05, quadratic_curve(20, 0.1, 0.0)), quote("b", 0.05, loser_curve)]
        alloc, report = allocate_workloads(
            quotes, self.prices(), gain_floor=0.5, gain_window=10.0, max_active=2
        )
        assert "b" not in alloc.workloads
        assert alloc.workloads.get("a", 0) >= 10
        assert all(p >= -1e-9 for p in report.client_profits.values())

    def test_greedy_matches_exhaustive_on_convex_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n_clients = int(rng.integers(1, 4))
            quotes = []
            raw = []
            for i in range(n_clients):
                m = int(rng.integers(3, 9))
                lin = float(rng.uniform(0.05, 0.5))
                quad = float(rng.uniform(0.0, 0.05))
                rate = float(rng.uniform(0.05, 0.3))
                samples = quadratic_curve(m, lin, quad)
                quotes.append(quote(f"c{i}", rate, samples))
                raw.append((rate, m, samples))
            floor = float(rng.uniform(0.0, 0.6))
            window = 1e6  # slack ceiling: the claim is about the relaxed problem
            cap = n_clients  # a binding cap turns this into subset selection
            prices = self.prices(sample=1.0, gain=float(rng.uniform(1.0, 30.0)))
            ref = allocation_exhaustive(raw, prices.sample, prices.gain, floor, floor + window, cap, 1.0, 1.0)
            try:
                _, report = allocate_workloads(quotes, prices, floor, window, cap)
            except GainShortfallError:
                # greedy may strand capacity the oracle can reach; only flag
                # cases the oracle also finds infeasible
                continue
            assert ref is not None
            max_step = max(
                abs(1.0 * (prices.gain * r - prices.sample) + (prices.sample - (s[n + 1] - s[n])))
                for r, m, s in raw
                for n in range(m)
            )
            assert report.welfare >= ref[0] - max_step - 1e-9

    def test_report_identities_recompute(self):
        quotes = [quote("a", 0.05, quadratic_curve(30, 0.2, 0.005))]
        alloc, report = allocate_workloads(
            quotes, self.prices(), gain_floor=0.8, gain_window=5.0, max_active=1
        )
        n = alloc.workloads["a"]
        assert report.app_payment == pytest.approx(100.0 * report.gain, rel=1e-12)
        assert report.client_payments["a"] == pytest.approx(1.0 * n, rel=1e-12)
        assert report.server_profit == pytest.approx(
            report.app_payment - sum(report.client_payments.values()), rel=1e-12
        )
        assert report.welfare == pytest.approx(
            report.server_profit + sum(report.client_profits.values()), rel=1e-12
        )

    def test_more_pool_capacity_never_hurts_welfare(self):
        att = StatusAttributes(a=2.0, b=1.0)
        task = ConsumptionTask(10, 10, 1.0, 1.0, 1.0)
        pv = PriceVector(time=0.2, freq=0.1, compute=0.1, sample=1.0, gain=50.0)

        def solver_quote(cid, budgets):
            cap = int(mtv(att, task, budgets, UNIT))
            fn = lambda n: (
                constrained_schedule(SolveInput(n, att, task, pv, budgets, UNIT)).cost, None
            )
            return ClientQuote(cid, cap, 0, 0.05, CostCurve(fn, cap))

        small = [solver_quote("a", Budgets(6, 4, 4))]
        big = [solver_quote("a", Budgets(12, 8, 8))]
        _, r_small = allocate_workloads(small, pv, 0.15, 20.0, 1)
        _, r_big = allocate_workloads(big, pv, 0.15, 20.0, 1)
        assert r_big.welfare >= r_small.welfare - 1e-9

    def test_near_tie_goes_to_the_scan_pick_not_the_largest_marginal(self):
        # b's first marginal beats a's by 5e-10, inside the 1e-9 tie window,
        # so the id-ordered scan opens a: the largest marginal is no clear pick.
        # With one admissible client the greedy fills a alone (8 samples) and
        # the gain-saturated start, b at its capacity of 30, wins; opening b
        # would stop b at 20 samples, which that start no longer beats.
        def convex(first, step, cap):
            costs = [0.0]
            for n in range(cap):
                costs.append(costs[-1] + first + step * n)
            return costs

        quotes = [
            quote("a", 0.05, convex(1.0, 0.5, 10)),
            quote("b", 0.05, convex(1.0 - 5e-10, 0.2, 30)),
        ]
        prices = self.prices(sample=5.0)
        alloc, report = allocate_workloads(quotes, prices, 0.05, 10.0, 1)
        assert alloc.workloads == {"b": 30}
        assert settlement_findings(report, 1.0, 1.0) == []
        assert (alloc, report) == allocate_workloads_reference(quotes, prices, 0.05, 10.0, 1)

    def plain(self, cid, rate, marginals, curve=curve_from_samples):
        """A quote on a curve with the given marginal costs; by default costs
        in no segment, which vouch for no streak, so each grant is a scan's
        or the leader's (`certified_curve` vouches for streaks)."""
        costs = [0.0]
        for m in marginals:
            costs.append(costs[-1] + m)
        return ClientQuote(cid, len(marginals), len(marginals), rate, curve(costs))

    def test_leader_within_the_tie_window_of_its_runner_up_yields_to_the_scan(self):
        # b leads a (welfare 0.9 against 0.5) for 10 samples; then b's marginal
        # welfare is 5e-10 above a's, inside the tie window, so the scan's
        # id-order pick, a, takes every grant up to the ceiling
        quotes = [
            self.plain("a", 0.01, [0.5] * 100),
            self.plain("b", 0.01, [0.1] * 10 + [0.5 - 5e-10] * 50),
        ]
        case = (quotes, self.prices(), 0.3, 0.25, 2)
        got = allocate_workloads(*case)
        assert got[0].workloads == {"a": 44, "b": 10}
        assert repr(got) == repr(allocate_workloads_reference(*case))

    def test_leader_holds_while_its_runner_up_closes(self):
        # b leads r (0.9 against 0.4, falling by 0.019 a sample); r's larger
        # gain rate closes it at the ceiling after b's 25th sample, and b keeps
        # the grant; past 0.4 the scan finds b still clear of a (0.2)
        quotes = [
            self.plain("a", 0.01, [0.8] * 40),
            self.plain("b", 0.01, [0.1 + 0.019 * n for n in range(40)]),
            self.plain("r", 0.05, [4.6] * 10),
        ]
        case = (quotes, self.prices(), 0.1, 0.2, 3)
        got = allocate_workloads(*case)
        assert got[0].workloads == {"b": 29}
        assert repr(got) == repr(allocate_workloads_reference(*case))

    def test_a_run_cut_where_an_excluded_client_first_led(self):
        # b's and a's marginal welfares tie (0.5), c's is 0.8e-9 above them
        # and d's 1.5e-9: d beats a and b, c beats neither, and c keeps every
        # pick from being clear, so each grant is a scan's.  d takes 80 in a
        # row; a, with the larger rate, closes on the ceiling after d's 50th,
        # so b first leads at the scan of grant 50, inside d's run.  b ends
        # at a loss, and the next pass restores the state of that scan, d's
        # first 50 grants at their own gain: without b the scan picks c,
        # which takes 30 before its marginal turns negative, and d tops up
        # to the ceiling.  Restoring all 80 of d's grants, or their gain,
        # leaves c 19.
        quotes = [
            self.plain("a", 0.5, [49.5] * 10),
            self.plain("b", 0.03, [2.5] * 10),
            self.plain("c", 0.01, [0.5 - 0.8e-9] * 30 + [5.0] * 30),
            self.plain("d", 0.01, [0.5 - 1.5e-9] * 80),
        ]
        case = (quotes, self.prices(), 0.2, 0.8, 4)
        got = allocate_workloads(*case)
        assert got[0].workloads == {"c": 30, "d": 69}
        assert repr(got) == repr(allocate_workloads_reference(*case))

    def test_a_tie_scan_after_a_clear_streak_remembers_each_running_best(self, caplog):
        # the market above, behind a clear leader e (0.9) that first takes
        # its 10 samples in a streak, on curves that vouch for streaks.  The
        # ties keep every later scan from being clear, so each remembers all
        # its running bests: b first leads at grant 60, inside d's run, and
        # the pass that excludes b resumes there
        quotes = [
            self.plain("a", 0.5, [49.5] * 10, certified_curve),
            self.plain("b", 0.03, [2.5] * 10, certified_curve),
            self.plain("c", 0.01, [0.5 - 0.8e-9] * 30 + [5.0] * 30, certified_curve),
            self.plain("d", 0.01, [0.5 - 1.5e-9] * 80, certified_curve),
            self.plain("e", 0.01, [0.1] * 10, certified_curve),
        ]
        case = (quotes, self.prices(), 0.3, 0.8, 5)
        with caplog.at_level(logging.DEBUG, logger="mfpsim"):
            got = allocate_workloads(*case)
        assert got[0].workloads == {"c": 30, "d": 69, "e": 10}
        assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("rationality")] == [
            "rationality pass excludes b: resumes from grant 60"
        ]
        assert repr(got) == repr(allocate_workloads_reference(*case))

    def test_a_clear_leader_is_not_replayed_for_clients_that_led_before_it(self, monkeypatch, caplog):
        # the first scan's running bests are a (0.4), b (0.5) and c, whose
        # 1.9 is a clear lead: c's streak takes its 100 samples.  Then b,
        # and in the next pass a, fill the cap of two and end at a loss, as
        # their samples cost more than the price of 1.  Only a clear pick
        # remembers where it led, so each pass resumes past c's streak
        # instead of replaying it, and the last one opens d
        lookups, polished_at = [0], []

        def counting_polish(*args):
            polished_at.append(lookups[0])
            return polish(*args)

        polish = market._block_polish
        monkeypatch.setattr(market, "_block_polish", counting_polish)
        quotes = [
            self.plain("a", 0.01, [1.6] * 50, certified_curve),
            self.plain("b", 0.01, [1.5] * 50, certified_curve),
            ClientQuote("c", 100, 100, 0.01, CountingCurve([0.1 * n for n in range(101)], lookups)),
            self.plain("d", 0.01, [2.5] + [0.5] * 49, certified_curve),
        ]
        case = (quotes, self.prices(gain=200.0), 1.2, 0.5, 2)
        with caplog.at_level(logging.DEBUG, logger="mfpsim"):
            got = allocate_workloads(*case)
        assert got[0].workloads == {"c": 100, "d": 50}
        lines = [r.getMessage() for r in caplog.records]
        assert [line for line in lines if line.startswith(("streak c ", "rationality"))] == [
            "streak c from load 1: 99 samples, 7 probes, stopped at capacity",
            "rationality pass excludes b: resumes from grant 100",
            "rationality pass excludes a: resumes from grant 100",
        ]
        # the first pass's greedy looks c's curve up; the later lookups, by
        # the polish and the settlement, are no more (replaying the streak
        # in each pass took 72 against 40)
        assert lookups[0] - polished_at[0] <= polished_at[0]
        assert repr(got) == repr(allocate_workloads_reference(*case))

    def test_a_restored_state_counts_its_open_clients_against_the_cap(self):
        # a takes 5 (welfare 9.9), then b leads (4.5 a sample, a loss of 0.5
        # to b) and fills the cap of 2.  b is excluded, and the next pass
        # restores the state where b first led, a already open: c takes its
        # 10 and the cap keeps d, tied with c, closed
        quotes = [
            self.plain("a", 0.1, [0.1] * 5 + [100.0] * 5),
            self.plain("b", 0.06, [1.5] * 20),
            self.plain("c", 0.03, [0.5] * 10),
            self.plain("d", 0.03, [0.5] * 10),
        ]
        case = (quotes, self.prices(), 0.0, 100.0, 2)
        got = allocate_workloads(*case)
        assert got[0].workloads == {"a": 5, "c": 10}
        assert repr(got) == repr(allocate_workloads_reference(*case))

    def test_debug_lines_name_each_polish_move(self, caplog):
        # an activation cost makes the first marginal welfare negative, so
        # the greedy grants nothing; the whole load of 20 is worth 13, and
        # the polish moves there
        quote = self.plain("a", 0.01, [5.1] + [0.1] * 19)
        with caplog.at_level(logging.DEBUG, logger="mfpsim"):
            alloc, report = allocate_workloads([quote], self.prices(), 0.0, 10.0, 1)
        assert alloc.workloads == {"a": 20}
        assert settlement_findings(report, 1.0, 1.0) == []
        # the saturated start is the same load, so the greedy side keeps it
        assert [r.getMessage() for r in caplog.records] == [
            "greedy polish a from load 0 to 20",
            "saturated start: a 20",
            "greedy side decides: welfare 13.000000000000007 against 13.000000000000007",
        ]

    def contested(self, n_clients, curve):
        """Convex curves a few samples' welfare drop apart, so the lead
        changes hands every few grants."""
        return [
            ClientQuote(
                f"c{i:02d}", 400, 400, 0.01,
                curve(quadratic_curve(400, 0.1 + 0.01 * i, 0.002 + 1e-4 * i)),
            )
            for i in range(n_clients)
        ]

    def test_greedy_lookups_grow_with_grants_not_grants_times_clients(self):
        for n_clients in (10, 30):
            lookups = [0]
            quotes = self.contested(n_clients, lambda c: CountingCurve(c, lookups, segment=None))
            alloc, report = allocate_workloads(quotes, self.prices(), 5.0, 100.0, n_clients)
            assert settlement_findings(report, 1.0, 1.0) == []
            assert len(alloc.workloads) == n_clients  # nobody excluded: one greedy pass
            assert alloc.total_samples > 100 * n_clients
            # a rescan of every client's marginal per grant would need
            # 2 * clients lookups per grant
            assert lookups[0] <= 3 * (alloc.total_samples + n_clients)

    @pytest.mark.parametrize("segment", [None, 0])
    def test_each_marginal_is_priced_once_per_load(self, monkeypatch, segment):
        # a scan reprices only the clients whose load moved since they were
        # last priced: thirty bidders, one greedy pass, unit grants (the
        # segment None) or streaks
        priced = collections.Counter()

        def counting(q, *args):
            # the scan's pricing of a marginal, keyed by the load it prices
            caller = sys._getframe(1)
            if caller.f_code.co_name == "priced":
                priced[q.client_id, caller.f_locals["n"]] += 1
            return welfare(q, *args)

        welfare = market._welfare_of
        monkeypatch.setattr(market, "_welfare_of", counting)
        quotes = self.contested(30, lambda c: CountingCurve(c, [0], segment=segment))
        alloc, report = allocate_workloads(quotes, self.prices(), 5.0, 100.0, 30)
        assert len(alloc.workloads) == 30  # nobody excluded: one greedy pass
        assert sum(priced.values()) > 30
        assert max(priced.values()) == 1

    def test_contested_streak_probes_cost_few_solves(self):
        # the market above on curves that vouch for streaks: nearly every
        # batch offered fails, most at k = 2, whose probe c(n+2) the greedy
        # solves anyway once the client takes its next sample; about one
        # probe per client is a solve the unit greedy never makes
        for n_clients in (10, 30):
            solves, outcomes = {}, {}
            for segment in (None, 0):
                count = [0]

                def curve(costs):
                    def fn(n):
                        count[0] += 1
                        return costs[n], segment

                    return CostCurve(fn, len(costs) - 1)

                quotes = self.contested(n_clients, curve)
                outcomes[segment] = repr(allocate_workloads(quotes, self.prices(), 5.0, 100.0, n_clients))
                solves[segment] = count[0]
            assert outcomes[0] == outcomes[None]
            assert solves[0] <= solves[None] + 2 * n_clients

    def test_rationality_passes_restore_instead_of_rescanning(self, monkeypatch, caplog):
        # five cheap clients fill up first; the cap leaves room for one more,
        # and the saturated start opens one of the ten clients with an
        # activation cost to its capacity of 2 in each pass.  Its side wins on
        # welfare, but that client ends at a loss and is excluded: eleven
        # passes, and the greedy side decides the last
        polishes = [0]

        def counting_polish(*args):
            polishes[0] += 1
            return polish(*args)

        polish = market._block_polish
        monkeypatch.setattr(market, "_block_polish", counting_polish)
        lookups = [0]
        cheap = [0.5 * n for n in range(201)]
        dear = [0.0, 3.1, 3.2]
        quotes = [
            ClientQuote(f"a{i}", 200, 200, 0.01, CountingCurve(cheap, lookups))
            for i in range(5)
        ] + [
            ClientQuote(f"b{i}", 2, 2, 0.01, CountingCurve(dear, lookups))
            for i in range(10)
        ]
        prices = self.prices(gain=300.0)
        with caplog.at_level(logging.DEBUG, logger="mfpsim"):
            alloc, report = allocate_workloads(quotes, prices, 1.0, 100.0, 6)
        assert polishes[0] == 2 * 11
        cheap_start = ", ".join(f"a{i} 200" for i in range(5))
        passes = [
            [
                f"saturated start: {cheap_start}, b{i} 2",
                "saturated side decides: welfare 2502.8 against 2500.0",
                f"rationality pass excludes b{i}: resumes from grant 1000",
            ]
            for i in range(10)
        ]
        last = [f"saturated start: {cheap_start}", "greedy side decides: welfare 2500.0 against 2500.0"]
        lines = [r.getMessage() for r in caplog.records]
        # neither side's polish moves a load
        assert [line for line in lines if not line.startswith(("scan grant", "streak"))] == [
            line for lines in passes for line in lines
        ] + last
        assert alloc.workloads == {f"a{i}": 200 for i in range(5)}
        assert settlement_findings(report, 1.0, 1.0) == []
        # one greedy pass's worth (the bound of the test above) plus 10 per
        # client and pass for the scans after the restored state and the
        # polish; rerunning every pass from scratch takes about 22k
        assert lookups[0] <= 3 * (alloc.total_samples + len(quotes)) + 10 * len(quotes) * 11
        assert (alloc, report) == allocate_workloads_reference(quotes, prices, 1.0, 100.0, 6)


@st.composite
def markets(draw):
    """Small quote sets that exercise the rationality loop: activation costs
    that leave clients at a loss (several exclusion passes), shared curves and
    offsets below, at and above 1e-9 (tied and near-tied marginals), binding
    caps, zero gain rates, tight and wide gain windows."""
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        cap = draw(st.integers(1, 25))
        act = draw(st.sampled_from([0.0, 0.5, 2.0, 8.0]))
        lin = draw(st.floats(0.0, 2.0))
        quad = draw(st.floats(0.0, 0.1))
        shapes.append([0.0] + [act + lin * n + quad * n * n for n in range(1, cap + 1)])
    quotes = []
    for i in range(draw(st.integers(1, 7))):
        base = draw(st.sampled_from(shapes))
        tilt = draw(st.sampled_from([0.0, 0.0, 4e-10, 1e-9, 1.5e-9]))
        samples = [c + tilt * n for n, c in enumerate(base)]
        rate = draw(st.sampled_from([0.0, 0.02, 0.05, 0.05, 0.1]))
        quotes.append(quote(f"c{i}", rate, samples))
    prices = PriceVector(sample=1.0, gain=draw(st.floats(5.0, 80.0)))
    floor = draw(st.floats(0.0, 1.0))
    window = draw(st.floats(0.05, 10.0))
    cap = draw(st.integers(1, len(quotes)))
    return quotes, prices, floor, window, cap


def _outcome(allocate, case):
    try:
        return allocate(*case)
    except GainShortfallError as err:
        return type(err), err.reason


@settings(max_examples=400, deadline=None)
@given(markets())
def test_allocation_equals_from_scratch_reference(case):
    got = _outcome(allocate_workloads, case)
    ref = _outcome(allocate_workloads_reference, case)
    assert got == ref
    assert repr(got) == repr(ref)  # same floats bit for bit, same dict orders


@st.composite
def shaped_fleets(draw):
    """Up to three quotes as `allocation_exhaustive` takes them, each curve
    concave up to its mutv (an activation cost plus a square root) and
    convex past it (marginals that grow linearly), with their mutvs, and a
    market: (price_sample, price_gain, floor, ceiling, max_active, alpha,
    beta)."""
    quotes, mutvs = [], []
    for _ in range(draw(st.integers(1, 3))):
        top = draw(st.integers(1, 8))
        mutv = draw(st.integers(0, top))
        act, root = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 2.0))
        slope, bend = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 1.0))
        costs = [0.0]
        for n in range(1, top + 1):
            k = n - mutv
            if k <= 0:
                costs.append(act + root * math.sqrt(n))
            else:
                costs.append((costs[mutv] if mutv else act) + slope * k + bend * k * k)
        rate = draw(st.sampled_from([0.0]) | st.floats(0.01, 1.0))
        quotes.append((rate, top, costs))
        mutvs.append(mutv)
    floor = draw(st.just(0.0) | st.floats(0.0, 3.0))
    ceiling = floor + draw(st.floats(0.1, 5.0) | st.just(1e6))
    weights = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
    market_args = (1.0, draw(st.floats(0.5, 30.0)), floor, ceiling, draw(st.integers(1, 3)), *weights)
    return quotes, mutvs, market_args


# the ways an endpoint allocation is known to miss the exact optimum, by
# what the optimum holds: two clients strictly between 0 and their mtv, or
# one client whose next sample would break client or server rationality, or
# one whose welfare falls over its next sample, at its mutv or past it, or
# below it where its previous sample cannot go (the floor, rationality)
ENDPOINT_GAPS = {
    "two partial loads", "client rationality", "server rationality",
    "shape at mutv", "shape past mutv", "held below mutv",
}


def _endpoint_gap(quotes, mutvs, market_args, combo):
    """Why the optimum `combo` is no endpoint allocation."""
    partial = [i for i, (q, n) in enumerate(zip(quotes, combo)) if 0 < n < q[1]]
    if len(partial) != 1:
        return "two partial loads" if partial else "no partial load"
    j = partial[0]
    up, down = list(combo), list(combo)
    up[j] += 1
    down[j] -= 1
    if _allocation_welfare(quotes, up, *market_args) is not None:
        if combo[j] >= mutvs[j]:
            return "shape at mutv" if combo[j] == mutvs[j] else "shape past mutv"
        held = _allocation_welfare(quotes, down, *market_args) is None
        return "held below mutv" if held else "shape below mutv"
    price_sample, price_gain, _, ceiling = market_args[:4]
    gain = sum(q[0] * n for q, n in zip(quotes, up))
    if gain >= ceiling:
        return "ceiling"
    if price_sample * up[j] - quotes[j][2][up[j]] < -1e-9:
        return "client rationality"
    return "server rationality" if price_gain * gain - price_sample * sum(up) < -1e-9 else "other"


@settings(max_examples=300, deadline=None)
@given(shaped_fleets())
def test_endpoint_allocations_miss_the_exact_optimum_only_in_named_ways(fleet):
    """The endpoint enumeration is a subset of the exhaustive one, and where
    its best falls short of the optimum, the optimum's loads say why: a
    kind in ENDPOINT_GAPS.  A client's welfare term is convex below its
    mutv, so an optimum holds a client there only where its previous
    sample is not admissible, never for the shape alone."""
    quotes, mutvs, market_args = fleet
    exact = allocation_exhaustive(quotes, *market_args)
    ends = allocation_endpoints(quotes, *market_args)
    if ends is not None:
        assert exact is not None and ends[0] <= exact[0]
    if exact is not None and (ends is None or ends[0] < exact[0] - 1e-9):
        assert _endpoint_gap(quotes, mutvs, market_args, exact[1]) in ENDPOINT_GAPS


def _engine_outcome(quotes, mutvs, market_args):
    """`allocate_workloads` on a shaped fleet: its welfare report, or None
    on a gain shortfall."""
    price_sample, price_gain, floor, ceiling, max_active, alpha, beta = market_args
    engine_quotes = [
        ClientQuote(f"c{i}", top, mutv, rate, curve_from_samples(costs))
        for i, ((rate, top, costs), mutv) in enumerate(zip(quotes, mutvs))
    ]
    prices = PriceVector(sample=price_sample, gain=price_gain)
    try:
        return allocate_workloads(
            engine_quotes, prices, floor, ceiling - floor, max_active, alpha, beta
        )[1]
    except GainShortfallError:
        return None


@settings(max_examples=300, deadline=None)
@given(shaped_fleets())
def test_engine_welfare_never_exceeds_the_exact_optimum(fleet):
    """The engine's allocation is one of the admissible workload vectors
    `allocation_exhaustive` searches, so its welfare is at most the exact
    optimum's, up to rounding."""
    quotes, mutvs, market_args = fleet
    report = _engine_outcome(quotes, mutvs, market_args)
    if report is None:
        event("gain shortfall")
        return
    floor, ceiling = market_args[2:4]
    # the engine's window: it admits a gain 1e-9 short of the floor, and
    # its ceiling is floor + (ceiling - floor)
    exact = allocation_exhaustive(
        quotes, *market_args[:2], floor - 1e-9, floor + (ceiling - floor), *market_args[4:]
    )
    assert exact is not None
    assert report.welfare <= exact[0] + 1e-9
    event("optimal" if report.welfare >= exact[0] - 1e-9 else "below the optimum")


# one client whose second sample costs more than it is paid: the greedy
# grants both, the rationality pass then excludes the client whole, and
# the optimum, one sample, is lost; a window of 1.0 stops the greedy at
# one sample
LOSS_AT_TWO = {"rate": 0.953, "costs": [0.0, 0.354, 2.575], "sample": 1.0, "gain": 24.78,
               "floor": 2.2e-308, "window": 10.0}


def _loss_at_two(window):
    """(the engine's welfare, the exact optimum) of LOSS_AT_TWO at `window`."""
    c = LOSS_AT_TWO
    prices = PriceVector(sample=c["sample"], gain=c["gain"])
    _, report = allocate_workloads(
        [quote("c0", c["rate"], c["costs"])], prices, c["floor"], window, 1
    )
    exact = allocation_exhaustive(
        [(c["rate"], len(c["costs"]) - 1, c["costs"])], c["sample"], c["gain"],
        c["floor"] - 1e-9, c["floor"] + window, 1, 1.0, 1.0,
    )
    return report.welfare, exact


def test_the_loss_at_two_case_has_a_one_sample_optimum():
    welfare, exact = _loss_at_two(1.0)
    assert exact == _loss_at_two(LOSS_AT_TWO["window"])[1]
    assert exact[1] == (1,) and exact[0] == pytest.approx(23.26134, abs=1e-9)
    assert welfare == exact[0]


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the greedy loads the client past its rational load and the rationality pass "
    "drops it whole; ROADMAP item 19 makes client rationality a hard constraint",
)
def test_engine_keeps_the_rational_part_of_a_load_that_ends_at_a_loss():
    welfare, exact = _loss_at_two(LOSS_AT_TWO["window"])
    assert welfare == pytest.approx(exact[0], abs=1e-9)


def _tiny_market_runs():
    """Runs whose quotes `allocation_exhaustive` can search: one to three
    clients under every policy the market allocates for, both modes.  At
    5e5 cycles per sample the compute pool caps every mtv below 20; a
    sample price of 10 pays for that training, and a gain factor of 0.5 on
    a floor of 0.5 makes the floor reachable."""
    for policy in Policy:
        if POLICIES[policy].saturate:
            continue
        for seed, n_clients in itertools.product(range(3), (1, 2, 3)):
            yield {
                "seed": seed, "rounds": 2, "policy": policy.value,
                "mode": ("zeros", "serial")[seed % 2],
                "scenario": {"n_clients": n_clients, "n_targets": 10},
                "task": {"cycles_per_sample": 5e5},
                "prices": {"sample": 10.0},
                "market": {"gain_factor": 0.5, "gain_floor": 0.5, "gain_window": 4.0},
            }


def test_engine_welfare_on_runner_quotes_never_exceeds_the_exact_optimum(monkeypatch):
    # the curves `run()` quotes, with their segments and fallback dips, on
    # the markets it allocates; the gap below the optimum is ROADMAP item 9's
    calls = []

    def capture(*args):
        calls.append(args)
        return allocate_workloads(*args)

    monkeypatch.setattr(runner, "allocate_workloads", capture)
    for raw in _tiny_market_runs():
        run(load_config(raw))
    assert len(calls) > 100
    allocated = 0
    for quotes, prices, floor, window, max_active, alpha, beta in calls:
        assert all(q.mtv <= 20 for q in quotes)
        tables = [(q.gain_rate, q.mtv, [q.curve.cost(n) for n in range(q.mtv + 1)]) for q in quotes]
        # the engine's window: it admits a gain 1e-9 short of the floor
        exact = allocation_exhaustive(
            tables, prices.sample, prices.gain, floor - 1e-9, floor + window, max_active, alpha, beta
        )
        try:
            _, report = allocate_workloads(quotes, prices, floor, window, max_active, alpha, beta)
        except GainShortfallError:
            continue
        allocated += 1
        assert exact is not None
        assert report.welfare <= exact[0] + 1e-9
    assert allocated > len(calls) // 2


def test_allocation_on_runner_quotes_equals_from_scratch_reference(monkeypatch):
    # the quotes `run()` builds on the benchmark's headline config: curves
    # with segments, fallback dips and capped re-solves, several rationality
    # passes per allocation
    calls = []

    def capture(*args):
        calls.append(args)
        return allocate_workloads(*args)

    monkeypatch.setattr(runner, "allocate_workloads", capture)
    spec = BENCH["workloads"]["siscc-default"]["config"]
    for seed in (0, 1):
        run(load_config({**spec, "rounds": 2, "seed": seed}))
    passes = [0]

    def counting_saturated(*args):
        passes[0] += 1
        return saturated(*args)

    saturated = market.saturated_load
    monkeypatch.setattr(market, "saturated_load", counting_saturated)
    assert len(calls) == 4
    for args in calls:
        got = _outcome(allocate_workloads, args)
        assert repr(got) == repr(_outcome(allocate_workloads_reference, args))
    assert passes[0] > len(calls)  # some pass resumes from a restored state


@st.composite
def saturation_cases(draw):
    """Quote sets for the saturated load: rates and capacities from small
    sets so gain_rate * mtv ties often (also 0.1 * 20 against 0.2 * 10),
    zero rates, zero capacities, binding caps, exclusions and an infinite
    ceiling."""
    quotes = []
    for i in range(draw(st.integers(0, 8))):
        cap = draw(st.sampled_from([0, 1, 5, 10, 20]))
        rate = draw(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3]))
        quotes.append(quote(f"c{i}", rate, [0.0] * (cap + 1)))
    ceiling = draw(st.sampled_from([0.0, 1e-9, 0.5, 1.0, 2.0, 3.7, 100.0, math.inf]))
    cap = draw(st.integers(1, 9))
    excluded = frozenset(q.client_id for q in quotes if draw(st.booleans()))
    return draw(st.permutations(quotes)), ceiling, cap, excluded


@settings(max_examples=400, deadline=None)
@given(saturation_cases())
def test_saturated_load_equals_former_runner_allocation(case):
    quotes, ceiling, cap, excluded = case
    got = saturated_load(quotes, ceiling, cap, excluded)
    kept = [q for q in quotes if q.client_id not in excluded]
    ref = saturated_allocation_reference(kept, ceiling, cap)
    assert list(got.items()) == list(ref.items())  # same loads, same grant order
    if not excluded:
        assert list(saturated_load(quotes, ceiling, cap).items()) == list(ref.items())


def streak_curve(shape, cap, act, scale, tilt=0.0, stop=None, bump=None, drop=None, steep=3):
    """Costs c(0..cap) in one of the shapes greedy streaks run through:
    "sqrt" (act + scale*sqrt(n): concave, so the marginal welfare rises
    along a streak), "flat" (act alone), "linear", or "kink" (linear,
    `steep` times steeper past cap // 2: a convex kink).  `tilt` adds tilt*n;
    `stop` makes c infinite past it; `bump` raises c at one load by 90% of
    the least dip CostCurve's contract allows; `drop` (a load) lowers c past it
    by 5 and starts a second segment there."""
    costs = [0.0]
    for n in range(1, cap + 1):
        if shape == "sqrt":
            c = act + scale * math.sqrt(n)
        elif shape == "flat":
            c = act
        elif shape == "linear":
            c = act + scale * n
        else:
            c = act + scale * n + (steep - 1) * scale * max(0, n - cap // 2)
        c += tilt * n
        if drop is not None and n > drop:
            c -= 5.0
        costs.append(math.inf if stop is not None and n > stop else c)
    if bump is not None and 0 < bump <= cap and math.isfinite(costs[bump]):
        costs[bump] += 0.9 * _DIP_SLACK
    return CostCurve(lambda n: (costs[n], drop is not None and n > drop), cap)


def streak_quote(cid, rate, curve):
    return ClientQuote(cid, curve.mtv, curve.mtv, rate, curve)


@st.composite
def streak_markets(draw):
    """Quote sets whose greedy runs in long same-client streaks: shapes
    shared between clients with tilts of 0, 4e-10, 9e-10, 1e-9, 1.1e-9 and
    1.5e-9 (near ties where a streak starts, and where a steepening curve
    ends one), IR losers (a surcharge of 1.25 a sample, above the sample
    price, so a rationality pass excludes them), activation costs,
    capacities up to 400, curves infinite past a point, bumps inside the
    contract's slack, segment drops, floors and windows that a streak
    crosses, and beta 0."""
    shapes = []
    for _ in range(draw(st.integers(1, 2))):
        cap = draw(st.integers(1, 400))
        shapes.append(dict(
            shape=draw(st.sampled_from(["sqrt", "sqrt", "flat", "linear", "kink"])),
            cap=cap,
            act=draw(st.sampled_from([0.0, 0.5, 5.0, 40.0])),
            scale=draw(st.sampled_from([0.0, 0.01, 0.3]) | st.floats(0.0, 3.0)),
            stop=draw(st.none() | st.integers(0, cap)),
            bump=draw(st.none() | st.integers(1, cap)),
            drop=draw(st.none() | st.integers(1, cap)),
        ))
    quotes = []
    for i in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(shapes))
        tilt = draw(st.sampled_from([0.0, 0.0, 4e-10, 9e-10, 1e-9, 1.1e-9, 1.5e-9]))
        tilt += draw(st.sampled_from([0.0, 0.0, 0.0, 1.25]))
        rate = draw(st.sampled_from([0.01, 0.02, 0.05]))
        quotes.append(streak_quote(f"c{i}", rate, streak_curve(tilt=tilt, **shape)))
    prices = PriceVector(sample=1.0, gain=draw(st.floats(5.0, 80.0)))
    reach = sum(q.gain_rate * q.mtv for q in quotes)
    floor = draw(st.floats(0.0, 1.1)) * reach
    window = draw(st.sampled_from([0.05, 0.5, 1e6]) | st.floats(0.01, 20.0))
    cap = draw(st.integers(1, len(quotes)))
    beta = draw(st.sampled_from([0.0, 1.0, 1.0]))
    return quotes, prices, floor, window, cap, 1.0, beta


def _two_bidders(leader, rival, rate, gain, floor, window, beta=1.0):
    (lid, lcurve), (rid, rcurve) = leader, rival
    quotes = [streak_quote(lid, rate, lcurve), streak_quote(rid, rate, rcurve)]
    return quotes, PriceVector(sample=1.0, gain=gain), floor, window, 2, 1.0, beta


@settings(max_examples=300, deadline=None)
@given(streak_markets())
# a flat curve with a bump inside the slack: one sample costs 9e-8 more,
# which hands that grant to a rival 5e-8 behind; a batch over the bump is
# certified only by a bound that leaves out the slack
@example(_two_bidders(
    ("b", streak_curve("flat", 40, 0.0, 0.0, bump=3)),
    ("a", streak_curve("linear", 40, 0.0, 5e-8)), 0.05, 30.0, 0.0, 2.501,
))
# a kink twenty times steeper: a batch across it must not be granted on
# the leader's flat part alone
@example(_two_bidders(
    ("b", streak_curve("kink", 18, 0.5, 0.3, bump=8, steep=20)),
    ("a", streak_curve("linear", 27, 0.0, 1.5000000004)), 0.05, 20.05, 1.564701385334457, 1.601,
))
# a segment drop by 5 before a steep run: a batch may not span the
# segments, where the drop would hide the steep marginals from the bound
@example(_two_bidders(
    ("a", streak_curve("kink", 10, 0.0, 0.1, drop=3, steep=20)),
    ("b", streak_curve("linear", 10, 0.0, 0.5)), 0.01, 100.0, 0.0, 1e6,
))
# past the kink at 50 every sample loses welfare, so the floor (60
# samples) is where the greedy stops
@example(([streak_quote("a", 0.05, streak_curve("kink", 100, 0.0, 0.2, steep=15))],
          PriceVector(sample=1.0, gain=20.0), 3.0, 10.0, 1, 1.0, 1.0))
def test_streak_grants_equal_unit_greedy_reference(case):
    got = _outcome(allocate_workloads, case)
    ref = _outcome(allocate_workloads_reference, case)
    assert repr(got) == repr(ref)


def test_one_long_streak_costs_few_lookups(caplog):
    # the only bidder takes 2,000 samples in one streak: the floor needs
    # them all, and a concave curve keeps its marginal welfare rising
    lookups = [0]
    costs = [0.0] + [3.0 + 0.2 * math.sqrt(n) for n in range(1, 2001)]
    quotes = [ClientQuote("a", 2000, 2000, 0.01, CountingCurve(costs, lookups))]
    with caplog.at_level(logging.DEBUG, logger="mfpsim"):
        alloc, report = allocate_workloads(quotes, PriceVector(sample=1.0, gain=200.0), 19.999, 5.0, 1)
    assert alloc.workloads == {"a": 2000}
    assert settlement_findings(report, 1.0, 1.0) == []
    assert lookups[0] <= 64
    assert [r.getMessage() for r in caplog.records] == [
        "scan grant a at load 0: marginal welfare -1.2, clear lead",
        "streak a from load 1: 1999 samples, 1 probes, stopped at capacity",
        "saturated start: a 2000",
        "greedy side decides: welfare 3988.055728090001 against 3988.055728090001",
    ]
    # silent unless the application configures logging
    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("mfpsim").handlers)


class ProbedCurve(CountingCurve):
    """A `CountingCurve` that also logs each streak probe as (load, size)."""

    def __init__(self, samples, counter, probes, segment=0):
        super().__init__(samples, counter, segment)
        self._probes = probes

    def rise_bound(self, n, m):
        self._probes.append((n, m - n))
        return super().rise_bound(n, m)


def test_streak_batches_are_sized_from_the_rise_budget():
    # the leader's cost rises by 0.01 a sample and its rival's by 0.21, so
    # a batch's rise must stay under the room 2 - 1.79 = 0.21: 95% of it
    # over the rise per sample offers 19 samples, and every batch certifies
    lookups, probes = [0], []
    leader = ProbedCurve([0.01 * n for n in range(201)], lookups, probes)
    rival = CountingCurve([0.21 * n for n in range(201)], [0])
    case = (
        [ClientQuote("a", 200, 200, 0.01, leader), ClientQuote("b", 200, 200, 0.01, rival)],
        PriceVector(sample=1.0, gain=200.0), 0.5, 10.0, 2,
    )
    got = allocate_workloads(*case)
    assert got[0].workloads == {"a": 200, "b": 200}
    assert [size for _, size in probes] == [19] * 10 + [9]
    # a gallop that doubled after each certified batch and halved after a
    # failed one took 25 probes and 55 lookups of the leader's curve
    assert lookups[0] < 30
    assert repr(got) == repr(allocate_workloads_reference(*case))


def test_a_failed_batch_shrinks_to_its_secant_and_none_straddles_mutv():
    # the leader's cost rises by 0.05 a sample up to its mutv, 30, and by
    # 0.1 past it, where the runner's segments change; the room is 0.45.
    # Batches of 8 stop at mutv, one sample crosses it, and past it the
    # batch of 8 fails and shrinks to 4, its secant's fit
    probes = []
    costs = [0.05 * min(n, 30) + 0.1 * max(0, n - 30) for n in range(61)]
    leader = ProbedCurve(costs, [0], probes, segment=lambda n: n > 30)
    rival = CountingCurve([0.45 * n for n in range(121)], [0])
    case = (
        [ClientQuote("a", 60, 30, 0.01, leader), ClientQuote("b", 120, 120, 0.01, rival)],
        PriceVector(sample=1.0, gain=200.0), 0.5, 10.0, 2,
    )
    got = allocate_workloads(*case)
    assert got[0].workloads == {"a": 60, "b": 120}
    assert probes == [(1, 8), (9, 8), (17, 8), (25, 5), (31, 8)] + [(n, 4) for n in range(31, 59, 4)]
    assert all(n + size <= 30 or n > 30 for n, size in probes)
    assert repr(got) == repr(allocate_workloads_reference(*case))


def test_plain_costs_vouch_for_no_streak(caplog):
    # the curve of the test above with the segment None: nothing says it
    # does not decrease, so every grant is a unit grant, to the same outcome
    costs = [0.0] + [3.0 + 0.2 * math.sqrt(n) for n in range(1, 2001)]
    plain = curve_from_samples(costs)
    case = ([ClientQuote("a", 2000, 2000, 0.01, plain)], PriceVector(sample=1.0, gain=200.0), 19.999, 5.0, 1)
    with caplog.at_level(logging.DEBUG, logger="mfpsim"):
        got = allocate_workloads(*case)
    # the first grant's scan makes a clear lead, whose streak takes every
    # later grant one at a time, without a probe, and says so in one line
    assert [r.getMessage() for r in caplog.records] == [
        "scan grant a at load 0: marginal welfare -1.2, clear lead",
        "streak a from load 1: 1999 samples, 0 probes, stopped at capacity",
        "saturated start: a 2000",
        "greedy side decides: welfare 3988.055728090001 against 3988.055728090001",
    ]
    assert not plain.in_segment(1)
    assert plain.rise_bound(1, 2000) is None
    assert repr(got) == repr(allocate_workloads_reference(*case))


def relabelled_curve(cap, slopes, turn, labels, act=0.0, drop=0.0, stop=None):
    """c(0..cap) with marginal `slopes[0]` below load `turn` and `slopes[1]`
    from it on, plus the activation cost `act` from n = 1; `drop` lowers
    c from `turn` on, and `stop` makes c infinite past it.  The segment is
    `labels[0]` below `turn` and `labels[1]` from it on."""
    costs = [0.0]
    for n in range(cap):
        costs.append(costs[-1] + slopes[n >= turn])
    costs = [
        math.inf if stop is not None and n > stop else c + (act if n else 0.0) - (drop if n >= turn else 0.0)
        for n, c in enumerate(costs)
    ]
    return CostCurve(lambda n: (costs[n], labels[n >= turn]), cap)


@st.composite
def relabelled_markets(draw):
    """Fleets that mix curves whose segment changes partway along (None
    below a load and a segment from it on, or two segments that meet, the
    later one after a drop) with steep curves, whose marginal welfare is
    positive but whose batches of two fail.  Slopes are multiples of 1/8,
    so marginals tie exactly, and tilts put near-ties at and around 1e-9."""
    quotes = []
    for i in range(draw(st.integers(1, 4))):
        cap = draw(st.integers(1, 60))
        kind = draw(st.sampled_from(["late", "meet", "steep", "steep"]))
        turn = draw(st.integers(0, cap))
        if kind == "steep":
            # a pair of samples costs more than one is worth at v = 1
            slope = draw(st.sampled_from([0.625, 0.75, 0.875]))
            slopes, labels, drop = (slope, slope), (0, 0), 0.0
        else:
            below, above = (draw(st.sampled_from([0.25, 0.5, 0.75, 1.25])) for _ in "ab")
            if kind == "late":
                # no segment vouches for the curve below `turn`, which may dip
                slopes, labels, drop = (draw(st.sampled_from([-0.125, below])), above), (None, 0), 0.0
            else:
                slopes, labels, drop = (below, above), (0, 1), draw(st.sampled_from([0.0, 0.0, 0.5]))
        tilt = draw(st.sampled_from([0.0, 0.0, 4e-10, 1e-9, 1.5e-9]))
        curve = relabelled_curve(
            cap, tuple(x + tilt for x in slopes), turn, labels,
            act=draw(st.sampled_from([0.0, 0.0, 0.5])), drop=drop,
            stop=draw(st.none() | st.none() | st.integers(0, cap)),
        )
        quotes.append(streak_quote(f"c{i}", 0.05, curve))
    # v = prices.gain * 0.05 per sample, 1.0 at the price 20
    prices = PriceVector(sample=1.0, gain=draw(st.sampled_from([20.0, 20.0, 25.0, 30.0])))
    reach = sum(q.gain_rate * q.mtv for q in quotes)
    floor = draw(st.sampled_from([0.0, 0.1, 0.3]) | st.floats(0.0, 1.1)) * reach
    window = draw(st.sampled_from([0.01, 0.05, 0.12, 0.5, 1e6]) | st.floats(0.01, 5.0))
    max_active = draw(st.integers(1, 3))
    return quotes, prices, floor, window, max_active, 1.0, draw(st.sampled_from([0.0, 1.0, 1.0]))


@settings(max_examples=200, deadline=None)
@given(relabelled_markets())
# the leader b's marginal welfare falls to tie a's 0.5 after two samples:
# the tie goes to a, by id, and not to a streak that grants on a tie
@example(_two_bidders(
    ("b", relabelled_curve(8, (0.25, 0.5), 2, (None, None))),
    ("a", relabelled_curve(8, (0.5, 0.5), 0, (None, None))), 0.05, 20.0, 0.2, 0.01,
))
# past the floor a steep curve's grants turn unprofitable at load 6: a
# streak must stop there, as the greedy does
@example(([streak_quote("a", 0.05, relabelled_curve(10, (0.75, 1.25), 6, (0, 0)))],
          PriceVector(sample=1.0, gain=20.0), 0.0, 1e6, 1, 1.0, 1.0))
def test_one_loop_streaks_equal_unit_greedy_reference(case):
    got = _outcome(allocate_workloads, case)
    ref = _outcome(allocate_workloads_reference, case)
    assert repr(got) == repr(ref)


def test_a_steep_leader_is_granted_after_one_scan(caplog):
    # past the floor (0) a sample is worth 0.25 and a pair of them -0.5, so
    # every batch of two fails; the streak grants the rest one at a time
    # instead of handing each grant back to a scan
    case = ([streak_quote("a", 0.05, relabelled_curve(10, (0.75, 0.75), 0, (0, 0)))],
            PriceVector(sample=1.0, gain=20.0), 0.0, 1e6, 1)
    with caplog.at_level(logging.DEBUG, logger="mfpsim"):
        got = allocate_workloads(*case)
    assert got[0].workloads == {"a": 10}
    assert [r.getMessage() for r in caplog.records] == [
        "scan grant a at load 0: marginal welfare 0.25, clear lead",
        "streak a from load 1: 9 samples, 8 probes, stopped at capacity",
        "saturated start: a 10",
        "greedy side decides: welfare 2.5 against 2.5",
    ]
    assert repr(got) == repr(allocate_workloads_reference(*case))


@st.composite
def gain_probes(draw):
    """A streak's start: gain, rate, ceiling and floor (the thresholds the
    market compares with, its tolerance already taken off), with crossings
    a few dozen grants on, at a grant's exact gain or an ulp either side, or
    none; then its probes, each a batch size up to 60 (the market clips a
    batch at _CHUNK, 4096) and what the streak takes of it (all, the grants
    before the floor switch, or none)."""
    gain = draw(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 100.0))
    rate = draw(st.sampled_from([0.01, 0.25, 2.0**-53, 1e-17]) | st.floats(1e-18, 10.0))

    def threshold(kinds):
        kind = draw(st.sampled_from(kinds))
        if kind == "inf":
            return math.inf
        if kind == "any":
            return draw(st.floats(0.0, 200.0))
        at = gain
        for _ in range(draw(st.integers(0, 50))):
            at += rate
        return draw(st.sampled_from([at, math.nextafter(at, 0.0), math.nextafter(at, math.inf)]))

    ceiling = threshold(["grant", "grant", "inf", "any"])
    floor = threshold(["grant", "any"])
    probes = draw(st.lists(st.tuples(st.integers(0, 60), st.sampled_from(["all", "floor", "none"])), max_size=8))
    return gain, rate, ceiling, floor, probes


@settings(max_examples=400, deadline=None)
@given(gain_probes())
# a rate below half an ulp of the gain: the gain never moves
@example((1.0, 1e-17, 2.0, 1.5, [(40, "all"), (5, "none")]))
# half an ulp: a tie, rounded to even, moves an odd gain once and an even
# one never
@example((1.0 + 2.0**-52, 2.0**-53, 1.0 + 2.0**-51, 0.0, [(6, "all"), (6, "all")]))
@example((1.0 + 2.0**-52, 2.0**-53, 1.0 + 3 * 2.0**-52, 1.0 + 2.0**-51, [(6, "floor"), (6, "all")]))
@example((1.0, 2.0**-53, 1.0 + 2.0**-52, 0.5, [(6, "all")]))
# an infinite ceiling
@example((0.5, 0.01, math.inf, 0.75, [(30, "floor"), (60, "all"), (20, "all")]))
# a start already past the floor: the switch comes before the first grant
@example((2.0, 0.01, 3.0, 1.0, [(10, "floor"), (10, "all")]))
# a start at the ceiling (the market's ceiling - _TOL): no grant fits
@example((1.0, 0.25, 1.0, 0.0, [(4, "all")]))
# the crossing exactly at the batch size (G[4] = 1.0), and one past it
@example((0.0, 0.25, 1.0, 0.5, [(4, "none"), (3, "all"), (2, "all")]))
@example((0.0, 0.25, 1.25, 0.5, [(4, "none"), (3, "none"), (5, "all")]))
def test_gain_spans_equal_the_streak_loop(case):
    gain, rate, ceiling, floor, probes = case
    for size, taking in probes:
        steps, floor_at, after, at_floor = _span(gain, rate, size, ceiling, floor)
        assert (steps, floor_at, after) == streak_span_reference(gain, rate, size, ceiling, floor)
        if floor_at is not None:
            assert at_floor == streak_span_reference(gain, rate, floor_at, ceiling, floor)[2]
        count = {"all": steps, "floor": floor_at or 0, "none": 0}[taking]
        if count:
            gain = after if taking == "all" else at_floor


def test_a_long_streak_holds_bounded_memory():
    # c(n) = 0.1 for n >= 1, vouched for as one segment: every sample after
    # the first is free, so the only bidder takes all 2 * 10**5 in one
    # streak, whose batches are clipped at _CHUNK grants
    mtv = 2 * 10**5
    quote = ClientQuote("a", mtv, mtv, 1e-3, CostCurve(lambda n: (0.1 if n else 0.0, 0), mtv))
    sizes = []

    def recorded(gain, rate, size, ceiling, floor):
        sizes.append(size)
        return _span(gain, rate, size, ceiling, floor)

    tracemalloc.start()
    try:
        with mock.patch.object(market, "_span", recorded):
            alloc, report = allocate_workloads([quote], PriceVector(sample=1.0, gain=2000.0), 0.0, 1e6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alloc.workloads == {"a": mtv}
    assert settlement_findings(report, 1.0, 1.0) == []
    assert max(sizes) == _CHUNK
    assert peak < 2**20
