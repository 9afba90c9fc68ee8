import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpsim.costs import ConsumptionTask, PriceVector
from mfpsim.errors import GainShortfallError
from mfpsim.market import (
    Allocation,
    ClientQuote,
    CostCurve,
    allocate_workloads,
    app_payment,
    build_report,
    client_payment,
    saturated_load,
    social_welfare,
)
from mfpsim.resource_pool import ResourceQuanta
from mfpsim.scenario import StatusAttributes
from mfpsim.solver import Budgets, SolveInput, constrained_schedule, mtv

import mfpsim.market as market
from oracles import (
    allocate_workloads_reference,
    allocation_exhaustive,
    curve_from_samples,
    saturated_allocation_reference,
)

UNIT = ResourceQuanta(1.0, 1.0, 1.0)


def quote(cid, rate, samples):
    return ClientQuote(
        client_id=cid,
        qod=1.0,
        mtv=len(samples) - 1,
        mutv=len(samples) - 1,
        gain_rate=rate,
        curve=curve_from_samples(samples),
    )


class CountingCurve(CostCurve):
    def __init__(self, samples, counter):
        super().__init__(lambda n: samples[n], len(samples) - 1)
        self._counter = counter

    def cost(self, n):
        self._counter[0] += 1
        return super().cost(n)


def quadratic_curve(mtv, lin, quad):
    return [lin * n + quad * n * n for n in range(mtv + 1)]


class TestPayments:
    def test_app_payment(self):
        assert app_payment(0.0, 10.0) == 0.0
        assert app_payment(2.5, 10.0) == pytest.approx(25.0)
        assert app_payment(2.5, 20.0) == pytest.approx(50.0)

    def test_client_payment(self):
        assert client_payment(0, 2.0) == 0.0
        assert client_payment(100, 2.0) == pytest.approx(200.0)
        with pytest.raises(ValueError):
            client_payment(-1, 2.0)

    def test_social_welfare(self):
        assert social_welfare(3.0, 2.0, 1.0, 1.0) == pytest.approx(5.0)
        assert social_welfare(3.0, 2.0, 1.0, 0.0) == pytest.approx(3.0)
        assert social_welfare(0.0, 0.0, 1.0, 1.0) == 0.0


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
        assert report.audit() == []

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

    def test_floor_unreachable_raises_with_max_gain(self):
        q = quote("a", 0.1, quadratic_curve(5, 0.1, 0.0))
        with pytest.raises(GainShortfallError) as err:
            allocate_workloads([q], self.prices(), gain_floor=10.0, gain_window=1.0, max_active=1)
        assert err.value.max_gain == pytest.approx(0.5)

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
            assert report.audit() == []

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
        att = StatusAttributes(a=2.0, b=1.0, label_dist=None)
        task = ConsumptionTask(10, 10, 1.0, 1.0, 1.0)
        pv = PriceVector(time=0.2, freq=0.1, compute=0.1, sample=1.0, gain=50.0)

        def solver_quote(cid, budgets):
            cap = int(mtv(att, task, budgets, UNIT))
            fn = lambda n: constrained_schedule(SolveInput(n, att, task, pv, budgets, UNIT)).cost
            return ClientQuote(cid, 1.0, cap, 0, 0.05, CostCurve(fn, cap))

        small = [solver_quote("a", Budgets(6, 4, 4))]
        big = [solver_quote("a", Budgets(12, 8, 8))]
        _, r_small = allocate_workloads(small, pv, 0.15, 20.0, 1)
        _, r_big = allocate_workloads(big, pv, 0.15, 20.0, 1)
        assert r_big.welfare >= r_small.welfare - 1e-9

    def test_near_tie_goes_to_the_scan_pick_not_the_largest_marginal(self):
        # b's first marginal beats a's by 5e-10, inside the 1e-9 tie window,
        # so the id-ordered scan opens a and the heap must not take its top.
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
        assert report.audit() == []
        assert (alloc, report) == allocate_workloads_reference(quotes, prices, 0.05, 10.0, 1)

    def test_greedy_lookups_grow_with_grants_not_grants_times_clients(self):
        for n_clients in (10, 30):
            lookups = [0]
            quotes = [
                ClientQuote(
                    f"c{i:02d}", 1.0, 400, 400, 0.01,
                    CountingCurve(quadratic_curve(400, 0.1 + 0.01 * i, 0.002 + 1e-4 * i), lookups),
                )
                for i in range(n_clients)
            ]
            alloc, report = allocate_workloads(quotes, self.prices(), 5.0, 100.0, n_clients)
            assert report.audit() == []
            assert len(alloc.workloads) == n_clients  # nobody excluded: one greedy pass
            assert alloc.total_samples > 100 * n_clients
            # a rescan of every client's marginal per grant would need
            # 2 * clients lookups per grant
            assert lookups[0] <= 3 * (alloc.total_samples + n_clients)

    def test_rationality_passes_replay_instead_of_rescanning(self, monkeypatch):
        # five cheap clients fill up first; ten clients with an activation
        # cost are opened one per pass by the last grants (the cap leaves room
        # for one more), end at a loss and are excluded: eleven passes
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
            ClientQuote(f"a{i}", 1.0, 200, 200, 0.01, CountingCurve(cheap, lookups))
            for i in range(5)
        ] + [
            ClientQuote(f"b{i}", 1.0, 2, 2, 0.01, CountingCurve(dear, lookups))
            for i in range(10)
        ]
        prices = self.prices(gain=300.0)
        alloc, report = allocate_workloads(quotes, prices, 1.0, 100.0, 6)
        assert polishes[0] == 2 * 11
        assert alloc.workloads == {f"a{i}": 200 for i in range(5)}
        assert report.audit() == []
        # one greedy pass's worth (the bound of the test above) plus 10 per
        # client and pass for the scans after the replayed grants and the
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
        return type(err), err.reason, err.max_gain


@settings(max_examples=400, deadline=None)
@given(markets())
def test_allocation_equals_from_scratch_reference(case):
    got = _outcome(allocate_workloads, case)
    ref = _outcome(allocate_workloads_reference, case)
    assert got == ref
    assert repr(got) == repr(ref)  # same floats bit for bit, same dict orders


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
