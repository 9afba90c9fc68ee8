import math

import numpy as np
import pytest

from mfpsim.costs import (
    ConsumptionTask,
    GenSchedule,
    PriceVector,
    gen_cost,
    unconstrained_comm_schedule,
    unconstrained_comp_schedule,
    unconstrained_gen_schedule,
)
from mfpsim.errors import InfeasibleError, LinkUnusableError
from mfpsim.resource_pool import ResourceQuanta
from mfpsim.scenario import StatusAttributes

from oracles import gen_grid_min, total_min_cost_unconstrained

UNIT = ResourceQuanta(time_s=1.0, freq_hz=1.0, compute_cycles_per_s=1.0)


def attrs(a, b):
    return StatusAttributes(a=a, b=b, label_dist=None)


def prices(t=1.0, b=1.0, f=1.0):
    return PriceVector(time=t, freq=b, compute=f)


class TestGenCost:
    def test_linear_combination(self):
        assert gen_cost(GenSchedule(2, 1, 2), prices()) == pytest.approx(3.0)

    def test_zero_schedule(self):
        assert gen_cost(GenSchedule(), prices()) == 0.0

    def test_bandwidth_price_isolated(self):
        p = PriceVector(time=1.0, freq=1e-300, compute=1.0)
        assert gen_cost(GenSchedule(2, 5, 2), p) == pytest.approx(2.0)


class TestUnconstrainedGen:
    def test_balanced_optimum(self):
        sched, cost = unconstrained_gen_schedule(4, attrs(1, 1), prices())
        assert (sched.t_vs, sched.b_ws, sched.t_ws) == pytest.approx((2, 1, 2))
        assert cost == pytest.approx(3.0)
        # the schedule really generates the workload
        assert 1 * sched.t_vs + 1 * sched.t_ws * sched.b_ws == pytest.approx(4.0)

    def test_zero_workload(self):
        sched, cost = unconstrained_gen_schedule(0, attrs(1, 1), prices())
        assert cost == 0.0 and sched.t_vs == 0

    def test_visual_clamp_for_small_workloads(self):
        sched, cost = unconstrained_gen_schedule(4, attrs(10, 1), prices())
        assert (sched.t_vs, sched.b_ws, sched.t_ws) == pytest.approx((0.4, 0, 0))
        assert cost == pytest.approx(0.4)

    def test_no_capability_is_infeasible(self):
        with pytest.raises(InfeasibleError):
            unconstrained_gen_schedule(5, attrs(0, 0), prices())

    def test_subnormal_wireless_coefficient(self):
        # 5e-324 * 0.2 underflows to 0: the balanced optimum is out of reach,
        # so the pure-visual schedule stands
        sched, cost = unconstrained_gen_schedule(4, attrs(1, 5e-324), prices(t=0.2))
        assert (sched.t_vs, sched.b_ws, sched.t_ws) == (4.0, 0.0, 0.0)
        assert cost == 4.0 * 0.2

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a, b = rng.uniform(0.1, 10, 2)
            pt, pb = rng.uniform(0.1, 10, 2)
            n = rng.uniform(0.5, 200)
            _, cost = unconstrained_gen_schedule(n, attrs(a, b), prices(pt, pb))
            ref, rel = gen_grid_min(n, a, b, math.inf, 1e6, pt, pb, grid=2000)
            assert cost <= ref + 1e-9
            assert cost >= ref - 3 * rel * ref - rel * a * pb / b - 1e-9

    def test_first_order_condition_at_optimum(self):
        # finite-difference derivative of the time-reduced cost vanishes
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = rng.uniform(0.1, 10, 2)
            pt, pb = rng.uniform(0.1, 10, 2)
            n_clamp_edge = a**2 * pb / (b * pt)
            n = n_clamp_edge * rng.uniform(1.01, 50)  # balanced branch only
            sched, _ = unconstrained_gen_schedule(n, attrs(a, b), prices(pt, pb))

            def reduced(x):
                return x * pt + (n / (b * x)) * pb - a * pb / b

            h = sched.t_vs * 1e-5
            deriv = (reduced(sched.t_vs + h) - reduced(sched.t_vs - h)) / (2 * h)
            assert abs(deriv) < 1e-6


class TestUnconstrainedComm:
    def test_square_split(self):
        sched, cost = unconstrained_comm_schedule(100, 1.0, prices(), UNIT)
        assert (sched.t, sched.b) == pytest.approx((10, 10))
        assert cost == pytest.approx(20.0)
        assert sched.t * sched.b * 1.0 == pytest.approx(100.0)

    def test_zero_bits(self):
        sched, cost = unconstrained_comm_schedule(0, 1.0, prices(), UNIT)
        assert cost == 0.0 and sched.t == 0

    def test_unusable_link(self):
        with pytest.raises(LinkUnusableError):
            unconstrained_comm_schedule(10, 0.0, prices(), UNIT)

    def test_price_scaling_laws(self):
        base, _ = unconstrained_comm_schedule(100, 1.0, prices(1, 1), UNIT)
        quad, _ = unconstrained_comm_schedule(100, 1.0, prices(4, 1), UNIT)
        assert quad.t == pytest.approx(base.t / 2)
        assert quad.b == pytest.approx(base.b * 2)

    def test_rate_constraint_satisfied_exactly(self):
        rng = np.random.default_rng(3)
        q = ResourceQuanta(time_s=2.0, freq_hz=5.0, compute_cycles_per_s=1.0)
        for _ in range(100):
            bits = rng.uniform(1, 1e6)
            eff = rng.uniform(0.1, 20)
            pt, pb = rng.uniform(0.1, 10, 2)
            sched, cost = unconstrained_comm_schedule(bits, eff, prices(pt, pb), q)
            moved = sched.t * sched.b * eff * q.time_s * q.freq_hz
            assert moved == pytest.approx(bits, rel=1e-9)
            assert cost == pytest.approx(sched.t * pt + sched.b * pb, rel=1e-12)


class TestUnconstrainedComp:
    def test_balanced_split(self):
        sched, cost = unconstrained_comp_schedule(5, prices(), UNIT)
        assert sched.t == pytest.approx(math.sqrt(5))
        assert sched.f == pytest.approx(math.sqrt(5))
        assert cost == pytest.approx(2 * math.sqrt(5))

    def test_zero_cycles(self):
        sched, cost = unconstrained_comp_schedule(0, prices(), UNIT)
        assert cost == 0.0 and sched.f == 0

    def test_expensive_compute_shifts_to_time(self):
        cheap, _ = unconstrained_comp_schedule(5, prices(f=1), UNIT)
        dear, _ = unconstrained_comp_schedule(5, prices(f=100), UNIT)
        assert dear.f < cheap.f and dear.t > cheap.t

    def test_work_constraint_exact(self):
        q = ResourceQuanta(time_s=1.0, freq_hz=1.0, compute_cycles_per_s=1e5)
        sched, _ = unconstrained_comp_schedule(2.5e5, prices(), q)
        assert sched.t * sched.f * 1e5 == pytest.approx(2.5e5, rel=1e-9)


class TestTotalMinCost:
    def test_all_zero(self):
        task = ConsumptionTask(0, 0, 0, 1, 1)
        assert total_min_cost_unconstrained(0, attrs(1, 1), task, prices(), UNIT) == 0.0

    def test_additivity_of_sub_minima(self):
        task = ConsumptionTask(100, 100, 1.25, 1.0, 1.0)
        total = total_min_cost_unconstrained(4, attrs(1, 1), task, prices(), UNIT)
        _, g = unconstrained_gen_schedule(4, attrs(1, 1), prices())
        _, d = unconstrained_comm_schedule(100, 1.0, prices(), UNIT)
        _, c = unconstrained_comp_schedule(5, prices(), UNIT)
        _, u = unconstrained_comm_schedule(100, 1.0, prices(), UNIT)
        assert total == pytest.approx(g + d + c + u)


class TestMinCostCurveShape:
    def make_curve(self, a, b, pt, pb, n_max=60):
        pv = prices(pt, pb)
        return np.array(
            [unconstrained_gen_schedule(n, attrs(a, b), pv)[1] for n in range(n_max)]
        )

    def test_nondecreasing_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, pt, pb = rng.uniform(0.1, 10, 4)
            curve = self.make_curve(a, b, pt, pb)
            assert (np.diff(curve) >= -1e-9).all()

    @pytest.mark.xfail(
        strict=True,
        reason="stated curve convexity does not hold: on the balanced branch the "
        "minimum cost grows like sqrt(n) (doubling time and bandwidth quadruples "
        "the bilinear wireless yield), so discrete second differences are "
        "strictly negative; see notes/decisions.md",
    )
    def test_second_differences_nonnegative_on_balanced_branch(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b, pt, pb = rng.uniform(0.1, 10, 4)
            start = int(a**2 * pb / (b * pt)) + 2  # past the visual-only branch
            curve = self.make_curve(a, b, pt, pb, n_max=start + 40)[start:]
            second = np.diff(curve, 2)
            assert (second >= -1e-9).all()

    def test_marginal_cost_never_exceeds_visual_only_slope(self):
        # the true shape: marginal cost starts at the visual-only slope and falls
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b, pt, pb = rng.uniform(0.1, 10, 4)
            curve = self.make_curve(a, b, pt, pb)
            marginals = np.diff(curve)
            assert (marginals <= pt / a + 1e-9).all()
            assert (np.diff(marginals) <= 1e-9).all()
