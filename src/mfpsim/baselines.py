"""Benchmark client-selection and scheduling policies.

Each policy keeps the full constraint set and changes only the objective:
latency-ranked selection, width-greedy or time-greedy scheduling, or
gain-at-any-cost allocation.  SISCC is the engine's own welfare-driven
pipeline and serves as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .costs import (
    GenSchedule,
    PriceVector,
    ScheduleDecision,
    over_product,
)
from .market import ClientQuote
from .solver import (
    OutcomeKind,
    SolveInput,
    SolveOutcome,
    _consumption_decision,
    _consumption_processes,
    _enumerate_consumption,
    _solve_generation,
    constrained_schedule,
    mtv,
    mutv,
    realize_schedule,
)


class Policy(str, Enum):
    SISCC = "SISCC"
    WISCC = "WISCC"
    SENS_OPT = "SENS_OPT"
    COMM_OPT = "COMM_OPT"
    COMP_OPT = "COMP_OPT"
    ML_C = "ML_C"
    ML_CC = "ML_CC"
    ML_SCC = "ML_SCC"
    MP_TSC = "MP_TSC"
    MC_T = "MC_T"
    MC_FC = "MC_FC"
    MLPG = "MLPG"


SELECTION_POLICIES = frozenset({Policy.ML_C, Policy.ML_CC, Policy.ML_SCC, Policy.MP_TSC})

# whole-cell realization objectives per policy: (sensing side, chain side)
_REALIZE_OBJECTIVES = {
    Policy.MC_T: ("time", "time"),
    Policy.MLPG: ("time", "time"),
    Policy.MC_FC: ("width", "width"),
    Policy.SENS_OPT: ("time", "cost"),
    Policy.COMM_OPT: ("cost", "comm_time"),
    Policy.COMP_OPT: ("cost", "comp_time"),
}


def realize_with_policy(policy: Policy, inp: SolveInput):
    """Best whole-cell schedule for the policy's objective (true prices break
    ties); None when no integral schedule fits the window."""
    gen_obj, cons_obj = _REALIZE_OBJECTIVES.get(policy, ("cost", "cost"))
    return realize_schedule(
        inp.n, inp.attrs, inp.task, inp.prices, inp.budgets, inp.quanta,
        gen_objective=gen_obj, cons_objective=cons_obj,
    )


@dataclass(frozen=True)
class SelectionMetrics:
    """Per-client figures the latency/product rankings are built from, all at
    full parallel width."""

    comm_latency: float  # download + upload time, cells
    comp_latency: float  # training time at the reference workload, cells
    sensing_latency: float  # sensing time at the reference workload, cells
    sensed_targets: int
    peak_sample_rate: float  # best per-cell yield: a + b * bandwidth


def selection_key(policy: Policy, quote: ClientQuote, metrics: SelectionMetrics):
    if policy == Policy.ML_C:
        return metrics.comm_latency
    if policy == Policy.ML_CC:
        return metrics.comm_latency + metrics.comp_latency
    if policy == Policy.ML_SCC:
        return metrics.comm_latency + metrics.comp_latency + metrics.sensing_latency
    if policy == Policy.MP_TSC:
        return -(metrics.sensed_targets * metrics.peak_sample_rate)
    raise ValueError(f"{policy} is not a latency/product selection policy")


def select_clients(
    policy: Policy,
    quotes: list[ClientQuote],
    metrics: dict[str, SelectionMetrics],
    k: int,
    prices: PriceVector | None = None,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> list[str]:
    """Pick up to k client ids under the policy's ranking.

    Latency policies rank ascending on their latency sum; the target-product
    policy ranks descending on count x capacity; welfare policies rank by a
    client's opening marginal welfare (quality-blind for the workload-only
    variant).  Ties break on client id.
    """
    if k > len(quotes):
        raise ValueError("cannot select more clients than quoted")
    quotes = sorted(quotes, key=lambda q: q.client_id)
    if policy in SELECTION_POLICIES:
        ranked = sorted(
            quotes, key=lambda q: (selection_key(policy, q, metrics[q.client_id]), q.client_id)
        )
        return [q.client_id for q in ranked[:k]]
    if prices is None:
        raise ValueError("welfare-ranked selection needs prices")
    mean_rate = sum(q.gain_rate for q in quotes) / len(quotes) if quotes else 0.0

    def opening_welfare(q: ClientQuote) -> float:
        rate = mean_rate if policy == Policy.WISCC else q.gain_rate
        if q.mtv < 1:
            return -math.inf
        marginal = q.curve.cost(1) - q.curve.cost(0)
        return alpha * (prices.gain * rate - prices.sample) + beta * (prices.sample - marginal)

    ranked = sorted(quotes, key=lambda q: (-opening_welfare(q), q.client_id))
    return [q.client_id for q in ranked[:k]]


def _min_time_generation(n, attrs, budgets) -> GenSchedule | None:
    """Fastest sensing schedule: full bandwidth, shortest span."""
    if n <= 0:
        return GenSchedule()
    a, b = attrs.a, attrs.b
    width = budgets.gen_bandwidth if b > 0 else 0.0
    rate = a + b * width
    if rate <= 0:
        return None
    x = n / rate
    if x > budgets.t_budget * (1 + 1e-9):
        return None
    return GenSchedule(x, width, x if width else 0.0)


def schedule_with_policy(
    policy: Policy, inp: SolveInput, bounds: tuple[float, float] | None = None
) -> SolveOutcome:
    """Per-client schedule under the policy's objective.

    Cost-driven policies defer to the exact solver.  MC_T and MLPG take the
    fastest feasible schedule (width-maxed everywhere); MC_FC minimizes
    spectrum+compute spend by stretching time across the window; the
    single-process-optimal trio maxes out its named process and solves the
    rest for cost.  `bounds` is (mtv, mutv) of the input when the caller
    already has it.
    """
    if policy in (
        Policy.SISCC,
        Policy.WISCC,
        Policy.ML_C,
        Policy.ML_CC,
        Policy.ML_SCC,
        Policy.MP_TSC,
    ):
        return constrained_schedule(inp, bounds=bounds)

    if bounds is None:
        bounds = (
            mtv(inp.attrs, inp.task, inp.budgets, inp.quanta),
            mutv(inp.attrs, inp.task, inp.prices, inp.budgets, inp.quanta),
        )
    n_max, n_unc = bounds
    if inp.n == 0:
        return SolveOutcome(OutcomeKind.OPTIMAL, ScheduleDecision(), 0.0, n_unc, n_max)
    if inp.n > n_max:
        return SolveOutcome(OutcomeKind.INFEASIBLE, None, None, n_unc, n_max)
    t_b = inp.budgets.t_budget
    if math.isinf(t_b) or math.isinf(inp.budgets.freq_cells) or math.isinf(inp.budgets.compute_cells):
        # width/time-greedy objectives are only meaningful under scarcity
        return constrained_schedule(inp, bounds=bounds)

    procs = _consumption_processes(inp.n, inp.task, inp.prices, inp.budgets, inp.quanta)

    def build(gen, splits):
        decision = ScheduleDecision(gen, *_consumption_decision(splits))
        return SolveOutcome(
            OutcomeKind.OPTIMAL, decision, decision.cost(inp.prices), n_unc, n_max
        )

    if policy in (Policy.MC_T, Policy.MLPG):
        gen = _min_time_generation(inp.n, inp.attrs, inp.budgets)
        splits = {p.name: ((p.volume / p.width_max, p.width_max) if p.volume > 0 else (0.0, 0.0)) for p in procs}
        if gen is None or sum(t for t, _ in splits.values()) > t_b * (1 + 1e-9):
            return SolveOutcome(OutcomeKind.INFEASIBLE, None, None, n_unc, n_max)
        return build(gen, splits)

    if policy == Policy.MC_FC:
        # widths as narrow as the window allows: time price ~ 0 in the solve,
        # true prices in the reported cost
        a, b = inp.attrs.a, inp.attrs.b
        if inp.n <= a * t_b:
            gen = GenSchedule(inp.n / a, 0.0, 0.0) if a > 0 else None
        elif b > 0:
            y = over_product(inp.n - a * t_b, b, t_b)
            gen = GenSchedule(t_b, y, t_b) if y <= inp.budgets.gen_bandwidth * (1 + 1e-9) else None
        else:
            gen = None
        cons = _enumerate_consumption(procs, 1e-12, t_b)
        if gen is None or cons is None:
            return SolveOutcome(OutcomeKind.INFEASIBLE, None, None, n_unc, n_max)
        return build(gen, cons[0])

    if policy in (Policy.SENS_OPT, Policy.COMM_OPT, Policy.COMP_OPT):
        if policy == Policy.SENS_OPT:
            gen = _min_time_generation(inp.n, inp.attrs, inp.budgets)
            forced = frozenset()
        else:
            gen_best = _solve_generation(
                inp.n, inp.attrs.a, inp.attrs.b, inp.prices, t_b, inp.budgets.gen_bandwidth
            )
            gen = gen_best[0] if gen_best else None
            forced = (
                frozenset({"down_bandwidth", "up_bandwidth"})
                if policy == Policy.COMM_OPT
                else frozenset({"compute"})
            )
        cons = _enumerate_consumption(procs, inp.prices.time, t_b, forced_boxes=forced)
        if gen is None or cons is None:
            return SolveOutcome(OutcomeKind.INFEASIBLE, None, None, n_unc, n_max)
        return build(gen, cons[0])

    raise ValueError(f"unknown policy {policy}")
