"""Benchmark client-selection and scheduling policies.

Each policy keeps the full constraint set and differs from SISCC, the
engine's own welfare-driven pipeline, only in what its row of `POLICIES`
states: latency-ranked pre-selection, width-greedy or time-greedy scheduling
and realization, a quality-blind gain rate, or gain-at-any-cost allocation.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from .costs import (
    GenSchedule,
    ScheduleDecision,
    over_product,
)
from .market import ClientQuote
from .solver import (
    CHAIN,
    GEN_BANDWIDTH,
    RACED,
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
    solved,
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


@dataclass(slots=True)
class SelectionMetrics:
    """Per-client figures the latency/product rankings are built from, all at
    full parallel width."""

    comm_latency: float  # download + upload time, cells
    comp_latency: float  # training time at the reference workload, cells
    sensing_latency: float  # sensing time at the reference workload, cells
    sensed_targets: int
    peak_sample_rate: float  # best per-cell yield: a + b * bandwidth


@dataclass(slots=True)
class PolicySpec:
    """Everything a policy changes relative to SISCC.

    schedule: per-client objective, for the continuous solve and the
        whole-cell realization alike; "cost" is the exact solver, "width"
        the narrowest widths, and the others race the parts `solver.RACED`
        names for them ("time" all four, "sensing"/"comm"/"comp" the named
        process) and solve the rest for cost.
    rank: pre-selection key over SelectionMetrics (ascending), or None for no
        pre-selection.
    mean_rate: the market sees every client at the mean gain rate
        (quality-blind).
    saturate: gain-greedy saturated allocation instead of the market, and no
        individual-rationality drop at settlement.
    """

    schedule: str = "cost"
    rank: Callable[[SelectionMetrics], float] | None = None
    mean_rate: bool = False
    saturate: bool = False


POLICIES: dict[Policy, PolicySpec] = {
    Policy.SISCC: PolicySpec(),
    Policy.WISCC: PolicySpec(mean_rate=True),
    Policy.SENS_OPT: PolicySpec(schedule="sensing"),
    Policy.COMM_OPT: PolicySpec(schedule="comm"),
    Policy.COMP_OPT: PolicySpec(schedule="comp"),
    Policy.ML_C: PolicySpec(rank=lambda m: m.comm_latency),
    Policy.ML_CC: PolicySpec(rank=lambda m: m.comm_latency + m.comp_latency),
    Policy.ML_SCC: PolicySpec(
        rank=lambda m: m.comm_latency + m.comp_latency + m.sensing_latency
    ),
    Policy.MP_TSC: PolicySpec(rank=lambda m: -(m.sensed_targets * m.peak_sample_rate)),
    Policy.MC_T: PolicySpec(schedule="time"),
    Policy.MC_FC: PolicySpec(schedule="width"),
    Policy.MLPG: PolicySpec(schedule="time", saturate=True),
}

# the time price the width objective solves its chain at: time next to free
WIDTH_TIME_PRICE = 1e-12


def realize_with_policy(policy: Policy, inp: SolveInput):
    """Best whole-cell schedule for the policy's objective (true prices break
    ties); None when no integral schedule fits the window."""
    return realize_schedule(
        inp.n, inp.attrs, inp.task, inp.prices, inp.budgets, inp.quanta,
        POLICIES[policy].schedule,
    )


def select_clients(
    policy: Policy,
    quotes: list[ClientQuote],
    metrics: dict[str, SelectionMetrics],
    k: int,
) -> list[str]:
    """Pick up to k client ids under the policy's ranking.

    Latency policies rank ascending on their latency sum; the target-product
    policy ranks descending on count x capacity.  Ties break on client id.
    A policy without a ranking (`PolicySpec.rank` is None) raises ValueError.
    """
    if k > len(quotes):
        raise ValueError("cannot select more clients than quoted")
    spec = POLICIES[policy]
    if spec.rank is None:
        raise ValueError(f"policy {Policy(policy).value} has no selection ranking")
    ranked = sorted(quotes, key=lambda q: (spec.rank(metrics[q.client_id]), q.client_id))
    return [q.client_id for q in ranked[:k]]


def _min_time_generation(n, attrs, budgets) -> GenSchedule | None:
    """Fastest sensing schedule for n > 0 samples: full bandwidth, shortest
    span."""
    width = budgets.gen_bandwidth if attrs.b > 0 else 0.0
    rate = attrs.a + attrs.b * width
    if rate <= 0 or n / rate > budgets.time_cells * (1 + 1e-9):
        return None
    x = n / rate
    return GenSchedule(x, width, x if width else 0.0)


def schedule_with_policy(
    policy: Policy, inp: SolveInput, bounds: tuple[float, float] | None = None
) -> SolveOutcome:
    """Per-client schedule under the policy's objective.

    The exact solver takes the cost objective and every case it settles:
    no workload, one past mtv, or a pool of no finite size (the other
    objectives only mean something under scarcity).  Otherwise the
    objective's raced parts (`RACED`) sit at their width box and the rest
    is solved for cost, or the widths are the narrowest the window allows.
    The outcome is `solved`'s, as the exact solver's is.  `bounds` is (mtv,
    mutv) of the input when the caller already has it.
    """
    objective = POLICIES[policy].schedule
    if bounds is None:
        bounds = (
            mtv(inp.attrs, inp.task, inp.budgets, inp.quanta),
            mutv(inp.attrs, inp.task, inp.prices, inp.budgets, inp.quanta),
        )
    t_b = inp.budgets.time_cells
    pools = (t_b, inp.budgets.freq_cells, inp.budgets.compute_cells)
    if objective == "cost" or inp.n <= 0 or inp.n > bounds[0] or any(map(math.isinf, pools)):
        return constrained_schedule(inp, bounds=bounds)

    raced = RACED[objective]
    procs = _consumption_processes(inp.n, inp.task, inp.prices, inp.budgets, inp.quanta)
    if raced is None:
        # widths as narrow as the window allows: time price ~ 0 in the solve,
        # true prices in the reported cost
        a, b = inp.attrs.a, inp.attrs.b
        if inp.n <= a * t_b:  # n >= 1, so a > 0
            gen = GenSchedule(inp.n / a, 0.0, 0.0)
        elif b > 0:
            y = over_product(inp.n - a * t_b, b, t_b)
            gen = GenSchedule(t_b, y, t_b) if y <= inp.budgets.gen_bandwidth * (1 + 1e-9) else None
        else:
            gen = None
    elif GEN_BANDWIDTH in raced:
        gen = _min_time_generation(inp.n, inp.attrs, inp.budgets)
    else:
        gen_best = _solve_generation(
            inp.n, inp.attrs.a, inp.attrs.b, inp.prices, t_b, inp.budgets.gen_bandwidth
        )
        gen = gen_best[0] if gen_best else None

    if raced is not None and CHAIN <= raced:
        # every width at its box: the chain's one split, no enumeration
        splits = {p.name: ((p.volume / p.width_max, p.width_max) if p.volume > 0 else (0.0, 0.0)) for p in procs}
        if sum(t for t, _ in splits.values()) > t_b * (1 + 1e-9):
            splits = None
    else:
        time_price = WIDTH_TIME_PRICE if raced is None else inp.prices.time
        cons = _enumerate_consumption(procs, time_price, t_b, forced_boxes=raced or frozenset())
        splits = None if cons is None else cons[0]
    if gen is None or splits is None:
        return solved(None, None, bounds)
    decision = ScheduleDecision(gen, *_consumption_decision(splits))
    return solved(decision, decision.cost(inp.prices), bounds)
