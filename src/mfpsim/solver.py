"""Constrained minimum-cost scheduling for one client and one round pair.

The solve is split along the round boundary: sensing happens in the current
round, the download/compute/upload chain in the next, and the two sides only
share the workload, so each side is optimized independently.

Each side is a tiny convex program: a linear cell cost, one bilinear equality
per sub-process tying time to width, box limits on widths and time.  Rather
than running a numeric solver we enumerate the possible sets of binding
limits.  Every active set yields a closed-form stationary point (free
sub-processes balance time against width under a shared effective time price;
boxed ones sit on their width limit), so the cheapest feasible candidate is
the exact optimum.  Thresholds:

  * mutv: largest workload whose box-free optimum already fits the pools
    (below it the closed forms apply unchanged);
  * mtv: largest workload for which any feasible schedule exists (above it
    the solve reports infeasibility).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .costs import (
    ComputeSchedule,
    ConsumptionTask,
    GenSchedule,
    PriceVector,
    ScheduleDecision,
    TransferSchedule,
    over_product,
    unconstrained_comm_schedule,
    unconstrained_comp_schedule,
    unconstrained_gen_schedule,
)
from .resource_pool import ResourceQuanta
from .scenario import StatusAttributes

_TOL = 1e-9
# relative margin of the box-free exit's cost gaps: far above the few ulps
# by which a computed candidate cost can miss its exact value
_EXIT_SLACK = 1e-12
INFEASIBLE_SENTINEL = -1

GEN_TIME = "gen_time"
GEN_BANDWIDTH = "gen_bandwidth"
CONS_TIME = "cons_time"
DOWN_BANDWIDTH = "down_bandwidth"
UP_BANDWIDTH = "up_bandwidth"
COMPUTE = "compute"

_CONS_BOX_IDS = (DOWN_BANDWIDTH, COMPUTE, UP_BANDWIDTH)


@dataclass(frozen=True)
class Budgets:
    """Pool capacities for a round pair, all in cells.

    cycle_cells is the pipeline period fixed before the round starts; both the
    sensing window and the consumption chain must fit min(time_cells,
    cycle_cells).  The two optional overrides carry spectrum-sharing splits:
    gen_freq_cells tightens the sensing bandwidth beside already-placed
    transfers, cons_freq_cells tightens transfer bandwidth to leave room for
    the sensing block sharing the window.
    """

    time_cells: float
    freq_cells: float
    compute_cells: float
    cycle_cells: float = math.inf
    gen_freq_cells: float | None = None
    cons_freq_cells: float | None = None

    @property
    def t_budget(self) -> float:
        return min(self.time_cells, self.cycle_cells)

    @property
    def gen_bandwidth(self) -> float:
        return self.freq_cells if self.gen_freq_cells is None else self.gen_freq_cells

    @property
    def cons_bandwidth(self) -> float:
        return self.freq_cells if self.cons_freq_cells is None else self.cons_freq_cells


@dataclass(frozen=True)
class SolveInput:
    n: int
    attrs: StatusAttributes
    task: ConsumptionTask
    prices: PriceVector
    budgets: Budgets
    quanta: ResourceQuanta = ResourceQuanta()


class OutcomeKind:
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class SolveOutcome:
    kind: str
    decision: ScheduleDecision | None
    cost: float | None
    mutv: float
    mtv: float
    active_constraints: frozenset[str] = frozenset()
    trace: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "cost": self.cost,
            "mutv": None if math.isinf(self.mutv) else self.mutv,
            "mtv": None if math.isinf(self.mtv) else self.mtv,
            "active_constraints": sorted(self.active_constraints),
        }
        if self.decision is not None:
            d = self.decision
            out["schedule"] = {
                "gen": {"t_vs": d.gen.t_vs, "b_ws": d.gen.b_ws, "t_ws": d.gen.t_ws},
                "comm_down": {"t": d.comm_down.t, "b": d.comm_down.b},
                "comp": {"t": d.comp.t, "f": d.comp.f},
                "comm_up": {"t": d.comm_up.t, "b": d.comm_up.b},
            }
        if self.trace is not None:
            out["trace"] = self.trace
        return out


def _floor_tol(x: float) -> float:
    if math.isinf(x):
        return x
    return math.floor(x + _TOL * max(1.0, abs(x)))


# ---------------------------------------------------------------------------
# generation side


def _solve_generation(n, a, b, prices: PriceVector, t_max, b_max):
    """Min-cost (x, y) with a*x + b*x*y = n, 0 <= x <= t_max, 0 <= y <= b_max.

    Returns (GenSchedule, cost, active_ids) or None when n exceeds the
    generation-side capacity.
    """
    if n <= 0:
        return GenSchedule(), 0.0, frozenset()
    candidates = []  # (x, y, active ids)
    if b > 0:
        x0 = math.sqrt(over_product(n * prices.freq, b, prices.time))
        y0 = (math.sqrt(n * b * prices.time / prices.freq) - a) / b
        candidates.append((x0, y0, frozenset()))
        if not math.isinf(b_max) and a + b * b_max > 0:
            candidates.append((n / (a + b * b_max), b_max, frozenset({GEN_BANDWIDTH})))
        if not math.isinf(t_max) and t_max > 0:
            candidates.append((t_max, over_product(n - a * t_max, b, t_max), frozenset({GEN_TIME})))
    if a > 0:
        candidates.append((n / a, 0.0, frozenset()))

    best = None
    best_key = None
    for x, y, active in candidates:
        if x < -_TOL or y < -_TOL:
            continue
        if x > t_max * (1 + _TOL) + _TOL or y > b_max * (1 + _TOL) + _TOL:
            continue
        x, y = max(x, 0.0), max(min(y, b_max), 0.0)
        cost = x * prices.time + y * prices.freq
        key = (x, y)  # cost ties broken toward less time, then less bandwidth
        if best is None or cost < best[1] - _TOL or (cost <= best[1] + _TOL and key < best_key):
            sched = GenSchedule(x, y, x if y > 0 else 0.0)
            best = (sched, cost, active)
            best_key = key
    return best


def _gen_mtv(a, b, t_max, b_max) -> float:
    wireless_live = b > 0 and b_max > 0
    if a <= 0 and not wireless_live:
        return 0.0
    if math.isinf(t_max) or (wireless_live and math.isinf(b_max)):
        return math.inf
    return a * t_max + (b * t_max * b_max if wireless_live else 0.0)


def _gen_mutv(a, b, prices: PriceVector, t_max, b_max) -> float:
    """Largest n whose box-free sensing optimum satisfies x <= t_max, y <= b_max."""
    if a <= 0 and b <= 0:
        return 0.0
    if b <= 0:
        return a * t_max
    # pure-visual regime (y0 < 0) holds while n < a^2 * freq / (b * time);
    # there x = n/a, so the time box is the first to bind when t_max is small.
    if a > 0 and t_max * b * prices.time <= a * prices.freq:
        return a * t_max
    bound_t = math.inf if math.isinf(t_max) else t_max**2 * b * prices.time / prices.freq
    bound_b = (
        math.inf
        if math.isinf(b_max)
        else over_product((a + b * b_max) ** 2 * prices.freq, b, prices.time)
    )
    return min(bound_t, bound_b)


# ---------------------------------------------------------------------------
# consumption side

@dataclass(frozen=True)
class _Process:
    """One hyperbola-constrained sub-process: time * width = volume (cell^2)."""

    name: str
    volume: float
    width_price: float
    width_max: float


def _consumption_processes(
    n, task: ConsumptionTask, prices: PriceVector, budgets: Budgets, quanta: ResourceQuanta
) -> list[_Process] | None:
    """Cell-space volumes of the three consumption sub-processes; None when a
    required link is unusable."""
    cell_bits_down = task.eff_down * quanta.time_s * quanta.freq_hz
    cell_bits_up = task.eff_up * quanta.time_s * quanta.freq_hz
    cell_cycles = quanta.compute_cycles_per_s * quanta.time_s
    if task.d_down_bits > 0 and cell_bits_down <= 0:
        return None
    if task.d_up_bits > 0 and cell_bits_up <= 0:
        return None
    return [
        _Process(
            DOWN_BANDWIDTH,
            task.d_down_bits / cell_bits_down if task.d_down_bits > 0 else 0.0,
            prices.freq,
            budgets.cons_bandwidth,
        ),
        _Process(
            COMPUTE,
            n * task.cycles_per_sample / cell_cycles,
            prices.compute,
            budgets.compute_cells,
        ),
        _Process(
            UP_BANDWIDTH,
            task.d_up_bits / cell_bits_up if task.d_up_bits > 0 else 0.0,
            prices.freq,
            budgets.cons_bandwidth,
        ),
    ]


@functools.lru_cache(maxsize=None)
def _box_sets(n_live: int, boxable: tuple[int, ...], forced: frozenset[int]):
    """(boxed, free) index tuples of the live sub-processes, boxed sets by
    size in `itertools.combinations` order, those missing a forced box left
    out.  A chain has three sub-processes, so there are a few dozen keys."""
    return tuple(
        (boxed, tuple(i for i in range(n_live) if i not in boxed))
        for boxed in itertools.chain.from_iterable(
            itertools.combinations(boxable, k) for k in range(len(boxable) + 1)
        )
        if forced.issubset(boxed)
    )


def _enumerate_consumption(
    procs: list[_Process],
    time_price: float,
    t_budget: float,
    forced_boxes: frozenset[str] = frozenset(),
):
    """Exact min-cost split of the serial chain.

    Enumerates which width boxes and the shared time budget bind.  Free
    sub-processes balance under an effective time price tau; when the budget
    binds, tau follows in closed form from the leftover time.  The cheapest
    primal-feasible candidate is the optimum.  forced_boxes pins the named
    widths at their maximum (used by width-greedy baseline policies).

    Returns (splits, cost, active_ids) with splits: name -> (time, width),
    or None when even the fastest chain misses the budget.

    It keeps the operation order of a straightforward enumeration with a
    (time, width) dict per candidate, so costs and splits match it bit for
    bit: candidates are index subsets of the live sub-processes by size,
    each with the time price before the budget's tau; every float comes
    from the same operands in the same order; every sum stays a builtin
    `sum()` over the live sub-processes in chain order (the zeros of idle
    ones add nothing).  Per-call invariants are computed once, a candidate
    is two small lists, and the splits dict and active set are built only
    for the winner.

    Box-free exit.  With no forced box, the first candidate (no box, time
    price tp) is evaluated on its own and returned when it is feasible and
    no other candidate can come within the 1e-9 tie window of its cost;
    otherwise the full enumeration runs.  Every candidate gives each live
    sub-process i a time t > 0 and the width v_i / t, and
    tp*t + p_i*v_i/t = 2*sqrt(tp*p_i*v_i) + tp*(t - x_i)**2 / t, where
    x_i = sqrt(v_i*p_i/tp) is its free time and w_i = v_i / x_i its free
    width.  A candidate therefore costs the first one's cost plus a sum of
    nonnegative gaps:
      * a boxed sub-process sits at t_box_i = v_i / w_max_i and adds
        tp*(x_i - t_box_i)**2 / t_box_i = p_i*(w_max_i - w_i)**2 / w_max_i,
        so a candidate with any box costs at least the smallest box gap
        more;
      * the box-free candidate at the budget's tau stretches every free
        time by T / S (T the budget, S = sum(x)) and adds tp*(T - S)**2 / T.
    Away from underflow, every cost is a sum of nonnegative terms whose
    computed value is off by a few ulps of its size.  When each gap g
    clears g - 1e-9 > 1e-12 * (cost + g + 1e-9), far above those ulps,
    every other candidate's computed cost exceeds the first one's by more
    than 1e-9, so the tie rule never lets it replace the first.  A NaN or
    infinite gap fails the test, so such inputs enumerate.
    """
    live = [p for p in procs if p.volume > 0]
    if not live:
        return {p.name: (0.0, 0.0) for p in procs}, 0.0, frozenset()
    if any(p.width_max <= 0 for p in live):
        return None
    t_box = [p.volume / p.width_max for p in live]
    if sum(t_box) > t_budget * (1 + _TOL):
        return None

    volume = [p.volume for p in live]
    w_box = [p.width_max for p in live]
    w_cap = [w * (1 + _TOL) for w in w_box]
    w_price = [p.width_price for p in live]
    vol_price = [p.volume * p.width_price for p in live]
    root = [math.sqrt(v) for v in vol_price]
    boxable = tuple(i for i, p in enumerate(live) if not math.isinf(p.width_max))
    forced = frozenset(i for i in boxable if live[i].name in forced_boxes)
    finite_budget = not math.isinf(t_budget)
    t_over = t_budget * (1 + _TOL) + _TOL
    t_binds = t_budget * (1 - _TOL) - _TOL

    best = None  # (times, widths, boxed, budget binds)
    best_cost = best_t = best_w = 0.0
    if not forced and time_price > 0:
        # the first candidate, from the loop's operands in the loop's order
        times, widths = t_box[:], w_box[:]
        for i in range(len(live)):
            x = math.sqrt(vol_price[i] / time_price)
            w = volume[i] / x
            if w > w_cap[i]:
                break
            times[i] = x
            widths[i] = w
        else:
            total_t = sum(times)
            if total_t <= t_over:
                cost = time_price * total_t + sum(map(operator.mul, w_price, widths))
                gaps = []
                for i in boxable:
                    d = w_box[i] - widths[i]
                    gaps.append(w_price[i] * d * d / w_box[i])
                if finite_budget:
                    d = t_budget - total_t
                    gaps.append(time_price * d * d / t_budget if t_budget > 0 else 0.0)
                if all(g - _TOL > _EXIT_SLACK * (cost + g + _TOL) for g in gaps):
                    best = (times, widths, (), finite_budget and total_t >= t_binds)
                    best_cost = cost
    if best is None:
        for boxed, free in _box_sets(len(live), boxable, forced):
            taus = [time_price]
            if free and finite_budget:
                rem = t_budget - sum([t_box[i] for i in boxed])
                if rem > _TOL:
                    taus.append((sum([root[i] for i in free]) / rem) ** 2)
            for tau in taus:
                if tau <= 0:
                    continue
                times = t_box[:]
                widths = w_box[:]
                for i in free:
                    x = math.sqrt(vol_price[i] / tau)
                    w = volume[i] / x
                    if w > w_cap[i]:
                        break
                    times[i] = x
                    widths[i] = w
                else:
                    total_t = sum(times)
                    if total_t > t_over:
                        continue
                    cost = time_price * total_t + sum(map(operator.mul, w_price, widths))
                    width_sum = sum(widths)
                    if (
                        best is None
                        or cost < best_cost - _TOL
                        or (
                            cost <= best_cost + _TOL
                            and (total_t < best_t or (total_t == best_t and width_sum < best_w))
                        )
                    ):
                        best = (times, widths, boxed, finite_budget and total_t >= t_binds)
                        best_cost, best_t, best_w = cost, total_t, width_sum
        if best is None:
            return None
    times, widths, boxed, binds = best
    splits = {p.name: (0.0, 0.0) for p in procs}
    for i, p in enumerate(live):
        splits[p.name] = (times[i], widths[i])
    active = frozenset(live[i].name for i in boxed)
    if binds:
        active = active | {CONS_TIME}
    return splits, best_cost, active


def _cons_mtv(procs: list[_Process] | None, task, t_budget, quanta) -> float:
    """Largest workload whose fastest chain (all widths maxed) fits the budget."""
    if procs is None:
        return INFEASIBLE_SENTINEL
    down, comp, up = procs
    fixed = 0.0
    for p in (down, up):
        if p.volume > 0:
            if p.width_max <= 0 or math.isinf(p.volume / p.width_max):
                return INFEASIBLE_SENTINEL
            fixed += p.volume / p.width_max
    if fixed > t_budget * (1 + _TOL):
        return INFEASIBLE_SENTINEL
    if task.cycles_per_sample <= 0:
        return math.inf
    if math.isinf(comp.width_max) or math.isinf(t_budget):
        return math.inf
    cell_cycles = quanta.compute_cycles_per_s * quanta.time_s
    return (t_budget - fixed) * comp.width_max * cell_cycles / task.cycles_per_sample


def _cons_mutv(procs: list[_Process] | None, task, prices, t_budget, quanta) -> float:
    """Largest workload whose box-free consumption optimum fits every limit."""
    if procs is None:
        return INFEASIBLE_SENTINEL
    down, comp, up = procs
    for p in (down, up):
        if p.volume > 0 and math.sqrt(p.volume * prices.time / p.width_price) > p.width_max * (1 + _TOL):
            return INFEASIBLE_SENTINEL
    bounds = [math.inf]
    cell_cycles = quanta.compute_cycles_per_s * quanta.time_s
    if task.cycles_per_sample > 0 and not math.isinf(comp.width_max):
        bounds.append(
            comp.width_max**2 * prices.compute * cell_cycles / (prices.time * task.cycles_per_sample)
        )
    if not math.isinf(t_budget):
        fixed_t = sum(
            math.sqrt(p.volume * p.width_price / prices.time) for p in (down, up) if p.volume > 0
        )
        slack = t_budget - fixed_t
        if slack < -_TOL:
            return INFEASIBLE_SENTINEL
        if task.cycles_per_sample > 0:
            # sqrt(n * k * compute_price / time_price) <= slack
            k = task.cycles_per_sample / cell_cycles
            bounds.append(max(slack, 0.0) ** 2 * prices.time / (k * prices.compute))
    return min(bounds)


# ---------------------------------------------------------------------------
# public thresholds and solve


def mtv(
    attrs: StatusAttributes,
    task: ConsumptionTask,
    budgets: Budgets,
    quanta: ResourceQuanta = ResourceQuanta(),
) -> float:
    """Maximum transaction volume: largest integer workload any schedule can
    serve; -1 when even the workload-independent transfers cannot fit."""
    t_b = budgets.t_budget
    gen = _gen_mtv(attrs.a, attrs.b, t_b, budgets.gen_bandwidth)
    procs = _consumption_processes(0, task, PriceVector(), budgets, quanta)
    cons = _cons_mtv(procs, task, t_b, quanta)
    if cons == INFEASIBLE_SENTINEL:
        return INFEASIBLE_SENTINEL
    return _floor_tol(min(gen, cons))


def mutv(
    attrs: StatusAttributes,
    task: ConsumptionTask,
    prices: PriceVector,
    budgets: Budgets,
    quanta: ResourceQuanta = ResourceQuanta(),
) -> float:
    """Maximum unconstrained transaction volume: largest integer workload whose
    box-free optima of all four sub-processes fit inside the pools."""
    t_b = budgets.t_budget
    gen = _gen_mutv(attrs.a, attrs.b, prices, t_b, budgets.gen_bandwidth)
    procs = _consumption_processes(0, task, prices, budgets, quanta)
    cons = _cons_mutv(procs, task, prices, t_b, quanta)
    if cons == INFEASIBLE_SENTINEL:
        return INFEASIBLE_SENTINEL
    return _floor_tol(min(gen, cons))


def _consumption_decision(splits) -> tuple[TransferSchedule, ComputeSchedule, TransferSchedule]:
    return (
        TransferSchedule(*splits[DOWN_BANDWIDTH]),
        ComputeSchedule(*splits[COMPUTE]),
        TransferSchedule(*splits[UP_BANDWIDTH]),
    )


def constrained_schedule(
    inp: SolveInput, explain: bool = False, bounds: tuple[float, float] | None = None
) -> SolveOutcome:
    """Cheapest full schedule for workload `inp.n` under pool limits.

    Dispatch: workloads at or below mutv reuse the box-free closed forms;
    between mutv and mtv the binding-set enumeration runs; above mtv the
    outcome is infeasible.  `bounds` is (mtv, mutv) of the input when the
    caller already has it: neither depends on the workload, so a caller
    solving many workloads for one client computes them once.
    """
    if inp.n < 0:
        raise ValueError("workload must be nonnegative")
    if bounds is None:
        bounds = (
            mtv(inp.attrs, inp.task, inp.budgets, inp.quanta),
            mutv(inp.attrs, inp.task, inp.prices, inp.budgets, inp.quanta),
        )
    n_max, n_unc = bounds
    trace: dict | None = {} if explain else None

    if inp.n == 0:
        return SolveOutcome(OutcomeKind.OPTIMAL, ScheduleDecision(), 0.0, n_unc, n_max, trace=trace)
    if inp.budgets.t_budget <= 0 or inp.n > n_max:
        return SolveOutcome(OutcomeKind.INFEASIBLE, None, None, n_unc, n_max, trace=trace)

    if inp.n <= n_unc:
        gen, c_gen = unconstrained_gen_schedule(inp.n, inp.attrs, inp.prices)
        down, c_down = unconstrained_comm_schedule(
            inp.task.d_down_bits, inp.task.eff_down, inp.prices, inp.quanta
        )
        comp, c_comp = unconstrained_comp_schedule(
            inp.n * inp.task.cycles_per_sample, inp.prices, inp.quanta
        )
        up, c_up = unconstrained_comm_schedule(
            inp.task.d_up_bits, inp.task.eff_up, inp.prices, inp.quanta
        )
        decision = ScheduleDecision(gen, down, comp, up)
        if explain:
            trace["solution"] = "unconstrained"
        return SolveOutcome(
            OutcomeKind.OPTIMAL, decision, c_gen + c_down + c_comp + c_up, n_unc, n_max, trace=trace
        )

    t_b = inp.budgets.t_budget
    gen_best = _solve_generation(
        inp.n, inp.attrs.a, inp.attrs.b, inp.prices, t_b, inp.budgets.gen_bandwidth
    )
    procs = _consumption_processes(inp.n, inp.task, inp.prices, inp.budgets, inp.quanta)
    cons_best = None if procs is None else _enumerate_consumption(procs, inp.prices.time, t_b)
    if gen_best is None or cons_best is None:
        return SolveOutcome(OutcomeKind.INFEASIBLE, None, None, n_unc, n_max, trace=trace)

    gen, c_gen, gen_active = gen_best
    splits, c_cons, cons_active = cons_best
    decision = ScheduleDecision(gen, *_consumption_decision(splits))
    if explain:
        trace["solution"] = "active-set"
        trace["gen_active"] = sorted(gen_active)
        trace["cons_active"] = sorted(cons_active)
    return SolveOutcome(
        OutcomeKind.OPTIMAL,
        decision,
        c_gen + c_cons,
        n_unc,
        n_max,
        gen_active | cons_active,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# integer realization

# objective key per schedule part: lexicographic tuples summed part-wise, so
# "time" compares total cells first and cost second, etc.

def _part_key(objective: str, kind: str, t: float, width_cost: float, cost: float):
    if objective == "cost":
        return (cost, t, width_cost)
    if objective == "time":
        return (t, cost, width_cost)
    if objective == "width":
        return (width_cost, cost, t)
    if objective == "comm_time":
        return (t if kind in (DOWN_BANDWIDTH, UP_BANDWIDTH) else 0, cost, width_cost)
    if objective == "comp_time":
        return (t if kind == COMPUTE else 0, cost, width_cost)
    raise ValueError(f"unknown realization objective {objective!r}")


def _key_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _int_gen_best(n, a, b, prices, t_int, b_int, objective):
    """Exact best whole-cell sensing schedule delivering at least n samples."""
    if n <= 0:
        return GenSchedule()
    best = None
    for x in range(1, t_int + 1):
        rem = n - a * x
        if rem <= _TOL * max(1.0, n):
            y = 0
        elif b > 0:
            y = rem / (b * x) - _TOL
            if y > b_int:  # before ceil: y overflows to inf for a subnormal b
                continue
            y = math.ceil(y)
        else:
            continue
        if y > b_int:
            continue
        cost = x * prices.time + y * prices.freq
        key = _part_key(objective, "gen", x, y * prices.freq, cost)
        if best is None or key < best[0]:
            best = (key, x, y)
        if y == 0:
            break  # larger x only adds time
    if best is None:
        return None
    _, x, y = best
    return GenSchedule(x, y, x if y > 0 else 0)


def _int_proc_candidates(vol, w_int, t_int):
    """(t, w) pairs with t*w >= vol, deduplicated per distinct time."""
    if vol <= 0:
        return [(0, 0)]
    out = []
    seen_w = None
    for t in range(1, t_int + 1):
        w = math.ceil(vol / t - _TOL)
        if w > w_int:
            continue
        if w == seen_w:
            continue  # same width at more time is dominated for every key
        seen_w = w
        out.append((t, w))
    return out


def realize_schedule(
    n: int,
    attrs: StatusAttributes,
    task: ConsumptionTask,
    prices: PriceVector,
    budgets: Budgets,
    quanta: ResourceQuanta = ResourceQuanta(),
    gen_objective: str = "cost",
    cons_objective: str = "cost",
) -> ScheduleDecision | None:
    """Exact whole-cell schedule for workload n under the stated objectives.

    The sensing window and the transfer/compute chain are small enough to
    enumerate: every useful integer time split is scored with the objective's
    lexicographic key (true prices always break ties), so the realization
    never pays avoidable rounding cost.  Returns None when no integral
    schedule fits (callers drop the client for the round).
    """
    t_b = budgets.t_budget
    if math.isinf(t_b):
        raise ValueError("integer realization needs a finite time window")
    t_int = int(t_b)
    if n == 0:
        return ScheduleDecision()
    if t_int < 1:
        return None

    gen = _int_gen_best(
        n, attrs.a, attrs.b, prices, t_int, int(budgets.gen_bandwidth), gen_objective
    )
    if gen is None:
        return None

    procs = _consumption_processes(n, task, prices, budgets, quanta)
    if procs is None:
        return None
    cands = []
    for p in procs:
        w_int = int(p.width_max) if not math.isinf(p.width_max) else 10**9
        got = _int_proc_candidates(p.volume, w_int, t_int)
        if not got:
            return None
        cands.append(got)

    def scored(kind, pairs, price_w):
        out = []
        for t, w in pairs:
            cost = t * prices.time + w * price_w
            out.append((t, w, _part_key(cons_objective, kind, t, w * price_w, cost)))
        return out

    down = scored(DOWN_BANDWIDTH, cands[0], procs[0].width_price)
    comp = scored(COMPUTE, cands[1], procs[1].width_price)
    up = scored(UP_BANDWIDTH, cands[2], procs[2].width_price)
    # prefix best of the upload leg by time, for O(|down|*|comp|) search
    up_sorted = sorted(up, key=lambda c: c[0])
    prefix = []
    best = None
    for c in up_sorted:
        if best is None or c[2] < best[2]:
            best = c
        prefix.append(best)
    up_times = [c[0] for c in up_sorted]

    winner = None
    for t1, w1, k1 in down:
        for t2, w2, k2 in comp:
            rem = t_int - t1 - t2
            if rem < up_times[0]:
                continue
            idx = bisect.bisect_right(up_times, rem) - 1
            t3, w3, k3 = prefix[idx]
            key = _key_add(_key_add(k1, k2), k3)
            if winner is None or key < winner[0]:
                winner = (key, (t1, w1), (t2, w2), (t3, w3))
    if winner is None:
        return None
    _, (t1, w1), (t2, w2), (t3, w3) = winner
    return ScheduleDecision(
        gen,
        TransferSchedule(t1, w1),
        ComputeSchedule(t2, w2),
        TransferSchedule(t3, w3),
    )
