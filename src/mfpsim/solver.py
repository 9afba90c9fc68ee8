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
from dataclasses import dataclass, field

import numpy as np

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

# the parts each scheduling objective runs as fast as its pools allow: their
# widths sit at the box, and whole-cell realization ranks their time first.
# None: the narrowest widths the window allows instead.
RACED = {
    "cost": frozenset(),
    "time": frozenset({GEN_BANDWIDTH, DOWN_BANDWIDTH, COMPUTE, UP_BANDWIDTH}),
    "sensing": frozenset({GEN_BANDWIDTH}),
    "comm": frozenset({DOWN_BANDWIDTH, UP_BANDWIDTH}),
    "comp": frozenset({COMPUTE}),
    "width": None,
}
CHAIN = frozenset({DOWN_BANDWIDTH, COMPUTE, UP_BANDWIDTH})

# the prices `mtv` hands `_consumption_processes`: capacity ignores prices
_UNIT_PRICES = PriceVector()


@dataclass(slots=True)
class Budgets:
    """Pool capacities for a round pair, all in cells.

    time_cells is the window both the sensing block and the consumption
    chain must fit: a pipelined run passes the round's cycle
    (`rounds.cycle_length`, never longer than the pool).  The two optional
    overrides carry spectrum-sharing splits: gen_freq_cells tightens the
    sensing bandwidth beside already-placed transfers, cons_freq_cells
    tightens transfer bandwidth to leave room for the sensing block sharing
    the window.
    """

    time_cells: float
    freq_cells: float
    compute_cells: float
    gen_freq_cells: float | None = None
    cons_freq_cells: float | None = None

    @property
    def gen_bandwidth(self) -> float:
        return self.freq_cells if self.gen_freq_cells is None else self.gen_freq_cells

    @property
    def cons_bandwidth(self) -> float:
        return self.freq_cells if self.cons_freq_cells is None else self.cons_freq_cells


@dataclass(slots=True)
class SolveInput:
    n: int
    attrs: StatusAttributes
    task: ConsumptionTask
    prices: PriceVector
    budgets: Budgets
    quanta: ResourceQuanta = field(default_factory=ResourceQuanta)


class OutcomeKind:
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"


@dataclass(slots=True)
class SolveOutcome:
    kind: str
    decision: ScheduleDecision | None
    cost: float | None
    mutv: float
    mtv: float
    active_constraints: frozenset[str] = frozenset()

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
        return out


def solved(
    decision: ScheduleDecision | None,
    cost: float | None,
    bounds: tuple[float, float],
    active: frozenset[str] = frozenset(),
) -> SolveOutcome:
    """The outcome of a solve whose input has (mtv, mutv) `bounds`: Optimal
    with `decision`, its `cost` and the binding constraints `active`, or
    Infeasible where there is no decision or the cost is not a finite float
    (a width or cost past the float range: inf, or NaN from inf - inf)."""
    n_max, n_unc = bounds
    if decision is None or not math.isfinite(cost):
        return SolveOutcome(OutcomeKind.INFEASIBLE, None, None, n_unc, n_max)
    return SolveOutcome(OutcomeKind.OPTIMAL, decision, cost, n_unc, n_max, active)


def _square(x: float) -> float:
    """x**2 by libm `pow`, or inf where the square overflows a float:
    a capacity bound that large is no bound."""
    try:
        return x**2
    except OverflowError:
        return math.inf


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
    bound_t = math.inf if math.isinf(t_max) else _square(t_max) * b * prices.time / prices.freq
    bound_b = (
        math.inf
        if math.isinf(b_max)
        else over_product(_square(a + b * b_max) * prices.freq, b, prices.time)
    )
    return min(bound_t, bound_b)


# ---------------------------------------------------------------------------
# consumption side

@dataclass(slots=True)
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
    t_max: float,
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
    price tp) ends the enumeration when it is feasible and no other
    candidate can come within the 1e-9 tie window of its cost.  Every
    candidate gives each live sub-process i a time t > 0 and the width
    v_i / t, and
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

    A free time x that rounds to 0 (v_i*p_i / tau underflows, or tau
    overflows to inf) gets the width inf, which no finite box admits.
    """
    live = [p for p in procs if p.volume > 0]
    if not live:
        return {p.name: (0.0, 0.0) for p in procs}, 0.0, frozenset()
    if any(p.width_max <= 0 for p in live):
        return None
    t_box = [p.volume / p.width_max for p in live]
    if sum(t_box) > t_max * (1 + _TOL):
        return None

    volume = [p.volume for p in live]
    w_box = [p.width_max for p in live]
    w_cap = [w * (1 + _TOL) for w in w_box]
    w_price = [p.width_price for p in live]
    vol_price = [p.volume * p.width_price for p in live]
    root = [math.sqrt(v) for v in vol_price]
    boxable = tuple(i for i, p in enumerate(live) if not math.isinf(p.width_max))
    forced = frozenset(i for i in boxable if live[i].name in forced_boxes)
    finite_budget = not math.isinf(t_max)
    t_over = t_max * (1 + _TOL) + _TOL
    t_binds = t_max * (1 - _TOL) - _TOL

    best = None  # (times, widths, boxed, budget binds)
    best_cost = best_t = best_w = 0.0
    for boxed, free in _box_sets(len(live), boxable, forced):
        taus = [time_price]
        if free and finite_budget:
            rem = t_max - sum([t_box[i] for i in boxed])
            if rem > _TOL:
                taus.append(_square(sum([root[i] for i in free]) / rem))
        for tau in taus:
            if tau <= 0:
                continue
            times = t_box[:]
            widths = w_box[:]
            for i in free:
                x = math.sqrt(vol_price[i] / tau)
                w = volume[i] / x if x else math.inf
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
                if not boxed and tau == time_price:  # the first candidate: the box-free exit
                    gaps = []
                    for i in boxable:
                        d = w_box[i] - widths[i]
                        gaps.append(w_price[i] * d * d / w_box[i])
                    if finite_budget:
                        d = t_max - total_t
                        gaps.append(time_price * d * d / t_max if t_max > 0 else 0.0)
                    if all(g - _TOL > _EXIT_SLACK * (cost + g + _TOL) for g in gaps):
                        break
        else:
            continue
        break  # taken by the box-free exit alone
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


def _cons_mtv(procs: list[_Process] | None, task, t_max, quanta) -> float:
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
    if fixed > t_max * (1 + _TOL):
        return INFEASIBLE_SENTINEL
    if task.cycles_per_sample <= 0:
        return math.inf
    if math.isinf(comp.width_max) or math.isinf(t_max):
        return math.inf
    cell_cycles = quanta.compute_cycles_per_s * quanta.time_s
    return (t_max - fixed) * comp.width_max * cell_cycles / task.cycles_per_sample


def _cons_mutv(procs: list[_Process] | None, task, prices, t_max, quanta) -> float:
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
            _square(comp.width_max) * prices.compute * cell_cycles
            / (prices.time * task.cycles_per_sample)
        )
    if not math.isinf(t_max):
        fixed_t = sum(
            math.sqrt(p.volume * p.width_price / prices.time) for p in (down, up) if p.volume > 0
        )
        slack = t_max - fixed_t
        if slack < -_TOL:
            return INFEASIBLE_SENTINEL
        if task.cycles_per_sample > 0:
            # sqrt(n * k * compute_price / time_price) <= slack
            k = task.cycles_per_sample / cell_cycles
            bounds.append(_square(max(slack, 0.0)) * prices.time / (k * prices.compute))
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
    t_b = budgets.time_cells
    gen = _gen_mtv(attrs.a, attrs.b, t_b, budgets.gen_bandwidth)
    procs = _consumption_processes(0, task, _UNIT_PRICES, budgets, quanta)
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
    t_b = budgets.time_cells
    gen = _gen_mutv(attrs.a, attrs.b, prices, t_b, budgets.gen_bandwidth)
    procs = _consumption_processes(0, task, prices, budgets, quanta)
    cons = _cons_mutv(procs, task, prices, t_b, quanta)
    if cons == INFEASIBLE_SENTINEL:
        return INFEASIBLE_SENTINEL
    return _floor_tol(min(gen, cons))


def fleet_bounds(
    a,
    b,
    gen_bandwidth,
    eff_down,
    eff_up,
    task: ConsumptionTask,
    prices: PriceVector,
    budgets: Budgets,
    quanta: ResourceQuanta = ResourceQuanta(),
) -> tuple[list, list]:
    """`mtv` and `mutv` of a whole fleet in one numpy pass, as two columns.

    Client i has coefficients a[i] and b[i], `task` with the efficiencies
    eff_down[i] and eff_up[i], and `budgets` with the sensing bandwidth
    gen_bandwidth[i].  Entry i of each column is its mtv and mutv of those
    inputs, with the same values and Python types: an int, an infinity or
    the -1 sentinel.  The mutv is None where the mtv is below 1: such a
    client does not quote, so, as in a per-client loop, its mutv is never
    taken and cannot raise.

    Bitwise equal to the scalar functions, which stay the definition:
    - the `* / + -` steps, `sqrt` and comparisons are numpy ops in the
      scalar expressions' order, each correctly rounded like Python's; the
      sums start from 0.0 where the scalar's start from the int 0, the same
      float for the nonnegative terms added here;
    - Python's `min(x, y)` is `np.where(y < x, y, x)` and `max(x, y)` is
      `np.where(y > x, y, x)`: both keep the first argument on ties and nan;
    - the squares stay `_square` (libm `pow`) in per-client expressions,
      as does `over_product`, so zero divisions raise for the clients whose
      scalar calls raise, and only for those;
    - the final floor is `_fleet_floor`, which gives `_floor_tol`'s values,
      types and errors;
    - numpy's warnings are off, as branches the scalar never takes are
      computed and then discarded.
    """
    a, b, w, eff_down, eff_up = (
        np.asarray(x, dtype=float) for x in (a, b, gen_bandwidth, eff_down, eff_up)
    )
    with np.errstate(all="ignore"):
        vol_down, dead_down = _fleet_volume(task.d_down_bits, eff_down, quanta)
        vol_up, dead_up = _fleet_volume(task.d_up_bits, eff_up, quanta)
        dead = dead_down | dead_up
        caps = _fleet_mtv(a, b, w, vol_down, vol_up, dead, task, budgets, quanta)
        q = np.array([i for i, cap in enumerate(caps) if cap >= 1], dtype=int)
        n_unc = _fleet_mutv(
            a[q], b[q], w[q], vol_down[q], vol_up[q], dead[q], task, prices, budgets, quanta
        )
    n_uncs = [None] * len(caps)
    for i, n in zip(q.tolist(), n_unc):
        n_uncs[i] = n
    return caps, n_uncs


def _fleet_volume(bits, eff, quanta):
    """Each client's transfer volume in cell^2, as `_consumption_processes`
    takes it, and whether its link cannot carry the transfer."""
    if not bits > 0:
        return np.zeros(len(eff)), np.zeros(len(eff), dtype=bool)
    cell_bits = eff * quanta.time_s * quanta.freq_hz
    return bits / cell_bits, cell_bits <= 0


def _fleet_floor(gen, cons) -> list:
    """`_floor_tol(min(gen, cons))` per client, or the sentinel where the
    chain side is infeasible, with `_floor_tol`'s types and errors.

    One numpy floor of m + _TOL * max(1.0, |m|): `np.where(|m| > 1, |m|,
    1.0)` keeps Python's `max` of its first argument on ties and nan, and
    `np.floor` of a float is the float of `math.floor`'s int.  A finite
    result becomes that int by `int`, exact at any size; an infinite m stays
    a float; and, in client order, a nan raises `ValueError` and a floor
    that overflowed `OverflowError`, as `math.floor` does.  The sentinel,
    -1, floors to itself.
    """
    dead = cons == INFEASIBLE_SENTINEL
    m = np.where(dead, float(INFEASIBLE_SENTINEL), np.where(cons < gen, cons, gen))
    size = np.abs(m)
    floors = np.floor(m + _TOL * np.where(size > 1, size, 1.0))
    out = m.tolist()  # the infinities, kept as floats
    finite = np.flatnonzero(~np.isinf(m))
    for i, n in zip(finite.tolist(), map(int, floors[finite].tolist())):
        out[i] = n
    return out


def _fleet_mtv(a, b, w, vol_down, vol_up, dead, task, budgets, quanta) -> list:
    """`_gen_mtv` and `_cons_mtv` per client, floored as `mtv` floors them."""
    t_b = budgets.time_cells
    live = (b > 0) & (w > 0)
    gen = a * t_b + np.where(live, b * t_b * w, 0.0)
    gen = np.where(math.isinf(t_b) | (live & np.isinf(w)), math.inf, gen)
    gen = np.where((a <= 0) & ~live, 0.0, gen)

    width = budgets.cons_bandwidth
    fixed = 0.0
    for vol in (vol_down, vol_up):
        used = vol > 0
        t = vol / width
        dead = dead | (used & ((width <= 0) | np.isinf(t)))
        fixed = fixed + np.where(used, t, 0.0)
    dead = dead | (fixed > t_b * (1 + _TOL))
    cycles, compute = task.cycles_per_sample, budgets.compute_cells
    if cycles <= 0 or math.isinf(compute) or math.isinf(t_b):
        cons = np.full(len(a), math.inf)
    else:
        cell_cycles = quanta.compute_cycles_per_s * quanta.time_s
        cons = (t_b - fixed) * compute * cell_cycles / cycles
    return _fleet_floor(gen, np.where(dead, float(INFEASIBLE_SENTINEL), cons))


def _fleet_mutv(a, b, w, vol_down, vol_up, dead, task, prices, budgets, quanta) -> list:
    """`_gen_mutv` and `_cons_mutv` per client, floored as `mutv` floors them."""
    t_b = budgets.time_cells
    # the sensing side's branches, the first that holds wins: nothing sensed,
    # visual only, the time box binds in the visual regime, else the curve
    visual = (a > 0) & (t_b * b * prices.time <= a * prices.freq)
    curve = ~(b <= 0) & ~visual
    gen = np.where((a <= 0) & (b <= 0), 0.0, a * t_b)
    if curve.any():
        bound_t = (
            math.inf if math.isinf(t_b) else _square(t_b) * b[curve] * prices.time / prices.freq
        )
        bound_b = np.array([
            over_product(_square(x) * prices.freq, y, prices.time)
            for x, y in zip((a + b * w)[curve].tolist(), b[curve].tolist())
        ])
        bound_b[np.isinf(w[curve])] = math.inf
        gen[curve] = np.where(bound_b < bound_t, bound_b, bound_t)

    width = budgets.cons_bandwidth
    for vol in (vol_down, vol_up):
        dead = dead | ((vol > 0) & (np.sqrt(vol * prices.time / prices.freq) > width * (1 + _TOL)))
    cycles, compute = task.cycles_per_sample, budgets.compute_cells
    cell_cycles = quanta.compute_cycles_per_s * quanta.time_s
    bound = math.inf
    if cycles > 0 and not math.isinf(compute) and not dead.all():
        bound = min(bound, _square(compute) * prices.compute * cell_cycles / (prices.time * cycles))
    cons = np.full(len(a), bound)
    if not math.isinf(t_b):
        fixed = 0.0
        for vol in (vol_down, vol_up):
            fixed = fixed + np.where(vol > 0, np.sqrt(vol * prices.freq / prices.time), 0.0)
        slack = t_b - fixed
        dead = dead | (slack < -_TOL)
        reach = ~dead
        if cycles > 0 and reach.any():
            k = cycles / cell_cycles
            bound_s = np.array([
                _square(s) * prices.time / (k * prices.compute)
                for s in np.where(0.0 > slack[reach], 0.0, slack[reach]).tolist()
            ])
            cons[reach] = np.where(bound_s < cons[reach], bound_s, cons[reach])
    return _fleet_floor(gen, np.where(dead, float(INFEASIBLE_SENTINEL), cons))


def _consumption_decision(splits) -> tuple[TransferSchedule, ComputeSchedule, TransferSchedule]:
    return (
        TransferSchedule(*splits[DOWN_BANDWIDTH]),
        ComputeSchedule(*splits[COMPUTE]),
        TransferSchedule(*splits[UP_BANDWIDTH]),
    )


def constrained_schedule(inp: SolveInput, bounds: tuple[float, float] | None = None) -> SolveOutcome:
    """Cheapest full schedule for workload `inp.n` under pool limits.

    Dispatch: workloads at or below mutv reuse the box-free closed forms;
    between mutv and mtv the binding-set enumeration runs; above mtv the
    outcome is infeasible, as is any outcome `solved` rejects.  The active
    constraints are those of the enumeration, so `n <= outcome.mutv` tells
    the paths apart.  `bounds` is (mtv, mutv) of the input when the caller
    already has it: neither depends on the workload, so a caller solving
    many workloads for one client computes them once.
    """
    if inp.n < 0:
        raise ValueError("workload must be nonnegative")
    if bounds is None:
        bounds = (
            mtv(inp.attrs, inp.task, inp.budgets, inp.quanta),
            mutv(inp.attrs, inp.task, inp.prices, inp.budgets, inp.quanta),
        )
    n_max, n_unc = bounds

    if inp.n == 0:
        return solved(ScheduleDecision(), 0.0, bounds)
    if inp.budgets.time_cells <= 0 or inp.n > n_max:
        return solved(None, None, bounds)

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
        return solved(ScheduleDecision(gen, down, comp, up), c_gen + c_down + c_comp + c_up, bounds)

    t_b = inp.budgets.time_cells
    gen_best = _solve_generation(
        inp.n, inp.attrs.a, inp.attrs.b, inp.prices, t_b, inp.budgets.gen_bandwidth
    )
    procs = _consumption_processes(inp.n, inp.task, inp.prices, inp.budgets, inp.quanta)
    cons_best = None if procs is None else _enumerate_consumption(procs, inp.prices.time, t_b)
    if gen_best is None or cons_best is None:
        return solved(None, None, bounds)

    gen, c_gen, gen_active = gen_best
    splits, c_cons, cons_active = cons_best
    decision = ScheduleDecision(gen, *_consumption_decision(splits))
    return solved(decision, c_gen + c_cons, bounds, gen_active | cons_active)


# ---------------------------------------------------------------------------
# integer realization

def _part_key(raced, kind: str, t: float, width_cost: float, cost: float):
    """A part's realization key, a lexicographic tuple summed part-wise over
    its side, whose raced parts are `raced`: their cells first, then cost;
    cost, then cells, where the side races none; width spend first where
    `raced` is None (the width objective)."""
    if raced is None:
        return (width_cost, cost, t)
    if raced:
        return (t if kind in raced else 0, cost, width_cost)
    return (cost, t, width_cost)


def _key_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _sensing_width(n, a, b, b_int, slack, x):
    """The bandwidth cells that x time cells of sensing need for n samples:
    0 once a*x alone covers n (within `slack`), else y = max(1, ceil((n -
    a*x) / (b*x) - 1e-9)), as a positive need takes a whole cell; inf where
    no width within b_int fits."""
    rem = n - a * x
    if rem <= slack:
        return 0
    if b <= 0:
        return math.inf
    y = rem / (b * x) - _TOL
    if y > b_int:  # before ceil: y overflows to inf for a subnormal b
        return math.inf
    y = max(1, math.ceil(y))
    return y if y <= b_int else math.inf


def _first_times(width, t_int, bound, last):
    """The (t, width(t)) at the first time t in 1..t_int of each distinct
    width below `bound`, in time order, up to the first width <= `last`
    (`last=math.inf`: the first candidate only, for a raced part).

    `width` must not increase in t (the callers' rounded `*`, `-`, `/` and
    `ceil` are monotone), so the widths not below `bound` come first, and
    each next width is found from the last time by galloping: probing t + 1,
    t + 2, t + 4, ... until the width falls, then bisecting the last gap.
    That is about 2 * log2(gap) evaluations per width returned, and one
    where the width falls at every cell, so the work grows with the widths
    returned, not with the window.
    """
    out = []
    lo = 0  # the last time returned
    while lo < t_int:
        prev, step = lo, 1
        while True:
            t = lo + step
            if t > t_int:
                t = t_int
            w = width(t)
            if w < bound or t == t_int:
                break
            prev, step = t, 2 * step
        if w >= bound:
            break  # the width never falls below the last one in the window
        while t - prev > 1:
            mid = (prev + t) // 2
            w_mid = width(mid)
            if w_mid < bound:
                t, w = mid, w_mid
            else:
                prev = mid
        out.append((t, w))
        if w <= last:
            break
        lo, bound = t, w
    return out


def _int_gen_best(n, a, b, prices, t_int, b_int, key, first=False):
    """Exact best whole-cell sensing schedule delivering at least n samples,
    ranked by the part key `key` (`_part_key`).

    With a >= 0 and b >= 0 the width y(x) of `_sensing_width` does not
    increase in the time x, and the x whose y exceeds the bandwidth (inf)
    come first.  At one y, more time only adds cost, so every `_part_key`
    keys a later x no lower than the first, which wins its ties:
    `_first_times` gives the candidates.  They end at y = 0, or at y = 1
    without a visual rate, where y can fall no further.  `first`: the
    sensing is raced, its key starts with the strictly increasing x, so the
    first candidate wins and is the only one taken.
    """
    if n <= 0:
        return GenSchedule()
    width = functools.partial(_sensing_width, n, a, b, b_int, _TOL * max(1.0, n))
    best = None
    for x, y in _first_times(width, t_int, math.inf, math.inf if first else 0 if a > 0 else 1):
        cost = x * prices.time + y * prices.freq
        k = key(GEN_BANDWIDTH, x, y * prices.freq, cost)
        if best is None or k < best[0]:
            best = (k, x, y)
    if best is None:
        return None
    _, x, y = best
    return GenSchedule(x, y, x if y > 0 else 0)


def _int_proc_candidates(vol, w_int, t_int, first=False):
    """(t, w) pairs with t*w >= vol: the first time t <= t_int at each
    distinct width w <= w_int (`_first_times`), since more time at the same
    width is dominated for every key.  A positive volume takes a whole
    cell, so w(t) = max(1, ceil(vol/t - 1e-9)), and the pairs end at w = 1.
    The pairs come in increasing t, as `_first_times` returns them, and an
    idle leg's one pair is (0, 0), so `realize_schedule` takes their prefix
    best by time as they come.  `first`: only the first pair, all a raced
    leg can win (`realize_schedule`).
    """
    if vol <= 0:
        return [(0, 0)]
    return _first_times(lambda t: max(1, math.ceil(vol / t - _TOL)), t_int, w_int + 1, math.inf if first else 1)


def realize_schedule(
    n: int,
    attrs: StatusAttributes,
    task: ConsumptionTask,
    prices: PriceVector,
    budgets: Budgets,
    quanta: ResourceQuanta = ResourceQuanta(),
    objective: str = "cost",
) -> ScheduleDecision | None:
    """Exact whole-cell schedule for workload n under a scheduling objective.

    The sensing side and each leg of the transfer/compute chain are
    enumerated by distinct width, at the first time that reaches it, so the
    work grows with the widths, not with the window: every useful integer
    time split is scored with the objective's lexicographic key per side
    (`_part_key`: the parts it races by time first; true prices always
    break ties), so the realization never pays avoidable rounding cost.
    A raced part takes its first candidate only: its key starts with its
    time, strictly least there, and that leaves the most window to the other
    legs, so a choice with a later one loses to the same with the first.
    Returns None when no integral schedule fits (callers drop the client
    for the round).
    """
    t_b = budgets.time_cells
    if math.isinf(t_b):
        raise ValueError("integer realization needs a finite time window")
    t_int = int(t_b)
    if n == 0:
        return ScheduleDecision()
    if t_int < 1:
        return None

    raced = RACED[objective]  # None, the width objective, stays None
    gen_key, cons_key = (
        functools.partial(_part_key, raced and raced & side) for side in ({GEN_BANDWIDTH}, CHAIN)
    )
    raced = raced or frozenset()
    gen = _int_gen_best(
        n, attrs.a, attrs.b, prices, t_int, int(budgets.gen_bandwidth), gen_key, GEN_BANDWIDTH in raced
    )
    if gen is None:
        return None

    procs = _consumption_processes(n, task, prices, budgets, quanta)
    if procs is None:
        return None
    legs = []  # (t, w, key) per leg
    for p in procs:
        w_int = int(p.width_max) if not math.isinf(p.width_max) else 10**9
        got = _int_proc_candidates(p.volume, w_int, t_int, p.name in raced)
        if not got:
            return None
        price_w = p.width_price
        legs.append([(t, w, cons_key(p.name, t, w * price_w, t * prices.time + w * price_w)) for t, w in got])
    down, comp, up = legs
    # prefix best of the upload leg by time, for O(|down|*|comp|) search
    prefix = []
    best = None
    for c in up:
        if best is None or c[2] < best[2]:
            best = c
        prefix.append(best)
    up_times = [c[0] for c in up]

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
    _, down_tw, comp_tw, up_tw = winner
    return ScheduleDecision(gen, TransferSchedule(*down_tw), ComputeSchedule(*comp_tw), TransferSchedule(*up_tw))
