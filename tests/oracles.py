"""Brute-force reference implementations the solver tests check against.

These deliberately share no code with the engine: the sensing side sweeps the
time axis with bandwidth pinned by the yield equality, the consumption side
sweeps a 2-D time grid with a prefix-min over the third sub-process.

The last ones are straightforward or earlier forms of engine code, which the
tests compare with `==`: the binding-set enumeration with a dict per
candidate, the workload allocation rerunning its greedy from scratch on every
rationality pass, the runner's former saturated allocation, the sum of the
four unconstrained sub-process minima, the numpy tag-grid resource pool, one
client's target distances, sensing status and server link taken on their own,
the fixed number of single folds mobility used to take, the per-client
quote loop, the policy solve that re-solved every binding cap, the bounds taken client by client and the quality row by row
that the quote's batched pass replaced, the market's streak loop adding a leader's gain rate one
grant at a time, and whole-cell realization's per-cell loops over the
window and the part keys each policy named before they followed from its
schedule objective.  `schema_violations` is jsonschema itself, the reference for
the config parser.  The market tests build their cost curves from fixed tables with
`curve_from_samples`, check what a round settles with
`settlement_findings`, and compare `allocation_exhaustive` with
`allocation_endpoints`; the golden and determinism tests compare runs by
`output_hashes`, and `output_findings` re-derives a run's invariants from
its written outputs alone.  `reference_run` runs a whole simulation with the oracles
that fit in place of their fast paths.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import functools
import hashlib
import io
import itertools
import json
import math
from dataclasses import replace

import jsonschema
import numpy as np

from mfpsim.config import SCHEMA


def _geom_axis(lo, hi, grid):
    """Geometric grid including both endpoints; returns (points, rel_step)."""
    lo = max(lo, hi * 1e-9, 1e-12)
    if lo >= hi:
        return np.array([hi]), 0.0
    pts = np.geomspace(lo, hi, grid)
    return pts, float(pts[1] / pts[0] - 1.0)


def gen_grid_min(n, a, b, t_max, b_max, price_t, price_b, grid=400):
    """Grid minimum of t*price_t + w*price_b over a*t + b*t*w = n, boxes.

    Geometric spacing in t keeps the relative cost error bounded by the
    relative step.  Returns (cost, rel_step) or (None, 0.0) when no feasible
    grid point exists.
    """
    if n <= 0:
        return 0.0, 0.0
    x_hi = min(t_max, n / a if a > 0 else math.inf)
    x_lo = n / (a + b * b_max) if b > 0 and b_max > 0 else x_hi
    if b <= 0 or b_max <= 0:
        # pure visual: only x = n/a qualifies
        if a <= 0 or n / a > t_max * (1 + 1e-12):
            return None, 0.0
        return (n / a) * price_t, 0.0
    if x_lo > x_hi * (1 + 1e-12):
        return None, 0.0
    xs, rel = _geom_axis(x_lo, x_hi, grid)
    if a > 0 and n / a <= t_max * (1 + 1e-12):  # visual-only corner
        xs = np.append(xs, n / a)
    ys = (n - a * xs) / (b * xs)
    ok = (ys >= -1e-9) & (ys <= b_max * (1 + 1e-9))
    if not ok.any():
        return None, rel
    cost = xs * price_t + np.clip(ys, 0, None) * price_b
    cost = np.where(ok, cost, np.inf)
    return float(cost.min()), rel


def consumption_grid_min(vols, w_maxes, price_t, w_prices, t_budget, grid=200):
    """Grid minimum of the serial three-process split.

    vols[i] = time*width product each process must reach; widths are capped.
    Returns (cost, max_rel_step) or (None, 0.0).
    """
    live = [i for i in range(3) if vols[i] > 0]
    if not live:
        return 0.0, 0.0
    floors = [vols[i] / w_maxes[i] for i in live]
    if sum(floors) > t_budget * (1 + 1e-12):
        return None, 0.0
    built = [_geom_axis(f, t_budget, grid) for f in floors]
    axes = [np.append(b[0], f) for b, f in zip(built, floors)]  # exact floors
    axes = [np.unique(ax) for ax in axes]
    steps = [b[1] for b in built]

    def proc_cost(k, x):
        i = live[k]
        return price_t * x + w_prices[i] * vols[i] / x

    if len(live) == 1:
        c = proc_cost(0, axes[0])
        return float(c.min()), max(steps)
    if len(live) == 2:
        x1, x2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        c = proc_cost(0, x1) + proc_cost(1, x2)
        c = np.where(x1 + x2 <= t_budget * (1 + 1e-12), c, np.inf)
        return float(c.min()), max(steps)
    x1, x2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    rem = t_budget - x1 - x2
    third = proc_cost(2, axes[2])
    prefix = np.minimum.accumulate(third)
    pos = np.searchsorted(axes[2], rem * (1 + 1e-12), side="right") - 1
    best3 = np.where(pos >= 0, prefix[np.clip(pos, 0, None)], np.inf)
    c = proc_cost(0, x1) + proc_cost(1, x2) + best3
    return float(c.min()), max(steps)


def consumption_by_multiplier(vols, w_maxes, price_t, w_prices, t_budget, iters=200):
    """Independent cross-check of the shared-time coupling: each process's
    time is a monotone function of one effective time price, bisected until
    the chain fits the budget."""
    live = [i for i in range(3) if vols[i] > 0]
    if not live:
        return 0.0
    floors = sum(vols[i] / w_maxes[i] for i in live)
    if floors > t_budget * (1 + 1e-12):
        return None

    def times(tau):
        return [max(math.sqrt(vols[i] * w_prices[i] / tau), vols[i] / w_maxes[i]) for i in live]

    if sum(times(price_t)) <= t_budget:
        ts = times(price_t)
    else:
        lo, hi = price_t, price_t
        while sum(times(hi)) > t_budget:
            hi *= 2
            if hi > 1e30:
                break
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if sum(times(mid)) > t_budget:
                lo = mid
            else:
                hi = mid
        ts = times(hi)
    cost = price_t * sum(ts)
    for k, i in enumerate(live):
        cost += w_prices[i] * vols[i] / ts[k]
    return cost


def _allocation_welfare(quotes, combo, price_sample, price_gain, gain_floor, gain_ceiling,
                        max_active, alpha, beta):
    """The welfare of workload vector `combo`, or None when it is not
    admissible: more than `max_active` clients active, a gain outside
    [floor, ceiling), or a loss for an active client or the server."""
    if sum(1 for n in combo if n > 0) > max_active:
        return None
    gain = sum(q[0] * n for q, n in zip(quotes, combo))
    if not (gain_floor <= gain < gain_ceiling):
        return None
    payments = [price_sample * n for n in combo]
    costs = [q[2][n] for q, n in zip(quotes, combo)]
    profits = [p - c for p, c in zip(payments, costs)]
    if any(p < -1e-9 for p, n in zip(profits, combo) if n > 0):
        return None
    server = price_gain * gain - sum(payments)
    if server < -1e-9:
        return None
    return alpha * server + beta * sum(profits)


def _best_allocation(quotes, combos, *market):
    """(welfare, combo) of the first best admissible combo, or None."""
    best = None
    for combo in combos:
        welfare = _allocation_welfare(quotes, combo, *market)
        if welfare is not None and (best is None or welfare > best[0]):
            best = (welfare, combo)
    return best


def allocation_exhaustive(quotes, price_sample, price_gain, gain_floor, gain_ceiling,
                          max_active, alpha, beta):
    """Exact welfare maximum over every admissible workload vector (tiny
    instances only).  quotes: list of (gain_rate, mtv, cost_list)."""
    combos = itertools.product(*[range(0, q[1] + 1) for q in quotes])
    return _best_allocation(
        quotes, combos, price_sample, price_gain, gain_floor, gain_ceiling, max_active, alpha, beta
    )


def allocation_endpoints(quotes, price_sample, price_gain, gain_floor, gain_ceiling,
                         max_active, alpha, beta):
    """`allocation_exhaustive` over the endpoint allocations alone: for each
    set of active clients, every one of them at its mtv except one, which
    takes the most that keeps the gain under the ceiling (its mtv when that
    fits), and no client active (tiny instances only)."""
    def endpoints():
        yield (0,) * len(quotes)
        for size in range(1, len(quotes) + 1):
            for active in itertools.combinations(range(len(quotes)), size):
                for last in active:
                    combo = [q[1] if i in active else 0 for i, q in enumerate(quotes)]
                    while combo[last] > 0 and sum(q[0] * n for q, n in zip(quotes, combo)) >= gain_ceiling:
                        combo[last] -= 1
                    if combo[last] > 0:
                        yield tuple(combo)

    return _best_allocation(
        quotes, endpoints(), price_sample, price_gain, gain_floor, gain_ceiling, max_active, alpha, beta
    )


# ---------------------------------------------------------------------------
# straightforward forms of two engine fast paths, which must reproduce them
# bit for bit


def enumerate_consumption_reference(procs, time_price, t_budget, forced_boxes=frozenset()):
    """The binding-set enumeration with one (time, width) dict per candidate:
    the form `solver._enumerate_consumption` must match exactly."""
    tol = 1e-9
    live = [p for p in procs if p.volume > 0]
    splits = {p.name: (0.0, 0.0) for p in procs}
    if not live:
        return splits, 0.0, frozenset()
    if any(p.width_max <= 0 for p in live):
        return None
    if sum(p.volume / p.width_max for p in live) > t_budget * (1 + tol):
        return None

    boxable = [p for p in live if not math.isinf(p.width_max)]
    forced_live = forced_boxes & {p.name for p in boxable}
    best = None
    best_key = None
    for boxed in itertools.chain.from_iterable(
        itertools.combinations(boxable, k) for k in range(len(boxable) + 1)
    ):
        names = {p.name for p in boxed}
        if not forced_live <= names:
            continue
        free = [p for p in live if p.name not in names]
        t_floor = sum(p.volume / p.width_max for p in boxed)
        taus = [time_price]
        if free and not math.isinf(t_budget):
            rem = t_budget - t_floor
            if rem > tol:
                taus.append((sum(math.sqrt(p.volume * p.width_price) for p in free) / rem) ** 2)
        for tau in taus:
            if tau <= 0:
                continue
            cand = dict(splits)
            ok = True
            for p in boxed:
                cand[p.name] = (p.volume / p.width_max, p.width_max)
            for p in free:
                x = math.sqrt(p.volume * p.width_price / tau)
                w = p.volume / x
                if w > p.width_max * (1 + tol):
                    ok = False
                    break
                cand[p.name] = (x, w)
            if not ok:
                continue
            total_t = sum(t for t, _ in cand.values())
            if total_t > t_budget * (1 + tol) + tol:
                continue
            cost = time_price * total_t + sum(p.width_price * cand[p.name][1] for p in live)
            active = frozenset(names)
            if not math.isinf(t_budget) and total_t >= t_budget * (1 - tol) - tol:
                active = active | {"cons_time"}
            key = (total_t, sum(cand[p.name][1] for p in live))
            if best is None or cost < best[1] - tol or (cost <= best[1] + tol and key < best_key):
                best = (cand, cost, active)
                best_key = key
    return best


def allocate_workloads_reference(quotes, prices, gain_floor, gain_window, max_active,
                                 alpha=1.0, beta=1.0):
    """`market.allocate_workloads` with every rationality pass rerunning the
    greedy from scratch and rescanning every client's marginal per grant.
    The block polish, the saturated start and the report are the engine's
    own: the fast path leaves them as they are."""
    from mfpsim.errors import GainShortfallError
    from mfpsim.market import Allocation, _block_polish, _marginal_welfare, build_report

    tol = 1e-9
    if gain_window <= 0:
        raise ValueError("gain window must be positive")
    if max_active < 1:
        raise ValueError("need at least one admissible client")
    quotes = sorted(quotes, key=lambda q: q.client_id)
    by_id = {q.client_id: q for q in quotes}
    ceiling = gain_floor + gain_window
    excluded = set()

    def max_achievable():
        rates = sorted(
            (q.gain_rate * q.mtv for q in quotes if q.client_id not in excluded and q.mtv > 0),
            reverse=True,
        )
        return sum(rates[:max_active])

    def saturated_start():
        load = {q.client_id: 0 for q in quotes}
        gain = 0.0
        opened = 0
        for q in sorted(quotes, key=lambda q: (-q.gain_rate * q.mtv, q.client_id)):
            if opened >= max_active or q.client_id in excluded or q.gain_rate <= 0:
                continue
            n = min(q.mtv, int((ceiling - gain - tol) // q.gain_rate))
            if n >= 1:
                load[q.client_id] = n
                gain += q.gain_rate * n
                opened += 1
        return load

    def report_of(load):
        costs = {cid: by_id[cid].curve.cost(n) for cid, n in load.items() if n > 0}
        return build_report(by_id, load, costs, prices, alpha, beta)

    def polish(load, side):
        return _block_polish(
            quotes, load, prices, gain_floor, ceiling, max_active, alpha, beta, excluded, side
        )

    for _ in range(len(quotes) + 1):
        load = {q.client_id: 0 for q in quotes}
        gain = 0.0

        def grantable(require_positive):
            opened = sum(1 for n in load.values() if n > 0)
            best = None
            for q in quotes:
                cid = q.client_id
                if cid in excluded or load[cid] >= q.mtv or q.gain_rate <= 0:
                    continue
                if load[cid] == 0 and opened >= max_active:
                    continue
                if gain + q.gain_rate >= ceiling - tol:
                    continue
                delta = _marginal_welfare(q, load[cid], prices, alpha, beta)
                if require_positive and delta <= tol:
                    continue
                if best is None or delta > best[0] + tol:
                    best = (delta, cid)
            return best

        while gain < gain_floor - tol:
            pick = grantable(False)
            if pick is None:
                reason = (
                    "gain step overshoots the window"
                    if max_achievable() + tol >= gain_floor
                    else "capacity exhausted"
                )
                raise GainShortfallError(reason, max_achievable())
            load[pick[1]] += 1
            gain += by_id[pick[1]].gain_rate
        while (pick := grantable(True)) is not None:
            load[pick[1]] += 1
            gain += by_id[pick[1]].gain_rate

        load = polish(load, "greedy")
        alt = saturated_start()
        if sum(by_id[c].gain_rate * n for c, n in alt.items()) >= gain_floor - tol:
            alt = polish(alt, "saturated")
            if report_of(alt).welfare > report_of(load).welfare + tol:
                load = alt

        report = report_of(load)
        losers = sorted(cid for cid, p in report.client_profits.items() if p < -tol)
        if not losers:
            if report.server_profit < -tol:
                raise GainShortfallError("server rationality", max_achievable())
            workloads = {cid: n for cid, n in load.items() if n > 0}
            return Allocation(workloads=workloads), report
        excluded.update(losers)
    raise GainShortfallError("rationality loop failed to settle", max_achievable())


def streak_span_reference(gain, rate, size, ceiling, floor):
    """The market's former streak loop, one `g += rate` at a time: the
    number of grants, at most `size`, before the first gain >= `ceiling`,
    the first of them at which the gain is >= `floor` (None: none), and the
    gain after them."""
    g, steps, floor_at = gain, 0, None
    for _ in range(size):
        if g + rate >= ceiling:
            break
        if floor_at is None and g >= floor:
            floor_at = steps
        g += rate
        steps += 1
    return steps, floor_at, g


# each policy's whole-cell realization objectives, (sensing side, chain), as
# policies named them before they followed from the schedule objective
REALIZE_PAIRS = {
    "SISCC": ("cost", "cost"),
    "WISCC": ("cost", "cost"),
    "SENS_OPT": ("time", "cost"),
    "COMM_OPT": ("cost", "comm_time"),
    "COMP_OPT": ("cost", "comp_time"),
    "ML_C": ("cost", "cost"),
    "ML_CC": ("cost", "cost"),
    "ML_SCC": ("cost", "cost"),
    "MP_TSC": ("cost", "cost"),
    "MC_T": ("time", "time"),
    "MC_FC": ("width", "width"),
    "MLPG": ("time", "time"),
}


def part_key_reference(objective, kind, t, width_cost, cost):
    """Whole-cell realization's former key of one part under one of the
    `REALIZE_PAIRS` objectives: lexicographic tuples summed part-wise."""
    if objective == "cost":
        return (cost, t, width_cost)
    if objective == "time":
        return (t, cost, width_cost)
    if objective == "width":
        return (width_cost, cost, t)
    if objective == "comm_time":
        return (t if kind in ("down_bandwidth", "up_bandwidth") else 0, cost, width_cost)
    if objective == "comp_time":
        return (t if kind == "compute" else 0, cost, width_cost)
    raise ValueError(f"unknown realization objective {objective!r}")


def int_gen_best_reference(n, a, b, prices, t_int, b_int, key, first=False):
    """Whole-cell realization's former sensing search, one time cell at a
    time over the whole window: the best (x, y) under the part key `key`,
    as a `GenSchedule`, or None when no width fits.  `first` is ignored:
    every candidate is scored, raced or not."""
    from mfpsim.costs import GenSchedule

    if n <= 0:
        return GenSchedule()
    best = None
    for x in range(1, t_int + 1):
        rem = n - a * x
        if rem <= 1e-9 * max(1.0, n):
            y = 0
        elif b > 0:
            y = rem / (b * x) - 1e-9
            if y > b_int:  # before ceil: y overflows to inf for a subnormal b
                continue
            y = max(1, math.ceil(y))  # a positive need takes a whole cell
        else:
            continue
        if y > b_int:
            continue
        cost = x * prices.time + y * prices.freq
        k = key("gen_bandwidth", x, y * prices.freq, cost)
        if best is None or k < best[0]:
            best = (k, x, y)
        if y == 0 or (y == 1 and a <= 0):
            break  # y can fall no further: larger x only adds time
    if best is None:
        return None
    _, x, y = best
    return GenSchedule(x, y, x if y > 0 else 0)


def first_times_reference(width, t_int, bound, last):
    """Whole-cell realization's candidate search, one time cell at a time:
    (t, width(t)) at the first t in 1..t_int of each width below the last
    one kept (at first `bound`), up to the first width <= `last`."""
    out = []
    for t in range(1, t_int + 1):
        w = width(t)
        if w < bound:
            out.append((t, w))
            if w <= last:
                break
            bound = w
    return out


def int_proc_candidates_reference(vol, w_int, t_int, first=False):
    """Whole-cell realization's former leg candidates, one time cell at a
    time: (t, w) with t*w >= vol, the first t at each width w <= w_int.
    `first` is ignored: every candidate is listed, raced or not."""
    if vol <= 0:
        return [(0, 0)]
    out = []
    seen_w = None
    for t in range(1, t_int + 1):
        w = max(1, math.ceil(vol / t - 1e-9))  # a positive volume takes a whole cell
        if w > w_int:
            continue
        if w == seen_w:
            continue  # same width at more time is dominated for every key
        seen_w = w
        out.append((t, w))
        if w == 1:
            break  # every later time repeats width 1
    return out


def saturated_allocation_reference(quotes, ceiling, max_active):
    """The runner's former gain-greedy fallback/MLPG allocation: load the
    strongest earners to capacity, partial-loading the last one to stay
    under the ceiling."""
    order = sorted(quotes, key=lambda q: (-q.gain_rate * q.mtv, q.client_id))
    load = {}
    gain = 0.0
    for q in order:
        if len(load) >= max_active:
            break
        if q.gain_rate <= 0 or q.mtv < 1:
            continue
        room = ceiling - gain
        n = min(q.mtv, int((room - 1e-9) // q.gain_rate)) if math.isfinite(ceiling) else q.mtv
        if n >= 1:
            load[q.client_id] = n
            gain += q.gain_rate * n
    return load


def pool_snapshot(pool):
    """JSON-ready dump of a `SharedResourcePool`: its dimensions and every
    claimed cell with its holder, sorted by grid, row and column."""
    occupied = []
    for name in ("tc", "tf"):  # sorted by grid name
        held = {
            (row, col): service
            for service, r0, r1, c0, c1 in pool._claims[name]
            for row in range(r0, r1)
            for col in range(c0, c1)
        }
        occupied += [
            {"grid": name, "row": row, "col": col, "service": service}
            for (row, col), service in sorted(held.items())
        ]
    return {
        "time_cells": pool.time_cells,
        "freq_cells": pool.freq_cells,
        "compute_cells": pool.compute_cells,
        "occupied": occupied,
    }


def snapshot_counts(snapshot):
    """Occupied cells per time column of the frequency and of the compute
    grid, read from a `pool_snapshot` or `GridPool.snapshot` dump."""
    n = snapshot["time_cells"]
    loads = {"tf": [0] * n, "tc": [0] * n}
    for cell in snapshot["occupied"]:
        loads[cell["grid"]][cell["col"]] += 1
    return loads["tf"], loads["tc"]


class GridPool:
    """The numpy tag-grid resource pool `SharedResourcePool` replaced: one
    int32 grid per resource, each cell holding the index of the service that
    claimed it, or -1 while free."""

    def __init__(self, time_cells, freq_cells, compute_cells):
        self.time_cells = time_cells
        self.freq_cells = freq_cells
        self.compute_cells = compute_cells
        self._grids = {
            "tf": np.full((freq_cells, time_cells), -1, dtype=np.int32),
            "tc": np.full((compute_cells, time_cells), -1, dtype=np.int32),
        }
        self._services = []

    def _sid(self, service):
        if service not in self._services:
            self._services.append(service)
        return self._services.index(service)

    def reserve(self, service, grid, region):
        from mfpsim.errors import ResourceConflictError

        sid = self._sid(service)
        cells = self._grids[grid]
        rows, cols = cells.shape
        if region.row_stop > rows or region.col_stop > cols:
            raise ValueError(f"{grid} region {region} exceeds grid shape {rows}x{cols}")
        block = cells[region.row_start : region.row_stop, region.col_start : region.col_stop]
        clash = (block != -1) & (block != sid)
        if clash.any():
            r, c = np.argwhere(clash)[0]
            raise ResourceConflictError(
                f"{grid} cell ({region.row_start + r},{region.col_start + c}) "
                f"already held by service {self._services[block[r, c]]!r}"
            )
        block[block == -1] = sid

    def column_loads(self):
        """Occupied cells per time column of the frequency grid."""
        return (self._grids["tf"] != -1).sum(axis=0).tolist()

    def snapshot(self):
        occupied = [
            {"grid": name, "row": int(r), "col": int(c), "service": self._services[grid[r, c]]}
            for name, grid in self._grids.items()
            for r, c in np.argwhere(grid != -1)
        ]
        occupied.sort(key=lambda d: (d["grid"], d["row"], d["col"]))
        return {
            "time_cells": self.time_cells,
            "freq_cells": self.freq_cells,
            "compute_cells": self.compute_cells,
            "occupied": occupied,
        }


def curve_from_samples(samples):
    """A cost curve over a fixed table of costs: c(n) = samples[n], in no
    segment, so the market grants no streak on it."""
    from mfpsim.market import CostCurve

    return CostCurve(lambda n: (samples[n], None), len(samples) - 1)


def settlement_findings(report, alpha, beta):
    """The names of the settlement rules one round's `WelfareReport` breaks:
    the server and client profit identities, the welfare identity under the
    weights `alpha` and `beta`, and server and client rationality."""
    bad = []
    if abs(report.server_profit - (report.app_payment - sum(report.client_payments.values()))) > 1e-6:
        bad.append("server_profit_identity")
    for cid, pay in report.client_payments.items():
        if abs(report.client_profits[cid] - (pay - report.client_costs[cid])) > 1e-6:
            bad.append(f"client_profit_identity:{cid}")
    welfare = alpha * report.server_profit + beta * sum(report.client_profits.values())
    if abs(report.welfare - welfare) > 1e-6:
        bad.append("welfare_identity")
    if report.server_profit < -1e-9:
        bad.append("server_rationality")
    bad += [f"client_rationality:{cid}" for cid, p in report.client_profits.items() if p < -1e-9]
    return bad


def _off(x, y, *terms):
    """Whether x and y differ by more than 1e-9 of the largest of 1 and
    the terms' magnitudes (NaN always does)."""
    return not abs(x - y) <= 1e-9 * max([1.0, *map(abs, terms)])


def client_rows(texts):
    """The rows of a run's `clients.jsonl`, from the texts of
    `RunRecord.output_texts()`, read back by json: NaN and the infinities
    come back as floats."""
    return [json.loads(line) for line in texts["clients.jsonl"].splitlines()]


def output_findings(texts, config):
    """The invariants a run's written outputs break, read from the texts of
    `RunRecord.output_texts()` and the run's config alone, as
    "round<r>:<rule>" or "round<r>:<rule>:<client>":
    - `summary.csv` against `clients.jsonl`: the active count, the payment
      and cost totals and the gain (sum of gain_rate * n) of each round;
    - the settlement identities (app payment, server and client profits,
      welfare under the config's weights) and server rationality;
    - per client: payment = n * p_sample and profit = payment - cost; an
      active client has n <= mtv, no note and, except under MLPG, which
      waives it, no loss; a client at n = 0 is paid and costs nothing;
    - under `per_round` targets, gain at most the window's ceiling;
    - `timeline.csv`: every active client senses in its round, and every
      row lies inside its window, whose `t_delta_cells` the round's summary
      row gives (the trailing window's is at most the pool's time cells);
      at the start of each row, the widths of its client's rows in that
      window fit the pool; and a client's chain keeps its order in its
      window, `comm_down` ending by the start of `comp` and of `comm_up`,
      and `comp` by the start of `comm_up`.  A serial round's `sense` rows
      and chain rows share `round` but sit in two windows;
    - `run.json`: its totals are the summary's sums, and it lists no audit
      violation."""
    summary = list(csv.DictReader(io.StringIO(texts["summary.csv"])))
    clients = client_rows(texts)
    timeline = list(csv.DictReader(io.StringIO(texts["timeline.csv"])))
    run_json = json.loads(texts["run.json"])
    prices, market = config.prices(), config.market
    alpha, beta = market["alpha"], market["beta"]
    ceiling = market["gain_floor"] + market["gain_window"]
    t_cells, b_cells, f_cells = config.scaled_cells()
    bad = []
    windows = {}
    for row in summary:
        r = int(row["round"])
        s = {k: float(row[k]) for k in row if k not in ("round", "active_count", "t_delta_cells", "shortfall")}
        windows[r] = int(row["t_delta_cells"])
        rows = [c for c in clients if c["round"] == r]
        active = [c for c in rows if c["n"] > 0]
        payments, costs = [c["payment"] for c in rows], [c["cost"] for c in rows]
        gains = [c["gain_rate"] * c["n"] for c in active]
        checks = [
            ("active_count", int(row["active_count"]) == len(active)),
            ("payments_total", not _off(s["payments_total"], sum(payments), *payments)),
            ("costs_total", not _off(s["costs_total"], sum(costs), *costs)),
            ("gain", not _off(s["gain"], sum(gains), *gains)),
            ("app_payment", not _off(s["app_payment"], prices.gain * s["gain"], s["app_payment"])),
            ("server_profit_identity", not _off(
                s["server_profit"], s["app_payment"] - s["payments_total"],
                s["app_payment"], s["payments_total"],
            )),
            ("client_profit_identity", not _off(
                s["client_profits_total"], s["payments_total"] - s["costs_total"],
                s["payments_total"], s["costs_total"],
            )),
            ("welfare_identity", not _off(
                s["welfare"], alpha * s["server_profit"] + beta * s["client_profits_total"],
                alpha * s["server_profit"], beta * s["client_profits_total"],
            )),
            ("server_rationality", s["server_profit"] >= -1e-9),
            ("gain_ceiling", market["gain_target_mode"] != "per_round" or s["gain"] <= ceiling),
        ]
        bad += [f"round{r}:{rule}" for rule, ok in checks if not ok]
        sensed = {t["client"] for t in timeline if int(t["round"]) == r and t["process"] == "sense"}
        for c in rows:
            n, cid = c["n"], c["client"]
            checks = [
                ("payment", not _off(c["payment"], n * prices.sample, c["payment"])),
                ("profit_identity", not _off(c["profit"], c["payment"] - c["cost"], c["payment"], c["cost"])),
            ]
            if n > 0:
                checks += [
                    ("mtv", n <= c["mtv"]),
                    ("note", c["note"] == ""),
                    ("client_rationality", config.policy.value == "MLPG" or c["profit"] >= -1e-9),
                    ("sensed", cid in sensed),
                ]
            else:
                checks.append(("paid_idle", n == 0 and c["payment"] == c["cost"] == c["profit"] == 0))
            bad += [f"round{r}:{rule}:{cid}" for rule, ok in checks if not ok]

    groups = {}
    for t in timeline:
        r = int(t["round"])
        window = (r, config.mode == "serial" and t["process"] == "sense")
        groups.setdefault((window, t["client"]), []).append(
            (t["process"], *(int(t[k]) for k in ("start_cell", "end_cell", "b_cells", "f_cells")))
        )
    chain_order = [("comm_down", "comp"), ("comp", "comm_up"), ("comm_down", "comm_up")]
    for ((r, _), cid), rows in groups.items():
        t_delta = windows.get(r, t_cells)
        if not all(0 <= start < end <= t_delta for _, start, end, _, _ in rows):
            bad.append(f"round{r}:window:{cid}")
        spans = {proc: (start, end) for proc, start, end, _, _ in rows}
        if any(x in spans and y in spans and spans[x][1] > spans[y][0] for x, y in chain_order):
            bad.append(f"round{r}:chain_order:{cid}")
        for _, start, _, _, _ in rows:
            live = [(b, f) for _, s, e, b, f in rows if s <= start < e]
            if sum(b for b, _ in live) > b_cells or sum(f for _, f in live) > f_cells:
                bad.append(f"round{r}:pool:{cid}")
                break

    welfare = [float(row["welfare"]) for row in summary]
    gains = [float(row["gain"]) for row in summary]
    if (
        run_json["rounds"] != len(summary)
        or _off(run_json["total_welfare"], sum(welfare), *welfare)
        or _off(run_json["total_gain"], sum(gains), *gains)
    ):
        bad.append("run_totals")
    bad += [f"audit:{v}" for v in run_json["audit_violations"]]
    return bad


def total_min_cost_unconstrained(n, attrs, task, prices, quanta):
    """Sum of the four sub-process minima; the chain is strictly serial, so the
    total optimum decomposes."""
    from mfpsim.costs import (
        unconstrained_comm_schedule,
        unconstrained_comp_schedule,
        unconstrained_gen_schedule,
    )

    _, c_gen = unconstrained_gen_schedule(n, attrs, prices)
    _, c_down = unconstrained_comm_schedule(task.d_down_bits, task.eff_down, prices, quanta)
    _, c_up = unconstrained_comm_schedule(task.d_up_bits, task.eff_up, prices, quanta)
    _, c_comp = unconstrained_comp_schedule(n * task.cycles_per_sample, prices, quanta)
    return c_gen + c_down + c_comp + c_up


def distance_row(state, client):
    """One client's distances to every target, computed for that client
    alone; the distances of `scenario.sensing_pairs` must match it bit for
    bit."""
    return np.linalg.norm(state.target_pos - state.client_pos[client], axis=1)


def targets_in_domain(distances, geometry):
    """Indices of targets inside the visual disc and in the wireless-only
    annulus, from one client's `distance_row`."""
    in_vsd = np.flatnonzero(distances <= geometry.d_vs)
    in_wsd_only = np.flatnonzero((distances > geometry.d_vs) & (distances <= geometry.d_ws))
    return in_vsd, in_wsd_only


def sensing_pairs(state, geometry):
    """The round's (rows, cols, dist, visual) client by client: each
    client's `distance_row` split by `targets_in_domain`, the visual disc
    before the annulus; `scenario.sensing_pairs` must match it bit for bit."""
    parts = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=bool))]
    for c in range(state.n_clients):
        d = distance_row(state, c)
        for idx, visual in zip(targets_in_domain(d, geometry), (True, False)):
            parts.append((np.full(idx.size, c), idx, d[idx], np.full(idx.size, visual)))
    return tuple(np.concatenate(column) for column in zip(*parts))


def channel_gain(distance_m, params):
    """Linear power gain of the log-distance path-loss law at one distance
    (meters, >= 1); `scenario.path_gains` must match it bit for bit."""
    gain_db = -(params.reference_loss_db + 10 * params.pathloss_exponent * math.log10(distance_m))
    return 10 ** (gain_db / 10)


def spectral_efficiency(distance_m, tx_power_dbm, sensitivity_dbm, params, quanta):
    """One link's Shannon efficiency over one frequency cell, from one
    `channel_gain` call; 0 when the received power falls under the
    sensitivity.  `scenario.spectral_efficiency` must match it bit for bit."""
    gain = channel_gain(distance_m, params)
    gain_db = 10 * math.log10(gain) if gain > 0 else -math.inf  # 0: the gain underflowed
    if not tx_power_dbm + gain_db >= sensitivity_dbm:
        return 0.0
    tx_w = 10 ** ((tx_power_dbm - 30) / 10)
    snr = tx_w * gain / (params.noise_density_w_per_hz * quanta.freq_hz)
    return math.log2(1 + snr)


def server_distance(state, client):
    """One client's distance to the server, clamped to 1 m as the path-loss
    law is."""
    return max(float(np.linalg.norm(state.client_pos[client] - state.server_pos)), 1.0)


def reflect_folds(pos, area, folds=8):
    """Positions folded back at the square's edges at most `folds` times,
    one fold per pass; `scenario._reflect` must match it bit for bit
    wherever these folds land a position inside."""
    pos = pos.copy()
    for _ in range(folds):
        low = pos < 0
        high = pos > area
        pos[low] = -pos[low]
        pos[high] = 2 * area - pos[high]
    return pos


def status_attributes(state, distances, geometry, channel, profile, quanta):
    """One client's `StatusAttributes` from its `distance_row`, with a
    scalar `channel_gain` call per target, and its sensed label
    distribution, or None when it senses nothing; the round-level
    `scenario.status_attributes` must match both bit for bit."""
    from mfpsim.scenario import StatusAttributes

    n_targets = state.n_targets
    if n_targets == 0:
        return StatusAttributes(0.0, 0.0), None

    rho = n_targets / state.area_m**2
    in_vsd, in_annulus = targets_in_domain(distances, geometry)

    a = rho * geometry.s_vs * profile.visual_efficiency * profile.frame_rate_hz * quanta.time_s
    b = 0.0
    wireless_idx = np.concatenate([in_vsd, in_annulus])
    if wireless_idx.size:
        d = np.maximum(distances[wireless_idx], 1.0)
        gains = np.array([channel_gain(x, channel) for x in d.tolist()])
        tx_w = 10 ** ((channel.tx_power_sensing_dbm - 30) / 10)
        snr = tx_w * float(gains.mean()) / (channel.noise_density_w_per_hz * quanta.freq_hz)
        b = (
            rho
            * (geometry.s_ws - geometry.s_vs)
            * profile.wireless_efficiency
            * math.log2(1 + snr)
            * profile.frame_rate_hz
            * quanta.time_s
        )

    if profile.mode == "vsg":
        b = 0.0
        sensed = in_vsd
    elif profile.mode == "wsg":
        a = 0.0
        sensed = in_annulus
    else:
        sensed = wireless_idx

    label_dist = None
    if sensed.size:
        counts = np.bincount(state.target_class[sensed], minlength=state.n_classes)
        label_dist = counts / counts.sum()

    attrs = StatusAttributes(
        a=a,
        b=b,
        n_visual_targets=int(in_vsd.size),
        n_wireless_targets=int(in_annulus.size),
    )
    return attrs, label_dist


def client_statuses(status):
    """Each client's `StatusAttributes` from the columns
    `scenario.status_attributes` returns, in client order, with Python
    numbers, as the runner builds a client's."""
    from mfpsim.scenario import StatusAttributes

    return [StatusAttributes(*row) for row in zip(*(column.tolist() for column in status[:4]))]


def status_columns(per_client, n_classes):
    """`scenario.status_attributes`' columns from one (`StatusAttributes`,
    label distribution or None) pair per client, as `status_attributes`
    above gives them; a client that senses nothing gets a row of 0."""
    blank = np.zeros(n_classes)
    return (
        np.array([at.a for at, _ in per_client], dtype=float),
        np.array([at.b for at, _ in per_client], dtype=float),
        np.array([at.n_visual_targets for at, _ in per_client], dtype=int),
        np.array([at.n_wireless_targets for at, _ in per_client], dtype=int),
        np.array([blank if dist is None else dist for _, dist in per_client]),
    )


def quotes_per_client(ctx, budgets, status, eff_down, eff_up, global_dist, prev_cons):
    """The quote loop the runner ran before its batched pass, one `mtv`,
    `mutv` and `qod` call per client: client id -> (task, budgets, mtv,
    (mutv, qod) or None when the client does not quote).  `status` holds
    `scenario.status_attributes`' columns; a client whose row of the label
    matrix is 0 senses nothing, and its quality is 0.  `prev_cons` holds the
    chains the round carries, which narrow their clients' sensing band (a
    serial round carries none).  `runner._quote_fleet` must match it by
    `repr`."""
    from mfpsim.sensing import qod
    from mfpsim.solver import mtv, mutv

    out = {}
    for cid, at, label_dist, down, up in zip(
        ctx.client_ids, client_statuses(status), status[4], eff_down.tolist(), eff_up.tolist()
    ):
        task = ctx.config.task_for(down, up)
        my_budgets = budgets
        prev = prev_cons.get(cid)
        if prev is not None:
            peak = max(prev.comm_down.b, prev.comm_up.b)
            if peak > 0:
                my_budgets = replace(budgets, gen_freq_cells=max(0.0, budgets.freq_cells - peak))
        cap = mtv(at, task, my_budgets, ctx.quanta)
        out[cid] = (task, my_budgets, cap, None)
        if cap < 1:
            continue
        q = 0.0
        if label_dist.any() and global_dist is not None:
            q = max(0.0, qod(label_dist, global_dist))
        out[cid] = (task, my_budgets, cap, (mutv(at, task, ctx.prices, my_budgets, ctx.quanta), q))
    return out


def fleet_bounds_per_client(a, b, gen_bandwidth, eff_down, eff_up, task, prices, budgets, quanta):
    """`solver.fleet_bounds` as the per-client loop it batches: the column
    of client i's `mtv`, and the column of its `mutv` where that mtv is at
    least 1 (None below), on its own coefficients, efficiencies and sensing
    band."""
    from mfpsim.scenario import StatusAttributes
    from mfpsim.solver import mtv, mutv

    columns = (np.asarray(x, dtype=float).tolist() for x in (a, b, gen_bandwidth, eff_down, eff_up))
    caps, n_uncs = [], []
    for at_a, at_b, band, down, up in zip(*columns):
        at = StatusAttributes(at_a, at_b)
        my_task = replace(task, eff_down=down, eff_up=up)
        my_budgets = replace(budgets, gen_freq_cells=band)
        cap = mtv(at, my_task, my_budgets, quanta)
        caps.append(cap)
        n_uncs.append(mutv(at, my_task, prices, my_budgets, quanta) if cap >= 1 else None)
    return caps, n_uncs


def qod_per_row(local, global_):
    """`sensing.qod` of a (Nc, K) array as the 1-D call on each row."""
    from mfpsim.sensing import qod

    return np.array([qod(row, global_) for row in local])


def policy_solve_reference(ctx, n, at, task, budgets, bounds=None):
    """`runner._policy_solve` as it ran before the capped mtv decided its
    fallback: every cap the plain solve's transfers pass takes the capped
    (mtv, mutv) pair and a second solve, which is Infeasible above that mtv.
    Returns (outcome, budgets_used, fell_back)."""
    from mfpsim.baselines import schedule_with_policy
    from mfpsim.solver import OutcomeKind, SolveInput, mtv, mutv

    prices, quanta = ctx.prices, ctx.quanta
    out = schedule_with_policy(ctx.policy, SolveInput(n, at, task, prices, budgets, quanta), bounds=bounds)
    if not ctx.pipelined or out.kind != OutcomeKind.OPTIMAL:
        return out, budgets, False
    sensing_width = math.ceil(out.decision.gen.b_ws - 1e-9)
    if sensing_width <= 0:
        return out, budgets, False
    cap = max(1.0, budgets.freq_cells - sensing_width)
    if cap >= budgets.cons_bandwidth:
        return out, budgets, False
    capped = replace(budgets, cons_freq_cells=cap)
    if max(out.decision.comm_down.b, out.decision.comm_up.b) <= cap:
        return out, capped, False
    capped_bounds = (mtv(at, task, capped, quanta), mutv(at, task, prices, capped, quanta))
    out2 = schedule_with_policy(ctx.policy, SolveInput(n, at, task, prices, capped, quanta), bounds=capped_bounds)
    if out2.kind != OutcomeKind.OPTIMAL:
        return out, budgets, True
    return out2, capped, False


def reference_run(config):
    """The `RunRecord` of `runner.run(config)` with every fast path that has
    an oracle above, and the same signature or a thin adapter, replaced by
    it: the allocation, the saturated load, the sensing pairs (the oracle
    takes no buffers), each client's status from its `distance_row`, the
    quote's bounds and qualities client by client, the tag-grid pool, the
    policy solve that re-solves every binding cap, whole-cell realization's
    sensing search and leg candidates, and the
    consumption enumeration, which the runner's solver and the baseline
    policies call.  Its output bytes must equal the engine's run's."""
    from unittest import mock

    import mfpsim.baselines as baselines
    import mfpsim.runner as runner
    import mfpsim.solver as solver

    def statuses(state, pairs, geometry, channel, profile, quanta):
        per_client = [
            status_attributes(state, distance_row(state, c), geometry, channel, profile, quanta)
            for c in range(state.n_clients)
        ]
        return status_columns(per_client, state.n_classes)

    oracles = [
        (runner, "allocate_workloads", allocate_workloads_reference),
        (runner, "saturated_load", saturated_allocation_reference),
        (runner, "sensing_pairs", lambda state, geometry, buffers: sensing_pairs(state, geometry)),
        (runner, "status_attributes", statuses),
        (runner, "fleet_bounds", fleet_bounds_per_client),
        (runner, "qod", qod_per_row),
        (runner, "new_pool", GridPool),
        (runner, "_policy_solve", policy_solve_reference),
        (solver, "_int_gen_best", int_gen_best_reference),
        (solver, "_int_proc_candidates", int_proc_candidates_reference),
        (solver, "_enumerate_consumption", enumerate_consumption_reference),
        (baselines, "_enumerate_consumption", enumerate_consumption_reference),
    ]
    with contextlib.ExitStack() as stack:
        for module, name, oracle in oracles:
            stack.enter_context(mock.patch.object(module, name, oracle))
        return runner.run(config)


def output_hashes(record):
    """sha256 of every output file of a `RunRecord`, by file name."""
    return {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in sorted(record.output_texts().items())
    }


def _add_float_range(schema):
    if schema.get("type") in ("number", "integer"):
        schema["floatRange"] = True
    for sub in schema.get("properties", {}).values():
        _add_float_range(sub)
    if "items" in schema:
        _add_float_range(schema["items"])


def _float_range(validator, value, instance, schema):
    if type(instance) is int:
        try:
            float(instance)
        except OverflowError:
            yield jsonschema.ValidationError("integer too large for a float")


@functools.cache
def schema_validator():
    """jsonschema's validator for SCHEMA, which it first checks against its
    metaschema.  A "number" must be finite, and a last keyword on every
    "number" and "integer" leaf asks that an integer there fit a float."""
    cls = jsonschema.validators.validator_for(SCHEMA)
    cls.check_schema(SCHEMA)
    finite = cls.TYPE_CHECKER.redefine(
        "number",
        lambda checker, x: cls.TYPE_CHECKER.is_type(x, "number")
        and (not isinstance(x, float) or math.isfinite(x)),
    )
    ruled = copy.deepcopy(SCHEMA)
    _add_float_range(ruled)
    extended = jsonschema.validators.extend(
        cls, validators={"floatRange": _float_range}, type_checker=finite
    )
    return extended(ruled)


def schema_violations(doc):
    """(path, message) of every violation of SCHEMA in `doc`, in the order
    jsonschema finds them."""
    return [(tuple(e.absolute_path), e.message) for e in schema_validator().iter_errors(doc)]
