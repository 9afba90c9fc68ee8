"""Brute-force reference implementations the solver tests check against.

These deliberately share no code with the engine: the sensing side sweeps the
time axis with bandwidth pinned by the yield equality, the consumption side
sweeps a 2-D time grid with a prefix-min over the third sub-process.

The last ones are straightforward or earlier forms of engine code, which the
tests compare with `==`: the binding-set enumeration with a dict per
candidate, the workload allocation rerunning its greedy from scratch on every
rationality pass, the runner's former saturated allocation, the sum of the
four unconstrained sub-process minima, and one client's target distances
taken on their own.  The market tests build their cost curves from fixed
tables with `curve_from_samples`; the golden and determinism tests compare
runs by `output_hashes`.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np


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


def allocation_exhaustive(quotes, price_sample, price_gain, gain_floor, gain_ceiling,
                          max_active, alpha, beta):
    """Exact welfare maximum over every admissible workload vector (tiny
    instances only).  quotes: list of (gain_rate, mtv, cost_list)."""
    best = None
    ranges = [range(0, q[1] + 1) for q in quotes]
    for combo in itertools.product(*ranges):
        if sum(1 for n in combo if n > 0) > max_active:
            continue
        gain = sum(q[0] * n for q, n in zip(quotes, combo))
        if not (gain_floor <= gain < gain_ceiling):
            continue
        payments = [price_sample * n for n in combo]
        costs = [q[2][n] for q, n in zip(quotes, combo)]
        profits = [p - c for p, c in zip(payments, costs)]
        if any(p < -1e-9 for p, n in zip(profits, combo) if n > 0):
            continue
        server = price_gain * gain - sum(payments)
        if server < -1e-9:
            continue
        welfare = alpha * server + beta * sum(profits)
        if best is None or welfare > best[0]:
            best = (welfare, combo)
    return best


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

    def polish(load):
        return _block_polish(
            quotes, load, prices, gain_floor, ceiling, max_active, alpha, beta, excluded
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

        load = polish(load)
        alt = saturated_start()
        if sum(by_id[c].gain_rate * n for c, n in alt.items()) >= gain_floor - tol:
            alt = polish(alt)
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


def snapshot_counts(snapshot):
    """Occupied cells per time column of the frequency and of the compute
    grid, read from `SharedResourcePool.snapshot()`."""
    n = snapshot["time_cells"]
    loads = {"tf": [0] * n, "tc": [0] * n}
    for cell in snapshot["occupied"]:
        loads[cell["grid"]][cell["col"]] += 1
    return loads["tf"], loads["tc"]


def curve_from_samples(samples):
    """A cost curve over a fixed table of costs: c(n) = samples[n]."""
    from mfpsim.market import CostCurve

    return CostCurve(lambda n: samples[n], len(samples) - 1)


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
    alone; `scenario.target_distances` must match it bit for bit."""
    return np.linalg.norm(state.target_pos - state.client_pos[client], axis=1)


def output_hashes(record):
    """sha256 of every output file of a `RunRecord`, by file name."""
    return {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in sorted(record.output_texts().items())
    }
