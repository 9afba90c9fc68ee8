"""Per-layer spans and counters for traced benchmark runs.

The engine has no tracing of its own, so the spans are recorded from outside:
`Instrumentation` swaps the functions each layer exposes (the names
`mfpsim.runner` imported, the solver entry points `mfpsim.baselines` and
`mfpsim.solver` call, `CostCurve.cost` and `SharedResourcePool.reserve`) for
wrappers that open a span, call the original and close the span.  Spans stay
in memory in flat arrays until `Tracer.write` stores them at the end of the
run.  Nothing here changes an argument or a result, so traced and untraced
runs of one config must produce the same output bytes.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import mfpsim.baselines as baselines
import mfpsim.runner as runner
import mfpsim.solver as solver
from mfpsim.market import CostCurve
from mfpsim.resource_pool import SharedResourcePool
from mfpsim.solver import OutcomeKind

# (namespace, attribute, span name).  A function bound under several names
# gets the same span name under each, so every path into it is seen.
SPANNED = [
    (runner, "make_scenario", "scenario.mobility"),
    (runner, "step_mobility", "scenario.mobility"),
    (runner, "status_attributes", "scenario.status"),
    (runner, "global_label_distribution", "scenario.label_dist"),
    (runner, "spectral_efficiency", "scenario.link"),
    (runner, "qod", "sensing.qod"),
    (runner, "config_hash", "config.hash"),
    (runner, "select_clients", "baselines.select"),
    (runner, "schedule_with_policy", "baselines.policy_solve"),
    (runner, "realize_with_policy", "baselines.realize"),
    (runner, "allocate_workloads", "market.alloc"),
    (runner, "build_report", "market.report"),
    (runner, "cycle_length", "rounds.cycle"),
    (runner, "plan_round", "rounds.plan"),
    (runner, "new_pool", "resource_pool.new"),
    (runner, "mtv", "solver.bounds"),
    (runner, "mutv", "solver.bounds"),
    (baselines, "mtv", "solver.bounds"),
    (baselines, "mutv", "solver.bounds"),
    (solver, "mtv", "solver.bounds"),
    (solver, "mutv", "solver.bounds"),
    (baselines, "constrained_schedule", "solver.solve"),
    (solver, "constrained_schedule", "solver.solve"),
    (baselines, "realize_schedule", "solver.realize"),
    (solver, "realize_schedule", "solver.realize"),
    (SharedResourcePool, "reserve", "resource_pool.reserve"),
]

CURVE_MISS = "market.curve_miss"


class Tracer:
    """Spans in flat arrays (index = span id) plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # 1 when no span of the same name was open: only those add to a
        # name's inclusive time, so nesting never counts an interval twice
        self.outermost = array("b")
        self._stack: list[int] = []
        self._open = Counter()
        self.counts = Counter()

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(self._open[nid] == 0)
        self._open[nid] += 1
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()
        self._open[self.name_id[sid]] -= 1

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: inclusive seconds, self seconds, span count."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        inclusive, own, calls = Counter(), Counter(), Counter()
        for sid in range(n):
            name = self.names[self.name_id[sid]]
            dur = self.end[sid] - self.start[sid]
            calls[name] += 1
            own[name] += dur - child[sid]
            if self.outermost[sid]:
                inclusive[name] += dur
        return inclusive, own, calls

    def write(self, path: Path) -> None:
        """One line per span: id, parent id (-1 at the top), name, start and
        end in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        lines = ["span\tparent\tname\tstart_s\tend_s"]
        for sid in range(len(self.start)):
            lines.append(
                f"{sid}\t{self.parent[sid]}\t{self.names[self.name_id[sid]]}\t"
                f"{self.start[sid] - t0:.9f}\t{self.end[sid] - t0:.9f}"
            )
        path.write_text("\n".join(lines) + "\n")


class Instrumentation:
    """Context manager that installs the span wrappers and restores the
    original functions on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._in_alloc = False
        self._last_uncapped_cost = None

    def __enter__(self):
        after = {
            "solver.solve": self._after_solve,
            "baselines.policy_solve": self._after_policy_solve,
            "rounds.plan": self._after_plan,
        }
        for owner, attr, name in SPANNED:
            self._install(owner, attr, lambda fn, name=name: _spanned(self.tracer, name, fn, after.get(name)))
        self._install(runner, "allocate_workloads", self._alloc)
        self._install(runner, "CostCurve", self._curve_factory)
        self._install(CostCurve, "cost", self._counted_lookup)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def _install(self, owner, attr, make) -> None:
        """Replace owner.attr with make(original); a name the engine no longer
        has is listed in `missing` instead."""
        fn = owner.__dict__.get(attr)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    # -- counters taken where the work happens -------------------------------

    def _after_solve(self, args, out) -> None:
        inp = args[0]
        if out.kind != OutcomeKind.OPTIMAL:
            self.tracer.counts["solver.solves_infeasible"] += 1
        elif inp.n <= out.mutv:
            self.tracer.counts["solver.solves_closed_form"] += 1
        else:
            self.tracer.counts["solver.solves_active_set"] += 1

    def _after_policy_solve(self, args, out) -> None:
        # runner._policy_solve re-solves with the transfer bandwidth capped
        # right after the plain solve of the same workload
        counts, inp = self.tracer.counts, args[1]
        cost = out.cost if out.kind == OutcomeKind.OPTIMAL else None
        if inp.budgets.cons_freq_cells is None:
            self._last_uncapped_cost = cost
            return
        counts["baselines.capped_resolves"] += 1
        before = self._last_uncapped_cost
        if cost is not None and before is not None and abs(cost - before) > 1e-9 * max(1.0, abs(before)):
            counts["baselines.capped_resolves_changed"] += 1

    def _after_plan(self, args, plan) -> None:
        c = self.tracer.counts
        c["rounds.placements"] += len(plan.placements)
        c["rounds.dropped"] += len(plan.dropped)
        c["rounds.tightened_resolves"] += len(plan.tightened)

    def _alloc(self, fn):
        # wraps the span wrapper installed from SPANNED: marks the allocation
        # window and counts what the allocation granted
        @functools.wraps(fn)
        def allocate(*args, **kwargs):
            self._in_alloc = True
            try:
                allocation, report = fn(*args, **kwargs)
            finally:
                self._in_alloc = False
            self.tracer.counts["market.samples_granted"] += allocation.total_samples
            return allocation, report

        return allocate

    def _curve_factory(self, curve_cls):
        # a call of the curve's cost function is a cache miss
        t = self.tracer

        def make_curve(cost_fn, mtv):
            def miss(n):
                t.counts["market.curve_misses" if self._in_alloc else "market.report_curve_misses"] += 1
                return t.call(CURVE_MISS, cost_fn, n)

            return curve_cls(miss, mtv)

        return make_curve

    def _counted_lookup(self, cost):
        counts = self.tracer.counts

        @functools.wraps(cost)
        def lookup(curve, n):
            if self._in_alloc:
                counts["market.curve_lookups"] += 1
            return cost(curve, n)

        return lookup


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(args, out)
        return out

    return wrapper
