"""Overlapped round orchestration.

Rounds are pipelined: sensing for round r shares a communication-round window
with the previous round's download/compute/upload chain, so R rounds finish in
R+1 windows instead of the serial 2R.  The window length (cycle) is fixed by
the previous round's slowest finisher.  Placement policy inside a window:
downloads start at column 0, uploads end at the cycle boundary, compute sits
between them, and sensing spans from column 0 on the opposite edge of the
frequency grid, in the rows the transfers leave free.  Quotes already size
sensing beside the previous chain's peak width, so a block that does not fit
is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .costs import ScheduleDecision
from .errors import ResourceConflictError
from .resource_pool import GridRegion, SharedResourcePool

PROC_SENSE = "sense"
PROC_DOWN = "comm_down"
PROC_COMP = "comp"
PROC_UP = "comm_up"

_CHAIN = (PROC_DOWN, PROC_COMP, PROC_UP)


@dataclass(frozen=True)
class Placement:
    """One sub-process placed on a client's grids within one window."""

    client_id: str
    process: str
    start_col: int
    end_col: int  # exclusive
    b_cells: int
    f_cells: int


@dataclass
class RoundPlan:
    ir_index: int
    placements: list[Placement] = field(default_factory=list)
    dropped: dict[str, str] = field(default_factory=dict)
    tightened: dict[str, int] = field(default_factory=dict)  # stays empty; perfbench reads it
    audit_violations: list[str] = field(default_factory=list)

    def timeline_rows(self) -> list[dict]:
        return [
            {
                "round": self.ir_index,
                "client": p.client_id,
                "process": p.process,
                "start_cell": p.start_col,
                "end_cell": p.end_col,
                "b_cells": p.b_cells,
                "f_cells": p.f_cells,
            }
            for p in self.placements
        ]


def rounds_to_complete(n_rounds: int, mode: str) -> int:
    """Communication-round windows needed for n_rounds full rounds."""
    if n_rounds < 1:
        raise ValueError("need at least one round")
    if mode == "zeros":
        return n_rounds + 1
    if mode == "serial":
        return 2 * n_rounds
    raise ValueError(f"unknown mode {mode!r}")


def cycle_length(prev_consumption_times: list[int], time_cells: int) -> int:
    """Window length for the upcoming round: the previous round's slowest
    consumption chain, or the full window on bootstrap."""
    finite = [t for t in prev_consumption_times if t > 0]
    if not finite:
        return time_cells
    return min(time_cells, max(finite))


def _chain_cols(decision: ScheduleDecision, window: int) -> dict[str, tuple[int, int]]:
    """Column spans for the consumption chain: download first, upload last."""
    t_down = int(decision.comm_down.t)
    t_comp = int(decision.comp.t)
    t_up = int(decision.comm_up.t)
    return {
        PROC_DOWN: (0, t_down),
        PROC_COMP: (t_down, t_down + t_comp),
        PROC_UP: (window - t_up, window),
    }


def place_consumption(
    pool: SharedResourcePool,
    client_id: str,
    service: str,
    decision: ScheduleDecision,
    window: int,
) -> list[Placement]:
    """Reserve the download/compute/upload chain inside [0, window)."""
    cols = _chain_cols(decision, window)
    widths = {
        PROC_DOWN: (int(decision.comm_down.b), 0),
        PROC_COMP: (0, int(decision.comp.f)),
        PROC_UP: (int(decision.comm_up.b), 0),
    }
    placements = []
    for proc in _CHAIN:
        c0, c1 = cols[proc]
        b, f = widths[proc]
        if c1 <= c0 or (b == 0 and f == 0):
            continue
        tf = GridRegion(0, b, c0, c1) if b else None
        tc = GridRegion(0, f, c0, c1) if f else None
        pool.reserve(service, tf=tf, tc=tc)
        placements.append(Placement(client_id, proc, c0, c1, b, f))
    return placements


def free_sensing_bandwidth(pool: SharedResourcePool, span_cols: int) -> int:
    """Spectrum rows left for a sensing block spanning [0, span_cols) once the
    overlapped transfers (bottom-packed) are in place."""
    if span_cols <= 0:
        return pool.freq_cells
    bandwidth, _ = pool.column_loads()
    return pool.freq_cells - int(bandwidth[:span_cols].max())


def place_generation(
    pool: SharedResourcePool,
    client_id: str,
    service: str,
    decision: ScheduleDecision,
    budget: int,
) -> list[Placement]:
    """Reserve the sensing block: columns [0, t_vs), top rows of the grid.

    Visual-only sensing (zero bandwidth) occupies no grid cells; the span is
    still recorded for timeline and ordering audits."""
    t = int(decision.gen.t_vs)
    b = int(decision.gen.b_ws)
    if t <= 0:
        return []
    if t > budget:
        raise ResourceConflictError(f"sensing span {t} exceeds window budget {budget}")
    if b:
        pool.reserve(service, tf=GridRegion(pool.freq_cells - b, pool.freq_cells, 0, t))
    return [Placement(client_id, PROC_SENSE, 0, t, b, 0)]


def audit_chain_order(placements: list[Placement]) -> list[str]:
    """Serial-order checks within a window: download before compute before
    upload.  The sensing -> compute order across windows is structural: a
    round's sensing finishes with its window, compute runs in the next."""
    bad = []
    by_client: dict[str, dict[str, Placement]] = {}
    for p in placements:
        by_client.setdefault(p.client_id, {})[p.process] = p
    for cid, procs in by_client.items():
        down, comp, up = procs.get(PROC_DOWN), procs.get(PROC_COMP), procs.get(PROC_UP)
        if down and comp and down.end_col > comp.start_col:
            bad.append(f"download_overruns_compute:{cid}")
        if comp and up and comp.end_col > up.start_col:
            bad.append(f"compute_overruns_upload:{cid}")
        if down and up and down.end_col > up.start_col:
            bad.append(f"download_overruns_upload:{cid}")
    return bad


def plan_round(
    ir_index: int,
    time_cells: int,
    pools: dict[str, SharedResourcePool],
    prev_consumption: dict[str, ScheduleDecision],
    generation: dict[str, ScheduleDecision],
    t_delta: int | None = None,
) -> RoundPlan:
    """Place the previous round's consumption and this round's sensing into
    one shared window.

    The cycle defaults to the previous round's slowest consumption chain
    (bootstrap: the full window); callers running the full pipeline pass the
    frozen cycle they budgeted against.  A client whose chain misses the
    window, or whose sensing block does not fit the rows the overlapped
    transfers leave free, is dropped with a reason.
    """
    if t_delta is None:
        t_delta = cycle_length(
            [int(d.consumption_time) for d in prev_consumption.values()], time_cells
        )
    budget = min(time_cells, t_delta)
    plan = RoundPlan(ir_index)

    for cid in sorted(prev_consumption):
        decision = prev_consumption[cid]
        if decision.consumption_time > t_delta:
            plan.dropped[cid] = "consumption exceeds cycle window"
            continue
        plan.placements += place_consumption(
            pools[cid], cid, f"ir{ir_index - 1}:{cid}", decision, t_delta
        )

    for cid in sorted(generation):
        decision = generation[cid]
        pool = pools[cid]
        span = int(decision.gen.t_vs)
        if int(decision.gen.b_ws) <= free_sensing_bandwidth(pool, span) and span <= budget:
            plan.placements += place_generation(pool, cid, f"ir{ir_index}:{cid}", decision, budget)
        elif cid not in plan.dropped:
            plan.dropped[cid] = "sensing does not fit the shared window"

    plan.audit_violations = audit_chain_order(plan.placements)
    return plan
