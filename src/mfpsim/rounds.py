"""Overlapped round orchestration.

Rounds are pipelined: sensing for round r shares a communication-round window
with the previous round's download/compute/upload chain, so R rounds finish in
R+1 windows instead of the serial 2R.  The window length (cycle) is fixed by
the previous round's slowest finisher.  Placement policy inside a window:
downloads start at column 0, uploads end at the cycle boundary, compute sits
between them, and sensing spans from column 0 on the opposite edge of the
frequency grid, in the rows the transfers leave free.  Quotes already size
sensing beside the previous chain's peak width, so the pool's conflict check
only guards: a block it refuses is dropped.
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


@dataclass(slots=True)
class RoundPlan:
    placements: list[dict] = field(default_factory=list)  # timeline.csv rows
    dropped: dict[str, str] = field(default_factory=dict)
    tightened: dict[str, int] = field(default_factory=dict)  # stays empty; perfbench reads it


def _row(r: int, client_id: str, process: str, start: int, end: int, b: int, f: int) -> dict:
    """The `timeline.csv` row of a sub-process placed in window `r`, in
    columns [start, end), b frequency and f compute cells wide."""
    return {
        "round": r, "client": client_id, "process": process,
        "start_cell": start, "end_cell": end, "b_cells": b, "f_cells": f,
    }


def rounds_to_complete(n_rounds: int, mode: str) -> int:
    """Communication-round windows needed for n_rounds full rounds."""
    if n_rounds < 1:
        raise ValueError("need at least one round")
    if mode == "zeros":
        return n_rounds + 1
    if mode == "serial":
        return 2 * n_rounds
    raise ValueError(f"unknown mode {mode!r}")


def cycle_length(durations: list[int], time_cells: int) -> int:
    """Window length for the upcoming round: the longest positive duration
    given, capped at `time_cells`, or the full window when there is none."""
    finite = [t for t in durations if t > 0]
    if not finite:
        return time_cells
    return min(time_cells, max(finite))


def place_consumption(
    pool: SharedResourcePool,
    r: int,
    client_id: str,
    service: str,
    decision: ScheduleDecision,
    window: int,
) -> list[dict]:
    """Reserve the download/compute/upload chain inside [0, window) of
    window `r`: download first, compute right after it, upload last.
    Returns the timeline rows of the legs it placed."""
    t_down = int(decision.comm_down.t)
    legs = (  # process, grid, width, start and end column
        (PROC_DOWN, "tf", int(decision.comm_down.b), 0, t_down),
        (PROC_COMP, "tc", int(decision.comp.f), t_down, t_down + int(decision.comp.t)),
        (PROC_UP, "tf", int(decision.comm_up.b), window - int(decision.comm_up.t), window),
    )
    rows = []
    for proc, grid, width, c0, c1 in legs:
        if c1 <= c0 or width == 0:
            continue
        pool.reserve(service, grid, GridRegion(0, width, c0, c1))
        b, f = (width, 0) if grid == "tf" else (0, width)
        rows.append(_row(r, client_id, proc, c0, c1, b, f))
    return rows


def place_generation(
    pool: SharedResourcePool,
    r: int,
    client_id: str,
    service: str,
    decision: ScheduleDecision,
    budget: int,
) -> list[dict]:
    """Reserve the sensing block of window `r`: columns [0, t_vs), the top
    b_ws rows of the frequency grid.  Returns its timeline row.

    Raises ResourceConflictError when the block does not fit: its span
    exceeds the window budget, it is wider than the grid, or it meets a cell
    another service holds.  Visual-only sensing (zero bandwidth) occupies no
    grid cells; its span still gets a timeline row."""
    t = int(decision.gen.t_vs)
    b = int(decision.gen.b_ws)
    if t > budget:
        raise ResourceConflictError(f"sensing span {t} exceeds window budget {budget}")
    if b > pool.freq_cells:
        raise ResourceConflictError(f"sensing width {b} exceeds the grid's {pool.freq_cells} rows")
    if t <= 0:
        return []
    if b:
        pool.reserve(service, "tf", GridRegion(pool.freq_cells - b, pool.freq_cells, 0, t))
    return [_row(r, client_id, PROC_SENSE, 0, t, b, 0)]


def plan_round(
    ir_index: int,
    pools: dict[str, SharedResourcePool],
    prev_consumption: dict[str, ScheduleDecision],
    generation: dict[str, ScheduleDecision],
    t_delta: int,
) -> RoundPlan:
    """Place the previous round's consumption and this round's sensing into
    window `ir_index`, one shared window of `t_delta` cells, the cycle the
    caller budgeted against (`cycle_length`, so never longer than the
    pools).  A client whose chain misses the window, or whose sensing block
    `place_generation` cannot reserve beside the overlapped transfers, is
    dropped with a reason.

    The drop also settles chain order.  `place_consumption` lays a chain
    out back to back, download from column 0, compute right after it and
    upload ending at the window, and truncation to whole cells only
    shortens a leg.  So a chain whose leg times sum to at most the window
    keeps download before compute before upload (a leg of no whole cell is
    not placed).
    """
    plan = RoundPlan()

    for cid in sorted(prev_consumption):
        decision = prev_consumption[cid]
        if decision.consumption_time > t_delta:
            plan.dropped[cid] = "consumption exceeds cycle window"
            continue
        plan.placements += place_consumption(
            pools[cid], ir_index, cid, f"ir{ir_index - 1}:{cid}", decision, t_delta
        )

    for cid in sorted(generation):
        try:
            plan.placements += place_generation(
                pools[cid], ir_index, cid, f"ir{ir_index}:{cid}", generation[cid], t_delta
            )
        except ResourceConflictError:
            plan.dropped.setdefault(cid, "sensing does not fit the shared window")

    return plan
