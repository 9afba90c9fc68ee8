import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpsim.costs import ComputeSchedule, GenSchedule, ScheduleDecision, TransferSchedule
from mfpsim.errors import ResourceConflictError
from mfpsim.resource_pool import GridRegion, new_pool
from mfpsim.rounds import (
    PROC_COMP,
    PROC_DOWN,
    PROC_SENSE,
    PROC_UP,
    cycle_length,
    place_consumption,
    place_generation,
    plan_round,
    rounds_to_complete,
)

from oracles import GridPool, pool_snapshot, snapshot_counts


def bandwidth_load(pool, col):
    return snapshot_counts(pool_snapshot(pool))[0][col]


def compute_load(pool, col):
    return snapshot_counts(pool_snapshot(pool))[1][col]


def consumption(t_down, b_down, t_comp, f_comp, t_up, b_up):
    return ScheduleDecision(
        comm_down=TransferSchedule(t_down, b_down),
        comp=ComputeSchedule(t_comp, f_comp),
        comm_up=TransferSchedule(t_up, b_up),
    )


def sensing(t, b):
    return ScheduleDecision(gen=GenSchedule(t, b, t if b else 0))


def chain_cycle(prev, time_cells):
    """The cycle of the previous round's slowest chain, or the full window
    on bootstrap: the cycle `run()` gives its trailing window."""
    return cycle_length([int(d.consumption_time) for d in prev.values()], time_cells)


class TestRoundsToComplete:
    def test_single_round_degenerate(self):
        assert rounds_to_complete(1, "zeros") == 2
        assert rounds_to_complete(1, "serial") == 2

    def test_closed_forms(self):
        assert rounds_to_complete(10, "zeros") == 11
        assert rounds_to_complete(10, "serial") == 20

    def test_pipelining_ratio_approaches_half(self):
        r = 10_000
        assert rounds_to_complete(r, "zeros") / rounds_to_complete(r, "serial") == pytest.approx(
            0.5, abs=1e-3
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            rounds_to_complete(0, "zeros")
        with pytest.raises(ValueError):
            rounds_to_complete(3, "parallel")


class TestCycleLength:
    def test_max_rule(self):
        assert cycle_length([3, 4], 10) == 4

    def test_bootstrap_full_window(self):
        assert cycle_length([], 10) == 10
        assert cycle_length([0, 0], 10) == 10

    def test_capped_by_window(self):
        assert cycle_length([15], 10) == 10


class TestPlacement:
    def test_chain_layout_download_first_upload_last(self):
        pool = new_pool(10, 8, 4)
        rows = place_consumption(pool, 1, "c0", "svc", consumption(2, 3, 3, 2, 1, 4), window=8)
        spans = {row["process"]: (row["start_cell"], row["end_cell"]) for row in rows}
        assert spans["comm_down"] == (0, 2)
        assert spans["comp"] == (2, 5)
        assert spans["comm_up"] == (7, 8)
        assert bandwidth_load(pool, 0) == 3
        assert compute_load(pool, 3) == 2
        assert bandwidth_load(pool, 7) == 4

    def test_sensing_on_top_rows(self):
        pool = new_pool(10, 8, 4)
        place_consumption(pool, 1, "c0", "cons", consumption(2, 3, 2, 1, 2, 3), window=8)
        # the transfers hold rows [0, 3): a 6-row block meets them first at (2,0)
        with pytest.raises(ResourceConflictError, match=r"^tf cell \(2,0\) already held by service 'cons'$"):
            place_generation(pool, 1, "c0", "gen", sensing(8, 6), budget=8)
        with pytest.raises(ResourceConflictError, match="^sensing width 9 exceeds the grid's 8 rows$"):
            place_generation(pool, 1, "c0", "gen", sensing(8, 9), budget=8)
        rows = place_generation(pool, 1, "c0", "gen", sensing(8, 5), budget=8)
        assert rows[0]["process"] == PROC_SENSE
        assert bandwidth_load(pool, 0) == 8  # saturated but legal

    def test_visual_only_sensing_occupies_no_cells(self):
        pool = new_pool(10, 8, 4)
        rows = place_generation(pool, 1, "c0", "gen", sensing(5, 0), budget=8)
        assert rows[0]["b_cells"] == 0
        assert bandwidth_load(pool, 0) == 0


class TestPlanRound:
    def test_cycle_from_previous_round(self):
        pools = {c: new_pool(10, 8, 4) for c in ("a", "b")}
        prev = {"a": consumption(1, 2, 1, 1, 1, 2), "b": consumption(1, 2, 2, 1, 1, 2)}
        gen = {"a": sensing(3, 2), "b": sensing(3, 2)}
        plan = plan_round(2, pools, prev, gen, chain_cycle(prev, 10))
        # the cycle is b's 4-cell chain: every upload ends on its boundary
        assert [row["end_cell"] for row in plan.placements if row["process"] == PROC_UP] == [4, 4]
        assert plan.dropped == {}

    def test_bootstrap_round(self):
        # no chain yet: the sensing budget is the full window
        pools = {"a": new_pool(10, 8, 4)}
        plan = plan_round(1, pools, {}, {"a": sensing(10, 3)}, chain_cycle({}, 10))
        assert plan.dropped == {}
        assert [(row["process"], row["end_cell"]) for row in plan.placements] == [(PROC_SENSE, 10)]

    def test_collision_without_resolver_drops_client(self):
        pools = {"a": new_pool(10, 8, 4)}
        prev = {"a": consumption(2, 6, 1, 1, 1, 6)}  # transfers hog 6 of 8 rows
        gen = {"a": sensing(4, 4)}  # wants 4 rows
        plan = plan_round(3, pools, prev, gen, chain_cycle(prev, 10))
        assert plan.dropped == {"a": "sensing does not fit the shared window"}
        assert PROC_SENSE not in {row["process"] for row in plan.placements}
        assert plan.tightened == {}

    def test_first_drop_reason_stands(self):
        # a client whose chain misses the window keeps that note when its
        # sensing does not fit either
        pools = {"a": new_pool(4, 8, 4)}
        prev = {"a": consumption(2, 2, 2, 1, 2, 2)}
        plan = plan_round(2, pools, prev, {"a": sensing(5, 2)}, chain_cycle(prev, 4))
        assert plan.dropped == {"a": "consumption exceeds cycle window"}

    def test_late_consumption_dropped(self):
        pools = {"a": new_pool(4, 8, 4), "b": new_pool(4, 8, 4)}
        # cycle is capped by the 4-cell window; a 6-cell chain cannot fit
        prev = {"a": consumption(2, 2, 2, 1, 2, 2), "b": consumption(1, 1, 1, 1, 1, 1)}
        plan = plan_round(2, pools, prev, {}, chain_cycle(prev, 4))
        assert plan.dropped == {"a": "consumption exceeds cycle window"}

    def test_timeline_rows_schema(self):
        pools = {"a": new_pool(10, 8, 4)}
        plan = plan_round(1, pools, {}, {"a": sensing(3, 2)}, chain_cycle({}, 10))
        assert plan.placements == [
            {
                "round": 1,
                "client": "a",
                "process": "sense",
                "start_cell": 0,
                "end_cell": 3,
                "b_cells": 2,
                "f_cells": 0,
            }
        ]


@st.composite
def chain_reserved_pools(draw):
    """A pool and its numpy reference after the same random reserves by
    services other than the sensing one: bottom-packed rows [0, w) on the
    frequency grid, as chain legs take them, any region on the compute grid.
    A reserve that clashes is skipped on both."""
    t, f, c = draw(st.integers(1, 12)), draw(st.integers(1, 10)), draw(st.integers(1, 6))
    pool, reference = new_pool(t, f, c), GridPool(t, f, c)
    for _ in range(draw(st.integers(0, 8))):
        grid = draw(st.sampled_from(("tf", "tc")))
        if grid == "tf":
            r0, r1 = 0, draw(st.integers(0, f))
        else:
            r0, r1 = sorted(draw(st.integers(0, c)) for _ in range(2))
        c0, c1 = sorted(draw(st.integers(0, t)) for _ in range(2))
        service = f"s{draw(st.integers(0, 3))}"
        for target in (pool, reference):
            try:
                target.reserve(service, grid, GridRegion(r0, r1, c0, c1))
            except ResourceConflictError:
                pass
    return pool, reference


@settings(max_examples=300, deadline=None)
@given(chain_reserved_pools(), st.data())
def test_sensing_fits_exactly_where_the_loads_leave_rows(pools, data):
    # the block takes the top b rows of columns [0, span) and every claim
    # below it starts at row 0, so it meets one exactly when b exceeds the
    # rows the fullest of those columns leaves free
    pool, reference = pools
    # the window never exceeds the pool (`cycle_length`): a longer one would
    # let a span run off the grid, which `reserve` raises on
    t_delta = data.draw(st.integers(0, pool.time_cells))
    span = data.draw(st.integers(0, t_delta + 2))
    b = data.draw(st.integers(0, pool.freq_cells + 2))
    free = pool.freq_cells
    if span > 0:
        free -= max(reference.column_loads()[:span])
    fits = span <= t_delta and b <= free

    trial = copy.deepcopy(pool)
    if fits:
        placed = place_generation(trial, 1, "c", "sense", sensing(span, b), t_delta)
        row = {
            "round": 1, "client": "c", "process": PROC_SENSE,
            "start_cell": 0, "end_cell": span, "b_cells": b, "f_cells": 0,
        }
        assert placed == ([row] if span else [])
    else:
        with pytest.raises(ResourceConflictError):
            place_generation(trial, 1, "c", "sense", sensing(span, b), t_delta)
        assert pool_snapshot(trial) == pool_snapshot(pool)

    plan = plan_round(1, {"c": pool}, {}, {"c": sensing(span, b)}, t_delta)
    assert plan.dropped == ({} if fits else {"c": "sensing does not fit the shared window"})


# a leg's time in cells: whole, fractional, or in (-1, 0), which truncates
# to no cell.  Exact fractions, so the window check sees the legs' true sum:
# a float within an ulp of -1 can round that sum down onto the window
WHOLE_OR_FRACTIONAL = st.fractions(0, 12, max_denominator=4)
BELOW_ZERO = st.fractions(-1, 0, max_denominator=64).filter(lambda x: -1 < x < 0)


@st.composite
def chain_windows(draw):
    """A window, pools no shorter than it, and one chain per client.  At
    most one leg of a chain is below zero: two legs just above -1 let the
    third leg's whole cells pass the window, and a solved leg is never
    below zero."""
    window = draw(st.integers(1, 12))
    pools, chains = {}, {}
    for cid in ("a", "b", "c")[: draw(st.integers(1, 3))]:
        t, f, c = draw(st.integers(window, 14)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
        times = [draw(WHOLE_OR_FRACTIONAL) for _ in range(3)]
        negative = draw(st.sampled_from([None, 0, 1, 2]))
        if negative is not None:
            times[negative] = draw(BELOW_ZERO)
        widths = draw(st.integers(0, f)), draw(st.integers(0, c)), draw(st.integers(0, f))
        pools[cid] = new_pool(t, f, c)
        chains[cid] = consumption(times[0], widths[0], times[1], widths[1], times[2], widths[2])
    return window, pools, chains


@settings(max_examples=300, deadline=None)
@given(chain_windows())
def test_a_chain_that_fits_its_window_is_placed_in_order(case):
    # the window check is the only order check: a chain it keeps lies
    # download, compute, upload inside [0, window), a leg of no whole cell
    # or no width left out
    window, pools, chains = case
    plan = plan_round(2, pools, chains, {}, window)
    for cid, d in chains.items():
        rows = {row["process"]: row for row in plan.placements if row["client"] == cid}
        if d.consumption_time > window:
            assert plan.dropped[cid] == "consumption exceeds cycle window"
            assert rows == {}
            continue
        assert cid not in plan.dropped
        legs = ((PROC_DOWN, d.comm_down.t, d.comm_down.b), (PROC_COMP, d.comp.t, d.comp.f),
                (PROC_UP, d.comm_up.t, d.comm_up.b))
        assert set(rows) == {proc for proc, t, w in legs if int(t) > 0 and w > 0}
        placed = [rows[proc] for proc, _, _ in legs if proc in rows]
        assert all(row["round"] == 2 and 0 <= row["start_cell"] < row["end_cell"] <= window for row in placed)
        assert all(x["end_cell"] <= y["start_cell"] for x, y in itertools.combinations(placed, 2))
