import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpsim.costs import ComputeSchedule, GenSchedule, ScheduleDecision, TransferSchedule
from mfpsim.errors import ResourceConflictError
from mfpsim.resource_pool import GridRegion, new_pool
from mfpsim.rounds import (
    PROC_SENSE,
    PROC_UP,
    audit_chain_order,
    cycle_length,
    free_sensing_bandwidth,
    place_consumption,
    place_generation,
    plan_round,
    rounds_to_complete,
)

from oracles import snapshot_counts


def bandwidth_load(pool, col):
    return snapshot_counts(pool.snapshot())[0][col]


def compute_load(pool, col):
    return snapshot_counts(pool.snapshot())[1][col]


def consumption(t_down, b_down, t_comp, f_comp, t_up, b_up):
    return ScheduleDecision(
        comm_down=TransferSchedule(t_down, b_down),
        comp=ComputeSchedule(t_comp, f_comp),
        comm_up=TransferSchedule(t_up, b_up),
    )


def sensing(t, b):
    return ScheduleDecision(gen=GenSchedule(t, b, t if b else 0))


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
        placements = place_consumption(
            pool, "c0", "svc", consumption(2, 3, 3, 2, 1, 4), window=8
        )
        spans = {p.process: (p.start_col, p.end_col) for p in placements}
        assert spans["comm_down"] == (0, 2)
        assert spans["comp"] == (2, 5)
        assert spans["comm_up"] == (7, 8)
        assert bandwidth_load(pool, 0) == 3
        assert compute_load(pool, 3) == 2
        assert bandwidth_load(pool, 7) == 4
        assert audit_chain_order(placements) == []

    def test_sensing_on_top_rows(self):
        pool = new_pool(10, 8, 4)
        place_consumption(pool, "c0", "cons", consumption(2, 3, 2, 1, 2, 3), window=8)
        assert free_sensing_bandwidth(pool, 8) == 5
        placements = place_generation(pool, "c0", "gen", sensing(8, 5), budget=8)
        assert placements[0].process == PROC_SENSE
        assert bandwidth_load(pool, 0) == 8  # saturated but legal

    def test_visual_only_sensing_occupies_no_cells(self):
        pool = new_pool(10, 8, 4)
        placements = place_generation(pool, "c0", "gen", sensing(5, 0), budget=8)
        assert placements[0].b_cells == 0
        assert bandwidth_load(pool, 0) == 0


class TestPlanRound:
    def test_cycle_from_previous_round(self):
        pools = {c: new_pool(10, 8, 4) for c in ("a", "b")}
        prev = {"a": consumption(1, 2, 1, 1, 1, 2), "b": consumption(1, 2, 2, 1, 1, 2)}
        gen = {"a": sensing(3, 2), "b": sensing(3, 2)}
        plan = plan_round(2, 10, pools, prev, gen)
        # the cycle is b's 4-cell chain: every upload ends on its boundary
        assert [p.end_col for p in plan.placements if p.process == PROC_UP] == [4, 4]
        assert plan.dropped == {}
        assert plan.audit_violations == []

    def test_bootstrap_round(self):
        # no chain yet: the sensing budget is the full window
        pools = {"a": new_pool(10, 8, 4)}
        plan = plan_round(1, 10, pools, {}, {"a": sensing(10, 3)})
        assert plan.dropped == {}
        assert [(p.process, p.end_col) for p in plan.placements] == [(PROC_SENSE, 10)]

    def test_collision_without_resolver_drops_client(self):
        pools = {"a": new_pool(10, 8, 4)}
        prev = {"a": consumption(2, 6, 1, 1, 1, 6)}  # transfers hog 6 of 8 rows
        plan = plan_round(3, 10, pools, prev, {"a": sensing(4, 4)})  # wants 4 rows
        assert plan.dropped == {"a": "sensing does not fit the shared window"}
        assert PROC_SENSE not in {p.process for p in plan.placements}
        assert plan.tightened == {}

    def test_late_consumption_dropped(self):
        pools = {"a": new_pool(4, 8, 4), "b": new_pool(4, 8, 4)}
        # cycle is capped by the 4-cell window; a 6-cell chain cannot fit
        prev = {"a": consumption(2, 2, 2, 1, 2, 2), "b": consumption(1, 1, 1, 1, 1, 1)}
        plan = plan_round(2, 4, pools, prev, {})
        assert plan.dropped == {"a": "consumption exceeds cycle window"}

    def test_timeline_rows_schema(self):
        pools = {"a": new_pool(10, 8, 4)}
        plan = plan_round(1, 10, pools, {}, {"a": sensing(3, 2)})
        rows = plan.timeline_rows()
        assert rows == [
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
def reserved_pools(draw):
    """A pool with random (possibly clashing, then skipped) reservations."""
    t, f, c = draw(st.integers(1, 12)), draw(st.integers(1, 10)), draw(st.integers(1, 6))
    pool = new_pool(t, f, c)

    def region(rows):
        r0, r1 = sorted(draw(st.integers(0, rows)) for _ in range(2))
        c0, c1 = sorted(draw(st.integers(0, t)) for _ in range(2))
        return GridRegion(r0, r1, c0, c1)

    for _ in range(draw(st.integers(0, 8))):
        tf = draw(st.none() | st.just(f).map(region))
        tc = draw(st.none() | st.just(c).map(region))
        try:
            pool.reserve(f"s{draw(st.integers(0, 3))}", tf=tf, tc=tc)
        except ResourceConflictError:
            pass
    return pool


@settings(max_examples=200, deadline=None)
@given(reserved_pools())
def test_window_scans_equal_per_column_reference(pool):
    bandwidth, _ = snapshot_counts(pool.snapshot())
    for span in range(-1, pool.time_cells + 3):
        ref = pool.freq_cells
        if span > 0:
            ref -= max(bandwidth[: min(span, pool.time_cells)])
        assert free_sensing_bandwidth(pool, span) == ref
