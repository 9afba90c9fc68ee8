import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpsim.errors import ResourceConflictError
from mfpsim.resource_pool import (
    GridRegion,
    ResourceQuanta,
    new_pool,
)

from oracles import GridPool, snapshot_counts


def region(rows, cols):
    return GridRegion(rows[0], rows[1], cols[0], cols[1])


def test_quanta_defaults_and_validation():
    q = ResourceQuanta()
    assert q.time_s == 1.0 and q.freq_hz == 1e6 and q.compute_cycles_per_s == 1e5
    with pytest.raises(ValueError):
        ResourceQuanta(time_s=0)


def test_new_pool_dimensions():
    pool = new_pool(10, 4, 10)
    assert pool.snapshot()["occupied"] == []
    assert pool.time_cells == 10 and pool.freq_cells == 4 and pool.compute_cells == 10
    tiny = new_pool(1, 1, 1)
    assert tiny.time_cells == 1
    # stock scenario scale: 10 s x 400 MHz x 1e6 cycle-rate in default quanta
    big = new_pool(10, 400, 10)
    assert big.freq_cells == 400


def test_new_pool_rejects_zero_dimension():
    with pytest.raises(ValueError):
        new_pool(0, 4, 10)
    with pytest.raises(ValueError):
        new_pool(10, 0, 1)


def test_reserve_conflict_with_other_service():
    pool = new_pool(10, 4, 10)
    pool.reserve("a", tf=region((0, 2), (0, 1)), tc=region((0, 1), (0, 1)))
    before = pool.snapshot()
    with pytest.raises(ResourceConflictError):
        pool.reserve("b", tf=region((2, 4), (1, 2)), tc=region((0, 1), (0, 1)))
    with pytest.raises(ResourceConflictError):
        pool.reserve("b", tf=region((1, 3), (0, 1)))
    # a failed call leaves no partial marks, on either grid
    assert pool.snapshot() == before


def test_reserve_out_of_bounds():
    pool = new_pool(10, 4, 10)
    with pytest.raises(ValueError):
        pool.reserve("a", tf=region((0, 5), (0, 1)))
    with pytest.raises(ValueError):
        pool.reserve("a", tc=region((0, 1), (0, 11)))


def test_column_loads():
    pool = new_pool(10, 4, 10)
    assert pool.column_loads()[0][5] == 0
    pool.reserve("a", tf=region((0, 3), (3, 4)))
    bandwidth, compute = pool.column_loads()
    assert bandwidth[3] == 3 and bandwidth[2] == 0
    pool.reserve("b", tf=region((3, 4), (3, 4)), tc=region((0, 2), (2, 5)))
    bandwidth, compute = pool.column_loads()
    assert bandwidth[3] == 4
    assert list(compute) == [0, 0, 2, 2, 2, 0, 0, 0, 0, 0]
    with pytest.raises(ResourceConflictError):
        pool.reserve("c", tf=region((0, 1), (3, 4)))
    ref_bandwidth, ref_compute = snapshot_counts(pool.snapshot())
    assert list(bandwidth) == ref_bandwidth and list(compute) == ref_compute


def test_saturated_column_capacity():
    pool = new_pool(4, 4, 4)
    pool.reserve("a", tf=region((0, 2), (0, 1)))
    pool.reserve("b", tf=region((2, 4), (0, 1)))
    assert pool.column_loads()[0][0] == 4


def test_snapshot_is_json_ready_and_sorted():
    pool = new_pool(3, 2, 2)
    pool.reserve("x", tf=region((0, 2), (0, 1)), tc=region((0, 1), (1, 2)))
    snap = pool.snapshot()
    text = json.dumps(snap)
    assert json.loads(text) == snap
    cells = [(c["grid"], c["row"], c["col"]) for c in snap["occupied"]]
    assert cells == sorted(cells)
    assert all(c["service"] == "x" for c in snap["occupied"])


@st.composite
def any_region(draw, rows, cols):
    """Any region of a rows x cols grid, empty ones included."""
    r0, r1 = sorted(draw(st.integers(0, rows)) for _ in range(2))
    c0, c1 = sorted(draw(st.integers(0, cols)) for _ in range(2))
    return GridRegion(r0, r1, c0, c1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reserve_claims_equal_whole_grid_reference(data):
    # a reserve tags every free cell of its regions with the service and
    # changes nothing else; a conflicting one changes nothing at all
    t, f, c = (data.draw(st.integers(1, n)) for n in (8, 6, 5))
    pool = new_pool(t, f, c)
    for _ in range(data.draw(st.integers(1, 12))):
        service = f"s{data.draw(st.integers(0, 2))}"
        tf = data.draw(st.none() | any_region(f, t))
        tc = data.draw(st.none() | any_region(c, t))
        before = pool.snapshot()
        held = {(d["grid"], d["row"], d["col"]): d["service"] for d in before["occupied"]}
        claimed = {
            (name, row, col)
            for name, r in (("tf", tf), ("tc", tc))
            if r is not None
            for row in range(r.row_start, r.row_stop)
            for col in range(r.col_start, r.col_stop)
        }
        try:
            pool.reserve(service, tf=tf, tc=tc)
        except ResourceConflictError:
            assert any(held.get(cell, service) != service for cell in claimed)
            assert pool.snapshot() == before
            continue
        expect = held | {cell: service for cell in claimed}
        after = {(d["grid"], d["row"], d["col"]): d["service"] for d in pool.snapshot()["occupied"]}
        assert after == expect


@st.composite
def reserve_call(draw, t, f, c):
    """A reserve on a t x f x c pool; one region in six may reach two cells
    past the grid on either axis."""

    def region(rows):
        if draw(st.booleans()):
            return None
        past = 2 if draw(st.integers(0, 5)) == 0 else 0
        r0, r1 = sorted(draw(st.integers(0, rows + past)) for _ in range(2))
        c0, c1 = sorted(draw(st.integers(0, t + past)) for _ in range(2))
        return GridRegion(r0, r1, c0, c1)

    return f"s{draw(st.integers(0, 2))}", region(f), region(c)


def _outcome(pool, service, tf, tc):
    try:
        pool.reserve(service, tf=tf, tc=tc)
    except (ValueError, ResourceConflictError) as err:
        return type(err), str(err)
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reserve_sequences_equal_the_grid_pool(data):
    # the claimed-rectangle pool against the numpy tag-grid pool it replaced,
    # step by step: the same exception (type and message) or none, the same
    # cell dump and the same per-column loads
    t, f, c = (data.draw(st.integers(1, n)) for n in (8, 6, 5))
    pool, grid = new_pool(t, f, c), GridPool(t, f, c)
    for _ in range(data.draw(st.integers(1, 16))):
        service, tf, tc = data.draw(reserve_call(t, f, c))
        assert _outcome(pool, service, tf, tc) == _outcome(grid, service, tf, tc)
        assert pool.snapshot() == grid.snapshot()
        assert list(pool.column_loads()) == [x.tolist() for x in grid.column_loads()]
