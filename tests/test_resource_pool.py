import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpsim.errors import ResourceConflictError
from mfpsim.resource_pool import (
    GridRegion,
    ResourceConsumption,
    ResourceQuanta,
    new_pool,
)

from oracles import snapshot_counts


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


def test_reserve_counts_first_occupancy_per_direction():
    pool = new_pool(10, 4, 10)
    got = pool.reserve("svc", tf=region((0, 3), (0, 2)))
    assert got == ResourceConsumption(time_cells=2, freq_cells=3, compute_cells=0)
    # overlapping follow-up by the same service only counts the new column
    got = pool.reserve("svc", tf=region((0, 3), (1, 3)))
    assert got == ResourceConsumption(time_cells=1, freq_cells=0, compute_cells=0)
    assert pool.consumption_of("svc") == ResourceConsumption(3, 3, 0)


def test_reserve_conflict_with_other_service():
    pool = new_pool(10, 4, 10)
    pool.reserve("a", tf=region((0, 2), (0, 1)))
    with pytest.raises(ResourceConflictError):
        pool.reserve("b", tf=region((1, 3), (0, 1)))
    # failed call must not leave partial marks
    assert pool.consumption_of("b") == ResourceConsumption()


def test_reserve_out_of_bounds():
    pool = new_pool(10, 4, 10)
    with pytest.raises(ValueError):
        pool.reserve("a", tf=region((0, 5), (0, 1)))
    with pytest.raises(ValueError):
        pool.reserve("a", tc=region((0, 1), (0, 11)))


def test_compute_grid_counts_and_shared_time_axis():
    pool = new_pool(10, 4, 6)
    got = pool.reserve("svc", tc=region((0, 2), (3, 5)))
    assert got == ResourceConsumption(time_cells=2, freq_cells=0, compute_cells=2)
    # same columns via the tf grid add bandwidth rows but no new time
    got = pool.reserve("svc", tf=region((0, 1), (3, 5)))
    assert got == ResourceConsumption(time_cells=0, freq_cells=1, compute_cells=0)


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
    ref_bandwidth, ref_compute, _ = snapshot_counts(pool.snapshot())
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


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(5)), st.data())
def test_def2_counts_order_independent(order, data):
    # non-overlapping single-column stripes: reserve order must not change totals
    rows = data.draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), min_size=5, max_size=5)
    )
    regions = []
    for col, (r0, height) in enumerate(rows):
        r1 = min(r0 + height, 4)
        regions.append(region((r0, r1), (col, col + 1)))

    def run(perm):
        pool = new_pool(5, 4, 2)
        total = ResourceConsumption()
        for i in perm:
            total = total + pool.reserve("svc", tf=regions[i])
        return total, pool.consumption_of("svc")

    base_total, base_final = run(range(5))
    perm_total, perm_final = run(order)
    assert base_total == perm_total == base_final == perm_final


@st.composite
def any_region(draw, rows, cols):
    """Any region of a rows x cols grid, empty ones included."""
    r0, r1 = sorted(draw(st.integers(0, rows)) for _ in range(2))
    c0, c1 = sorted(draw(st.integers(0, cols)) for _ in range(2))
    return GridRegion(r0, r1, c0, c1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reserve_counts_equal_whole_grid_reference(data):
    # the newly counted rows and columns of a reserve are the growth of the
    # service's distinct rows and columns over both whole grids
    t, f, c = (data.draw(st.integers(1, n)) for n in (8, 6, 5))
    pool = new_pool(t, f, c)
    for _ in range(data.draw(st.integers(1, 12))):
        service = f"s{data.draw(st.integers(0, 2))}"
        tf = data.draw(st.none() | any_region(f, t))
        tc = data.draw(st.none() | any_region(c, t))
        before = pool.snapshot()
        try:
            got = pool.reserve(service, tf=tf, tc=tc)
        except ResourceConflictError:
            assert pool.snapshot() == before
            continue
        _, _, held_before = snapshot_counts(before, service)
        _, _, held_after = snapshot_counts(pool.snapshot(), service)
        expect = tuple(a - b for a, b in zip(held_after, held_before))
        assert (got.time_cells, got.freq_cells, got.compute_cells) == expect
