import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpsim.errors import ResourceConflictError
from mfpsim.resource_pool import (
    GridRegion,
    ResourceQuanta,
    new_pool,
)

from oracles import GridPool, pool_snapshot, snapshot_counts


def region(rows, cols):
    return GridRegion(rows[0], rows[1], cols[0], cols[1])


def test_quanta_defaults_and_validation():
    q = ResourceQuanta()
    assert q.time_s == 1.0 and q.freq_hz == 1e6 and q.compute_cycles_per_s == 1e5
    with pytest.raises(ValueError):
        ResourceQuanta(time_s=0)


def test_new_pool_dimensions():
    pool = new_pool(10, 4, 10)
    assert pool_snapshot(pool)["occupied"] == []
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
    pool.reserve("a", "tf", region((0, 2), (0, 1)))
    pool.reserve("a", "tc", region((0, 1), (0, 1)))
    before = pool_snapshot(pool)
    with pytest.raises(ResourceConflictError, match=r"^tc cell \(0,0\) already held by service 'a'$"):
        pool.reserve("b", "tc", region((0, 1), (0, 1)))
    with pytest.raises(ResourceConflictError, match=r"^tf cell \(1,0\) already held by service 'a'$"):
        pool.reserve("b", "tf", region((1, 3), (0, 1)))
    # a failed call leaves no partial marks
    assert pool_snapshot(pool) == before


def test_reserve_out_of_bounds():
    pool = new_pool(10, 4, 10)
    with pytest.raises(ValueError):
        pool.reserve("a", "tf", region((0, 5), (0, 1)))
    with pytest.raises(ValueError):
        pool.reserve("a", "tc", region((0, 1), (0, 11)))


def test_claims_clash_only_on_their_own_grid():
    pool = new_pool(10, 4, 10)
    pool.reserve("a", "tf", region((0, 3), (3, 4)))
    pool.reserve("b", "tc", region((0, 2), (2, 5)))
    # each grid's claims clash only with claims on that grid
    pool.reserve("b", "tf", region((0, 2), (2, 3)))
    pool.reserve("a", "tc", region((2, 3), (3, 4)))
    with pytest.raises(ResourceConflictError, match=r"^tf cell \(0,3\) already held by service 'a'$"):
        pool.reserve("c", "tf", region((0, 1), (3, 4)))
    holders = {(d["grid"], d["row"], d["col"]): d["service"] for d in pool_snapshot(pool)["occupied"]}
    assert holders[("tf", 2, 3)] == "a" and holders[("tf", 1, 2)] == "b"
    assert holders[("tc", 1, 3)] == "b" and holders[("tc", 2, 3)] == "a"
    bandwidth, compute = snapshot_counts(pool_snapshot(pool))
    assert bandwidth == [0, 0, 2, 3, 0, 0, 0, 0, 0, 0]
    assert compute == [0, 0, 2, 3, 2, 0, 0, 0, 0, 0]


def test_saturated_column_refuses_others_and_admits_its_holders():
    pool = new_pool(4, 4, 4)
    pool.reserve("a", "tf", region((0, 2), (0, 1)))
    pool.reserve("b", "tf", region((2, 4), (0, 1)))
    for row in range(4):
        with pytest.raises(ResourceConflictError, match=f"^tf cell \\({row},0\\) already held"):
            pool.reserve("c", "tf", region((row, row + 1), (0, 2)))
    # a holder's own cells stay its to claim again, overlapping or not
    pool.reserve("a", "tf", region((0, 2), (0, 3)))
    with pytest.raises(ResourceConflictError, match=r"^tf cell \(2,0\) already held by service 'b'$"):
        pool.reserve("a", "tf", region((1, 3), (0, 1)))


@st.composite
def any_region(draw, rows, cols):
    """Any region of a rows x cols grid, empty ones included."""
    r0, r1 = sorted(draw(st.integers(0, rows)) for _ in range(2))
    c0, c1 = sorted(draw(st.integers(0, cols)) for _ in range(2))
    return GridRegion(r0, r1, c0, c1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reserve_claims_equal_whole_grid_reference(data):
    # a reserve tags every free cell of its region with the service and
    # changes nothing else; a conflicting one changes nothing at all
    t, f, c = (data.draw(st.integers(1, n)) for n in (8, 6, 5))
    pool = new_pool(t, f, c)
    for _ in range(data.draw(st.integers(1, 12))):
        service = f"s{data.draw(st.integers(0, 2))}"
        grid = data.draw(st.sampled_from(("tf", "tc")))
        r = data.draw(any_region(f if grid == "tf" else c, t))
        before = pool_snapshot(pool)
        held = {(d["grid"], d["row"], d["col"]): d["service"] for d in before["occupied"]}
        claimed = {
            (grid, row, col)
            for row in range(r.row_start, r.row_stop)
            for col in range(r.col_start, r.col_stop)
        }
        try:
            pool.reserve(service, grid, r)
        except ResourceConflictError:
            assert any(held.get(cell, service) != service for cell in claimed)
            assert pool_snapshot(pool) == before
            continue
        expect = held | {cell: service for cell in claimed}
        after = {(d["grid"], d["row"], d["col"]): d["service"] for d in pool_snapshot(pool)["occupied"]}
        assert after == expect


@st.composite
def reserve_call(draw, t, f, c):
    """A reserve on a t x f x c pool; one region in six may reach two cells
    past the grid on either axis."""
    grid = draw(st.sampled_from(("tf", "tc")))
    rows = f if grid == "tf" else c
    past = 2 if draw(st.integers(0, 5)) == 0 else 0
    r0, r1 = sorted(draw(st.integers(0, rows + past)) for _ in range(2))
    c0, c1 = sorted(draw(st.integers(0, t + past)) for _ in range(2))
    return f"s{draw(st.integers(0, 2))}", grid, GridRegion(r0, r1, c0, c1)


def _outcome(pool, service, grid, region):
    try:
        pool.reserve(service, grid, region)
    except (ValueError, ResourceConflictError) as err:
        return type(err), str(err)
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reserve_sequences_equal_the_grid_pool(data):
    # the claimed-rectangle pool against the numpy tag-grid pool it replaced,
    # step by step: the same exception (type and message) or none, and the same
    # holder of every cell on both grids
    t, f, c = (data.draw(st.integers(1, n)) for n in (8, 6, 5))
    pool, grid = new_pool(t, f, c), GridPool(t, f, c)
    for _ in range(data.draw(st.integers(1, 16))):
        call = data.draw(reserve_call(t, f, c))
        assert _outcome(pool, *call) == _outcome(grid, *call)
        assert pool_snapshot(pool) == grid.snapshot()
