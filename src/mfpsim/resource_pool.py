"""Quantized per-client resource pools.

Each client holds, per communication round, two grids sharing one time axis:
a frequency x time grid ("tf", for sensing and transfers) and a compute-rate
x time grid ("tc", for training).  A grid is the list of rectangles that
named services claimed on it; claims are never released within a round, and
no two services' claims share a cell.  Placement asks the pool nothing but
whether a claim fits: `reserve` raises on the first cell another service
holds.

Pools are single-writer per round.  Concurrent reads are safe; interleaved
reservations on one pool are not, so callers serialize writes per client.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceConflictError


@dataclass(slots=True)
class ResourceQuanta:
    """Physical size of one grid cell along each axis.

    Defaults are the engine's normalization units: 1 s of time, one 1-MHz
    resource-block group of spectrum, and 1e5 CPU cycles/s of compute rate.
    """

    time_s: float = 1.0
    freq_hz: float = 1.0e6
    compute_cycles_per_s: float = 1.0e5

    def __post_init__(self):
        if self.time_s <= 0 or self.freq_hz <= 0 or self.compute_cycles_per_s <= 0:
            raise ValueError("all quanta must be strictly positive")


@dataclass(slots=True)
class GridRegion:
    """Half-open rectangular cell range: rows [row_start, row_stop) x cols [col_start, col_stop)."""

    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    def __post_init__(self):
        if self.row_start < 0 or self.col_start < 0:
            raise ValueError("region indices must be nonnegative")
        if self.row_stop < self.row_start or self.col_stop < self.col_start:
            raise ValueError("region stop must be >= start")


class SharedResourcePool:
    """Per grid, the rectangles each service claimed.

    A claim is `(service, row_start, row_stop, col_start, col_stop)` and is
    never empty.  Claims of different services never intersect, so every
    claimed cell has one holder; a service's own claims may overlap.
    """

    def __init__(self, time_cells: int, freq_cells: int, compute_cells: int):
        if time_cells < 1 or freq_cells < 1 or compute_cells < 1:
            raise ValueError("pool dimensions must be >= 1")
        self.time_cells = time_cells
        self.freq_cells = freq_cells
        self.compute_cells = compute_cells
        self._claims: dict[str, list[tuple[str, int, int, int, int]]] = {"tf": [], "tc": []}

    def reserve(self, service: str, grid: str, region: GridRegion) -> None:
        """Claim the cells of `region` on `grid` ("tf" or "tc") for `service`.

        Cells the service already holds stay as they are; a cell held by
        another service raises ResourceConflictError, naming the first such
        cell in row-major order, and leaves the pool untouched.
        """
        claims = self._claims[grid]
        rows = self.freq_cells if grid == "tf" else self.compute_cells
        if region.row_stop > rows or region.col_stop > self.time_cells:
            raise ValueError(f"{grid} region {region} exceeds grid shape {rows}x{self.time_cells}")
        r0, r1, c0, c1 = region.row_start, region.row_stop, region.col_start, region.col_stop
        # the row-major first cell of a union of rectangles is the least
        # first cell of any of them
        first = None
        for holder, h0, h1, k0, k1 in claims:
            top, left = max(r0, h0), max(c0, k0)
            if holder != service and top < min(r1, h1) and left < min(c1, k1):
                if first is None or (top, left) < first[:2]:
                    first = (top, left, holder)
        if first is not None:
            raise ResourceConflictError(
                f"{grid} cell ({first[0]},{first[1]}) already held by service {first[2]!r}"
            )
        if r0 < r1 and c0 < c1:
            claims.append((service, r0, r1, c0, c1))


def new_pool(time_cells: int, freq_cells: int, compute_cells: int) -> SharedResourcePool:
    """All-free pool with the stated dimensions (every dimension >= 1)."""
    return SharedResourcePool(time_cells, freq_cells, compute_cells)
