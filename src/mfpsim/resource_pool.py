"""Quantized per-client resource pools.

Each client holds, per communication round, two occupancy grids sharing one
time axis: a frequency x time grid and a compute-rate x time grid.  Cells are
claimed by named services and never released within a round; each occupied
cell keeps the tag of the service that claimed it.

Pools are single-writer per round.  Concurrent reads are safe; interleaved
reservations on one pool are not, so callers serialize writes per client.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceConflictError

_FREE = -1


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
    """Boolean-occupancy pool with per-cell service tags for audit."""

    def __init__(self, time_cells: int, freq_cells: int, compute_cells: int):
        if time_cells < 1 or freq_cells < 1 or compute_cells < 1:
            raise ValueError("pool dimensions must be >= 1")
        self.time_cells = time_cells
        self.freq_cells = freq_cells
        self.compute_cells = compute_cells
        self._tf = np.full((freq_cells, time_cells), _FREE, dtype=np.int32)
        self._tc = np.full((compute_cells, time_cells), _FREE, dtype=np.int32)
        self._services: list[str] = []
        self._service_index: dict[str, int] = {}

    def _sid(self, service: str) -> int:
        if service not in self._service_index:
            self._service_index[service] = len(self._services)
            self._services.append(service)
        return self._service_index[service]

    @staticmethod
    def _check_bounds(grid: np.ndarray, region: GridRegion, name: str) -> None:
        rows, cols = grid.shape
        if region.row_stop > rows or region.col_stop > cols:
            raise ValueError(
                f"{name} region {region} exceeds grid shape {rows}x{cols}"
            )

    def reserve(
        self,
        service: str,
        tf: GridRegion | None = None,
        tc: GridRegion | None = None,
    ) -> None:
        """Claim the cells of `tf` and `tc` for `service`.

        Cells the service already holds stay as they are; a cell held by
        another service raises ResourceConflictError and leaves the pool
        untouched.
        """
        sid = self._sid(service)
        if tf is not None:
            self._check_bounds(self._tf, tf, "tf")
        if tc is not None:
            self._check_bounds(self._tc, tc, "tc")

        blocks = []
        for grid, region, name in ((self._tf, tf, "tf"), (self._tc, tc, "tc")):
            if region is None:
                continue
            block = grid[region.row_start : region.row_stop, region.col_start : region.col_stop]
            clash = (block != _FREE) & (block != sid)
            if clash.any():
                r, c = np.argwhere(clash)[0]
                other = self._services[block[r, c]]
                raise ResourceConflictError(
                    f"{name} cell ({region.row_start + r},{region.col_start + c}) "
                    f"already held by service {other!r}"
                )
            blocks.append(block)
        for block in blocks:
            block[block == _FREE] = sid

    def column_loads(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupied cells per time column of the frequency grid and of the
        compute grid."""
        return (self._tf != _FREE).sum(axis=0), (self._tc != _FREE).sum(axis=0)

    def snapshot(self) -> dict:
        """JSON-serializable dump of dimensions and occupied cells with service tags."""
        occupied = []
        for name, grid in (("tf", self._tf), ("tc", self._tc)):
            for r, c in np.argwhere(grid != _FREE):
                occupied.append(
                    {
                        "grid": name,
                        "row": int(r),
                        "col": int(c),
                        "service": self._services[grid[r, c]],
                    }
                )
        occupied.sort(key=lambda d: (d["grid"], d["row"], d["col"]))
        return {
            "time_cells": self.time_cells,
            "freq_cells": self.freq_cells,
            "compute_cells": self.compute_cells,
            "occupied": occupied,
        }


def new_pool(time_cells: int, freq_cells: int, compute_cells: int) -> SharedResourcePool:
    """All-free pool with the stated dimensions (every dimension >= 1)."""
    return SharedResourcePool(time_cells, freq_cells, compute_cells)
