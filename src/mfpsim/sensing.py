"""Quality of data: how well a client's sensed labels match the global mix."""

from __future__ import annotations

import numpy as np


def qod(local: np.ndarray, global_: np.ndarray) -> float | np.ndarray:
    """Quality of data: 1 minus the total-variation distance between a
    client's label distribution and the global one, clamped at 0 (rounding
    can take the distance a hair past 1).  Always in [0, 1].

    Reduces over the last axis: a (Nc, K) `local` gives one value per row,
    each bitwise equal to the 1-D call on that row (numpy sums every row
    with the pairwise sum a 1-D array takes); a 1-D pair gives a float.
    """
    local = np.asarray(local, dtype=float)
    global_ = np.asarray(global_, dtype=float)
    if local.shape[-1:] != global_.shape[-1:]:
        raise ValueError(f"distribution length mismatch: {local.shape} vs {global_.shape}")
    v = 1.0 - 0.5 * np.abs(local - global_).sum(axis=-1)
    v = np.where(v > 0.0, v, 0.0)  # max(0.0, v): 0.0 on ties and nan
    return float(v) if v.ndim == 0 else v
