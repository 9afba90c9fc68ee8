"""Quality of data: how well a client's sensed labels match the global mix."""

from __future__ import annotations

import numpy as np


def qod(local: np.ndarray, global_: np.ndarray) -> float:
    """Quality of data: 1 minus the total-variation distance between a
    client's label distribution and the global one.  Always in [0, 1]."""
    local = np.asarray(local, dtype=float)
    global_ = np.asarray(global_, dtype=float)
    if local.shape != global_.shape:
        raise ValueError(f"distribution length mismatch: {local.shape} vs {global_.shape}")
    return 1.0 - 0.5 * float(np.abs(local - global_).sum())

