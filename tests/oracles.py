"""Reference implementations that the tests check the package against.

Each is the plain, unblocked form of a computation the package does a
faster way, kept here because only the tests call it.
"""

import math

import numpy as np


def kde_at(data: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """Gaussian-kernel density of ``data`` evaluated at points ``x``.

    The exact O(len(data) * len(x)) sum; the reference for
    ``covariance._kde_binned``.
    """
    out = np.empty(x.shape[0])
    norm = 1.0 / (data.shape[0] * h * math.sqrt(2.0 * math.pi))
    # chunk the evaluation grid to cap the kernel matrix at ~4M entries
    step = max(1, 4_000_000 // max(data.shape[0], 1))
    for start in range(0, x.shape[0], step):
        z = (x[start : start + step, None] - data[None, :]) / h
        out[start : start + step] = np.exp(-0.5 * z * z).sum(axis=1) * norm
    return out


def merged_u_grid(n1: int, n0: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and widths of the partition of (0,1] on which both arms'
    empirical quantile functions are simultaneously constant.

    Breakpoints are {k/n1} union {k/n0}, in one array; the reference for
    ``bounds.merged_u_blocks``.
    """
    ticks = np.union1d(
        np.arange(1, n1 + 1, dtype=float) / n1,
        np.arange(1, n0 + 1, dtype=float) / n0,
    )
    lefts = np.concatenate(([0.0], ticks[:-1]))
    widths = ticks - lefts
    mids = lefts + 0.5 * widths
    return mids, widths
