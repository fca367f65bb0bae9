"""Lower and upper bounds on the variance of the individual treatment effect.

The variance of Y(1) - Y(0) is not identified from marginal arm data; it is
bracketed by the variance under the comonotone coupling (lower bound, v_o)
and under the antitonic coupling (upper bound, v_p). Two routes are offered:
the coupling-based sharp bounds and the coarser Cauchy-Schwarz (Neyman)
bounds, which only need the two arm variances.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .moments import ArmMoments, scale_error
from .sample import ExperimentalSample

__all__ = [
    "BoundsMethod",
    "VarianceBounds",
    "neyman_bounds",
    "mean_square_gaps",
    "sharp_bounds_empirical",
    "variance_bounds",
]


class BoundsMethod(str, enum.Enum):
    SHARP = "sharp"
    NEYMAN = "neyman"

    @classmethod
    def _missing_(cls, value):
        allowed = ", ".join(repr(m.value) for m in cls)
        raise ValidationError(f"unknown bounds method {value!r}; expected one of {allowed}")


_ROUNDING = 1e-10  # relative size below which a bound violation, or a v_o, is rounding


@dataclass(frozen=True)
class VarianceBounds:
    """A bracket [v_o, v_p] for Var(Y(1) - Y(0)).

    ``v_o`` is the optimistic (lower) bound, ``v_p`` the pessimistic (upper)
    bound. Construction enforces 0 <= v_o <= v_p, absorbing sub-roundoff
    violations by clamping.
    """

    v_o: float
    v_p: float
    method: BoundsMethod

    def __post_init__(self):
        v_o, v_p = float(self.v_o), float(self.v_p)
        scale = max(1.0, abs(v_o), abs(v_p))
        tol = _ROUNDING * scale
        if v_o < -tol:
            raise ValidationError(f"v_o must be nonnegative, got {v_o}")
        if v_o > v_p + tol:
            raise ValidationError(f"bound ordering violated: v_o={v_o} > v_p={v_p}")
        v_o = min(max(v_o, 0.0), max(v_p, 0.0))
        v_p = max(v_p, v_o)
        object.__setattr__(self, "v_o", v_o)
        object.__setattr__(self, "v_p", v_p)
        object.__setattr__(self, "method", BoundsMethod(self.method))


def neyman_bounds(sigma1_sq: float, sigma0_sq: float) -> VarianceBounds:
    """Cauchy-Schwarz bounds (sigma1 -+ sigma0)^2 from the arm variances alone.

    Raises
    ------
    ValidationError
        If either variance is negative.
    """
    if sigma1_sq < 0 or sigma0_sq < 0:
        raise ValidationError(
            f"variances must be nonnegative, got ({sigma1_sq}, {sigma0_sq})"
        )
    s1, s0 = math.sqrt(sigma1_sq), math.sqrt(sigma0_sq)
    return VarianceBounds(v_o=(s1 - s0) ** 2, v_p=(s1 + s0) ** 2, method=BoundsMethod.NEYMAN)


_BLOCK_CELLS = 1 << 16


def merged_grid_blocks(n1: int, n0: int):
    """The cells of the merged u-grid, as (idx1, idx0, widths) blocks.

    The grid cuts (0, 1] at {i/n1} union {j/n0}, so on each cell both arms'
    empirical quantile functions are constant, at the 0-based order
    statistics ``idx1`` and ``idx0``, and integrals of their products are
    exact sums over ``widths``. Under u -> 1-u the grid maps onto itself, so
    an arm's antitone partner on a cell is ``m - 1 - idx``. Cells come in u
    order, 2^16 cells of the larger arm (size na) per block. Inside its cell
    ia the smaller arm's index runs from ``ia*nb // na`` to
    ``((ia + 1)*nb - 1) // na``; a cell ends at the nearer next tick, the
    float the sorted union of the ticks holds, so widths and block sums are
    that grid's bit for bit. Swapping the arguments swaps the indices only.
    """
    na, nb = max(n1, n0), min(n1, n0)
    return (_merged_block(i0, na, nb, n1 < n0) for i0 in range(0, na, _BLOCK_CELLS))


def _merged_block(i0: int, na: int, nb: int, swap: bool):
    """The merged cells inside the larger arm's ticks (i0/na, i1/na]."""
    i1 = min(i0 + _BLOCK_CELLS, na)
    scaled = np.arange(i0, i1 + 1) * nb
    b_last = (scaled[1:] - 1) // na
    counts = b_last - scaled[:-1] // na + 1
    ia = np.repeat(np.arange(i0, i1), counts)
    ib = np.repeat(b_last + 1 - np.cumsum(counts), counts)
    ib += np.arange(ib.shape[0])
    ticks = (ia + 1.0) / na
    widths = (ib + 1.0) / nb
    np.minimum(ticks, widths, out=ticks)  # in place, to spare a large temporary
    np.subtract(ticks[1:], ticks[:-1], out=widths[1:])
    widths[0] = ticks[0] - i0 / na
    return (ib, ia, widths) if swap else (ia, ib, widths)


def mean_square_gaps(a: np.ndarray, others) -> list:
    """The integral of (Q_a(u) - Q_b(u))^2 du for each ``b`` of ``others``,
    sorted arrays all of one length, with ``a`` sorted too: both empirical
    quantile functions are constant on the cells of ``merged_grid_blocks``,
    so each integral is an exact sum over the cells, all taken in one pass.
    A reversed ``b`` gives the antitone coupling."""
    totals = [0.0] * len(others)
    with np.errstate(over="ignore", invalid="ignore"):  # callers check for an infinite total
        for ia, ib, widths in merged_grid_blocks(a.shape[0], others[0].shape[0]):
            qa = a[ia]
            for k, b in enumerate(others):
                diff = qa - b[ib]
                totals[k] += float(np.dot(widths, diff * diff))
            del ia, ib, widths, qa, diff  # two blocks alive at once would double the peak
    return totals


def sharp_bounds_empirical(sample: ExperimentalSample) -> VarianceBounds:
    """Coupling-based (Frechet-Hoeffding) bounds from an experimental sample.

    v_o and v_p are Var(Y1 - Y0) under the comonotone and the antitone
    coupling of the two empirical marginals: the mean square quantile gap
    of the treated arm, shifted by the difference in means of
    ``sample.arm_moments`` (``ArmMoments.ate``), against the
    control arm and against it reversed (``mean_square_gaps``). Neither
    depends on where the arms sit. A v_o below _ROUNDING * v_p (one arm a
    shift of the other, up to rounding) is 0.

    Raises
    ------
    ValidationError
        If either arm has fewer than two observations.
    NumericalError
        If a squared gap overflows (``moments.scale_error``).
    """
    if sample.n1 < 2 or sample.n0 < 2:
        raise ValidationError(
            f"need >= 2 observations per arm, got n1={sample.n1}, n0={sample.n0}"
        )
    y1, y0 = sample.sorted_arms
    (tau1, *_), (tau0, *_) = sample.arm_moments
    v_o, v_p = mean_square_gaps(y1 - (tau1 - tau0), (y0, y0[::-1]))
    if not math.isfinite(v_p):  # a square past 1.8e308: name the arm of wider range
        arm, y = max(("treated", y1), ("control", y0), key=lambda a: float(a[1][-1]) - float(a[1][0]))
        raise scale_error(arm, y, "the squared quantile gaps")
    if v_o <= _ROUNDING * v_p:
        v_o = 0.0
    return VarianceBounds(v_o=v_o, v_p=v_p, method=BoundsMethod.SHARP)


def variance_bounds(sample: ExperimentalSample, moments: ArmMoments,
                    method=BoundsMethod.SHARP) -> VarianceBounds:
    """The bracket of ``method`` (a ``BoundsMethod`` or its value): the sharp
    bounds of ``sample``, or the Neyman bounds of its ``estimate_moments``."""
    if BoundsMethod(method) is BoundsMethod.SHARP:
        return sharp_bounds_empirical(sample)
    return neyman_bounds(moments.sigma1_sq, moments.sigma0_sq)
