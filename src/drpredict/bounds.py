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
from .sample import ArmBatch, ExperimentalSample

__all__ = [
    "BoundsMethod",
    "VarianceBounds",
    "neyman_bounds",
    "mean_square_gaps",
    "sharp_bounds_empirical",
    "sharp_bounds_many",
    "variance_bounds",
    "variance_bounds_many",
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


# Larger-arm cells per chunk and per block. A block's arrays hold up to 2^16
# entries; twice that raised `benchmark`'s peak RSS on 10^6 rows by 5 MB.
_BLOCK_CELLS = 1 << 15


def merged_grid_blocks(n1, n0):
    """The cells of the merged u-grids of arm pairs, in blocks.

    For pair p, with arms of ``n1[p]`` and ``n0[p]`` values, the grid cuts
    (0, 1] at {i/n1} union {j/n0}, so on each cell both arms' empirical
    quantile functions are constant, at 0-based order statistics, and
    integrals of their products are exact sums over the cell widths. Under
    u -> 1-u the grid maps onto itself, so an arm's antitone partner on a
    cell is ``m - 1 - idx``.

    Each pair's cells come in u order, in chunks of at most 2^15 cells of
    its larger arm (size na); a pair's chunks depend on its sizes alone.
    Consecutive chunks, of one pair or of several, share a block while
    their larger-arm cells total at most 2^15. Each block is (idx1, idx0,
    widths, pairs, cells): the order statistics of both arms and the width
    of every cell of the block, then each chunk's pair and its number of
    cells. Inside a larger-arm cell ia the smaller arm's index runs from
    ``ia*nb // na`` to ``((ia + 1)*nb - 1) // na``; a cell ends at the
    nearer next tick, the float the sorted union of the ticks holds, so
    widths are that grid's bit for bit. Swapping the sizes swaps the
    indices only. ``n1`` and ``n0`` may be ints or arrays.
    """
    n1, n0 = np.atleast_1d(n1), np.atleast_1d(n0)
    chunks = [(p, i0, min(i0 + _BLOCK_CELLS, na))
              for p, na in enumerate(np.maximum(n1, n0).tolist())
              for i0 in range(0, na, _BLOCK_CELLS)]
    block, cells = [], 0
    for chunk in chunks:
        if block and cells + chunk[2] - chunk[1] > _BLOCK_CELLS:
            yield _merged_block(np.array(block), n1, n0)
            block, cells = [], 0
        block.append(chunk)
        cells += chunk[2] - chunk[1]
    if block:
        yield _merged_block(np.array(block), n1, n0)


def _per_cell(x: np.ndarray, counts: np.ndarray):
    """``x`` of each chunk repeated over its ``counts`` cells; one chunk's
    value as a scalar, which broadcasts to the same numbers. A block of one
    chunk is every block of an arm over 2^15 values, and the scalar spares
    its arithmetic a full-length operand: ``split_benchmark`` on 10^6 rows
    took about 15% longer with ``np.repeat`` alone."""
    return x[0] if x.shape[0] == 1 else np.repeat(x, counts)


def _merged_block(chunks: np.ndarray, n1: np.ndarray, n0: np.ndarray):
    """The merged cells inside the larger arms' ticks (i0/na, i1/na] of each
    chunk (pair, i0, i1) of a block."""
    pairs, i0, i1 = chunks.T
    na, nb = np.maximum(n1[pairs], n0[pairs]), np.minimum(n1[pairs], n0[pairs])
    span = i1 - i0
    ia = np.arange(int(span.sum())) + _per_cell(i0 - (np.cumsum(span) - span), span)
    na_c, nb_c = _per_cell(na, span), _per_cell(nb, span)
    scaled = ia * nb_c
    b_last = (scaled + nb_c - 1) // na_c
    counts = b_last - scaled // na_c + 1
    del scaled, na_c, nb_c
    cells = np.add.reduceat(counts, np.cumsum(span) - span)
    ia = np.repeat(ia, counts)
    ib = np.repeat(b_last + 1 - np.cumsum(counts), counts)
    del b_last, counts
    ib += np.arange(ib.shape[0])
    ticks = ia + 1.0
    ticks /= _per_cell(na, cells)
    widths = ib + 1.0
    widths /= _per_cell(nb, cells)
    np.minimum(ticks, widths, out=ticks)  # in place, to spare a large temporary
    np.subtract(ticks[1:], ticks[:-1], out=widths[1:])
    first = np.cumsum(cells) - cells
    widths[first] = ticks[first] - i0 / na
    del ticks
    swap = np.repeat(n1[pairs] < n0[pairs], cells)
    return np.where(swap, ib, ia), np.where(swap, ia, ib), widths, pairs, cells


def mean_square_gaps(a: np.ndarray, b: np.ndarray, pairs, shift=None, antitone: bool = False) -> np.ndarray:
    """The integral of (Q_a(u) - shift - Q_b(u))^2 du for each pair of
    sorted segments of ``a`` and ``b``.

    ``pairs`` is (lo_a, n_a, lo_b, n_b), ints or arrays, and pair p
    compares ``a[lo_a:lo_a + n_a]`` against ``b[lo_b:lo_b + n_b]``, each
    sorted; ``shift`` (None for 0) is subtracted from the first. Both
    empirical quantile functions are constant on the cells of
    ``merged_grid_blocks``, so each integral is an exact sum over the cells:
    one ``np.dot`` per chunk, added in u order. Returns (P, 1), or with
    ``antitone`` (P, 2) whose second column pairs ``a`` with ``b``
    reversed, the antitone coupling.
    """
    lo_a, n_a, lo_b, n_b = (np.atleast_1d(x) for x in pairs)
    totals = np.zeros((n_a.shape[0], 2 if antitone else 1))
    with np.errstate(over="ignore", invalid="ignore"):  # callers check for an infinite total
        for ia, ib, widths, chunk_pairs, cells in merged_grid_blocks(n_a, n_b):
            ia += _per_cell(lo_a[chunk_pairs], cells)
            qa = a[ia]
            if shift is not None:
                qa -= _per_cell(shift[chunk_pairs], cells)
            ib += _per_cell(lo_b[chunk_pairs], cells)
            partners = [ib]
            if antitone:  # lo + (n - 1 - idx), with ib already moved by lo
                partners.append(_per_cell(2 * lo_b[chunk_pairs] + n_b[chunk_pairs] - 1, cells) - ib)
            ends = np.cumsum(cells).tolist()
            for k, idx in enumerate(partners):
                diff = qa - b[idx]
                diff *= diff
                for p, lo, hi in zip(chunk_pairs.tolist(), [0, *ends[:-1]], ends):
                    totals[p, k] += float(np.dot(widths[lo:hi], diff[lo:hi]))
            del ia, ib, widths, qa, diff, partners  # two blocks alive at once would double the peak
    return totals


def sharp_bounds_empirical(sample: ExperimentalSample) -> VarianceBounds:
    """Coupling-based (Frechet-Hoeffding) bounds from an experimental
    sample: ``sharp_bounds_many`` of its batch of one.

    v_o and v_p are Var(Y1 - Y0) under the comonotone and the antitone
    coupling of the two empirical marginals: the mean square quantile gap
    of the treated arm, shifted by the difference in means, against the
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
    return sharp_bounds_many(sample.arms)[0]


def sharp_bounds_many(arms: ArmBatch) -> list:
    """``sharp_bounds_empirical`` for each sample of an ``ArmBatch``: one
    ``mean_square_gaps`` pass over the batch. Raises what the first failing
    sample raises."""
    sizes = np.diff(arms.starts).tolist()
    for n1, n0 in zip(sizes[0::2], sizes[1::2]):
        if n1 < 2 or n0 < 2:
            raise ValidationError(f"need >= 2 observations per arm, got n1={n1}, n0={n0}")
    lo1, lo0, end = arms.starts[0:-1:2], arms.starts[1::2], arms.starts[2::2]
    means = arms.moments[0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in v_p below
        shift = means[0::2] - means[1::2]
    gaps = mean_square_gaps(arms.values, arms.values, (lo1, lo0 - lo1, lo0, end - lo0), shift, antitone=True)
    out = []
    for r, (v_o, v_p) in enumerate(gaps.tolist()):
        if not math.isfinite(v_p):  # a square past 1.8e308: name the arm of wider range
            y1, y0 = (arms.values[arms.starts[k] : arms.starts[k + 1]] for k in (2 * r, 2 * r + 1))
            arm, y = max(("treated", y1), ("control", y0), key=lambda a: float(a[1][-1]) - float(a[1][0]))
            raise scale_error(arm, y, "the squared quantile gaps")
        if v_o <= _ROUNDING * v_p:
            v_o = 0.0
        out.append(VarianceBounds(v_o=v_o, v_p=v_p, method=BoundsMethod.SHARP))
    return out


def variance_bounds(sample: ExperimentalSample, moments: ArmMoments,
                    method=BoundsMethod.SHARP) -> VarianceBounds:
    """The bracket of ``method`` (a ``BoundsMethod`` or its value): the sharp
    bounds of ``sample``, or the Neyman bounds of its ``estimate_moments``."""
    return variance_bounds_many(sample.arms, [moments], method)[0]


def variance_bounds_many(arms: ArmBatch, moments, method=BoundsMethod.SHARP) -> list:
    """``variance_bounds`` for each sample of an ``ArmBatch``, with their
    ``estimate_moments``."""
    if BoundsMethod(method) is BoundsMethod.SHARP:
        return sharp_bounds_many(arms)
    return [neyman_bounds(m.sigma1_sq, m.sigma0_sq) for m in moments]
