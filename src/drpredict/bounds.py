"""Lower and upper bounds on the variance of the individual treatment effect.

The variance of Y(1) - Y(0) is not identified from marginal arm data; it is
bracketed by the variance under the comonotone coupling (lower bound, v_o)
and under the antitonic coupling (upper bound, v_p). Two routes are offered:
the coupling-based sharp bounds and the coarser Cauchy-Schwarz (Neyman)
bounds, which only need the two arm variances.
"""

from __future__ import annotations

import enum

import numpy as np

from .exceptions import ValidationError
from .sample import ArmBatch, scale_error

__all__ = [
    "BoundsMethod",
    "mean_square_gaps",
    "variance_bounds",
]


class BoundsMethod(str, enum.Enum):
    SHARP = "sharp"
    NEYMAN = "neyman"

    @classmethod
    def _missing_(cls, value):
        allowed = ", ".join(repr(m.value) for m in cls)
        raise ValidationError(f"unknown bounds method {value!r}; expected one of {allowed}")


_ROUNDING = 1e-10  # relative size, against v_p, below which a sharp v_o is rounding


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
    chunk (pair, i0, i1) of a block.

    As nb <= na, a larger-arm cell holds at most one smaller-arm tick inside
    it, so it is one merged cell or two, and the second of two starts at that
    tick: the smaller arm's index is ``ia*nb // na``, plus 1 on a cell whose
    ``ia`` repeats the previous cell's. A chunk's first cell is never such a
    second one, whatever the chunk before it ends on. When every chunk of
    the block swaps the same way the index pair is returned as it is, or
    swapped, without a copy.
    """
    pairs, i0, i1 = chunks.T
    na, nb = np.maximum(n1[pairs], n0[pairs]), np.minimum(n1[pairs], n0[pairs])
    span = i1 - i0
    ia = np.arange(int(span.sum())) + _per_cell(i0 - (np.cumsum(span) - span), span)
    na_c, nb_c = _per_cell(na, span), _per_cell(nb, span)
    scaled = ia * nb_c
    counts = scaled + (nb_c - 1)
    counts //= na_c
    scaled //= na_c
    counts -= scaled
    counts += 1
    del scaled, na_c, nb_c
    cells = np.add.reduceat(counts, np.cumsum(span) - span)
    ia = np.repeat(ia, counts)
    del counts
    na_c, nb_c = _per_cell(na, cells), _per_cell(nb, cells)
    ib = ia * nb_c
    ib //= na_c
    ib[1:] += ia[1:] == ia[:-1]
    first = np.cumsum(cells) - cells
    ib[first] = i0 * nb // na
    ticks = ia + 1.0
    ticks /= na_c
    widths = ib + 1.0
    widths /= nb_c
    np.minimum(ticks, widths, out=ticks)  # in place, to spare a large temporary
    np.subtract(ticks[1:], ticks[:-1], out=widths[1:])
    widths[first] = ticks[first] - i0 / na
    del ticks
    swap = n1[pairs] < n0[pairs]
    if swap.all():
        return ib, ia, widths, pairs, cells
    if not swap.any():
        return ia, ib, widths, pairs, cells
    swap = np.repeat(swap, cells)
    return np.where(swap, ib, ia), np.where(swap, ia, ib), widths, pairs, cells


def mean_square_gaps(a: np.ndarray, b: np.ndarray, pairs, shift=None, antitone: bool = False) -> np.ndarray:
    """The integral of (Q_a(u) - shift - Q_b(u))^2 du for each pair of
    sorted segments of ``a`` and ``b``.

    ``pairs`` is (lo_a, n_a, lo_b, n_b), ints or arrays, and pair p
    compares ``a[lo_a:lo_a + n_a]`` against ``b[lo_b:lo_b + n_b]``, each
    sorted; ``shift`` (None for 0) is subtracted from the first. Both
    empirical quantile functions are constant on the cells of
    ``merged_grid_blocks``, so each integral is an exact sum over the cells:
    one ``np.add.reduceat`` segment per chunk, added in u order. No BLAS
    call is made, so the sums do not depend on its thread count. Returns
    (P, 1), or with ``antitone`` (P, 2) whose second column pairs ``a``
    with ``b`` reversed, the antitone coupling.
    """
    lo_a, n_a, lo_b, n_b = (np.atleast_1d(x) for x in pairs)
    totals = np.zeros((n_a.shape[0], 2 if antitone else 1))
    with np.errstate(over="ignore", invalid="ignore"):  # callers check for an infinite total
        for ia, ib, widths, chunk_pairs, cells in merged_grid_blocks(n_a, n_b):
            for idx, lo in ((ia, lo_a), (ib, lo_b)):
                lo = _per_cell(lo[chunk_pairs], cells)
                if np.ndim(lo) or lo != 0:  # no pass for a block of one chunk at offset 0
                    idx += lo
            qa = np.take(a, ia)
            if shift is not None:
                qa -= _per_cell(shift[chunk_pairs], cells)
            partners = [ib]
            if antitone:  # lo + (n - 1 - idx), with ib already moved by lo
                partners.append(_per_cell(2 * lo_b[chunk_pairs] + n_b[chunk_pairs] - 1, cells) - ib)
            first = np.cumsum(cells) - cells
            for k, idx in enumerate(partners):
                diff = np.take(b, idx)
                np.subtract(qa, diff, out=diff)
                diff *= diff
                diff *= widths
                np.add.at(totals[:, k], chunk_pairs, np.add.reduceat(diff, first))
            del ia, ib, idx, lo, widths, qa, diff, partners  # two blocks alive at once would double the peak
    return totals


def variance_bounds(arms: ArmBatch, method=BoundsMethod.SHARP) -> np.ndarray:
    """The bracket of ``method`` (a ``BoundsMethod`` or its value) for each
    sample of an ``ArmBatch``: an (R, 2) array of (v_p, v_o), the
    pessimistic (upper) and the optimistic (lower) bound on Var(Y1 - Y0).

    The sharp v_o and v_p are Var(Y1 - Y0) under the comonotone and the
    antitone coupling of the two empirical marginals: the mean square
    quantile gap of the treated arm, shifted by the difference in means,
    against the control arm and against it reversed, one
    ``mean_square_gaps`` pass over the batch. Neither depends on where the
    arms sit. A v_o below _ROUNDING * v_p (one arm a shift of the other, up
    to rounding) is 0, and a v_o above v_p (the two sums rounded apart) is
    v_p. The Neyman bounds are (sigma1 +- sigma0)^2, the Cauchy-Schwarz
    bounds from each sample's arm variances (``ArmBatch.moments``) alone.

    Raises
    ------
    NumericalError
        What the first failing sample raises (``sample.scale_error``): on
        the sharp route when a squared gap overflows, naming the arm of
        wider range; on the Neyman route for the first arm, treated before
        control, whose variance overflows.
    """
    if BoundsMethod(method) is BoundsMethod.NEYMAN:
        var = arms.moments[1]
        for k in np.flatnonzero(~np.isfinite(var))[:1].tolist():
            raise scale_error(("treated", "control")[k % 2], arms.arm(k), "the second moments")
        # squared by Python's ** (the C library's pow), not numpy's x * x:
        # the two can round a square an ulp apart, and
        # tools/compare_outputs.py pins the reported bounds at --rtol 0
        sd = np.sqrt(var).tolist()
        return np.array([[(s1 + s0) ** 2, (s1 - s0) ** 2] for s1, s0 in zip(sd[0::2], sd[1::2])])
    lo1, lo0, end = arms.starts[0:-1:2], arms.starts[1::2], arms.starts[2::2]
    gaps = mean_square_gaps(arms.values, arms.values, (lo1, lo0 - lo1, lo0, end - lo0), arms.ate, antitone=True)
    for r in np.flatnonzero(~np.isfinite(gaps[:, 1]))[:1].tolist():
        # a square past 1.8e308: name the arm of wider range
        arm, y = max(("treated", arms.arm(2 * r)), ("control", arms.arm(2 * r + 1)),
                     key=lambda a: float(a[1][-1]) - float(a[1][0]))
        raise scale_error(arm, y, "the squared quantile gaps")
    v_o, v_p = gaps.T
    return np.stack((v_p, np.where(v_o <= _ROUNDING * v_p, 0.0, np.minimum(v_o, v_p))), axis=1)
