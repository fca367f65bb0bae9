"""Benchmarks for choosing the neighborhood radius.

A radius is only meaningful relative to how far apart real populations sit,
so this module measures distances between empirical outcome distributions:
exact one-dimensional 2-Wasserstein distances and subsample-split
heterogeneity benchmarks (how far apart are two halves of the data you
already have?).
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bounds import mean_square_gaps
from .exceptions import ValidationError
from .sample import ExperimentalSample, scale_error

__all__ = [
    "RadiusBenchmark",
    "SplitRule",
    "split_benchmark",
]


def _w2_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """Exact 2-Wasserstein distance between the empirical distributions of
    two sorted, finite, nonempty float arrays, which it does not check.

    Both quantile functions are constant on the cells of the merged
    partition {k/m_a} union {k/m_b}, so the coupling integral
    sqrt(integral of (Q_a(u) - Q_b(u))^2 du) is ``bounds.mean_square_gaps``
    without discretization error, and W2(a, b) == W2(b, a) exactly. It is
    inf when a squared gap overflows.
    """
    return math.sqrt(mean_square_gaps(a, b, (0, a.shape[0], 0, b.shape[0]))[0, 0])


# ------------------------------------------------------------------- splits


class SplitRule(str, enum.Enum):
    MEDIAN_OUTCOME = "median_outcome"
    HALVES = "halves"
    PROVIDED_MASK = "provided_mask"


@dataclass(frozen=True)
class RadiusBenchmark:
    """Heterogeneity of one sample split, measured in radius units.

    ``joint_lower_bound`` is the smallest radius under which the two cells'
    joint potential-outcome distributions could coincide: per-arm distances
    combined in quadrature. ``null_p95`` (when present) is the 95th
    percentile of the same statistic under random cell relabeling — the
    yardstick for "is the observed heterogeneity more than noise?".
    """

    w2_y1: float
    w2_y0: float
    joint_lower_bound: float
    split_description: str
    null_p95: float = None

    def __post_init__(self):
        if self.w2_y1 < 0.0 or self.w2_y0 < 0.0:
            raise ValidationError("distances must be nonnegative")
        expected = math.hypot(self.w2_y1, self.w2_y0)
        if abs(self.joint_lower_bound - expected) > 1e-10 * max(1.0, expected):
            raise ValidationError(
                "joint bound must combine the per-arm distances in quadrature"
            )


def _arm_distance(arm, values, in_cell):
    """W2 between the two cells of one arm's sorted ``values``, which come
    out sorted; ValidationError below 2 per cell, NumericalError when a
    squared gap overflows."""
    first, second = np.compress(in_cell, values), np.compress(~in_cell, values)
    if first.size < 2 or second.size < 2:
        raise ValidationError(
            f"split leaves arm {arm} with cell sizes "
            f"{first.size} and {second.size}; need >= 2 each"
        )
    w2 = _w2_sorted(first, second)  # a sample's outcomes are finite floats
    if not math.isfinite(w2):
        raise scale_error(("control", "treated")[arm], values, "the squared quantile gaps")
    return w2


def split_benchmark(
    sample: ExperimentalSample,
    split=SplitRule.HALVES,
    mask=None,
    permutations: int = 200,
    seed: int = 0,
) -> RadiusBenchmark:
    """Radius benchmark from splitting one sample into two cells.

    Splits: ``median_outcome`` cuts at the pooled outcome median (cell one
    is Y <= median), ``halves`` takes the first half of the rows versus the
    rest, ``provided_mask`` uses a caller-supplied boolean cell-one mask.
    The permutation null relabels cells within each arm (cell sizes
    preserved), so ``null_p95`` reflects pure sampling noise. Each
    permutation reads an arm's cell labels at ``rng.permutation(m)``, the
    arm's row indices shuffled: Fisher-Yates draws do not depend on what
    they shuffle, so this is the draw of ``rng.permutation(labels)``, and
    numpy shuffles an index array faster than a boolean one. Each arm is
    sorted once, and each label vector is read in that order, so both cells
    come out sorted: the numbers of sorting every cell. A negative
    permutation count or seed raises ValidationError, and outcomes whose
    squared gaps overflow raise NumericalError.
    """
    split = SplitRule(split)
    if permutations < 0:
        raise ValidationError(f"permutations must be >= 0, got {permutations}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    y = sample.outcomes
    t = sample.treatments
    if split is SplitRule.PROVIDED_MASK:
        if mask is None:
            raise ValidationError("provided_mask split requires a mask")
        in_cell = np.asarray(mask, dtype=bool)
        if in_cell.shape != y.shape:
            raise ValidationError(
                f"mask length {in_cell.shape} does not match sample size {y.shape}"
            )
        description = "caller-provided mask"
    elif split is SplitRule.MEDIAN_OUTCOME:
        in_cell = y <= np.median(y)
        description = "outcome <= pooled median"
    else:
        half = (sample.n + 1) // 2
        in_cell = np.zeros(sample.n, dtype=bool)
        in_cell[:half] = True
        description = "first half of rows"

    arms = []
    for arm in (1, 0):
        values = y[t == arm]
        order = np.argsort(values)
        if values.size <= np.iinfo(np.int32).max:
            order = order.astype(np.int32)  # half the bytes of the arm-length index
        arms.append((arm, values[order], in_cell[t == arm], order))
        del values, order  # the arm unsorted, before the next arm's copy
    w2_y1, w2_y0 = (_arm_distance(arm, values, labels[order]) for arm, values, labels, order in arms)

    null_p95 = None
    if permutations > 0:
        rng = np.random.default_rng(seed)
        stats = np.empty(permutations)
        for k in range(permutations):
            stats[k] = math.hypot(*(
                _arm_distance(arm, values, labels[rng.permutation(labels.size)][order])
                for arm, values, labels, order in arms
            ))
        null_p95 = float(np.quantile(stats, 0.95))

    return RadiusBenchmark(
        w2_y1=w2_y1,
        w2_y0=w2_y0,
        joint_lower_bound=math.hypot(w2_y1, w2_y0),
        split_description=description,
        null_p95=null_p95,
    )
