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

from .bounds import merged_u_blocks
from .exceptions import ValidationError
from .sample import EmpiricalDistribution, ExperimentalSample, quantile_at

__all__ = [
    "RadiusBenchmark",
    "SplitRule",
    "split_benchmark",
    "wasserstein2_1d",
]


def wasserstein2_1d(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """Exact 2-Wasserstein distance between two empirical distributions.

    Both quantile functions are constant on the merged partition
    {k/m_a} union {k/m_b}, so the coupling integral
    sqrt(integral of (Q_a(u) - Q_b(u))^2 du) is evaluated without
    discretization error.
    """
    total = 0.0
    for mids, widths in merged_u_blocks(a.m, b.m):
        diff = quantile_at(a.sorted_values, mids) - quantile_at(b.sorted_values, mids)
        total += float(np.dot(widths, diff * diff))
    return math.sqrt(total)


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


def _cell_distance(outcomes, treatments, in_cell):
    """Per-arm W2 between the two cells; ValidationError below 2 per arm."""
    dists = []
    for arm in (1, 0):
        arm_mask = treatments == arm
        first = outcomes[arm_mask & in_cell]
        second = outcomes[arm_mask & ~in_cell]
        if first.size < 2 or second.size < 2:
            raise ValidationError(
                f"split leaves arm {arm} with cell sizes "
                f"{first.size} and {second.size}; need >= 2 each"
            )
        dists.append(
            wasserstein2_1d(
                EmpiricalDistribution.from_values(first),
                EmpiricalDistribution.from_values(second),
            )
        )
    return dists[0], dists[1]


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
    preserved), so ``null_p95`` reflects pure sampling noise.
    """
    split = SplitRule(split)
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

    w2_y1, w2_y0 = _cell_distance(y, t, in_cell)

    null_p95 = None
    if permutations > 0:
        rng = np.random.default_rng(seed)
        treated_idx = np.flatnonzero(t == 1)
        control_idx = np.flatnonzero(t == 0)
        stats = np.empty(permutations)
        shuffled = in_cell.copy()
        for k in range(permutations):
            shuffled[treated_idx] = in_cell[rng.permutation(treated_idx)]
            shuffled[control_idx] = in_cell[rng.permutation(control_idx)]
            d1, d0 = _cell_distance(y, t, shuffled)
            stats[k] = math.hypot(d1, d0)
        null_p95 = float(np.quantile(stats, 0.95))

    return RadiusBenchmark(
        w2_y1=w2_y1,
        w2_y0=w2_y0,
        joint_lower_bound=math.hypot(w2_y1, w2_y0),
        split_description=description,
        null_p95=null_p95,
    )
