"""Sample container, CSV ingestion, and each arm's moments and quantiles.

Everything downstream consumes :class:`ExperimentalSample` (outcomes plus a
binary treatment indicator) or :class:`EmpiricalDistribution` (one arm's
sorted outcomes). Both are immutable after construction and safe to share
across workers.

The per-sample stages (moments, sharp bounds, sharp Sigma) take samples as
an :class:`ArmBatch`: the sorted arms of consecutive samples in one ragged
array, cut by ``sample_batches`` at ``BATCH_ROWS`` rows, so that each stage
is one array pass over the batch instead of one call per sample. A sample's
numbers never depend on the batch it is in; a sample alone is a batch of
one, kept as its ``arms``.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import ParseError, ValidationError

__all__ = [
    "ArmBatch",
    "ExperimentalSample",
    "EmpiricalDistribution",
    "arm_batch",
    "load_sample",
    "sample_batches",
]

# Rows per ragged batch: 16 samples at n = 1000. A sample of more rows is a
# batch of its own.
BATCH_ROWS = 1 << 14


@dataclass(frozen=True)
class ExperimentalSample:
    """Outcomes and binary treatment indicators from one randomized study.

    Parameters
    ----------
    outcomes : array-like of float
        Observed outcome for every unit.
    treatments : array-like of {0, 1}
        1 for treated units, 0 for controls.

    Raises
    ------
    ValidationError
        On length mismatch, fewer than two observations, non-finite
        outcomes, treatment codes outside {0, 1}, or an empty arm.
    """

    outcomes: np.ndarray
    treatments: np.ndarray
    n: int = field(init=False)
    n1: int = field(init=False)
    n0: int = field(init=False)

    def __post_init__(self):
        y = np.asarray(self.outcomes, dtype=float)
        t = np.asarray(self.treatments)
        if y.ndim != 1 or t.ndim != 1:
            raise ValidationError("outcomes and treatments must be 1-dimensional")
        if y.shape[0] != t.shape[0]:
            raise ValidationError(
                f"length mismatch: {y.shape[0]} outcomes vs {t.shape[0]} treatments"
            )
        if y.shape[0] < 2:
            raise ValidationError("need at least 2 observations")
        if not np.all(np.isfinite(y)):
            bad = int(np.flatnonzero(~np.isfinite(y))[0])
            raise ValidationError(f"non-finite outcome at index {bad}")
        coded = (t == 0) | (t == 1)
        if not coded.all():
            bad = int(np.flatnonzero(~coded)[0])
            raise ValidationError(
                f"treatment must be 0 or 1, got {t[bad]!r} at index {bad}"
            )
        t = t.astype(np.int8)
        n1 = int(t.sum())
        n0 = t.shape[0] - n1
        if n1 == 0:
            raise ValidationError("empty treated arm")
        if n0 == 0:
            raise ValidationError("empty control arm")
        y.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "treatments", t)
        object.__setattr__(self, "n", int(y.shape[0]))
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n0", n0)

    @property
    def treated(self) -> np.ndarray:
        """Outcomes of the treated arm."""
        return self.outcomes[self.treatments == 1]

    @property
    def control(self) -> np.ndarray:
        """Outcomes of the control arm."""
        return self.outcomes[self.treatments == 0]

    @cached_property
    def arms(self) -> "ArmBatch":
        """This sample as a batch of one (``arm_batch``): both arms sorted,
        and their moments. Computed on first access and kept, so the
        moments, the sharp bounds and their covariance share one sort."""
        return _arm_batch([self])

    @cached_property
    def sorted_arms(self) -> tuple[np.ndarray, np.ndarray]:
        """(treated, control) outcomes, each sorted ascending and read-only:
        views of ``arms``."""
        return self.arms.values[: self.n1], self.arms.values[self.n1 :]

    @cached_property
    def arm_moments(self) -> tuple[tuple[float, float, float, float], tuple[float, float, float, float]]:
        """(treated, control) (mean, variance, mu3, mu4), the biased (1/n)
        central moments of each arm, from ``arms``."""
        treated, control = self.arms.moments.T.tolist()
        return tuple(treated), tuple(control)


class ArmBatch(NamedTuple):
    """The arms of consecutive samples as one ragged array.

    Arm k is ``values[starts[k]:starts[k + 1]]``, sorted ascending; arms
    2r and 2r + 1 are the treated and control arms of sample r. ``moments``
    holds each arm's (mean, variance, mu3, mu4), the biased (1/n) central
    moments, as a (4, 2R) array, taken on the arm as drawn: the numbers of
    ``np.mean`` on it, bit for bit.
    """

    values: np.ndarray
    starts: np.ndarray
    moments: np.ndarray


def sample_batches(samples):
    """Consecutive samples of an iterable, in lists of at most
    ``BATCH_ROWS`` rows in all; a sample of more rows is a list of its own.

    A lazy iterable is drawn as the lists are consumed, so it holds the
    list being filled and one sample more. A consumer that drops each list
    before asking for the next holds no more than that.
    """
    batch, total = [], 0
    for sample in samples:
        if batch and total + sample.n > BATCH_ROWS:
            yield batch
            batch, total = [], 0
        batch.append(sample)
        total += sample.n
        del sample  # so that the next draw does not join it
    if batch:
        yield batch


def arm_batch(samples) -> ArmBatch:
    """The ``ArmBatch`` of a list of samples; a batch of one sample is its
    cached ``arms``."""
    if len(samples) == 1:
        return samples[0].arms
    return _arm_batch(samples)


def _arm_batch(samples) -> ArmBatch:
    sizes = [m for s in samples for m in (s.n1, s.n0)]
    starts = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=starts[1:])
    values = np.empty(int(starts[-1]))
    bounds = starts.tolist()
    for r, s in enumerate(samples):
        lo, mid, hi = bounds[2 * r : 2 * r + 3]
        treated = s.treatments == 1
        np.compress(treated, s.outcomes, out=values[lo:mid])
        np.compress(~treated, s.outcomes, out=values[mid:hi])
    moments = _ragged_moments(values, starts)  # on the arms as drawn, as np.mean takes them
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        values[lo:hi].sort()
    values.setflags(write=False)
    starts.setflags(write=False)
    return ArmBatch(values, starts, moments)


def zero_slotted(values: np.ndarray, starts: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """``values`` less ``centre[k]`` on each arm k of a ragged array, with a
    0 put before each arm and one after the last, (N + A + 1,); arm k sits
    at [starts[k] + k + 1, starts[k + 1] + k + 1). ``np.add.reduceat`` from
    a 0 sums a segment as ``np.add.reduce`` sums it, from 0, bit for bit;
    and an arm's last segment ends on a 0, as it would on the arm alone with
    a 0 appended."""
    slotted = np.empty(values.shape[0] + starts.shape[0])
    bounds = starts.tolist()
    for k, (lo, hi, c) in enumerate(zip(bounds[:-1], bounds[1:], centre.tolist())):
        slotted[lo + k] = 0.0
        np.subtract(values[lo:hi], c, out=slotted[lo + k + 1 : hi + k + 1])
    slotted[-1] = 0.0
    return slotted


def _ragged_moments(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(4, A): the mean and the biased central moments 2 to 4 of each arm
    of a ragged array: the mean from one ``np.add.reduce`` per arm, and the
    sums of each higher power from one ``np.add.reduceat`` over the batch,
    each arm's from its 0. For each arm the numbers of ``np.mean`` on it,
    bit for bit."""
    sizes = np.diff(starts)
    bounds = starts.tolist()
    sums = starts[:-1] + np.arange(sizes.shape[0])  # each arm's sum from its 0
    with np.errstate(over="ignore", invalid="ignore"):  # see moments.check_fourth_moments
        mean = np.array([np.add.reduce(values[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]) / sizes
        d = zero_slotted(values, starts, mean)[:-1]  # the last arm's sum stops short of the final 0
        d2 = d * d
        var = np.add.reduceat(d2, sums) / sizes
        d *= d2
        mu3 = np.add.reduceat(d, sums) / sizes
        d2 *= d2
        mu4 = np.add.reduceat(d2, sums) / sizes
    return np.array([mean, var, mu3, mu4])


@dataclass(frozen=True)
class EmpiricalDistribution:
    """One arm's outcomes as a sorted vector defining a step CDF.

    ``sorted_values`` is ascending; ties are kept (no deduplication) so the
    generalized inverse matches the definition used by the bound integrals.
    """

    sorted_values: np.ndarray
    m: int = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.sorted_values, dtype=float)
        if v.ndim != 1 or v.shape[0] == 0:
            raise ValidationError("need a nonempty 1-dimensional value array")
        if not np.all(np.isfinite(v)):
            raise ValidationError("non-finite value in distribution")
        if np.any(np.diff(v) < 0):
            v = np.sort(v)
        v.setflags(write=False)
        object.__setattr__(self, "sorted_values", v)
        object.__setattr__(self, "m", int(v.shape[0]))

    @classmethod
    def from_values(cls, values) -> "EmpiricalDistribution":
        return cls(np.sort(np.asarray(values, dtype=float)))


def load_sample(path, outcome_column: str, treatment_column: str) -> ExperimentalSample:
    """Read an experimental sample from a headered CSV file.

    Rows with missing or malformed values are a hard error (no silent
    dropping): the estimators assume complete randomized data.

    The two columns are parsed by numpy's C reader. Whenever it fails or
    finds a non-finite outcome or a treatment outside {0, 1}, the file is
    read again by the row-by-row parser, which decides the result and
    names the offending row and column.

    Parameters
    ----------
    path : str or Path
        CSV file, UTF-8, comma-separated, header row required.
    outcome_column, treatment_column : str
        Column names holding the outcome (real) and treatment (0/1).

    Returns
    -------
    ExperimentalSample

    Raises
    ------
    FileNotFoundError
        If ``path`` does not exist.
    ParseError
        On missing columns, unreadable numbers, or missing cells; the error
        names the offending row and column.
    ValidationError
        On structurally valid but semantically bad data (treatment not in
        {0,1}, non-finite outcome, an empty arm).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        header_lines = reader.line_num
    if header is None or outcome_column not in header or treatment_column not in header:
        return _load_rows(path, outcome_column, treatment_column)
    # csv.DictReader keeps the last of duplicated names
    columns = [len(header) - 1 - header[::-1].index(col) for col in (outcome_column, treatment_column)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            data = np.loadtxt(
                path,
                dtype=[("y", np.float64), ("t", np.int8)],
                delimiter=",",
                comments=None,
                quotechar='"',
                skiprows=header_lines,
                usecols=columns,
                ndmin=1,
                encoding="utf-8",
            )
    except (ValueError, Warning):
        return _load_rows(path, outcome_column, treatment_column)
    y, t = np.ascontiguousarray(data["y"]), data["t"]
    if not (np.isfinite(y).all() and ((t == 0) | (t == 1)).all()):
        return _load_rows(path, outcome_column, treatment_column)
    return ExperimentalSample(y, t)


def _load_rows(path, outcome_column: str, treatment_column: str) -> ExperimentalSample:
    """Row-by-row :func:`load_sample`: the reference parser, and the one
    that reports the first bad row."""
    outcomes = []
    treatments = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError("empty file: no header row", row=1)
        for col in (outcome_column, treatment_column):
            if col not in reader.fieldnames:
                raise ParseError(
                    f"missing column; header has {reader.fieldnames}", row=1, column=col
                )
        for rownum, rec in enumerate(reader, start=2):
            y_raw = rec.get(outcome_column)
            t_raw = rec.get(treatment_column)
            if y_raw is None or y_raw.strip() == "":
                raise ParseError("missing outcome value", row=rownum, column=outcome_column)
            if t_raw is None or t_raw.strip() == "":
                raise ParseError("missing treatment value", row=rownum, column=treatment_column)
            try:
                y = float(y_raw)
            except ValueError:
                raise ParseError(
                    f"cannot parse outcome {y_raw!r} as a real number",
                    row=rownum,
                    column=outcome_column,
                ) from None
            try:
                t = int(t_raw)
            except ValueError:
                raise ParseError(
                    f"cannot parse treatment {t_raw!r} as an integer",
                    row=rownum,
                    column=treatment_column,
                ) from None
            if not math.isfinite(y):
                raise ValidationError(f"non-finite outcome at row {rownum}")
            if t not in (0, 1):
                raise ValidationError(f"treatment must be 0 or 1, got {t} at row {rownum}")
            outcomes.append(y)
            treatments.append(t)
    if not outcomes:
        raise ValidationError("no data rows in file")
    return ExperimentalSample(np.array(outcomes), np.array(treatments))


def quantile_at(values_sorted: np.ndarray, u) -> np.ndarray:
    """Vectorized left-continuous quantile over a pre-sorted value array.

    Used internally by the bound integrals and the influence-function
    assembly; accepts a level or an array of levels in (0, 1]. Level u
    maps to ``values_sorted[k - 1]`` with k the least integer such that
    k/m >= u: the k-th order statistic, inf{ y : F(y) >= u } for the
    empirical CDF F of the m values.
    """
    return values_sorted[order_statistic(values_sorted.shape[0], u)]


def order_statistic(m, u) -> np.ndarray:
    """The 0-based index k - 1 of ``quantile_at``'s order statistic at
    level u among m values, elementwise over broadcast ``m`` and ``u``."""
    u = np.asarray(u, dtype=float)
    k = np.ceil(u * m).astype(np.int64)
    k -= (k - 1) / m >= u  # u * m rounded up past an integer, as u = 14/25 does
    return np.clip(k, 1, m) - 1
