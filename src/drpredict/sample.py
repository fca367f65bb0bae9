"""Sample container, CSV ingestion, and each arm's moments and quantiles.

Everything downstream consumes :class:`ExperimentalSample` (outcomes plus a
binary treatment indicator), which is immutable after construction and safe
to share across workers. An arm's empirical quantiles are its sorted
outcomes at the indices of ``order_statistic``.

The per-sample stages (moments, bounds, Sigma) take samples as an
:class:`ArmBatch`: the sorted arms of a list of samples in one ragged array
(``arm_batch``), with each arm's moments, so that each stage is one array
pass over the batch instead of one call per sample. The caller decides
which samples share a batch; the coverage study cuts its replications by
rows. A sample's numbers never depend on the batch it is in; a sample alone
is a batch of one, kept as its ``arms``.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import NumericalError, ParseError, ValidationError

__all__ = [
    "ArmBatch",
    "ExperimentalSample",
    "arm_batch",
    "check_fourth_moments",
    "load_mask",
    "load_sample",
    "scale_error",
]


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
        moments, the sharp bounds and their covariance share one sort.
        ValidationError if an arm has fewer than two observations."""
        return _arm_batch([self])


class ArmBatch(NamedTuple):
    """The arms of consecutive samples as one ragged array.

    Arm k is ``values[starts[k]:starts[k + 1]]``, sorted ascending; arms
    2r and 2r + 1 are the treated and control arms of sample r. ``moments``
    holds each arm's (mean, variance, mu3, mu4), the biased (1/n) central
    moments, as a (4, 2R) array, taken on the arm as drawn: the numbers of
    ``np.mean`` on it, bit for bit, except that an arm of one value has
    exactly (value, 0, 0, 0).
    """

    values: np.ndarray
    starts: np.ndarray
    moments: np.ndarray

    @property
    def ate(self) -> np.ndarray:
        """(R,): each sample's difference in means, treated less control;
        not finite where an arm's sum overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.moments[0, 0::2] - self.moments[0, 1::2]

    def arm(self, k: int) -> np.ndarray:
        """The sorted outcomes of arm k."""
        return self.values[self.starts[k] : self.starts[k + 1]]


def arm_batch(samples) -> ArmBatch:
    """The ``ArmBatch`` of a list of samples; a batch of one sample is its
    cached ``arms``. ValidationError for the first arm, in sample order and
    treated before control, of fewer than two observations."""
    if len(samples) == 1:
        return samples[0].arms
    return _arm_batch(samples)


def _arm_batch(samples) -> ArmBatch:
    sizes = [m for s in samples for m in (s.n1, s.n0)]
    for k, m in enumerate(sizes):
        if m < 2:
            raise ValidationError(f"{('treated', 'control')[k % 2]} arm has {m} observation(s), need >= 2")
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
    bit for bit, except that an arm of one value gets exactly (value, 0, 0,
    0): its rounded mean would leave a residue (1,000 copies of 1.7 have a
    variance of 1.97e-31 by ``np.mean``)."""
    sizes = np.diff(starts)
    bounds = starts.tolist()
    sums = starts[:-1] + np.arange(sizes.shape[0])  # each arm's sum from its 0
    with np.errstate(over="ignore", invalid="ignore"):  # see check_fourth_moments
        mean = np.array([np.add.reduce(values[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]) / sizes
        d = zero_slotted(values, starts, mean)[:-1]  # the last arm's sum stops short of the final 0
        d2 = d * d
        var = np.add.reduceat(d2, sums) / sizes
        d *= d2
        mu3 = np.add.reduceat(d, sums) / sizes
        d2 *= d2
        mu4 = np.add.reduceat(d2, sums) / sizes
    moments = np.array([mean, var, mu3, mu4])
    low = np.minimum.reduceat(values, starts[:-1])
    constant = low == np.maximum.reduceat(values, starts[:-1])
    moments[:, constant] = 0.0
    moments[0, constant] = low[constant]
    return moments


def scale_error(arm: str, y: np.ndarray, what: str) -> NumericalError:
    """The error for an arm of outcomes ``y`` whose ``what`` overflow. It
    names the arm's largest magnitude and its SD, taken on y / max|y| so
    that it does not overflow itself."""
    peak = float(np.abs(y).max())
    return NumericalError(
        f"{what} of the {arm} arm overflow: the outcome scale (arm SD "
        f"{peak * float(np.std(y / peak)):.3g}, largest |y| {peak:.3g}) is beyond double precision"
    )


def check_fourth_moments(arms: ArmBatch) -> None:
    """Raise ``scale_error`` for the first arm of a batch, treated before
    control, whose fourth moments about its mean or about 0 are not finite:
    every covariance of the bounds needs the former, and the delta-method
    SDs powers of tau* up to the third."""
    mean, mu4 = arms.moments[0], arms.moments[3]
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(mu4 + (mean * mean) * (mean * mean))
    for k in np.flatnonzero(~finite)[:1].tolist():
        raise scale_error(("treated", "control")[k % 2], arms.arm(k), "the fourth moments")


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
    data = _read_columns(path, [outcome_column, treatment_column], [("y", np.float64), ("t", np.int8)])
    if data is None:
        return _load_rows(path, outcome_column, treatment_column)
    y, t = np.ascontiguousarray(data["y"]), data["t"]
    if not (np.isfinite(y).all() and ((t == 0) | (t == 1)).all()):
        return _load_rows(path, outcome_column, treatment_column)
    return ExperimentalSample(y, t)


def load_mask(path, column: str) -> np.ndarray:
    """Read a 0/1 column of a headered CSV into a boolean mask, one entry
    per data row.

    The column is parsed by numpy's C reader as strings of up to two
    characters, and taken when each entry is exactly "0" or "1". Otherwise
    the file is read again row by row, each entry stripped, and an entry
    other than "0" or "1" is a ParseError naming its row and column.
    """
    raw = _read_columns(path, [column], "<U2")
    if raw is not None:
        mask = raw == "1"
        if (mask | (raw == "0")).all():
            return mask
    values = []
    for rownum, rec in _rows(path, [column]):
        entry = (rec.get(column) or "").strip()
        if entry not in ("0", "1"):
            raise ParseError(f"mask entries must be 0 or 1, got {entry!r}", row=rownum, column=column)
        values.append(entry == "1")
    return np.array(values, dtype=bool)


def _read_columns(path, columns: list, dtype):
    """The named columns of a headered CSV, parsed by numpy's C reader into
    ``dtype``, or None when the header lacks one of them or the reader
    fails or warns. A duplicated name reads its last column, as
    ``csv.DictReader`` does. Callers that get None, or values they do not
    accept, read the file again row by row (``_rows``)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        header_lines = reader.line_num
    if header is None or any(col not in header for col in columns):
        return None
    usecols = [len(header) - 1 - header[::-1].index(col) for col in columns]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            return np.loadtxt(
                path,
                dtype=dtype,
                delimiter=",",
                comments=None,
                quotechar='"',
                skiprows=header_lines,
                usecols=usecols,
                ndmin=1,
                encoding="utf-8",
            )
    except (ValueError, Warning):
        return None


def _rows(path, columns):
    """(row number, record) for each data row of a headered CSV, read by
    ``csv.DictReader``: the reference reader, which names the first bad
    row. ParseError at row 1 for a file without a header or a header
    without one of ``columns``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError("empty file: no header row", row=1)
        for col in columns:
            if col not in reader.fieldnames:
                raise ParseError(f"missing column; header has {reader.fieldnames}", row=1, column=col)
        yield from enumerate(reader, start=2)


def _load_rows(path, outcome_column: str, treatment_column: str) -> ExperimentalSample:
    """Row-by-row :func:`load_sample`: the reference parser, and the one
    that reports the first bad row."""
    outcomes = []
    treatments = []
    for rownum, rec in _rows(path, [outcome_column, treatment_column]):
        y_raw = rec.get(outcome_column)
        t_raw = rec.get(treatment_column)
        if y_raw is None or y_raw.strip() == "":
            raise ParseError("missing outcome value", row=rownum, column=outcome_column)
        if t_raw is None or t_raw.strip() == "":
            raise ParseError("missing treatment value", row=rownum, column=treatment_column)
        try:
            y = float(y_raw)
        except ValueError:
            raise ParseError(f"cannot parse outcome {y_raw!r} as a real number",
                             row=rownum, column=outcome_column) from None
        try:
            t = int(t_raw)
        except ValueError:
            raise ParseError(f"cannot parse treatment {t_raw!r} as an integer",
                             row=rownum, column=treatment_column) from None
        if not math.isfinite(y):
            raise ValidationError(f"non-finite outcome at row {rownum}")
        if t not in (0, 1):
            raise ValidationError(f"treatment must be 0 or 1, got {t} at row {rownum}")
        outcomes.append(y)
        treatments.append(t)
    if not outcomes:
        raise ValidationError("no data rows in file")
    return ExperimentalSample(np.array(outcomes), np.array(treatments))


def order_statistic(m, u) -> np.ndarray:
    """The 0-based index k - 1 of the left-continuous empirical quantile at
    level u in (0, 1] among m sorted values, elementwise over broadcast
    ``m`` and ``u``: k is the least integer with k/m >= u, so the k-th order
    statistic is inf{ y : F(y) >= u } for the empirical CDF F."""
    u = np.asarray(u, dtype=float)
    k = np.ceil(u * m).astype(np.int64)
    k -= (k - 1) / m >= u  # u * m rounded up past an integer, as u = 14/25 does
    return np.clip(k, 1, m) - 1
