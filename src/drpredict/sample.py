"""Sample container, CSV ingestion, and each arm's moments and quantiles.

Everything downstream consumes :class:`ExperimentalSample` (outcomes plus a
binary treatment indicator) or :class:`EmpiricalDistribution` (one arm's
sorted outcomes). Both are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import ParseError, ValidationError

__all__ = [
    "ExperimentalSample",
    "EmpiricalDistribution",
    "load_sample",
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
    def sorted_arms(self) -> tuple[np.ndarray, np.ndarray]:
        """(treated, control) outcomes, each sorted ascending and read-only.

        Computed on first access and kept, so the sharp bounds and their
        covariance share one sort of each arm. A shift keeps an arm sorted,
        so the sharp bounds centre the treated arm on this sort.
        """
        arms = (self.treated, self.control)  # fresh copies, safe to sort in place
        for arm in arms:
            arm.sort()
            arm.setflags(write=False)
        return arms

    @cached_property
    def arm_moments(self) -> tuple[tuple[float, float, float, float], tuple[float, float, float, float]]:
        """(treated, control) (mean, variance, mu3, mu4), the biased (1/n)
        central moments of each arm.

        Computed on first access and kept: ``estimate_moments``, the sharp
        bounds and their covariance all read these numbers. They are taken
        on the arms as drawn, not on ``sorted_arms``, so that the Neyman
        route never sorts.
        """
        return _central_moments(self.treated), _central_moments(self.control)


def _central_moments(y: np.ndarray) -> tuple[float, float, float, float]:
    with np.errstate(over="ignore", invalid="ignore"):  # see moments.check_fourth_moments
        mean = y.mean()
        d = y - mean
        d2 = d * d
        return float(mean), float(d2.mean()), float((d2 * d).mean()), float((d2 * d2).mean())


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
    m = values_sorted.shape[0]
    u = np.asarray(u, dtype=float)
    k = np.ceil(u * m).astype(np.int64)
    k -= (k - 1) / m >= u  # u * m rounded up past an integer, as u = 14/25 does
    return values_sorted[np.clip(k, 1, m) - 1]
