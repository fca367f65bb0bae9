"""Exception types shared across the package.

Every package error is a ``ValidationError`` (the input is at fault; the
CLI exits 2) or a ``NumericalError`` (the input is valid but the
computation cannot go on; the CLI exits 3).
"""


class DrPredictError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DrPredictError):
    """An input or argument is invalid: a bad treatment code, a non-finite
    outcome, too few observations, a value outside an operation's domain,
    or a configuration the operation does not support."""


class ParseError(ValidationError):
    """A data file could not be parsed.

    Carries the 1-based row number (header = row 1) and the offending
    column name when known.
    """

    def __init__(self, message, row=None, column=None):
        self.row = row
        self.column = column
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")


class NumericalError(DrPredictError):
    """A valid input the computation cannot carry through: a solver past its
    iteration cap, an outcome scale beyond double precision (an arm that is
    not constant whose variance underflows to 0 or overflows, or moments
    and squared quantile gaps that overflow), or a prediction with no
    smooth delta-method expansion."""
