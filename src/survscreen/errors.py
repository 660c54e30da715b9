"""Exception types shared across the package.

ValidationError subclasses map to CLI exit code 2, NumericalError
subclasses to exit code 3.
"""


class SurvScreenError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SurvScreenError):
    """Bad input data, file schema or parameters."""


class NumericalError(SurvScreenError):
    """Estimation is impossible on degenerate or singular input."""


# --- input / schema ---------------------------------------------------------

class MissingColumn(ValidationError):
    pass


class NonPositiveTime(ValidationError):
    def __init__(self, row: int):
        super().__init__(f"non-positive or non-finite time in data row {row}")
        self.row = row


class NonBinaryStatus(ValidationError):
    def __init__(self, row: int):
        super().__init__(f"status not in {{0, 1}} in data row {row}")
        self.row = row


class NonNumericCell(ValidationError):
    """A cell that is not a finite number; row 0 is the header row."""

    def __init__(self, row: int, column: str):
        where = f"data row {row}" if row else "the header row"
        super().__init__(f"non-numeric cell in {where}, column {column!r}")
        self.row = row
        self.column = column


class TooFewRows(ValidationError):
    pass


class TooFewScores(ValidationError):
    pass


class BadDimension(ValidationError):
    pass


class BadFraction(ValidationError):
    pass


class UnknownField(ValidationError):
    pass


class BadValue(ValidationError, ValueError):
    """A config value or parameter outside its allowed set.

    Also a ValueError, so callers that catch ValueError keep working.
    """


class NoPositives(ValidationError):
    pass


# --- numerical --------------------------------------------------------------

class DegenerateOutcome(NumericalError):
    pass


class DegenerateScores(NumericalError):
    pass


class SingularMatrix(NumericalError):
    pass


class ZeroSignal(NumericalError):
    pass


class TimeOverflow(NumericalError):
    """A simulated time underflows to 0 or overflows on the raw scale."""


# --- warnings ---------------------------------------------------------------

class DegenerateRanksWarning(UserWarning):
    """One side of a rank correlation is constant; the statistic is 0 by convention."""
