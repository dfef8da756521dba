"""Exception types shared across the package."""


class CountregError(Exception):
    """Base class for all countreg errors."""


class ParameterDomainError(CountregError):
    """Distribution parameter outside its valid domain."""


class EvaluationError(CountregError):
    """Likelihood evaluation produced a non-finite intermediate.

    Carries the index of the first offending observation when one is known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row


class SchemaError(CountregError):
    """Declared schema and supplied data disagree."""


class RowParseError(SchemaError):
    """A cell could not be parsed under its declared column type."""

    def __init__(self, row: int, column: str, value: str):
        super().__init__(
            f"row {row}, column '{column}': cannot parse {value!r} as declared type"
        )
        self.row = row
        self.column = column
        self.value = value


class DegenerateCovariateError(CountregError):
    """A categorical covariate has fewer than two levels."""


class DegenerateTableError(CountregError):
    """Contingency table with a zero margin or a single row/column."""


class InsufficientDataError(CountregError):
    """Too few observations for the requested computation."""


class ComparisonError(CountregError):
    """Model comparison across fits on different observations."""


class ConfigurationError(CountregError):
    """Invalid simulation configuration."""
