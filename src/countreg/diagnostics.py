"""Model-choice diagnostics: chi-square screening, dispersion, zero counts.

The chi-square test carries no continuity correction.  Count columns are
tabulated at their observed distinct values without binning; categorical
columns over their declared level vocabulary.  The distinct values of a
count column and the zero summary's histogram come from
`data.distinct_codes`: counts below the row count index their own table
through one ``np.bincount``, and only larger ones are sorted.
"""

from dataclasses import dataclass

import numpy as np

from .data import Column, Dataset, check_covariates, distinct_codes
from .errors import DegenerateTableError, InsufficientDataError, SchemaError
from .report import stars_for_p


@dataclass
class ContingencyResult:
    observed: np.ndarray  # r x c counts
    expected: np.ndarray  # r x c, same margins as observed
    row_labels: list[str]
    col_labels: list[str]
    chi2: float
    df: int
    p_value: float
    min_expected: float
    stars: str

    @property
    def low_expected_warning(self) -> bool:
        return self.min_expected < 5.0


@dataclass
class DispersionSummary:
    mean: float
    variance: float  # sample variance, denominator n-1
    ratio: float  # variance/mean; NaN when the mean is 0
    verdict: str  # equidispersed | overdispersed | underdispersed


@dataclass
class ZeroSummary:
    observed_zero_fraction: float
    expected_zero_fraction: float | None  # mean fitted P(Y=0); None without a fit
    histogram: list[tuple[int, int]]  # (value, count) at observed values


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail chi-square probability via the regularized incomplete gamma."""
    if x < 0.0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    from scipy.special import gammaincc

    return float(gammaincc(df / 2.0, x / 2.0))


def _category_codes(col: Column) -> tuple[np.ndarray, list[str]]:
    if col.kind == "categorical":
        return np.asarray(col.values, dtype=np.intp), [str(lv) for lv in col.levels]
    if col.kind == "count":
        distinct, codes, _ = distinct_codes(np.asarray(col.values))
        return codes, [str(int(v)) for v in distinct]
    raise SchemaError(f"column '{col.name}' is numeric and cannot be tabulated")


def chi_square_independence(ds: Dataset, covariate: str, response: str) -> ContingencyResult:
    """Pearson chi-square test of independence on the covariate x response table."""
    row_codes, row_labels = _category_codes(ds.column(covariate))
    col_codes, col_labels = _category_codes(ds.column(response))
    r, c = len(row_labels), len(col_labels)
    observed = np.bincount(row_codes * c + col_codes, minlength=r * c).reshape(r, c)
    if r < 2 or c < 2:
        raise DegenerateTableError(
            f"table is {r}x{c}; independence needs at least two rows and columns"
        )
    row_sums = observed.sum(axis=1)
    col_sums = observed.sum(axis=0)
    if np.any(row_sums == 0) or np.any(col_sums == 0):
        raise DegenerateTableError(
            f"'{covariate}' x '{response}' table has an empty margin"
        )
    n = observed.sum()
    expected = np.outer(row_sums, col_sums) / n
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    df = (r - 1) * (c - 1)
    p = chi_square_sf(chi2, df)
    return ContingencyResult(
        observed=observed,
        expected=expected,
        row_labels=row_labels,
        col_labels=col_labels,
        chi2=chi2,
        df=df,
        p_value=p,
        min_expected=float(expected.min()),
        stars=stars_for_p(p),
    )


def screen(ds: Dataset, covariates: list[str], response: str) -> dict:
    """Run the independence test per covariate; results keyed by name.  The
    response listed as a covariate, or a covariate listed twice, is a
    SchemaError, as in a `ModelSpec`."""
    check_covariates(covariates, response, "the screen")
    return {name: chi_square_independence(ds, name, response) for name in covariates}


def dispersion_summary(y: np.ndarray) -> DispersionSummary:
    y = np.asarray(y)
    if y.size < 2:
        raise InsufficientDataError("dispersion needs at least two observations")
    mean = float(np.mean(y))
    variance = float(np.var(y, ddof=1))
    ratio = variance / mean if mean > 0.0 else float("nan")
    if variance > mean:
        verdict = "overdispersed"
    elif variance < mean:
        verdict = "underdispersed"
    else:
        verdict = "equidispersed"
    return DispersionSummary(mean, variance, ratio, verdict)


def zero_summary(y: np.ndarray, fit_result=None) -> ZeroSummary:
    y = np.asarray(y)
    distinct, _, counts = distinct_codes(y)
    observed = float(counts[distinct == 0].sum() / y.size)
    histogram = [(int(v), int(c)) for v, c in zip(distinct, counts)]
    expected = None if fit_result is None else fit_result.expected_zero_fraction
    return ZeroSummary(observed, expected, histogram)
