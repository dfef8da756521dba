"""Report rendering: one function per subcommand, and the format is chosen here.

`fit_report`, `screening_report`, `diagnose_report` and `comparison_report`
each take the results of their subcommand and a format, ``text``, ``json``
or ``csv``, and return the report; CSV is written by `data.csv_text`, in
the dialect `load_csv` reads.  A report's rows are built once, as tuples in
the order of one field list: CSV writes them under that list as its header,
and JSON keys each row object by it.  `OUT_FORMAT` names the format that
``--out`` holds where it is not the printed one.  Text tables round IRR and
SE to 3 decimals; JSON carries full precision.  Every non-finite number
(NaN, inf, -inf) becomes null in JSON, at any depth, so reports stay
parseable everywhere.  This module formats plain values and duck-typed
result objects only; it must not import the fitting or diagnostics modules.
"""

import json
import math

from .data import csv_field, csv_text

OUT_FORMAT = {"fit": "json", "diagnose": "csv"}

_FIT_FIELDS = "label,part,estimate,irr,se,z,p,stars"
_SCREEN_FIELDS = "covariate,chi2,df,p,stars,min_expected"
_COMPARE_FIELDS = "family,n_params,log_likelihood,aic"


def stars_for_p(p: float) -> str:
    """Significance marker: *** below 1%, ** below 5%, * below 10%."""
    if not isinstance(p, float) or math.isnan(p):
        return ""
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.10:
        return "*"
    return ""


def format_estimate_cell(irr: float, stars: str, se: float) -> str:
    """Compact cell: IRR, significance stars, coefficient SE in parentheses."""
    se_text = f"{se:.3f}" if math.isfinite(se) else "NA"
    return f"{irr:.3f}{stars}({se_text})"


def _nulled(value):
    """``value`` with every non-finite float in it, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _nulled(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nulled(v) for v in value]
    return value


def _json(payload) -> str:
    """Canonical JSON: non-finite numbers as null, sorted keys, fixed
    separators, trailing newline."""
    return json.dumps(
        _nulled(payload), sort_keys=True, separators=(", ", ": "), allow_nan=False
    ) + "\n"


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


def _csv(header: str, rows) -> str:
    """CSV in the dialect `load_csv` reads (`data.csv_text`): each value is
    written by `str`, so a float as its repr, and quoted by `csv_field`."""
    return csv_text(header.split(","), ([csv_field(str(v)) for v in row] for row in rows))


def _objects(header: str, rows) -> list:
    """One JSON object per row, keyed by the CSV ``header``'s names."""
    names = header.split(",")
    return [dict(zip(names, row)) for row in rows]


def render_fit_text(fit_result, rows) -> str:
    """Variable/level listing with IRR cells, one part per block."""
    out = []
    out.append(f"family: {fit_result.family}   n_obs: {fit_result.n_obs}")
    out.append(
        f"log_likelihood: {fit_result.log_likelihood:.6f}   aic: {fit_result.aic:.6f}"
    )
    if fit_result.estimates.log_tau is not None:
        out.append(f"tau: {fit_result.estimates.tau:.6f}")
    out.append(
        f"converged: {'yes' if fit_result.converged else 'NO'}"
        f"   iterations: {fit_result.n_iterations}"
        f"   gradient_norm: {fit_result.gradient_norm:.3e}"
    )
    if fit_result.covariance_error:
        out.append(fit_result.covariance_error)
    for part, title in (("count", "IRR (count part)"), ("zero", "OR (zero part)")):
        part_rows = [r for r in rows if r.part == part]
        if part_rows:
            out += ["", title]
            out.extend(
                f"  {r.label:<24s} {format_estimate_cell(r.irr, r.stars, r.std_error)}"
                for r in part_rows
            )
    return _lines(out)


def fit_report(fit_result, rows, dropped_rows: int, fmt: str) -> str:
    """The fit report; ``rows`` are the IrrRow values to publish.  JSON is
    the full-precision record."""
    if fmt == "text":
        return render_fit_text(fit_result, rows)
    records = [
        (r.label, r.part, r.coefficient, r.irr, r.std_error, r.z_value, r.p_value, r.stars)
        for r in rows
    ]
    if fmt == "csv":
        return _csv(_FIT_FIELDS, records)
    return _json({
        "family": fit_result.family,
        "n_obs": fit_result.n_obs,
        "dropped_rows": dropped_rows,
        "coefficients": _objects(_FIT_FIELDS, records),
        "tau": fit_result.estimates.tau,
        "log_likelihood": fit_result.log_likelihood,
        "aic": fit_result.aic,
        "converged": fit_result.converged,
        "iterations": fit_result.n_iterations,
        "gradient_norm": fit_result.gradient_norm,
    })


def screening_report(results: dict, fmt: str) -> str:
    """``results`` maps covariate name -> ContingencyResult."""
    if fmt == "text":
        out = ["chi-square screening (no continuity correction)"]
        for name, r in results.items():
            line = f"  {name:<20s} chi2={r.chi2:.3f}{r.stars:<3s} df={r.df}  p={r.p_value:.4f}"
            if r.low_expected_warning:
                line += f"  [warning: min expected cell {r.min_expected:.2f} < 5]"
            out.append(line)
        return _lines(out)
    records = [
        (name, r.chi2, r.df, r.p_value, r.stars, r.min_expected) for name, r in results.items()
    ]
    if fmt == "csv":
        return _csv(_SCREEN_FIELDS, records)
    return _json({
        "test": "chi-square independence",
        "continuity_correction": "none",
        "results": [
            {
                **record,
                "low_expected_warning": bool(r.low_expected_warning),
                "row_labels": list(r.row_labels),
                "col_labels": list(r.col_labels),
                "observed": [[int(v) for v in row] for row in r.observed],
            }
            for record, r in zip(_objects(_SCREEN_FIELDS, records), results.values())
        ],
    })


def diagnose_report(disp, zero, fmt: str) -> str:
    """Dispersion summary and zero summary; the CSV is the value histogram."""
    if fmt == "text":
        out = [
            f"mean: {disp.mean:.6f}   variance: {disp.variance:.6f}"
            f"   ratio: {disp.ratio:.6f}   verdict: {disp.verdict}",
            f"observed zero fraction: {zero.observed_zero_fraction:.6f}",
        ]
        if zero.expected_zero_fraction is not None:
            out.append(f"expected zero fraction: {zero.expected_zero_fraction:.6f}")
        out.append("histogram (value,count):")
        out.extend(f"  {v},{c}" for v, c in zero.histogram)
        return _lines(out)
    if fmt == "csv":
        return _csv("value,count", zero.histogram)
    return _json({
        "dispersion": {
            "mean": disp.mean,
            "variance": disp.variance,
            "ratio": disp.ratio,
            "verdict": disp.verdict,
        },
        "zeros": {
            "observed_zero_fraction": zero.observed_zero_fraction,
            "expected_zero_fraction": zero.expected_zero_fraction,
            "histogram": [[int(v), int(c)] for v, c in zero.histogram],
        },
    })


def comparison_report(rows, fmt: str) -> str:
    """``rows`` are ComparisonRow values, best AIC first."""
    if fmt == "text":
        return _lines(["model comparison (AIC ascending)", *(
            f"  {r.family:<8s} k={r.n_params}  logL={r.log_likelihood:.6f}  AIC={r.aic:.6f}"
            for r in rows
        )])
    records = [(r.family, r.n_params, r.log_likelihood, r.aic) for r in rows]
    if fmt == "csv":
        return _csv(_COMPARE_FIELDS, records)
    return _json({"ranking": _objects(_COMPARE_FIELDS, records)})
