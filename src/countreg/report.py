"""Report rendering: significance stars, table text, and JSON payloads.

Text tables round IRR and SE to 3 decimals; JSON carries full precision.
NaN becomes null in JSON so reports stay parseable everywhere.  This module
formats plain values and duck-typed result objects only; it must not import
the fitting or diagnostics modules.
"""

import json
import math


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


def _clean(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def to_json_text(payload) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "), allow_nan=False) + "\n"


def fit_report_dict(fit_result, rows, dropped_rows: int) -> dict:
    """Full-precision fit record; ``rows`` are IrrRow values to publish."""
    return {
        "family": fit_result.family,
        "n_obs": fit_result.n_obs,
        "dropped_rows": dropped_rows,
        "coefficients": [
            {
                "label": r.label,
                "part": r.part,
                "estimate": _clean(r.coefficient),
                "irr": _clean(r.irr),
                "se": _clean(r.std_error),
                "z": _clean(r.z_value),
                "p": _clean(r.p_value),
                "stars": r.stars,
            }
            for r in rows
        ],
        "tau": _clean(fit_result.estimates.tau) if fit_result.estimates.log_tau is not None else None,
        "log_likelihood": _clean(fit_result.log_likelihood),
        "aic": _clean(fit_result.aic),
        "converged": fit_result.converged,
        "iterations": fit_result.n_iterations,
        "gradient_norm": _clean(fit_result.gradient_norm),
    }


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
    count_rows = [r for r in rows if r.part == "count"]
    zero_rows = [r for r in rows if r.part == "zero"]
    if count_rows:
        out.append("")
        out.append("IRR (count part)")
        for r in count_rows:
            out.append(f"  {r.label:<24s} {format_estimate_cell(r.irr, r.stars, r.std_error)}")
    if zero_rows:
        out.append("")
        out.append("OR (zero part)")
        for r in zero_rows:
            out.append(f"  {r.label:<24s} {format_estimate_cell(r.irr, r.stars, r.std_error)}")
    return "\n".join(out) + "\n"


def _csv(header: str, lines) -> str:
    return "\n".join([header, *lines]) + "\n"


def irr_table_csv(rows) -> str:
    return _csv("label,part,estimate,irr,se,z,p,stars", (
        f"{r.label},{r.part},{r.coefficient!r},{r.irr!r},"
        f"{r.std_error!r},{r.z_value!r},{r.p_value!r},{r.stars}"
        for r in rows
    ))


def screening_report_dict(results: dict) -> dict:
    """``results`` maps covariate name -> ContingencyResult."""
    return {
        "test": "chi-square independence",
        "continuity_correction": "none",
        "results": [
            {
                "covariate": name,
                "chi2": _clean(r.chi2),
                "df": r.df,
                "p": _clean(r.p_value),
                "stars": r.stars,
                "min_expected": _clean(r.min_expected),
                "low_expected_warning": bool(r.min_expected < 5.0),
                "row_labels": list(r.row_labels),
                "col_labels": list(r.col_labels),
                "observed": [[int(v) for v in row] for row in r.observed],
            }
            for name, r in results.items()
        ],
    }


def render_screening_text(results: dict) -> str:
    out = ["chi-square screening (no continuity correction)"]
    for name, r in results.items():
        line = f"  {name:<20s} chi2={r.chi2:.3f}{r.stars:<3s} df={r.df}  p={r.p_value:.4f}"
        if r.min_expected < 5.0:
            line += f"  [warning: min expected cell {r.min_expected:.2f} < 5]"
        out.append(line)
    return "\n".join(out) + "\n"


def screening_csv(results: dict) -> str:
    return _csv("covariate,chi2,df,p,stars,min_expected", (
        f"{name},{r.chi2!r},{r.df},{r.p_value!r},{r.stars},{r.min_expected!r}"
        for name, r in results.items()
    ))


def diagnose_report_dict(disp, zero) -> dict:
    return {
        "dispersion": {
            "mean": _clean(disp.mean),
            "variance": _clean(disp.variance),
            "ratio": _clean(disp.ratio),
            "verdict": disp.verdict,
        },
        "zeros": {
            "observed_zero_fraction": _clean(zero.observed_zero_fraction),
            "expected_zero_fraction": _clean(zero.expected_zero_fraction),
            "histogram": [[int(v), int(c)] for v, c in zero.histogram],
        },
    }


def render_diagnose_text(disp, zero) -> str:
    out = [
        f"mean: {disp.mean:.6f}   variance: {disp.variance:.6f}"
        f"   ratio: {disp.ratio:.6f}   verdict: {disp.verdict}",
        f"observed zero fraction: {zero.observed_zero_fraction:.6f}",
    ]
    if zero.expected_zero_fraction is not None:
        out.append(f"expected zero fraction: {zero.expected_zero_fraction:.6f}")
    out.append("histogram (value,count):")
    for v, c in zero.histogram:
        out.append(f"  {v},{c}")
    return "\n".join(out) + "\n"


def histogram_csv(zero) -> str:
    return _csv("value,count", (f"{v},{c}" for v, c in zero.histogram))


def comparison_report_dict(rows) -> dict:
    return {
        "ranking": [
            {
                "family": r.family,
                "n_params": r.n_params,
                "log_likelihood": _clean(r.log_likelihood),
                "aic": _clean(r.aic),
            }
            for r in rows
        ]
    }


def comparison_csv(rows) -> str:
    return _csv("family,n_params,log_likelihood,aic", (
        f"{r.family},{r.n_params},{r.log_likelihood!r},{r.aic!r}" for r in rows
    ))


def render_comparison_text(rows) -> str:
    out = ["model comparison (AIC ascending)"]
    for r in rows:
        out.append(
            f"  {r.family:<8s} k={r.n_params}  logL={r.log_likelihood:.6f}  AIC={r.aic:.6f}"
        )
    return "\n".join(out) + "\n"
