"""Command-line surface for screening, fitting, diagnostics, and simulation.

Every run echoes its resolved configuration to stderr; stdout carries only
the requested report, so JSON output is byte-stable for identical runs.

Exit codes: 0 success, 1 data or evaluation error, 2 usage error, 3 a fit
that stopped without meeting the convergence criteria (report still written).
"""

import argparse
import json
import sys
from pathlib import Path

from . import diagnostics, report
from .data import ModelSpec, load_csv, parse_schema
from .errors import ConfigurationError, CountregError
from .fitting import FitOptions, compare_models, fit, irr_table
from .simulate import csv_text, demo_preset, simulate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3

PRESETS = {"paper-like": demo_preset}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countreg",
        description="Count-data regression: Poisson, NB, and ZINB by maximum likelihood.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p, with_response=True):
        p.add_argument("--input", help="CSV file with a header row")
        p.add_argument(
            "--schema",
            help="comma-separated name=kind declarations; kinds: count, categorical, numeric",
        )
        p.add_argument(
            "--preset",
            choices=sorted(PRESETS),
            help="use a shipped simulation instead of --input/--schema",
        )
        p.add_argument("--seed", type=int, help="seed override for --preset data")
        if with_response:
            p.add_argument("--response", help="count-valued response column")
        p.add_argument("--out", help="output file path")
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text", dest="fmt"
        )

    def add_model(p):
        p.add_argument("--covariates", help="comma-separated count-part covariates")
        p.add_argument("--zero-covariates", help="comma-separated zero-part covariates (zinb)")
        p.add_argument(
            "--ref",
            action="append",
            default=[],
            metavar="COL=LEVEL",
            help="reference level override, repeatable",
        )

    p_fit = sub.add_parser("fit", help="maximum-likelihood fit with IRR table")
    add_io(p_fit)
    add_model(p_fit)
    p_fit.add_argument("--family", choices=("poisson", "nb", "zinb"), required=True)

    p_screen = sub.add_parser("screen", help="chi-square independence screening")
    add_io(p_screen)
    p_screen.add_argument("--covariates", help="comma-separated covariates to screen")

    p_diag = sub.add_parser("diagnose", help="dispersion and zero-inflation summaries")
    add_io(p_diag)
    add_model(p_diag)
    p_diag.add_argument(
        "--family",
        choices=("poisson", "nb", "zinb"),
        help="also fit this family and report its expected zero fraction",
    )

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p_sim.add_argument("--seed", type=int, help="seed override")
    p_sim.add_argument("--out", help="CSV path; a .truth.json sidecar is written beside it")

    p_cmp = sub.add_parser("compare", help="fit poisson, nb, and zinb; rank by AIC")
    add_io(p_cmp)
    add_model(p_cmp)
    return parser


def _echo_config(args):
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "subcommand"}
    print(
        f"config: {args.subcommand} {json.dumps(resolved, sort_keys=True, default=str)}",
        file=sys.stderr,
    )


def _split(text: str | None) -> list[str]:
    if not text:
        return []
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_refs(pairs: list[str]) -> dict[str, str]:
    refs = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"--ref expects COL=LEVEL, got '{pair}'")
        col, level = pair.split("=", 1)
        refs[col.strip()] = level.strip()
    return refs


def _load_dataset(args):
    """Dataset plus the name of its response column."""
    if args.preset:
        config = PRESETS[args.preset]()
        if args.seed is not None:
            config.seed = args.seed
        ds = simulate(config)
        return ds, config.response_name
    if not args.input or not args.schema:
        raise ConfigurationError("either --preset or both --input and --schema are required")
    ds = load_csv(args.input, parse_schema(args.schema))
    response = getattr(args, "response", None)
    return ds, response


def _emit(text: str, out_path: str | None, also_stdout: bool = True):
    if also_stdout:
        sys.stdout.write(text)
    if out_path:
        Path(out_path).write_text(text)


def _run_fit(args) -> int:
    ds, response = _load_dataset(args)
    if not response:
        raise ConfigurationError("fit requires --response (or a --preset that names one)")
    spec = ModelSpec(
        args.family,
        response,
        _split(args.covariates),
        _split(args.zero_covariates) if args.family == "zinb" else [],
        _parse_refs(args.ref),
    )
    result = fit(spec, ds, FitOptions())
    table_rows = irr_table(result)
    json_text = report.to_json_text(
        report.fit_report_dict(result, irr_table(result, include_intercepts=True), ds.dropped_rows)
    )
    if args.fmt == "json":
        sys.stdout.write(json_text)
    elif args.fmt == "csv":
        lines = ["label,part,estimate,irr,se,z,p,stars"]
        for r in table_rows:
            lines.append(
                f"{r.label},{r.part},{r.coefficient!r},{r.irr!r},"
                f"{r.std_error!r},{r.z_value!r},{r.p_value!r},{r.stars}"
            )
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(report.render_fit_text(result, table_rows))
    if args.out:
        Path(args.out).write_text(json_text)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _run_screen(args) -> int:
    ds, response = _load_dataset(args)
    if not response:
        raise ConfigurationError("screen requires --response")
    covariates = _split(args.covariates)
    if not covariates:
        # numeric columns cannot be tabulated, so the default skips them
        covariates = [
            name
            for name, col in ds.columns.items()
            if name != response and col.kind != "numeric"
        ]
    results = diagnostics.screen(ds, covariates, response)
    if args.fmt == "json":
        text = report.to_json_text(report.screening_report_dict(results))
    elif args.fmt == "csv":
        lines = ["covariate,chi2,df,p,stars,min_expected"]
        for name, r in results.items():
            lines.append(f"{name},{r.chi2!r},{r.df},{r.p_value!r},{r.stars},{r.min_expected!r}")
        text = "\n".join(lines) + "\n"
    else:
        text = report.render_screening_text(results)
    _emit(text, args.out)
    return EXIT_OK


def _run_diagnose(args) -> int:
    ds, response = _load_dataset(args)
    if not response:
        raise ConfigurationError("diagnose requires --response")
    y = ds.response_vector(response)
    fitted = None
    exit_code = EXIT_OK
    if args.family:
        spec = ModelSpec(
            args.family,
            response,
            _split(args.covariates),
            _split(args.zero_covariates) if args.family == "zinb" else [],
            _parse_refs(args.ref),
        )
        fitted = fit(spec, ds, FitOptions())
        if not fitted.converged:
            exit_code = EXIT_NO_CONVERGENCE
    disp = diagnostics.dispersion_summary(y)
    zeros = diagnostics.zero_summary(y, fitted)
    if args.fmt == "json":
        sys.stdout.write(report.to_json_text(report.diagnose_report_dict(disp, zeros)))
    elif args.fmt == "csv":
        sys.stdout.write(report.histogram_csv(zeros))
    else:
        sys.stdout.write(report.render_diagnose_text(disp, zeros))
    if args.out:
        Path(args.out).write_text(report.histogram_csv(zeros))
    return exit_code


def _run_simulate(args) -> int:
    config = PRESETS[args.preset]()
    if args.seed is not None:
        config.seed = args.seed
    if args.out:
        simulate(config, args.out)
        print(f"wrote {args.out} and its .truth.json sidecar", file=sys.stderr)
    else:
        sys.stdout.write(csv_text(simulate(config), config))
    return EXIT_OK


def _run_compare(args) -> int:
    ds, response = _load_dataset(args)
    if not response:
        raise ConfigurationError("compare requires --response")
    covariates = _split(args.covariates)
    zero_covariates = _split(args.zero_covariates)
    refs = _parse_refs(args.ref)
    fits = []
    for family in ("poisson", "nb", "zinb"):
        spec = ModelSpec(
            family,
            response,
            covariates,
            zero_covariates if family == "zinb" else [],
            refs,
        )
        fits.append(fit(spec, ds, FitOptions()))
    rows = compare_models(fits)
    if args.fmt == "json":
        text = report.to_json_text(report.comparison_report_dict(rows))
    elif args.fmt == "csv":
        lines = ["family,n_params,log_likelihood,aic"]
        for r in rows:
            lines.append(f"{r.family},{r.n_params},{r.log_likelihood!r},{r.aic!r}")
        text = "\n".join(lines) + "\n"
    else:
        text = report.render_comparison_text(rows)
    _emit(text, args.out)
    return EXIT_OK if all(f.converged for f in fits) else EXIT_NO_CONVERGENCE


_RUNNERS = {
    "fit": _run_fit,
    "screen": _run_screen,
    "diagnose": _run_diagnose,
    "simulate": _run_simulate,
    "compare": _run_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        return _RUNNERS[args.subcommand](args)
    except CountregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
