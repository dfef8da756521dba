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
from .data import FAMILIES, ModelSpec, load_csv, parse_schema
from .errors import ConfigurationError, CountregError
from .fitting import compare_models, fit, irr_table
from .simulate import demo_preset, simulate, write_csv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONVERGENCE = 3  # 2, a usage error, is argparse's own exit

PRESETS = {"paper-like": demo_preset}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countreg",
        description="Count-data regression: Poisson, NB, and ZINB by maximum likelihood.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p):
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
    p_fit.add_argument("--family", choices=FAMILIES, required=True)

    p_screen = sub.add_parser("screen", help="chi-square independence screening")
    add_io(p_screen)
    p_screen.add_argument("--covariates", help="comma-separated covariates to screen")

    p_diag = sub.add_parser("diagnose", help="dispersion and zero-inflation summaries")
    add_io(p_diag)
    add_model(p_diag)
    p_diag.add_argument(
        "--family",
        choices=FAMILIES,
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


def _check_usage(parser, args):
    """Reject, as usage errors, options that the run would ignore."""
    if args.subcommand == "simulate":
        return  # argparse requires its --preset, which --seed applies to
    if args.preset and (args.input or args.schema or args.response):
        parser.error("--preset replaces --input, --schema and --response")
    if args.seed is not None and not args.preset:
        parser.error("--seed applies only to --preset data")
    family = getattr(args, "family", "zinb")  # compare fits a ZINB too
    if args.subcommand == "diagnose" and family is None:
        if args.covariates or args.zero_covariates or args.ref:
            parser.error("--covariates, --zero-covariates and --ref need --family")
    elif getattr(args, "zero_covariates", None) and family != "zinb":
        parser.error("--zero-covariates requires --family zinb")


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
        col, level = (part.strip() for part in pair.split("=", 1))
        if col in refs:
            raise ConfigurationError(f"--ref names column '{col}' twice")
        refs[col] = level
    return refs


def _model_spec(args, family: str, response: str) -> ModelSpec:
    """The model the covariate options describe; only ZINB has a zero part."""
    return ModelSpec(
        family,
        response,
        _split(args.covariates),
        _split(args.zero_covariates) if family == "zinb" else [],
        _parse_refs(args.ref),
    )


def _preset_config(args):
    """The --preset's SimConfig, with --seed applied."""
    config = PRESETS[args.preset]()
    if args.seed is not None:
        config.seed = args.seed
    return config


def _load_dataset(args):
    """Dataset plus the name of its response column."""
    if args.preset:
        config = _preset_config(args)
        return simulate(config), config.response_name
    if not args.input or not args.schema:
        raise ConfigurationError("either --preset or both --input and --schema are required")
    if not args.response:
        raise ConfigurationError(
            f"{args.subcommand} requires --response (or a --preset that names one)"
        )
    return load_csv(args.input, parse_schema(args.schema)), args.response


def _write(args, render):
    """Print ``render(--format)`` once --out holds the subcommand's
    `report.OUT_FORMAT`, or else the printed bytes, in UTF-8, so that a
    failed write prints nothing.  A report that stdout cannot encode is an
    error, and nothing of it is printed."""
    text = render(args.fmt)
    if args.out:
        out_fmt = report.OUT_FORMAT.get(args.subcommand, args.fmt)
        Path(args.out).write_text(
            text if out_fmt == args.fmt else render(out_fmt), encoding="utf-8"
        )
    try:
        sys.stdout.write(text)  # encoded whole before any byte is written
    except UnicodeEncodeError as exc:
        raise ConfigurationError(
            f"standard output ({exc.encoding}) cannot encode the report: "
            f"{exc.object[exc.start]!r} ({exc.reason})"
        ) from None


def _run_fit(args) -> int:
    ds, response = _load_dataset(args)
    result = fit(_model_spec(args, args.family, response), ds)
    # the JSON record publishes the intercepts too
    _write(args, lambda fmt: report.fit_report(
        result, irr_table(result, include_intercepts=fmt == "json"), ds.dropped_rows, fmt
    ))
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _run_screen(args) -> int:
    ds, response = _load_dataset(args)
    covariates = _split(args.covariates)
    if not covariates:
        # numeric columns cannot be tabulated, so the default skips them
        covariates = [
            name
            for name, col in ds.columns.items()
            if name != response and col.kind != "numeric"
        ]
        if not covariates:
            raise ConfigurationError(
                f"no covariate to screen: no column but the response '{response}' "
                "is categorical or count"
            )
    results = diagnostics.screen(ds, covariates, response)
    _write(args, lambda fmt: report.screening_report(results, fmt))
    return EXIT_OK


def _run_diagnose(args) -> int:
    ds, response = _load_dataset(args)
    y = ds.response_vector(response)
    fitted = fit(_model_spec(args, args.family, response), ds) if args.family else None
    disp = diagnostics.dispersion_summary(y)
    zeros = diagnostics.zero_summary(y, fitted)
    _write(args, lambda fmt: report.diagnose_report(disp, zeros, fmt))
    return EXIT_NO_CONVERGENCE if fitted is not None and not fitted.converged else EXIT_OK


def _run_simulate(args) -> int:
    config = _preset_config(args)
    if args.out:
        simulate(config, args.out)
        print(f"wrote {args.out} and its .truth.json sidecar", file=sys.stderr)
    else:
        write_csv(simulate(config), config, sys.stdout)
    return EXIT_OK


def _run_compare(args) -> int:
    ds, response = _load_dataset(args)
    fits = [fit(_model_spec(args, family, response), ds) for family in FAMILIES]
    rows = compare_models(fits)
    _write(args, lambda fmt: report.comparison_report(rows, fmt))
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
    _check_usage(parser, args)
    _echo_config(args)
    try:
        return _RUNNERS[args.subcommand](args)
    except (CountregError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
