"""The two benchmark workloads: their inputs, their task list and its checks.

Every input derives from the run seed.  A round is a workload's fixed task
list; each operation in it is checked, and a failed check is counted, never
raised, so one bad fit cannot abort the run.

Why these workloads:

* ``zinb-rows``: ZINB fits on 2e4 distinct rows.  The ZINB kernels do most
  of the work, every row is distinct and max y is small, so row collapsing
  and a digamma table have almost nothing to act on: their bypass case.
* ``cli-csv``: an in-process CLI session on a 2e5-row CSV, the only
  workload that runs the data, report, diagnostics and cli layers.  CSV
  writes sit beside reads, so a faster loader that slows the writer shows.
  Its two intercept-only NB fits of the ``paper-like`` preset (1e5 rows that
  reduce to one pattern per distinct y) are the case for row collapsing, a
  digamma table and a cheaper BFGS; its Poisson fit on a numeric covariate
  has nothing to collapse.
"""

import io
import json
import math
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

GRAD_TOL = 1e-6  # the paper's gradient criterion, unchanged
# a fit's logL may sit below the truth's only by the 1e-10 relative
# resolution that the paper's convergence rule itself accepts
LL_RTOL = 1e-10


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    fits: int = 0
    converged: int = 0
    fit_seconds: list = field(default_factory=list)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def fit_ok(ll, converged, grad_norm, truth_ll):
    """At least the truth's logL; a converged fit meets the gradient rule."""
    if ll is None or not ll >= truth_ll - LL_RTOL * abs(truth_ll):
        return False
    return not converged or (grad_norm is not None and grad_norm < GRAD_TOL)


@dataclass
class Case:
    """One dataset with the model to fit and its logL at the truth."""

    spec: object
    ds: object
    truth_ll: float


def _truth_ll(cr, spec, ds, config):
    """logL of ``spec`` at the simulation truth, via the public function."""
    X = cr.build_design(ds, spec.count_covariates)
    beta = np.array([config.true_beta[lab] for lab in X.labels])
    Z, gamma = None, np.empty(0)
    if spec.family == "zinb":
        Z = cr.build_design(ds, spec.zero_covariates)
        gamma = np.array([config.true_gamma[lab] for lab in Z.labels])
    log_tau = None if spec.family == "poisson" else math.log(config.true_tau)
    y = ds.response_vector(spec.response)
    return cr.log_likelihood(spec, X, Z, y, cr.ParamVector(beta, gamma, log_tau))


# ---------------------------------------------------------------------------
# library workloads


def _zinb_config(cr, n, seed):
    return cr.SimConfig(
        n_rows=n,
        family="zinb",
        covariates=[
            cr.CovariateSpec("x", "numeric", low=-1.0, high=1.0),
            cr.CovariateSpec("g", "categorical", levels=("a", "b", "c"),
                             probabilities=(0.5, 0.3, 0.2)),
        ],
        true_beta={"(intercept)": 0.5, "x": -0.4, "g=b": 0.3, "g=c": -0.2},
        true_gamma={"(intercept)": -1.0, "x": 0.6},
        zero_covariates=["x"],
        true_tau=1.5,
        seed=seed,
    )


def _library_cases(cr, make_config, spec, n, seeds):
    cases = []
    for s in seeds:
        config = make_config(cr, n, s)
        ds = cr.simulate(config)
        cases.append(Case(spec, ds, _truth_ll(cr, spec, ds, config)))
    return cases


def setup_zinb_rows(cr, seed, smoke, workdir):
    n, k = (2_000, 2) if smoke else (20_000, 6)
    spec = cr.ModelSpec("zinb", "y", ["x", "g"], ["x"])
    return _library_cases(cr, _zinb_config, spec, n, [seed * 100 + i for i in range(k)])


def run_library(cr, cases, tally, tracer):
    for i, case in enumerate(cases):
        tally.fits += 1
        t0 = time.perf_counter()
        try:
            result = cr.fit(case.spec, case.ds)
        except Exception:
            traceback.print_exc()
            tally.check(False, f"fit {i} raised")
            continue
        tally.fit_seconds.append(time.perf_counter() - t0)
        tally.converged += bool(result.converged)
        tally.check(
            fit_ok(result.log_likelihood, result.converged, result.gradient_norm,
                   case.truth_ll),
            f"fit {i}: logL {result.log_likelihood!r} vs truth {case.truth_ll!r}, "
            f"converged {result.converged}, gradient {result.gradient_norm!r}",
        )


# ---------------------------------------------------------------------------
# cli-csv

SCHEMA = "g=categorical,h=categorical,x=numeric,y=count"


@dataclass
class CliInputs:
    config: object  # SimConfig of the CSV
    csv_path: str
    poisson_truth_ll: float
    preset_truth_ll: float


def _csv_config(cr, n, seed):
    return cr.SimConfig(
        n_rows=n,
        family="nb",
        covariates=[
            cr.CovariateSpec("g", "categorical", levels=("a", "b", "c"),
                             probabilities=(0.5, 0.3, 0.2)),
            cr.CovariateSpec("h", "categorical", levels=("p", "q"),
                             probabilities=(0.6, 0.4)),
            cr.CovariateSpec("x", "numeric", low=-1.0, high=1.0),
        ],
        true_beta={"(intercept)": 0.4, "g=b": 0.3, "g=c": -0.2, "h=q": 0.25,
                   "x": -0.5},
        true_tau=1.5,
        seed=seed,
    )


def setup_cli_csv(cr, seed, smoke, workdir):
    n = 20_000 if smoke else 200_000
    config = _csv_config(cr, n, seed * 100)
    # the Poisson MLE beats the Poisson logL at the true mean parameters
    poisson = cr.ModelSpec("poisson", "y", ["g", "h", "x"])
    poisson_ll = _truth_ll(cr, poisson, cr.simulate(config), config)
    # the headline command runs the preset at its own seed
    preset = cr.cli.PRESETS["paper-like"]()
    preset_ll = _truth_ll(cr, cr.ModelSpec("nb", "y", []), cr.simulate(preset), preset)
    return CliInputs(config, str(workdir / "session.csv"), poisson_ll, preset_ll)


def _cli(cr, argv):
    """countreg.cli.main in-process; returns (exit code, captured stdout).
    The CLI's stderr is passed on only when the call fails."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cr.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        code = None
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code, out.getvalue()


def _cli_fit(cr, argv, truth_ll, tally):
    tally.fits += 1
    t0 = time.perf_counter()
    code, out = _cli(cr, argv)
    tally.fit_seconds.append(time.perf_counter() - t0)
    try:
        report = json.loads(out)
    except ValueError:
        report = {}
    converged = report.get("converged") is True
    tally.converged += converged
    tally.check(
        code == 0
        and fit_ok(report.get("log_likelihood"), converged,
                   report.get("gradient_norm"), truth_ll),
        f"{' '.join(argv)}: exit {code}, logL {report.get('log_likelihood')!r} "
        f"vs truth {truth_ll!r}, gradient {report.get('gradient_norm')!r}",
    )
    return out


def run_cli_csv(cr, inp, tally, tracer):
    path = inp.csv_path
    io_args = ["--input", path, "--schema", SCHEMA, "--response", "y"]
    try:
        with tracer.span("simulate.simulate_to_csv") if tracer else nullcontext():
            ds = cr.simulate(inp.config, path)
        wrote = ds.n_rows == inp.config.n_rows
    except Exception:
        traceback.print_exc()
        wrote = False
    tally.check(wrote, "simulate to CSV")

    code, out = _cli(cr, ["screen", *io_args, "--covariates", "g,h"])
    tally.check(code == 0 and bool(out), f"screen: exit {code}")
    code, out = _cli(cr, ["diagnose", *io_args])
    tally.check(code == 0 and bool(out), f"diagnose: exit {code}")
    _cli_fit(
        cr,
        ["fit", *io_args, "--family", "poisson", "--covariates", "g,h,x",
         "--format", "json"],
        inp.poisson_truth_ll,
        tally,
    )
    preset = ["fit", "--preset", "paper-like", "--family", "nb", "--format", "json"]
    first = _cli_fit(cr, preset, inp.preset_truth_ll, tally)
    second = _cli_fit(cr, preset, inp.preset_truth_ll, tally)
    tally.check(first.encode() == second.encode(), "paper-like JSON reports differ")


WORKLOADS = {
    "zinb-rows": (setup_zinb_rows, run_library),
    "cli-csv": (setup_cli_csv, run_cli_csv),
}
