"""Synthetic count-regression datasets with a recorded ground truth.

A SimConfig fully specifies the data-generating process: covariate draws,
true coefficients keyed by design-column label, shape, zero part, and seed.
Output is deterministic given the seed.  When a CSV path is supplied, a
``<stem>.truth.json`` sidecar is written next to it so downstream recovery
checks read the truth instead of re-deriving it.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from .data import FAMILIES, Column, Dataset, build_design
from .distributions import nb_draws, zinb_draws
from .errors import ConfigurationError

ETA_LIMIT = 50.0  # |x'beta| beyond this is a configuration mistake, not data


@dataclass
class CovariateSpec:
    """One covariate column: categorical with level probabilities, or
    numeric drawn uniformly from [low, high)."""

    name: str
    kind: str  # "categorical" | "numeric"
    levels: tuple = ()
    probabilities: tuple = ()
    low: float = 0.0
    high: float = 1.0


@dataclass
class SimConfig:
    n_rows: int
    family: str  # "poisson" | "nb" | "zinb"
    covariates: list
    true_beta: dict  # design-column label -> coefficient
    true_gamma: dict = field(default_factory=dict)  # zinb zero part
    true_tau: float | None = None  # nb/zinb shape
    seed: int = 0
    zero_covariates: list = field(default_factory=list)  # names; intercept-only if empty
    response_name: str = "y"


def _validate(config: SimConfig):
    if config.n_rows < 1:
        raise ConfigurationError("n_rows must be positive")
    if config.family not in FAMILIES:
        raise ConfigurationError(f"unknown family '{config.family}'")
    names = [c.name for c in config.covariates]
    if len(set(names)) != len(names):
        raise ConfigurationError("covariate names must be unique")
    for c in config.covariates:
        if c.kind == "categorical":
            if len(c.levels) < 1:
                raise ConfigurationError(f"'{c.name}' declares no levels")
            if len(c.probabilities) != len(c.levels):
                raise ConfigurationError(f"'{c.name}' probabilities do not match levels")
            if any(p < 0 for p in c.probabilities) or abs(sum(c.probabilities) - 1.0) > 1e-9:
                raise ConfigurationError(f"'{c.name}' level probabilities must sum to 1")
        elif c.kind == "numeric":
            if not c.low < c.high:
                raise ConfigurationError(f"'{c.name}' needs low < high")
        else:
            raise ConfigurationError(f"'{c.name}' has unknown kind '{c.kind}'")
    if config.family == "zinb":
        unknown = [n for n in config.zero_covariates if n not in names]
        if unknown:
            raise ConfigurationError(f"zero covariates {unknown} are not declared")
    elif config.true_gamma or config.zero_covariates:
        raise ConfigurationError("zero part is only meaningful for zinb")
    if config.family in ("nb", "zinb"):
        if config.true_tau is None or not config.true_tau > 0:
            raise ConfigurationError(f"family '{config.family}' needs true_tau > 0")


def _draw_columns(config: SimConfig, rng) -> dict:
    columns = {}
    for spec in config.covariates:
        if spec.kind == "categorical":
            codes = rng.choice(len(spec.levels), size=config.n_rows, p=list(spec.probabilities))
            columns[spec.name] = Column(
                spec.name, "categorical", codes.astype(np.int64), tuple(spec.levels)
            )
        else:
            vals = rng.uniform(spec.low, spec.high, size=config.n_rows)
            columns[spec.name] = Column(spec.name, "numeric", vals)
    return columns


def _predictor(ds, names, coef_by_label, part):
    """The linear predictor of one part, whose coefficients are keyed by the
    labels of its design columns."""
    design = build_design(ds, names, {})
    if sorted(coef_by_label) != sorted(design.labels):
        raise ConfigurationError(
            f"{part} coefficients {sorted(coef_by_label)} do not match design columns "
            f"{design.labels}"
        )
    coefs = np.array([coef_by_label[lab] for lab in design.labels])
    eta = design.values @ coefs
    worst = float(np.max(np.abs(eta)))
    if worst > ETA_LIMIT:
        raise ConfigurationError(
            f"{part} linear predictor reaches |{worst:.1f}| > {ETA_LIMIT:.0f}"
        )
    return eta


def simulate(config: SimConfig, out_path=None) -> Dataset:
    """Draw a dataset from the configured process.

    Covariates are drawn first in declaration order, then the response, all
    from one seeded generator, so equal configs give byte-identical data.
    """
    _validate(config)
    rng = np.random.default_rng(config.seed)
    columns = _draw_columns(config, rng)
    names = [c.name for c in config.covariates]
    # temporary dataset without the response, just to reuse the design builder
    ds = Dataset(columns=dict(columns), n_rows=config.n_rows)
    lam = np.exp(_predictor(ds, names, config.true_beta, "count-part"))
    if config.family == "poisson":
        y = rng.poisson(lam)
    elif config.family == "nb":
        y = nb_draws(rng, lam, config.true_tau)
    else:
        p = expit(_predictor(ds, config.zero_covariates, config.true_gamma, "zero-part"))
        y = zinb_draws(rng, lam, p, config.true_tau)
    columns[config.response_name] = Column(
        config.response_name, "count", y.astype(np.int64)
    )
    out = Dataset(columns=columns, n_rows=config.n_rows)
    if out_path is not None:
        _write_csv(out, config, Path(out_path))
    return out


def _quoted(field: str) -> str:
    """``field`` as one CSV field: quoted, its quotes doubled, where it holds
    a comma, a quote, a carriage return or a newline, as-is elsewhere."""
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def csv_text(ds: Dataset, config: SimConfig) -> str:
    """A simulated dataset as CSV: covariates in declaration order, then the
    response; numbers in full precision, levels quoted where they need it
    (`_quoted`), each level once."""
    names = [c.name for c in config.covariates] + [config.response_name]
    cols = []
    for name in names:
        col = ds.column(name)
        if col.kind == "categorical":
            levels = np.asarray([_quoted(v) for v in col.levels], dtype=object)
            cols.append(levels[col.values].tolist())
        elif col.kind == "numeric":
            cols.append(map(repr, col.values.tolist()))
        else:
            cols.append(map(str, col.values.tolist()))
    return "\n".join([",".join(names), *map(",".join, zip(*cols))]) + "\n"


def _write_csv(ds: Dataset, config: SimConfig, path: Path):
    path.write_text(csv_text(ds, config))
    truth = {
        "family": config.family,
        "n_rows": config.n_rows,
        "seed": config.seed,
        "response": config.response_name,
        "true_beta": config.true_beta,
        "true_gamma": config.true_gamma,
        "true_tau": config.true_tau,
        "zero_covariates": list(config.zero_covariates),
    }
    sidecar = path.with_name(path.stem + ".truth.json")
    sidecar.write_text(json.dumps(truth, sort_keys=True, indent=2) + "\n")


def demo_preset() -> SimConfig:
    """Intercept-only NB whose marginal mean is 0.701 and variance 1.003.

    The shape solves lam + lam^2/tau = 1.003 at lam = 0.701, so the data
    reproduce the var > mean overdispersion picture at scale.
    """
    lam, var = 0.701, 1.003
    return SimConfig(
        n_rows=100_000,
        family="nb",
        covariates=[],
        true_beta={"(intercept)": math.log(lam)},
        true_tau=lam * lam / (var - lam),
        seed=1003,
    )
