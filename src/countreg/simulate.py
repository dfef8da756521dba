"""Synthetic count-regression datasets with a recorded ground truth.

A SimConfig fully specifies the data-generating process: covariate draws,
true coefficients keyed by design-column label, shape, zero part, and seed.
Output is deterministic given the seed.  When a CSV path is supplied, a
``<stem>.truth.json`` sidecar is written next to it so downstream recovery
checks read the truth instead of re-deriving it.

The CSV is written in the dialect `load_csv` reads (`data.csv_text`), in
UTF-8 and `data.BLOCK_ROWS` rows at a time (`write_csv`), and `_validate`
rejects a config whose CSV would not load back as drawn (names
must pass `data.name_reads_back` and levels `data.level_reads_back`, no
level twice, no covariate named like the response), that numpy could not
draw from, or that gives a bool where a number goes.
"""

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data
from .data import (
    FAMILIES,
    MISSING_TOKENS,
    Column,
    Dataset,
    csv_field,
    level_reads_back,
    name_reads_back,
)
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


def _check_reads_back(what: str, text, reads_back, rule: str):
    """Reject a name or level that `load_csv` would not give back, as
    written, from the simulated CSV (``reads_back`` is the test from `data`
    and ``rule`` says what it asks)."""
    if not (isinstance(text, str) and reads_back(text)):
        raise ConfigurationError(
            f"{what} {text!r} would not load back from CSV: it must be a string that is {rule}"
        )


_NAME_RULE = "not empty and not surrounded by whitespace"
_LEVEL_RULE = f"{_NAME_RULE}, and not a missing token {sorted(MISSING_TOKENS)}"


def _check_not_bool(what: str, value):
    """Reject a bool where a number is asked for: Python and numpy take it
    as 0 or 1, and the truth sidecar would record it as true or false."""
    if isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")


def _validate(config: SimConfig):
    """Reject, as a ConfigurationError, a config that numpy's draws would
    fail on or whose CSV `load_csv` would not read back as simulated."""
    if not isinstance(config.n_rows, numbers.Integral) or isinstance(config.n_rows, bool):
        raise ConfigurationError(f"n_rows must be a positive integer, got {config.n_rows!r}")
    if config.n_rows < 1:
        raise ConfigurationError("n_rows must be positive")
    seed = config.seed
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    if config.family not in FAMILIES:
        raise ConfigurationError(f"unknown family '{config.family}'")
    names = [c.name for c in config.covariates]
    if len(set(names)) != len(names):
        raise ConfigurationError("covariate names must be unique")
    if config.response_name in names:
        raise ConfigurationError(
            f"covariate '{config.response_name}' is named like the response"
        )
    for name in [*names, config.response_name]:
        _check_reads_back("column name", name, name_reads_back, _NAME_RULE)
    for c in config.covariates:
        if c.kind == "categorical":
            if len(c.levels) < 1:
                raise ConfigurationError(f"'{c.name}' declares no levels")
            if len(set(c.levels)) != len(c.levels):
                raise ConfigurationError(f"'{c.name}' lists a level twice")
            for level in c.levels:
                _check_reads_back(f"'{c.name}' level", level, level_reads_back, _LEVEL_RULE)
            if len(c.probabilities) != len(c.levels):
                raise ConfigurationError(f"'{c.name}' probabilities do not match levels")
            # both tests fail on a NaN probability
            probs = c.probabilities
            for p in probs:
                _check_not_bool(f"'{c.name}' level probability", p)
            if not (all(p >= 0 for p in probs) and abs(sum(probs) - 1.0) <= 1e-9):
                raise ConfigurationError(f"'{c.name}' level probabilities must sum to 1")
        elif c.kind == "numeric":
            _check_not_bool(f"'{c.name}' low", c.low)
            _check_not_bool(f"'{c.name}' high", c.high)
            if not (c.low < c.high and math.isfinite(c.high - c.low)):
                raise ConfigurationError(f"'{c.name}' needs finite low < high")
        else:
            raise ConfigurationError(f"'{c.name}' has unknown kind '{c.kind}'")
    for part in ("true_beta", "true_gamma"):
        for label, value in getattr(config, part).items():
            _check_not_bool(f"{part}[{label!r}]", value)
    _check_not_bool("true_tau", config.true_tau)
    if config.family == "zinb":
        unknown = [n for n in config.zero_covariates if n not in names]
        if unknown:
            raise ConfigurationError(f"zero covariates {unknown} are not declared")
    elif config.true_gamma or config.zero_covariates:
        raise ConfigurationError("zero part is only meaningful for zinb")
    if config.family in ("nb", "zinb"):
        if config.true_tau is None or not 0 < config.true_tau < math.inf:
            raise ConfigurationError(f"family '{config.family}' needs a finite true_tau > 0")


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
    labels of its design columns, evaluated as the fitter evaluates it; a
    non-finite coefficient is rejected even on a level that no row draws."""
    terms = data.design_terms(ds, names, {})
    labels = [label for term in terms for label in term.labels]
    if sorted(coef_by_label) != sorted(labels):
        raise ConfigurationError(
            f"{part} coefficients {sorted(coef_by_label)} do not match design columns {labels}"
        )
    coefs = np.array([coef_by_label[lab] for lab in labels])
    if not np.all(np.isfinite(coefs)):
        raise ConfigurationError(f"{part} coefficients {coef_by_label} are not all finite")
    eta = data.linear_predictor(terms, coefs, np.empty(ds.n_rows), np.empty(ds.n_rows))
    worst = float(np.max(np.abs(eta)))
    if not worst <= ETA_LIMIT:  # NaN too
        raise ConfigurationError(f"{part} linear predictor reaches |{worst:.1f}| > {ETA_LIMIT:.0f}")
    return eta


def simulate(config: SimConfig, out_path=None) -> Dataset:
    """Draw a dataset from the configured process.

    Covariates are drawn first in declaration order, then the response, all
    from one seeded generator, so equal configs give byte-identical data.
    With ``out_path``, the CSV is streamed there in UTF-8 with its truth
    sidecar beside it (`_write_csv`).
    """
    _validate(config)
    rng = np.random.default_rng(config.seed)
    ds = Dataset(columns=_draw_columns(config, rng), n_rows=config.n_rows)
    lam = np.exp(_predictor(ds, list(ds.columns), config.true_beta, "count-part"))
    if config.family == "poisson":
        y = rng.poisson(lam)
    elif config.family == "nb":
        y = nb_draws(rng, lam, config.true_tau)
    else:
        from scipy.special import expit

        p = expit(_predictor(ds, config.zero_covariates, config.true_gamma, "zero-part"))
        y = zinb_draws(rng, lam, p, config.true_tau)
    y = Column(config.response_name, "count", y.astype(np.int64))
    out = Dataset(columns={**ds.columns, y.name: y}, n_rows=config.n_rows)
    if out_path is not None:
        _write_csv(out, config, Path(out_path))
    return out


def write_csv(ds: Dataset, config: SimConfig, stream):
    """Write a simulated dataset to the text ``stream`` as CSV
    (`data.csv_text`): covariates in declaration order, then the response;
    numbers in full precision, each level quoted once by `csv_field`, and
    each distinct count (`data.distinct_codes`) formatted once.  The header
    goes first, then `data.BLOCK_ROWS` rows per write, so only one block's
    text is held at a time; a level or count column gathers its texts by
    its codes."""
    names = [c.name for c in config.covariates] + [config.response_name]
    columns = [ds.column(name) for name in names]
    texts = {}  # a level or count column's distinct texts and its codes into them
    for col in columns:
        if col.kind == "categorical":
            text, codes = map(csv_field, col.levels), col.values
        elif col.kind == "count":
            distinct, codes, _ = data.distinct_codes(col.values)
            text = map(str, distinct.tolist())
        else:
            continue
        texts[col.name] = np.asarray(list(text), dtype=object), codes
    stream.write(data.csv_text(names, []))
    for start in range(0, ds.n_rows, data.BLOCK_ROWS):
        block = slice(start, start + data.BLOCK_ROWS)
        cells = []
        for col in columns:
            if col.name in texts:
                text, codes = texts[col.name]
                cells.append(text[codes[block]].tolist())
            else:
                cells.append(map(repr, col.values[block].tolist()))
        stream.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_csv(ds: Dataset, config: SimConfig, path: Path):
    """The CSV (`write_csv`) at ``path``, in UTF-8 whatever the locale, as
    `load_csv` reads it, and the truth sidecar beside it."""
    with open(path, "w", encoding="utf-8") as stream:
        write_csv(ds, config, stream)
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
    sidecar.write_text(json.dumps(truth, sort_keys=True, indent=2) + "\n", encoding="utf-8")


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
