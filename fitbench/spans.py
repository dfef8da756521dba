"""In-memory span tracer that wraps countreg's public functions from outside.

Each wrapped name is patched where its caller looks it up (for example
``countreg.fitting.maximize_bfgs``, not ``countreg.optimize.maximize_bfgs``),
so the span sits on the real call edge.  A name that no longer exists is
recorded as absent instead of failing, and ``restore`` puts every original
back.  Spans hold name, start, end and parent id, plus the counters that the
hooks attach; nothing is written until the caller asks for it.
"""

import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager

KERNELS = ("nb_logpmf", "zinb_logpmf", "nb_grad_rows", "zinb_grad_rows")


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, root, path, name, before=None, after=None):
        """Replace the attribute at dotted ``path`` under ``root`` with a
        span-recording wrapper.  ``before(rec, args)`` may return replacement
        positional arguments; ``after(rec, result)`` reads the result."""
        *owner_path, attr = path.split(".")
        owner = root
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(path)
            return

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                if before is not None:
                    args = before(rec, args)
                result = original(*args, **kwargs)
                if after is not None:
                    after(rec, result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _rows(rec, args):
    rec["rows"] = len(args[0]) if args else 0
    return args


def _passes(rec, args):
    y = args[0] if args else ()
    rec["passes"] = int(y.max()) if len(y) else 0
    return args


def _counted(key, failed_key=None):
    """Hook that counts calls of the callable passed as first argument."""

    def before(rec, args):
        if not args:
            return args
        fn = args[0]
        rec[key] = 0
        if failed_key:
            rec[failed_key] = 0

        def counted(x):
            value = fn(x)
            rec[key] += 1
            if failed_key and not math.isfinite(value[0]):
                rec[failed_key] += 1
            return value

        return (counted,) + tuple(args[1:])

    return before


def _iters(rec, result):
    rec["iters"] = getattr(result, "n_iter", 0)


def _csv_rows(rec, result):
    rec["rows"] = result.n_rows + result.dropped_rows


def install(tracer, cr):
    """Wrap every layer boundary the per-layer metrics read."""
    w = tracer.wrap
    w(cr, "fit", "fitting.fit")  # the benchmark's own library call site
    w(cr, "cli.fit", "fitting.fit")
    w(cr, "cli.main", "cli.main")
    w(cr, "cli.load_csv", "data.load_csv", after=_csv_rows)
    w(cr, "cli.simulate", "simulate.simulate")
    w(cr, "fitting.build_design", "data.build_design")
    w(cr, "fitting.log_likelihood", "fitting.log_likelihood")
    w(cr, "fitting.gradient", "fitting.gradient")
    w(cr, "fitting.maximize_bfgs", "optimize.maximize_bfgs",
      before=_counted("evals", "failed_evals"), after=_iters)
    w(cr, "fitting.hessian_fd", "optimize.hessian_fd", before=_counted("grad_evals"))
    for kernel in KERNELS:
        w(cr, f"fitting._kernels.{kernel}", f"kernels.{kernel}", before=_rows)
    # the numpy grad kernels look this up as a module global of _kernels
    w(cr, "fitting._kernels.digamma_diff_numpy", "kernels.digamma_diff", before=_passes)
    for fn in ("screen", "dispersion_summary", "zero_summary"):
        w(cr, f"cli.diagnostics.{fn}", f"diagnostics.{fn}")
    report = getattr(getattr(cr, "cli", None), "report", None)
    if report is None:
        tracer.absent.append("cli.report")
    else:
        for fn, value in sorted(vars(report).items()):
            if inspect.isfunction(value) and not fn.startswith("_"):
                w(cr, f"cli.report.{fn}", f"report.{fn}")


def layer_metrics(spans):
    """Per-layer totals over one traced round, keyed by metric name."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by_name[name])

    def self_s(name):
        return sum(
            dur(s) - sum(dur(c) for c in children[s["id"]]) for s in by_name[name]
        )

    def count(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    m = {}
    for kernel in KERNELS:
        name = f"kernels.{kernel}"
        rows, secs = count(name, "rows"), total(name)
        m[f"{name}.calls"] = len(by_name[name])
        m[f"{name}.rows"] = rows
        m[f"{name}.s"] = secs
        m[f"{name}.ns_per_row"] = secs * 1e9 / rows if rows else 0.0
    m["kernels.digamma_diff.s"] = total("kernels.digamma_diff")
    m["kernels.digamma_diff.passes"] = count("kernels.digamma_diff", "passes")
    for fn in ("log_likelihood", "gradient"):
        name = f"fitting.{fn}"
        m[f"{name}.calls"] = len(by_name[name])
        m[f"{name}.s"] = total(name)
        m[f"{name}.self_s"] = self_s(name)
    m["fitting.fit.self_s"] = self_s("fitting.fit")

    # the last BFGS run inside a fit is the main fit; earlier ones warm it up
    warm = main = 0
    for f in by_name["fitting.fit"]:
        runs = [c for c in children[f["id"]] if c["name"] == "optimize.maximize_bfgs"]
        for i, run in enumerate(runs):
            if i == len(runs) - 1:
                main += run.get("iters", 0)
            else:
                warm += run.get("iters", 0)
    evals = count("optimize.maximize_bfgs", "evals")
    m["optimize.warm_start.iters"] = warm
    m["optimize.main.iters"] = main
    m["optimize.objective_evals"] = evals
    m["optimize.evals_per_iter"] = evals / (warm + main) if warm + main else 0.0
    m["optimize.accepted_ratio"] = (warm + main) / evals if evals else 0.0
    m["optimize.failed_evals"] = count("optimize.maximize_bfgs", "failed_evals")
    m["optimize.maximize_bfgs.self_s"] = self_s("optimize.maximize_bfgs")
    m["optimize.hessian_fd.s"] = total("optimize.hessian_fd")
    m["optimize.hessian_fd.grad_evals"] = count("optimize.hessian_fd", "grad_evals")

    load_s = total("data.load_csv")
    m["data.load_csv.s"] = load_s
    m["data.load_csv.rows_per_s"] = count("data.load_csv", "rows") / load_s if load_s else 0.0
    m["data.build_design.s"] = total("data.build_design")
    m["simulate.simulate_to_csv.s"] = total("simulate.simulate_to_csv")
    for fn in ("screen", "dispersion_summary", "zero_summary"):
        m[f"diagnostics.{fn}.s"] = total(f"diagnostics.{fn}")
    ids = {s["id"]: s for s in spans}
    m["report.s"] = sum(
        dur(s)
        for s in spans
        if s["name"].startswith("report.")
        and not (s["parent"] is not None and ids[s["parent"]]["name"].startswith("report."))
    )
    m["cli.main.self_s"] = self_s("cli.main")
    return m


# counters that must repeat exactly between two traced rounds on one seed
def counters(metrics):
    suffixes = (".calls", ".rows", ".passes", ".iters", "_evals")
    return {k: v for k, v in metrics.items() if k.endswith(suffixes)}
