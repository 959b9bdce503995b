"""Multi-run benchmark harness and its metrics.

A benchmark regenerates data and refits each method K times.  Run k builds
its dataset from a seed derived from (master seed, k), shared by every
method so methods are compared on identical data; fits draw their own seeds
from (master seed, k, method index).  Records merge in run order, so reports
are byte-identical regardless of worker count.  Wall-clock times are kept
out of report.json (they go to timings.json) to preserve that guarantee.

Metrics follow the strict term-matching convention: a run succeeds on an
equation only if the discovered term set equals the truth exactly, and
parameter RMSE is measured over the truth terms with missing terms scored
as zero.
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__ as _tool_version
from .discover import (DiscoveryConfig, GpResult, design, equiv_c_fit,
                       equiv_r_fit, gp_fit, stlsq)
from .dynamics import (INTERNAL_DT, LinearField, NoiseSpec, SindyModel,
                       get_system, make_dataset)
from .integrate import BoundField, rk4_final
from .library import canonicalize

DIVERGENCE_NORM = 1e6
NONCANONICAL = "<non-canonical>"

METHODS = ("sindy", "equiv-c", "equiv-r", "gp", "equiv-gp-r")
SYMMETRIC_METHODS = ("equiv-c", "equiv-r", "equiv-gp-r")
DATA_KEYS = ("n_samples", "dt", "counts", "smooth_splits")  # make_dataset's


def derive_seed(master, *path):
    """Deterministic child seed for (master, *path)."""
    ss = np.random.SeedSequence((int(master),) + tuple(int(x) for x in path))
    return int(ss.generate_state(1, np.uint64)[0])


# -- term sets and success -------------------------------------------------------


def term_set(model, lib, min_coef=0.0):
    """Per-equation (sorted term labels, {label: coefficient}).

    Accepts a SindyModel, a GpResult, or a list of expressions.  Expressions
    that do not live in the library's span give the non-canonical sentinel,
    which never matches any truth set.  Coefficients with magnitude below
    min_coef are dropped first (a final guard; the fitters already threshold).
    """
    if isinstance(model, SindyModel):
        per_eq = model.coefficients()
    else:
        exprs = model.exprs if isinstance(model, GpResult) else list(model)
        per_eq = [canonicalize(e, lib) for e in exprs]
    out = []
    for coeffs in per_eq:
        if coeffs is None:
            out.append((NONCANONICAL, {}))
            continue
        kept = {k.label(): float(v) for k, v in coeffs.items()
                if abs(v) >= min_coef and v != 0.0}
        out.append((tuple(sorted(kept)), kept))
    return out


def success(discovered, truth):
    """Per-equation exact set equality plus the joint AND flag.

    discovered: per-eq label tuples (or the non-canonical sentinel);
    truth: per-eq iterables of labels.
    """
    flags = []
    for got, want in zip(discovered, truth):
        if got == NONCANONICAL:
            flags.append(False)
        else:
            flags.append(set(got) == set(want))
    return flags, all(flags)


# -- parameter RMSE ---------------------------------------------------------------


def _sq_err(coeffs, truth_eq):
    """Sum over the truth terms of (theta - theta_hat)^2; missing terms = 0.

    fsum makes the result independent of the order of the truth terms, which
    a report reloaded from sorted JSON does not keep.
    """
    return math.fsum((truth_eq[label] - coeffs.get(label, 0.0)) ** 2
                     for label in truth_eq)


def rmse_params(records, truth_coeffs, mode="successful", scope="joint"):
    """sqrt(sum_k ||theta - theta_hat^(k)||^2 / K) over the filtered runs.

    mode "successful" keeps only runs whose relevant success flag is set
    (joint flag for scope "joint", per-equation flag otherwise); with zero
    such runs the result is None (reported as N/A).  A failed fit's record
    has no terms and no flag set.  scope "per-eq" returns a list with one
    value per equation.
    """
    if scope == "per-eq":
        return [_rmse_one(records, truth_coeffs, mode, i)
                for i in range(len(truth_coeffs))]
    return _rmse_one(records, truth_coeffs, mode, None)


def _rmse_one(records, truth_coeffs, mode, eq):
    total = 0.0
    K = 0
    for rec in records:
        ok = rec["joint_success"] if eq is None else rec["eq_success"][eq]
        if mode == "successful" and not ok:
            continue
        K += 1
        eqs = range(len(truth_coeffs)) if eq is None else (eq,)
        for i in eqs:
            total += _sq_err(rec["coefficients"][i], truth_coeffs[i])
    if K == 0:
        return None
    return float(np.sqrt(total / K))


# -- long-term prediction ---------------------------------------------------------


def long_term_error(models, system, test_ics, horizon, checkpoints):
    """Squared prediction errors of learned fields against the true flow.

    models maps a name to a model whose field(shape) binds its vector field
    to a batch shape (a SindyModel or a GpResult).  Every model and the
    true field are integrated from each initial condition; at every
    checkpoint each model's per-state mean squared error against the true
    state is recorded.  States whose norm exceeds 1e6 (or go non-finite)
    are marked divergent from then on and excluded from the aggregates but
    counted.

    Every model advances with the true field as one stacked (M, B, d) batch:
    block 0 is the truth, then every SindyModel over the system's library,
    then every other model (an expression tree).  The stacked weights are
    bound once to the (L, B) W-linear blocks (see dynamics.LinearField), so
    each RK4 stage evaluates Theta once for them and multiplies it by each
    W; each other model's field is bound once to its own (1, B) block (a
    GpResult's trees compiled into an expressions.TreeField).  The stacked
    field is the W-linear field alone, or else the concatenation of every
    block's calls (see _Stacked), which the integrator runs as one list.
    Every block is written straight into its slice of the stage's slopes
    and gets the bits it gets alone, so a model's result does not depend on
    which models share the call, and a diverging block leaves the others
    untouched.

    Returns {name: {"checkpoints", "errors" (n_cp, n_ic),
    "diverged" (n_cp, n_ic)}}.
    """
    checkpoints = list(checkpoints)
    if any(t < 0 or t > horizon + 1e-12 for t in checkpoints):
        raise ValueError("checkpoints must lie inside [0, horizon]")
    if sorted(checkpoints) != checkpoints:
        raise ValueError("checkpoints must be sorted ascending")
    lib = system.library()
    linear = [m for m, model in models.items()
              if isinstance(model, SindyModel)
              and model.lib.terms == lib.terms]
    others = [m for m in models if m not in linear]
    # (L, 1, d, p): block 0 is the truth, block i + 1 the i-th linear model.
    Ws = np.stack([system.truth_matrix(lib)]
                  + [models[m].W for m in linear])[:, None]
    L = len(Ws)
    X = np.atleast_2d(np.asarray(test_ics, dtype=float))
    B = X.shape[0]
    n_cp = len(checkpoints)
    Y = np.stack([X] * (L + len(others)))
    blocks = [LinearField(lib, Ws, (L, B))]
    with np.errstate(all="ignore"):     # a tree's constants fold here
        blocks += [models[m].field((1, B)) for m in others]
    field = blocks[0] if len(blocks) == 1 else _Stacked(blocks)

    out = {m: {"checkpoints": list(checkpoints),
               "errors": np.zeros((n_cp, B)),
               "diverged": np.zeros((n_cp, B), dtype=bool)} for m in models}
    bad = {m: np.zeros(B, dtype=bool) for m in models}
    t = 0.0
    with np.errstate(all="ignore"):
        for j, tc in enumerate(checkpoints):
            seg = tc - t
            if seg > 0:
                n = max(1, int(round(seg / INTERNAL_DT)))
                Y = rk4_final(field, Y, seg, n)
                t = tc
            ys = dict(zip(linear + others, Y[1:]))
            for m in models:
                ym = ys[m]
                finite = np.isfinite(ym).all(axis=1)
                norm_ok = np.zeros(B, dtype=bool)
                norm_ok[finite] = (np.linalg.norm(ym[finite], axis=1)
                                   <= DIVERGENCE_NORM)
                bad[m] |= ~(finite & norm_ok)
                out[m]["diverged"][j] = bad[m]
                diff = np.where(bad[m][:, None], 0.0, ym - Y[0])
                out[m]["errors"][j] = (diff * diff).mean(axis=1)
    return out


class _Stacked(BoundField):
    """Fields bound to consecutive blocks of states (M, B, d), as one field.

    Each block's steps follow a copy of its part of x into its own input,
    and write its part of out.
    """

    def __init__(self, blocks):
        ends = np.cumsum([0] + [f.x.shape[1] for f in blocks])
        self._parts = [(f, slice(lo, hi))
                       for f, lo, hi in zip(blocks, ends, ends[1:])]
        d, _, B = blocks[0].x.shape
        super().__init__(np.empty((d, ends[-1], B)))

    def steps(self, out):
        return [call for f, part in self._parts
                for call in [(np.copyto, (f.x, self.x[:, part]))]
                + f.steps(out[:, part])]


# -- benchmark configuration and workers -------------------------------------------


def generators_for(system, users, generators=None):
    """The generators given, or else those registered for `system`.

    ValueError names the first of `users` that needs one and would get
    none: a symmetric method, or a command such as nullspace.
    """
    gens = system.generators if generators is None else tuple(generators)
    needy = [u for u in users if u in SYMMETRIC_METHODS or u not in METHODS]
    if needy and not gens:
        raise ValueError(f"{needy[0]} needs at least one generator, and "
                         f"none is given or registered for {system.name}")
    return gens


@dataclass(frozen=True)
class BenchConfig:
    system: str
    methods: tuple = ("sindy", "equiv-c")
    runs: int = 20
    seed: int = 0
    noise: NoiseSpec = None          # None keeps the registry default
    discovery: DiscoveryConfig = None
    generators: tuple = None         # None keeps the registry generators
    horizon: float = None            # None means n_samples * dt
    n_checkpoints: int = 10
    ltp_ics: int = 5
    data: tuple = ()                 # ((key, value), ...) make_dataset overrides
    jobs: int = 1

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; expected {METHODS}")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.horizon is not None and not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.n_checkpoints < 1 or self.ltp_ics < 1:
            raise ValueError("n_checkpoints and ltp_ics must be at least 1")
        for key, _ in self.data:
            if key not in DATA_KEYS:
                hint = "; noise is BenchConfig.noise" if key == "noise" else ""
                raise ValueError(f"unknown data key {key!r}; expected one "
                                 f"of {DATA_KEYS}{hint}")
        generators_for(get_system(self.system), self.methods, self.generators)


def _fit_method(method, ds, lib, gens, dcfg):
    if method == "sindy":
        W = stlsq(*design(ds, lib)[:2], dcfg.threshold)
        return SindyModel(lib, W, provenance={"method": "sindy"})
    if method == "equiv-c":
        return equiv_c_fit(ds, lib, gens, dcfg)
    if method == "equiv-r":
        return equiv_r_fit(ds, lib, gens, dcfg)
    if method == "gp":
        return gp_fit(ds, dcfg)
    if method == "equiv-gp-r":
        return gp_fit(ds, dcfg, symmetry=gens)
    raise ValueError(f"unknown method {method!r}")


def _bench_worker(args):
    bc, k = args
    system = get_system(bc.system)
    gens = generators_for(system, bc.methods, bc.generators)
    base_cfg = bc.discovery or DiscoveryConfig(
        threshold=system.data.threshold)
    t0 = time.perf_counter()
    ds = make_dataset(system, seed=derive_seed(bc.seed, k),
                      noise=bc.noise, **dict(bc.data))
    stages = {"dataset": time.perf_counter() - t0}
    lib = system.library()
    truth_sets = [sorted(t.label() for t in s)
                  for s in system.truth_term_sets()]
    n_samples = ds.meta.get("n_samples", system.data.n_samples)
    horizon = bc.horizon if bc.horizon is not None else n_samples * ds.dt
    checkpoints = [horizon * (j + 1) / bc.n_checkpoints
                   for j in range(bc.n_checkpoints)]
    ics = np.array([tr.clean_states[0]
                    for tr in ds.test[:bc.ltp_ics]])
    records = []
    models = {}
    timings = {}
    for mi, method in enumerate(bc.methods):
        fit_seed = derive_seed(bc.seed, k, mi)
        dcfg = replace(base_cfg, seed=fit_seed)
        t0 = time.perf_counter()
        err = ""
        try:
            model = _fit_method(method, ds, lib, gens, dcfg)
        except Exception as exc:
            err = f"{type(exc).__name__}: {exc}"
        timings[method] = time.perf_counter() - t0
        if err:  # empty term sets, which match no truth set
            sets = [((), {})] * system.dim
        else:
            sets = term_set(model, lib, min_coef=dcfg.threshold)
            models[method] = model
        labels = [s for s, _ in sets]
        flags, joint = success(labels, truth_sets)
        records.append({
            "run": k, "seed": fit_seed, "method": method,
            "term_sets": [list(s) if s != NONCANONICAL else NONCANONICAL
                          for s in labels],
            "coefficients": [c for _, c in sets],
            "eq_success": flags, "joint_success": joint, "error": err})
    t0 = time.perf_counter()
    ltp = (long_term_error(models, system, ics, horizon, checkpoints)
           if len(ics) and models else {})
    stages["ltp"] = time.perf_counter() - t0
    return records, ltp, timings, stages


# -- aggregation and reports -------------------------------------------------------


def aggregate_records(records, truth_coeffs):
    """Per-method aggregates recomputable from the stored records."""
    d = len(truth_coeffs)
    methods = []
    for rec in records:
        if rec["method"] not in methods:
            methods.append(rec["method"])
    out = {}
    for m in methods:
        recs = [r for r in records if r["method"] == m]
        n = len(recs)
        succ = {f"eq{i+1}": sum(r["eq_success"][i] for r in recs) / n
                for i in range(d)}
        succ["all"] = sum(r["joint_success"] for r in recs) / n
        per_s = rmse_params(recs, truth_coeffs, "successful", "per-eq")
        per_a = rmse_params(recs, truth_coeffs, "all", "per-eq")
        out[m] = {
            "n_runs": n,
            "n_failed": sum(bool(r["error"]) for r in recs),
            "success": succ,
            "rmse_successful": {
                **{f"eq{i+1}": per_s[i] for i in range(d)},
                "all": rmse_params(recs, truth_coeffs, "successful",
                                   "joint")},
            "rmse_all": {
                **{f"eq{i+1}": per_a[i] for i in range(d)},
                "all": rmse_params(recs, truth_coeffs, "all", "joint")},
        }
    return out


def _aggregate_ltp(ltp_parts):
    """Merge per-run LTP pieces into per-checkpoint mean/std/counters."""
    out = {}
    for method, parts in ltp_parts.items():
        errs = np.concatenate([p["errors"] for p in parts], axis=1)
        div = np.concatenate([p["diverged"] for p in parts], axis=1)
        cps = parts[0]["checkpoints"]
        mean, std, nval = [], [], []
        for j in range(len(cps)):
            ok = ~div[j]
            vals = errs[j][ok]
            mean.append(float(vals.mean()) if vals.size else None)
            std.append(float(vals.std()) if vals.size else None)
            nval.append(int(vals.size))
        out[method] = {"checkpoints": [float(t) for t in cps],
                       "mean": mean, "std": std,
                       "divergent": [int(div[j].sum())
                                     for j in range(len(cps))],
                       "n": nval}
    return out


def run_benchmark(bc):
    """K data-regeneration + discovery runs per method, merged in run order."""
    system = get_system(bc.system)
    truth_coeffs = [{t.label(): v for t, v in c.items()}
                    for c in system.oracle().coefficients()]
    args = [(bc, k) for k in range(bc.runs)]
    t_start = time.perf_counter()
    if bc.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=bc.jobs) as pool:
            results = list(pool.map(_bench_worker, args))
    else:
        results = [_bench_worker(a) for a in args]
    total = time.perf_counter() - t_start
    records = [rec for recs, _, _, _ in results for rec in recs]
    ltp_parts = {}
    for _, ltp, _, _ in results:
        for m, part in ltp.items():
            ltp_parts.setdefault(m, []).append(part)
    timings = {m: [res[2].get(m) for res in results]
               for m in bc.methods}
    stages = {s: [res[3][s] for res in results] for s in ("dataset", "ltp")}
    report = {
        "format": "symodes-benchmark-report",
        "format_version": 1,
        "tool_version": _tool_version,
        "system": bc.system,
        "config": _config_snapshot(bc),
        "truth": {"term_sets": [sorted(c) for c in truth_coeffs],
                  "coefficients": truth_coeffs},
        "records": records,
        "aggregates": aggregate_records(records, truth_coeffs),
        "ltp": _aggregate_ltp(ltp_parts),
    }
    report["timings"] = {"total_seconds": total, "per_run": timings,
                         "stages": stages}
    return report


def _config_snapshot(bc):
    """bc as JSON: to_config() where an object has one, else its fields."""
    # jobs is an execution knob: results must not depend on it
    body = {k: v for k, v in bc.__dict__.items() if k != "jobs"}
    return json.loads(json.dumps(body, default=lambda o: o.to_config()
                                 if hasattr(o, "to_config") else o.__dict__))


def _fmt_cell(v):
    if v is None:
        return "NA"
    return repr(float(v))


def _csv_writer(fh, provenance):
    """CSV writer with LF line endings, after provenance's `# k=v` lines."""
    for k in sorted(provenance or {}):
        fh.write(f"# {k}={provenance[k]}\n")
    return csv.writer(fh, lineterminator="\n")


def emit_report(report, outdir):
    """Write report.json, tables.csv, ltp.csv (deterministic) + timings.json."""
    os.makedirs(outdir, exist_ok=True)
    timings = report.pop("timings", None)
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    if timings is not None:
        with open(os.path.join(outdir, "timings.json"), "w") as fh:
            json.dump(timings, fh, indent=2, sort_keys=True)
            fh.write("\n")
        report["timings"] = timings
    prov = report.get("provenance")
    d = len(report["truth"]["term_sets"])
    eq_cols = [f"eq{i+1}" for i in range(d)]
    with open(os.path.join(outdir, "tables.csv"), "w", newline="") as fh:
        w = _csv_writer(fh, prov)
        w.writerow(["method", "metric"] + eq_cols + ["all"])
        for m, agg in sorted(report["aggregates"].items()):
            for metric in ("success", "rmse_successful", "rmse_all"):
                row = [m, metric]
                row += [_fmt_cell(agg[metric][c]) for c in eq_cols + ["all"]]
                w.writerow(row)
    with open(os.path.join(outdir, "ltp.csv"), "w", newline="") as fh:
        w = _csv_writer(fh, prov)
        w.writerow(["method", "t", "mean", "std", "divergent", "n"])
        for m, curve in sorted(report["ltp"].items()):
            for j, t in enumerate(curve["checkpoints"]):
                w.writerow([m, _fmt_cell(t), _fmt_cell(curve["mean"][j]),
                            _fmt_cell(curve["std"][j]),
                            curve["divergent"][j], curve["n"][j]])


def load_report(path):
    """Load report.json and re-derive the aggregates as a self-audit."""
    with open(path) as fh:
        report = json.load(fh)
    truth_coeffs = report["truth"]["coefficients"]
    recomputed = aggregate_records(report["records"], truth_coeffs)
    if recomputed != report["aggregates"]:
        raise ValueError("stored aggregates do not match the records")
    return report
