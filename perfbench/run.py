#!/usr/bin/env python3
"""Benchmark of symodes' `benchmark` pipeline, end to end and per layer.

    python3 perfbench/run.py --workload osc-sparse --seed 0 --seconds 40 \
        --trace 0

Run from the root of a source checkout: the program is imported from
./src.  One round is one serial `run_benchmark` (runs=1, jobs=1) plus
`emit_report`, the same work `symodes benchmark` does per run.  Round r
uses master seed 1000 * seed + r.  The number of rounds is fixed by the
workload and --seconds, so two runs with the same arguments do the same
work.  Every round's outputs are checked (see checks.py); one operation is
one make_dataset or one (run, method) fit with its long-term prediction,
and it fails if it raises or fails a check.

Times are CPU seconds of this serial process (one BLAS thread), which a
shared host's CPU steal does not inflate; wall times go to the result file.
--trace 0 prints the end-to-end metrics of untraced rounds.  --trace 1
runs round 0 untraced and then traced, and prints its per-layer metrics
and the tracing overhead.  The last line of stdout is
one JSON object; details, the machine record and the span arrays go to
perfbench/out/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

import checks  # noqa: E402
from tracer import Overlay, Tracer, patched  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


@dataclass(frozen=True)
class Workload:
    system: str
    methods: tuple
    round_s: float          # nominal seconds per round, sets the round count


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    "osc-sparse": Workload("oscillator", ("sindy", "equiv-c"), 7.5),
    "glyco-long": Workload("glycolytic", ("sindy",), 28.0),
    "osc-penalty": Workload("oscillator", ("equiv-r", "gp", "equiv-gp-r"),
                            21.0),
}

SETUP_REPEATS = 3
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from symodes.bench import BenchConfig, run_benchmark
from symodes.dynamics import get_system
system = get_system(sys.argv[2])
system.library()
system.oracle()
"""

E2E_UNITS = {"setup_s": "s", "run_s": "s", "dataset_s": "s",
             "deriv_err": "1", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "integrate.rk4_record_s": "s", "integrate.rk4_final_s": "s",
    "integrate.rk4_steps": "count",
    "library.evaluate_s": "s", "library.evaluate_calls": "count",
    "library.evaluate_us": "us", "library.jacobian_calls": "count",
    "dynamics.smooth_s": "s", "dynamics.smooth_series": "count",
    "dynamics.cholesky_s": "s", "dynamics.cholesky_calls": "count",
    "dynamics.cholesky_retries": "count", "dynamics.differentiate_s": "s",
    "constraint.basis_calls": "count",
    "discover.fit_s": "s", "discover.gp_candidates": "count",
    "discover.gp_generations": "count",
    "symmetry.loss_grad_calls": "count",
    "expressions.node_count_calls": "count",
    "bench.dataset_s": "s", "bench.ltp_s": "s", "bench.report_s": "s",
    "bench.other_s": "s", "bench.fit_s": "s",
    "trace.run_s": "s", "trace.overhead": "1", "trace.spans": "count",
    "quality.eqs_recovered": "count", "quality.coef_err": "1",
}

# Self times that partition a traced round: they add up to its CPU time.
SELF_TIME_PARTS = (
    "integrate.rk4_record_s", "integrate.rk4_final_s", "library.evaluate_s",
    "dynamics.smooth_s", "dynamics.cholesky_s", "dynamics.differentiate_s",
    "discover.fit_s", "bench.dataset_s", "bench.ltp_s", "bench.report_s",
    "bench.other_s")

# Span names whose self time makes up discover.fit_s: the fitters and the
# helpers only some fitters call.
FIT_SPANS = ("discover.sindy", "discover.equiv-c", "discover.equiv-r",
             "discover.gp", "discover.equiv-gp-r", "constraint.basis",
             "symmetry.loss_grad", "library.jacobian")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- machine record ---------------------------------------------------------------


def _blas(show_config):
    try:
        deps = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception as exc:  # the record must not stop a run
        return f"unknown ({type(exc).__name__})"


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest():
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "symodes"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def machine_record():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- set-up ---------------------------------------------------------------------------


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(system):
    """Median CPU time of a fresh interpreter importing symodes."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = _children_cpu()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, system],
                              capture_output=True, text=True, timeout=120)
        times.append(_children_cpu() - t0)
        if proc.returncode != 0:
            fail(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(times), times


# -- one round ------------------------------------------------------------------------


def hooks(mods, tracer, captured):
    """(owner, attribute, replacement) triples for one round.

    Capture hooks (dataset, its generation time, GP results) are always
    installed; with a tracer, every layer boundary gets a span or counter.
    """
    B, D, Dc, L, E = (mods["bench"], mods["dynamics"], mods["discover"],
                      mods["library"], mods["expressions"])
    orig = {(o, a): o.__dict__[a] for o, a in [
        (B, "make_dataset"), (B, "gp_fit"), (B, "long_term_error"),
        (B, "aggregate_records"), (B, "emit_report"), (B, "rk4_final"),
        (B, "stlsq"), (B, "equiv_c_fit"), (B, "equiv_r_fit"),
        (D, "rk4_record"), (D, "gp_smooth_series"),
        (D, "differentiate_trajectory"), (Dc, "assemble_equivariant_basis"),
        (Dc, "symmetry_loss_grad"), (Dc, "gp_candidate_fitness"),
        (L.FunctionLibrary, "evaluate"), (L.FunctionLibrary, "jacobian"),
        (E.Expr, "node_count")]}
    make_dataset, gp_fit = orig[(B, "make_dataset")], orig[(B, "gp_fit")]
    out = []
    if tracer is not None:
        T = tracer
        steps = ("integrate.rk4_steps", lambda a, k: a[3])
        gens = T.counter("discover.gp_generations")

        def add_generations(result):
            gens[0] += sum(result.provenance["generations"])

        make_dataset = T.span(make_dataset, "bench.make_dataset")
        gp_fit = T.span(gp_fit, "discover.gp", on_result=add_generations,
                        name_of=lambda a, k: "discover.equiv-gp-r"
                        if k.get("symmetry") else "discover.gp")
        spans = {
            (B, "long_term_error"): "bench.ltp",
            (B, "aggregate_records"): "bench.report",
            (B, "emit_report"): "bench.report",
            (B, "stlsq"): "discover.sindy",
            (B, "equiv_c_fit"): "discover.equiv-c",
            (B, "equiv_r_fit"): "discover.equiv-r",
            (D, "gp_smooth_series"): "dynamics.smooth",
            (D, "differentiate_trajectory"): "dynamics.differentiate",
            (Dc, "assemble_equivariant_basis"): "constraint.basis",
            (Dc, "symmetry_loss_grad"): "symmetry.loss_grad",
            (L.FunctionLibrary, "evaluate"): "library.evaluate",
            (L.FunctionLibrary, "jacobian"): "library.jacobian",
        }
        out += [(o, a, T.span(orig[(o, a)], name))
                for (o, a), name in spans.items()]
        out += [(B, "rk4_final", T.span(orig[(B, "rk4_final")],
                                        "integrate.rk4_final", count=steps)),
                (D, "rk4_record", T.span(orig[(D, "rk4_record")],
                                         "integrate.rk4_record", count=steps)),
                (Dc, "gp_candidate_fitness",
                 T.count_calls(orig[(Dc, "gp_candidate_fitness")],
                               "discover.gp_candidates")),
                (E.Expr, "node_count",
                 T.count_calls(orig[(E.Expr, "node_count")],
                               "expressions.node_count_calls"))]
        # dynamics calls scipy.linalg.cho_factor through its own `scipy`
        # global; only that lookup is traced.
        cho = T.span(scipy.linalg.cho_factor, "dynamics.cholesky")
        out.append((D, "scipy", Overlay(scipy, linalg=Overlay(
            scipy.linalg, cho_factor=cho))))

    def capture_dataset(*args, **kwargs):
        t0 = time.process_time()
        ds = make_dataset(*args, **kwargs)
        captured["dataset_s"].append(time.process_time() - t0)
        captured["datasets"].append(ds)
        return ds

    def capture_gp(*args, **kwargs):
        result = gp_fit(*args, **kwargs)
        method = "equiv-gp-r" if kwargs.get("symmetry") else "gp"
        captured["gp"][method] = result
        return result

    out += [(B, "make_dataset", capture_dataset), (B, "gp_fit", capture_gp)]
    return out


def run_round(mods, wl, master, outdir, tracer=None):
    """One benchmark run; returns (CPU s, wall s, report, captured)."""
    B = mods["bench"]
    captured = {"dataset_s": [], "datasets": [], "gp": {}}
    bc = B.BenchConfig(system=wl.system, methods=wl.methods, runs=1,
                       seed=master, jobs=1)

    def one_run():
        report = B.run_benchmark(bc)
        timings = report["timings"]
        B.emit_report(report, outdir)
        report["timings"] = timings
        return report

    if tracer is not None:
        one_run = tracer.span(one_run, "bench.run")
    with patched(hooks(mods, tracer, captured)):
        c0, w0 = time.process_time(), time.perf_counter()
        report = one_run()
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
    return cpu, wall, report, captured


# -- checks and quality -----------------------------------------------------------


def check_round(wl, report, captured, seed):
    """({operation: [failure messages]}, report-level problems, quality)."""
    failures = {op: [] for op in ("make_dataset",) + wl.methods}
    problems = []
    ds = captured["datasets"][0]
    smoothed = ds.train + ds.val
    if wl.system == "oscillator":
        field = checks.oscillator_field
    else:
        field = checks.glycolytic_field
    failures["make_dataset"] += checks.check_clean_states(
        wl.system, ds.train + ds.val + ds.test)
    if wl.system == "glycolytic":
        failures["make_dataset"] += checks.check_smoother_denoises(smoothed)
    records = {r["method"]: r for r in report["records"]}
    if sorted(records) != sorted(wl.methods):
        problems.append(f"records for {sorted(records)}, expected "
                        f"{sorted(wl.methods)}")
    rng = np.random.default_rng(seed)
    X, dX = ds.regression_arrays("train")
    for m, rec in records.items():
        if rec["error"]:
            failures[m].append(f"fit raised {rec['error']}")
            continue
        if m == "equiv-c":
            failures[m] += checks.check_rotation_equivariant(
                rec["coefficients"], rng)
            failures[m] += checks.check_paired_recovery(report["records"])
        elif m == "equiv-r":
            failures[m] += checks.check_coefficients_near_truth(
                rec, checks.OSCILLATOR_TRUTH)
        elif m in ("gp", "equiv-gp-r"):
            failures[m] += checks.check_better_than_constant(
                captured["gp"][m].exprs, X, dX)
    quality = {
        "eqs_recovered": sum(sum(r["eq_success"]) for r in records.values()),
        "coef_err": statistics.fmean(
            a["rmse_all"]["all"] for a in report["aggregates"].values()),
        "deriv_err": checks.derivative_error(smoothed, field),
        "joint_success": {m: r["joint_success"] for m, r in records.items()},
    }
    return failures, problems, quality


# -- per-layer metrics ---------------------------------------------------------------


def layer_metrics(tracer, untraced_cpu, traced_cpu, report, quality):
    """Layer metrics of one traced round.

    untraced_cpu and report come from the same round run without tracing.
    """
    S = tracer.summary()
    C = tracer.counts()

    def self_s(*names):
        return sum(S[n]["self_s"] for n in names if n in S)

    def calls(name):
        return S[name]["calls"] if name in S else 0

    ev_calls = calls("library.evaluate")
    m = {
        "integrate.rk4_record_s": self_s("integrate.rk4_record"),
        "integrate.rk4_final_s": self_s("integrate.rk4_final"),
        "integrate.rk4_steps": C.get("integrate.rk4_steps", 0),
        "library.evaluate_s": self_s("library.evaluate"),
        "library.evaluate_calls": ev_calls,
        "library.evaluate_us": (1e6 * self_s("library.evaluate") / ev_calls
                                if ev_calls else 0.0),
        "library.jacobian_calls": calls("library.jacobian"),
        "dynamics.smooth_s": self_s("dynamics.smooth"),
        "dynamics.smooth_series": calls("dynamics.smooth"),
        "dynamics.cholesky_s": self_s("dynamics.cholesky"),
        "dynamics.cholesky_calls": calls("dynamics.cholesky"),
        "dynamics.cholesky_retries":
            S.get("dynamics.cholesky", {}).get("errors", 0),
        "dynamics.differentiate_s": self_s("dynamics.differentiate"),
        "constraint.basis_calls": calls("constraint.basis"),
        "discover.fit_s": self_s(*FIT_SPANS),
        "discover.gp_candidates": C.get("discover.gp_candidates", 0),
        "discover.gp_generations": C.get("discover.gp_generations", 0),
        "symmetry.loss_grad_calls": calls("symmetry.loss_grad"),
        "expressions.node_count_calls":
            C.get("expressions.node_count_calls", 0),
        "bench.dataset_s": self_s("bench.make_dataset"),
        "bench.ltp_s": self_s("bench.ltp"),
        "bench.report_s": self_s("bench.report"),
        "bench.other_s": self_s("bench.run"),
        "bench.fit_s": sum(t[0] for t in report["timings"]["per_run"].values()),
        "trace.run_s": traced_cpu,
        "trace.overhead": traced_cpu / untraced_cpu - 1.0,
        "trace.spans": len(tracer.start),
        "quality.eqs_recovered": quality["eqs_recovered"],
        "quality.coef_err": quality["coef_err"],
    }
    parts = sum(m[k] for k in SELF_TIME_PARTS)
    root = S["bench.run"]["total_s"]
    if abs(parts - root) > 1e-6 * max(root, 1.0):
        raise RuntimeError(f"layer self times sum to {parts}, the traced "
                           f"round to {root}")
    return m, S, C


# -- main ---------------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_symodes():
    if not os.path.isfile(os.path.join(SRC, "symodes", "__init__.py")):
        fail(f"no symodes sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import symodes
    import symodes.bench
    import symodes.discover
    import symodes.dynamics
    import symodes.expressions
    import symodes.library
    if os.path.dirname(os.path.realpath(symodes.__file__)) != \
            os.path.realpath(os.path.join(SRC, "symodes")):
        fail(f"imported symodes from {symodes.__file__}, not from {SRC}")
    return {"bench": symodes.bench, "dynamics": symodes.dynamics,
            "discover": symodes.discover, "library": symodes.library,
            "expressions": symodes.expressions}


def run_rounds(mods, wl, masters, outdir, tracer=None):
    """[(master, CPU s, wall s, report, captured)], one per master seed."""
    done = []
    for master in masters:
        cpu, wall, report, captured = run_round(mods, wl, master, outdir,
                                                tracer)
        done.append((master, cpu, wall, report, captured))
        print(f"  master seed {master}: {cpu:.3f} s CPU, {wall:.3f} s wall"
              f"{' (traced)' if tracer else ''}", file=sys.stderr, flush=True)
    return done


def main(argv=None):
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    mods = import_symodes()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = os.path.join(OUT, "report", tag)
    os.makedirs(outdir, exist_ok=True)
    # A traced run repeats round 0 untraced and traced, for the overhead.
    rounds = 1 if args.trace else max(1, int(args.seconds / wl.round_s + 0.5))
    masters = [1000 * args.seed + r for r in range(rounds)]

    setup = None if args.trace else measure_setup(wl.system)
    untraced = run_rounds(mods, wl, masters, outdir)
    tracer = Tracer() if args.trace else None
    traced = run_rounds(mods, wl, masters, outdir, tracer) if tracer else []

    attempted = failed = 0
    problems, quality, failure_log = [], [], []
    for master, _, _, report, captured in untraced + traced:
        f, p, q = check_round(wl, report, captured, master)
        attempted += len(f)
        failed += sum(bool(v) for v in f.values())
        failure_log += [f"master seed {master} {op}: {msg}"
                        for op, msgs in f.items() for msg in msgs]
        problems += p
        quality.append(q)
    if traced and quality[:rounds] != quality[rounds:]:
        problems.append("the traced round gave other results than untraced")

    cpus = [c for _, c, _, _, _ in untraced]
    if tracer:
        metrics, spans, counters = layer_metrics(
            tracer, cpus[0], traced[0][1], untraced[0][3], quality[0])
        units = LAYER_UNITS
        trace_path = os.path.join(OUT, f"trace-{tag}.npz")
        tracer.save(trace_path)
    else:
        metrics = {
            "setup_s": setup[0],
            "run_s": statistics.median(cpus),
            "dataset_s": statistics.median(
                t for *_, cap in untraced for t in cap["dataset_s"]),
            "deriv_err": statistics.fmean(q["deriv_err"] for q in quality),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        spans = counters = trace_path = None

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                          for k in units}}
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "masters": masters,
        "system": wl.system, "methods": list(wl.methods),
        "machine": machine_record(), "result": result,
        "round_cpu_s": cpus, "round_wall_s": [w for _, _, w, _, _ in untraced],
        "traced_round_cpu_s": [c for _, c, _, _, _ in traced],
        "traced_round_wall_s": [w for _, _, w, _, _ in traced],
        "setup_cpu_s": setup[1] if setup else None,
        "quality": quality[:rounds], "failures": failure_log,
        "problems": problems, "spans": spans, "counters": counters,
        "trace_file": trace_path,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)
        fh.write("\n")

    m = details["machine"]
    print(f"# {args.workload} seed {args.seed}: {rounds} round(s), "
          f"{m['nproc']} cpus, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, {m['numpy_blas']}, BLAS threads "
          f"{m['blas_threads']}, commit {m['git_commit']}")
    for k in units:
        print(f"{k:32s} {metrics[k]:14.6g} {units[k]}")
    print(f"operations: {attempted} attempted, {failed} failed")
    for line in failure_log + problems:
        print(f"FAIL {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
