"""Benchmark metrics, long-term prediction, aggregation, and report I/O."""

import json
import warnings

import numpy as np
import pytest
import scipy.linalg

from symodes import bench
from symodes.bench import (NONCANONICAL, BenchConfig, aggregate_records,
                           derive_seed, emit_report, load_report,
                           long_term_error, rmse_params, run_benchmark,
                           success, term_set)
from symodes.discover import GpResult, SindyModel
from symodes.dynamics import NoiseSpec, get_system
from symodes.expressions import parse
from symodes.library import build_library
from symodes.symmetry import Generator


def record(method, coeff_rows, truth_sets, error=""):
    labels = [tuple(sorted(c)) for c in coeff_rows]
    flags = [set(l) == set(t) for l, t in zip(labels, truth_sets)]
    return {"run": 0, "seed": 0, "method": method,
            "term_sets": [list(l) for l in labels],
            "coefficients": coeff_rows,
            "eq_success": flags if not error else [False] * len(truth_sets),
            "joint_success": all(flags) and not error,
            "error": error}


def test_derive_seed_deterministic_and_spread():
    assert derive_seed(0, 3) == derive_seed(0, 3)
    seen = {derive_seed(0, k) for k in range(100)}
    assert len(seen) == 100
    assert derive_seed(1, 3) != derive_seed(0, 3)


def test_term_set_from_sindy_model():
    sys = get_system("oscillator")
    lib = sys.library()
    model = SindyModel(lib, sys.truth_matrix(lib))
    sets = term_set(model, lib)
    assert sets[0][0] == ("x1", "x2")
    assert sets[0][1]["x1"] == pytest.approx(-0.1)
    assert sets[0][1]["x2"] == pytest.approx(-1.0)


def test_term_set_min_coef_guard():
    lib = build_library(2, 2)
    W = np.zeros((2, lib.size))
    W[0, 1] = 1.0
    W[0, 2] = 1e-6
    model = SindyModel(lib, W)
    sets = term_set(model, lib, min_coef=1e-3)
    assert sets[0][0] == ("x1",)


def test_term_set_noncanonical_sentinel():
    lib = build_library(2, 2)
    sets = term_set([parse("exp(exp(x1))", 2), parse("x1", 2)], lib)
    assert sets[0] == (NONCANONICAL, {})
    assert sets[1][0] == ("x1",)


def test_success_requires_exact_set_match():
    truth = [("x1", "x2"), ("x1",)]
    flags, joint = success([("x1", "x2"), ("x1",)], truth)
    assert flags == [True, True] and joint
    flags, joint = success([("x1", "x2", "x1*x2"), ("x1",)], truth)
    assert flags == [False, True] and not joint
    flags, joint = success([NONCANONICAL, ("x1",)], truth)
    assert flags == [False, True] and not joint


def test_rmse_params_worked_example():
    # Two successful runs of a one-term equation, estimates 1.1 and 0.9
    # around truth 1.0: sqrt((0.01 + 0.01) / 2) = 0.1.
    truth = [{"x1": 1.0}]
    recs = [record("m", [{"x1": 1.1}], [("x1",)]),
            record("m", [{"x1": 0.9}], [("x1",)])]
    got = rmse_params(recs, truth, mode="successful", scope="joint")
    assert got == pytest.approx(0.1, abs=1e-12)


def test_rmse_params_missing_terms_count_as_zero():
    truth = [{"x1": 1.0, "x2": 2.0}]
    recs = [record("m", [{"x1": 1.0}], [("x1", "x2")])]
    got = rmse_params(recs, truth, mode="all", scope="joint")
    assert got == pytest.approx(2.0, abs=1e-12)


def test_rmse_params_zero_successful_runs_is_none():
    truth = [{"x1": 1.0}]
    recs = [record("m", [{"x2": 1.0}], [("x1",)])]
    assert rmse_params(recs, truth, mode="successful", scope="joint") is None


def test_aggregate_records_counts_and_failures():
    truth_sets = [("x1",), ("x2",)]
    truth = [{"x1": 1.0}, {"x2": 1.0}]
    recs = [record("m", [{"x1": 1.0}, {"x2": 1.0}], truth_sets),
            record("m", [{"x1": 1.0}, {"x1": 1.0}], truth_sets),
            record("m", [{}, {}], truth_sets, error="RuntimeError: boom")]
    agg = aggregate_records(recs, truth)
    assert agg["m"]["n_runs"] == 3
    assert agg["m"]["n_failed"] == 1
    assert agg["m"]["success"]["eq1"] == pytest.approx(2 / 3)
    assert agg["m"]["success"]["eq2"] == pytest.approx(1 / 3)
    assert agg["m"]["success"]["all"] == pytest.approx(1 / 3)


def test_long_term_error_truth_model_is_exact():
    sys = get_system("oscillator")
    lib = sys.library()
    model = SindyModel(lib, sys.truth_matrix(lib))
    ics = np.array([[1.0, 0.0], [0.0, -1.5]])
    out = long_term_error({"truth": model}, sys, ics, horizon=5.0,
                          checkpoints=[1.0, 2.5, 5.0])["truth"]
    assert np.max(out["errors"]) <= 1e-10
    assert not out["diverged"].any()


def test_long_term_error_zero_field_closed_form():
    # A zero right-hand side stays at the initial condition while the truth
    # spirals; the expected error follows from the matrix exponential.
    sys = get_system("oscillator")
    lib = sys.library()
    model = SindyModel(lib, np.zeros((2, lib.size)))
    A = np.array([[-0.1, -1.0], [1.0, -0.1]])
    ics = np.array([[1.0, 0.0]])
    cps = [1.0, 3.0]
    out = long_term_error({"zero": model}, sys, ics, horizon=3.0,
                          checkpoints=cps)["zero"]
    for j, t in enumerate(cps):
        drift = ics[0] - scipy.linalg.expm(t * A) @ ics[0]
        want = np.mean(drift ** 2)
        assert out["errors"][j, 0] == pytest.approx(want, rel=1e-6)


def test_long_term_error_divergence_is_sticky():
    # dx = 5x crosses the 1e6 norm guard near t = 2.8 and must stay flagged
    # divergent at every later checkpoint.
    sys = get_system("growth")
    lib = sys.library()
    W = np.zeros((2, lib.size))
    W[0, lib.index_of(lib.terms[1])] = 5.0
    W[1, lib.index_of(lib.terms[2])] = 5.0
    model = SindyModel(lib, W)
    ics = np.array([[1.0, 1.0]])
    cps = [1.0, 2.0, 3.0, 4.0, 5.0]
    with np.errstate(over="ignore", invalid="ignore"):
        out = long_term_error({"5x": model}, sys, ics, horizon=5.0,
                              checkpoints=cps)["5x"]
    div = out["diverged"][:, 0]
    assert not div[0] and not div[1]
    assert div[2] and div[3] and div[4]
    # Divergent checkpoints are excluded from the error, not poisoned.
    assert np.isfinite(out["errors"]).all()


def test_long_term_error_owns_its_errstate():
    # Tree models divide by zero on purpose (protected division); LTP, not
    # the evaluator, silences the IEEE errors, so none escapes as a warning.
    sys = get_system("oscillator")
    tree = GpResult(exprs=[parse("x1/(x2 - x2)", 2), parse("-x1", 2)],
                    fitness=[], history=[])
    ics = np.array([[1.0, 0.0], [0.5, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = long_term_error({"tree": tree}, sys, ics, horizon=1.0,
                              checkpoints=[0.5, 1.0])["tree"]
    assert np.isfinite(out["errors"]).all()


def test_long_term_error_validates_checkpoints():
    sys = get_system("oscillator")
    lib = sys.library()
    model = SindyModel(lib, sys.truth_matrix(lib))
    ics = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        long_term_error({"truth": model}, sys, ics, horizon=1.0,
                        checkpoints=[2.0])
    with pytest.raises(ValueError):
        long_term_error({"truth": model}, sys, ics, horizon=1.0,
                        checkpoints=[0.8, 0.2])


def oscillator_models():
    """Two W-linear models, a GP expression model and test states."""
    sys = get_system("oscillator")
    lib = sys.library()
    W = sys.truth_matrix(lib)
    W2 = W.copy()
    W2[0, lib.labels().index("x1*x2")] = 0.05
    exprs = [parse("-0.12*x1 - x2", 2), parse("x1 - 0.1*x2 + 0.02*x1^2", 2)]
    models = {"a": SindyModel(lib, 0.97 * W), "b": SindyModel(lib, W2),
              "gp": GpResult(exprs=exprs, fitness=[0.0, 0.0], history=[])}
    ics = np.array([[1.0, 0.0], [0.0, -1.5], [0.3, 0.7]])
    return sys, models, ics


def test_long_term_error_stacked_field_writes_its_fresh_bits_into_out(
        monkeypatch):
    # The stacked field LTP hands rk4_final, called with out, writes every
    # block's own fresh result: the truth and the W-linear models (one
    # bound LinearField) and the GP model, whatever out held.
    sys, models, ics = oscillator_models()
    fields = []
    real = bench.rk4_final

    def capture(f, *args):
        fields.append(f)
        return real(f, *args)

    monkeypatch.setattr(bench, "rk4_final", capture)
    long_term_error(models, sys, ics, horizon=0.5, checkpoints=[0.5])
    Y = np.stack([ics + 0.1 * j for j in range(4)])
    want = np.stack([sys.oracle().h(Y[0])]
                    + [models[m].h(y) for m, y in zip(("a", "b", "gp"),
                                                     Y[1:])])
    for fill in (np.nan, 0.0):
        out = np.full_like(Y, fill)
        fields[0](Y, out)
        np.testing.assert_array_equal(out.view(np.uint64),
                                      want.view(np.uint64))


def test_long_term_error_stacked_equals_one_model_at_a_time():
    # The W-linear models and the GP model share one stacked integration
    # with the truth; each result equals its own call.
    sys, models, ics = oscillator_models()
    cps = [0.5, 1.0, 2.5, 4.0]
    both = long_term_error(models, sys, ics, horizon=4.0, checkpoints=cps)
    assert list(both) == ["a", "b", "gp"]
    for name, model in models.items():
        alone = long_term_error({name: model}, sys, ics, horizon=4.0,
                                checkpoints=cps)[name]
        assert both[name]["checkpoints"] == alone["checkpoints"] == cps
        np.testing.assert_array_equal(both[name]["errors"], alone["errors"])
        np.testing.assert_array_equal(both[name]["diverged"],
                                      alone["diverged"])
        assert both[name]["errors"][-1].min() > 0.0


def test_long_term_error_divergent_block_leaves_the_others_alone():
    # xi' = 5 + 5 xi^2 reaches infinity before t = 0.7 from any state, so
    # its block of the stacked batch turns inf and then nan.  The tree model
    # "tree-boom" (x1' = 1 + x1^2) does so before t = 1.6; its errors and
    # flags are those it gets when integrated alone.
    sys, models, ics = oscillator_models()
    lib = sys.library()
    W = np.zeros((2, lib.size))
    W[:, 0] = 5.0
    W[0, lib.labels().index("x1^2")] = W[1, lib.labels().index("x2^2")] = 5.0
    booms = {"boom": SindyModel(lib, W),
             "tree-boom": GpResult(exprs=[parse("1 + x1*x1", 2),
                                          parse("x2/x1", 2)],
                                   fitness=[0.0, 0.0], history=[])}
    cps = [0.05, 1.0, 2.0, 4.0]
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = long_term_error({**models, **booms}, sys, ics, horizon=4.0,
                                checkpoints=cps)
        alone = long_term_error({"tree-boom": booms["tree-boom"]}, sys, ics,
                                horizon=4.0, checkpoints=cps)["tree-boom"]
    calm = long_term_error(models, sys, ics, horizon=4.0, checkpoints=cps)
    for name in booms:
        assert not mixed[name]["diverged"][0].any()
        assert mixed[name]["diverged"][2:].all()
        assert np.isfinite(mixed[name]["errors"]).all()
    assert mixed["boom"]["diverged"][1].all()
    np.testing.assert_array_equal(mixed["tree-boom"]["errors"],
                                  alone["errors"])
    np.testing.assert_array_equal(mixed["tree-boom"]["diverged"],
                                  alone["diverged"])
    for name in models:
        np.testing.assert_array_equal(mixed[name]["errors"],
                                      calm[name]["errors"])
        assert not mixed[name]["diverged"].any()


def test_bench_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(system="oscillator", methods=("nope",))
    with pytest.raises(ValueError):
        BenchConfig(system="oscillator", runs=0)
    for bad in ({"horizon": -1.0}, {"horizon": 0.0}, {"n_checkpoints": 0},
                {"ltp_ics": 0}):
        with pytest.raises(ValueError):
            BenchConfig(system="oscillator", **bad)
    BenchConfig(system="oscillator", horizon=2.5, n_checkpoints=1, ltp_ics=1)


@pytest.mark.parametrize("data, message", [
    ((("noise", NoiseSpec("none", 0.0)),), "BenchConfig.noise"),
    ((("bogus", 1),), "'bogus'"),
])
def test_bench_config_takes_only_make_dataset_overrides(data, message):
    # Refused when built, not by make_dataset inside a worker.
    with pytest.raises(ValueError, match=message):
        BenchConfig(system="oscillator", data=data)
    BenchConfig(system="oscillator", data=(("n_samples", 30), ("dt", 0.2),
                                           ("counts", (2, 0, 1)),
                                           ("smooth_splits", ("train",))))


@pytest.mark.parametrize("method", ["equiv-c", "equiv-r", "equiv-gp-r"])
def test_bench_config_needs_a_generator_for_symmetric_methods(method,
                                                               monkeypatch):
    # The config is refused before any data is generated; explicit
    # generators make it valid, and an explicit empty tuple does not.
    built = []
    monkeypatch.setattr(bench, "make_dataset",
                        lambda *a, **k: built.append(a))
    with pytest.raises(ValueError, match=method):
        BenchConfig(system="glycolytic", methods=("sindy", method))
    with pytest.raises(ValueError, match=method):
        BenchConfig(system="oscillator", methods=(method,), generators=())
    assert built == []
    scaling = Generator.linear(np.eye(2))
    BenchConfig(system="glycolytic", methods=("sindy", method),
                generators=(scaling,))
    BenchConfig(system="glycolytic", methods=("sindy", "gp"))


def bench_small(jobs=1, runs=2):
    return BenchConfig(
        system="oscillator", methods=("sindy", "equiv-c"), runs=runs,
        seed=11, noise=NoiseSpec("none", 0.0), ltp_ics=2, n_checkpoints=4,
        data=(("n_samples", 40), ("counts", (3, 1, 2))), jobs=jobs)


def test_run_benchmark_clean_data_everything_succeeds():
    report = run_benchmark(bench_small())
    agg = report["aggregates"]
    for m in ("sindy", "equiv-c"):
        assert agg[m]["success"]["all"] == 1.0
        assert agg[m]["rmse_successful"]["all"] <= 1e-2
    assert report["config"]["system"] == "oscillator"
    assert "jobs" not in report["config"]
    assert set(report["truth"]["term_sets"][0]) == {"x1", "x2"}
    assert "ltp" in report and "sindy" in report["ltp"]


def test_a_failed_fit_is_recorded_with_empty_terms(monkeypatch):
    # A fit that raises gets the record of an empty model: no terms, no
    # coefficients, no success.  It gets no LTP curve, scores every truth
    # term as missing in rmse_all, and leaves the other method unchanged.
    want = run_benchmark(bench_small(runs=1))

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(bench, "equiv_c_fit", boom)
    got = run_benchmark(bench_small(runs=1))
    sindy, failed = got["records"]
    assert sindy == want["records"][0]
    assert failed == {**want["records"][1], "term_sets": [[], []],
                      "coefficients": [{}, {}],
                      "eq_success": [False, False], "joint_success": False,
                      "error": "RuntimeError: boom"}
    assert got["ltp"] == {"sindy": want["ltp"]["sindy"]}
    agg = got["aggregates"]["equiv-c"]
    assert agg["n_failed"] == 1 and agg["rmse_successful"]["all"] is None
    truth = [v for c in got["truth"]["coefficients"] for v in c.values()]
    assert agg["rmse_all"]["all"] == pytest.approx(
        np.sqrt(sum(v * v for v in truth)))


def test_run_benchmark_reports_are_reproducible_across_jobs(tmp_path):
    r1 = run_benchmark(bench_small(jobs=1))
    r2 = run_benchmark(bench_small(jobs=2))
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    emit_report(r1, str(d1))
    emit_report(r2, str(d2))
    for fname in ("report.json", "tables.csv", "ltp.csv"):
        assert (d1 / fname).read_bytes() == (d2 / fname).read_bytes(), fname


def bench_gp(jobs=1, runs=2):
    """A small gp / equiv-gp-r benchmark on the oscillator."""
    from symodes.discover import DiscoveryConfig, GpConfig

    cfg = DiscoveryConfig(threshold=get_system("oscillator").data.threshold,
                          gp=GpConfig(population=24, generations=4))
    return BenchConfig(
        system="oscillator", methods=("gp", "equiv-gp-r"), runs=runs,
        seed=5, discovery=cfg, ltp_ics=2, n_checkpoints=3,
        data=(("n_samples", 30), ("counts", (3, 1, 2))), jobs=jobs)


def test_run_benchmark_gp_reports_are_reproducible_across_jobs(tmp_path):
    # GP evolution and expression-tree LTP give the same bytes serially and
    # in worker processes.
    for jobs in (1, 2):
        emit_report(run_benchmark(bench_gp(jobs=jobs)),
                    str(tmp_path / str(jobs)))
    for fname in ("report.json", "tables.csv", "ltp.csv"):
        assert ((tmp_path / "1" / fname).read_bytes()
                == (tmp_path / "2" / fname).read_bytes()), fname


def test_emit_report_tables_and_na_cells(tmp_path):
    report = run_benchmark(bench_small())
    out = tmp_path / "r"
    emit_report(report, str(out))
    text = (out / "tables.csv").read_text()
    header = text.splitlines()[0]
    assert header == "method,metric,eq1,eq2,all"
    assert "timings" not in json.loads((out / "report.json").read_text())
    timings = json.loads((out / "timings.json").read_text())
    assert sorted(timings["per_run"]) == ["equiv-c", "sindy"]
    assert sorted(timings["stages"]) == ["dataset", "ltp"]
    for wall in timings["stages"].values():
        assert len(wall) == 2 and all(w > 0.0 for w in wall)
    back = load_report(str(out / "report.json"))
    assert back["aggregates"].keys() == report["aggregates"].keys()


def test_emit_report_provenance_lines_and_lf_endings(tmp_path):
    truth = [{"x1": 1.0}]
    recs = [record("m", [{"x1": 1.0}], [["x1"]])]
    report = {"truth": {"term_sets": [["x1"]], "coefficients": truth},
              "records": recs, "aggregates": aggregate_records(recs, truth),
              "ltp": {"m": {"checkpoints": [1.0], "mean": [0.5],
                            "std": [None], "divergent": [0], "n": [1]}}}
    emit_report(report, str(tmp_path / "plain"))
    report["provenance"] = {"tool_version": "9.9", "master_seed": 4,
                            "config_hash": "ab"}
    emit_report(report, str(tmp_path / "stamped"))
    for fname in ("tables.csv", "ltp.csv"):
        plain = (tmp_path / "plain" / fname).read_bytes()
        stamped = (tmp_path / "stamped" / fname).read_bytes()
        assert plain.startswith(b"method,") and b"\r" not in plain
        assert stamped == (b"# config_hash=ab\n# master_seed=4\n"
                           b"# tool_version=9.9\n" + plain)


def test_load_report_accepts_truth_terms_in_sorted_order(tmp_path):
    # report.json is written with sorted keys, so the truth terms come back
    # in another order than the library's; the audit must still match.
    truth = [{"x2": 0.1, "x1^2": 0.1, "x1*x2": 0.3}]    # library order
    order = list(truth[0])
    assert order != sorted(order)
    naive = [sum(truth[0][label] ** 2 for label in labels)
             for labels in (order, sorted(order))]
    assert naive[0] != naive[1]
    recs = [record("m", [{}], [sorted(order)])]
    report = {"truth": {"term_sets": [sorted(order)], "coefficients": truth},
              "records": recs, "aggregates": aggregate_records(recs, truth),
              "ltp": {}}
    emit_report(report, str(tmp_path))
    back = load_report(str(tmp_path / "report.json"))
    assert back["aggregates"] == report["aggregates"]


def perfbench_hooks():
    """(perfbench's tracer module, a fresh Tracer, run.hooks for a round)."""
    import os
    import sys

    import symodes.discover
    import symodes.dynamics
    import symodes.expressions
    import symodes.library
    from symodes import bench

    here = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    saved_env, saved_path = dict(os.environ), list(sys.path)
    try:
        sys.path.insert(0, here)
        import run
        import tracer
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
        sys.path[:] = saved_path
    mods = {"bench": bench, "dynamics": symodes.dynamics,
            "discover": symodes.discover, "library": symodes.library,
            "expressions": symodes.expressions}
    T = tracer.Tracer()
    captured = {"dataset_s": [], "datasets": [], "gp": {}}
    return tracer, T, run.hooks(mods, T, captured)


def test_benchmark_hooks_find_every_patched_name():
    # perfbench/run.py traces symodes by swapping module globals and class
    # attributes as their callers look them up; a rename must fail here, not
    # silently drop a layer from the benchmark.
    import symodes.dynamics
    from symodes import bench

    tracer, T, triples = perfbench_hooks()
    for owner, attr, _ in triples:
        assert attr in owner.__dict__, (owner, attr)
    # The fitters call the traced names: one basis span per equiv-c round.
    system = get_system("oscillator")
    lib = system.library()
    ds = symodes.dynamics.make_dataset(system, seed=0, n_samples=40,
                                       counts=(3, 0, 0),
                                       noise=NoiseSpec("none", 0.0))
    cfg = bench.DiscoveryConfig(threshold=0.05)
    with tracer.patched(triples):
        model = bench._fit_method("equiv-c", ds, lib, system.generators, cfg)
        bench._fit_method("sindy", ds, lib, system.generators, cfg)
    S = T.summary()
    assert S["constraint.basis"]["calls"] == \
        len(model.provenance["nullities"])
    assert S["discover.equiv-c"]["calls"] == 1
    assert S["discover.sindy"]["calls"] == 1


def test_benchmark_traces_the_shared_smoother():
    # The smoother's per-layer metrics come from the dynamics.smooth span.
    # One make_dataset is one smoother call, which takes one eigh per
    # lengthscale for all its series and factorizes nothing by Cholesky;
    # eigh is counted through dynamics' own scipy global, as perfbench
    # traces cho_factor.
    from symodes import bench, dynamics

    tracer, T, triples = perfbench_hooks()
    eighs = []

    def counted_eigh(*args, **kwargs):
        eighs.append(1)
        return scipy.linalg.eigh(*args, **kwargs)

    def overlay(v):
        return tracer.Overlay(v, linalg=tracer.Overlay(v.linalg,
                                                       eigh=counted_eigh))

    triples = [(o, a, overlay(v) if (o, a) == (dynamics, "scipy") else v)
               for o, a, v in triples]
    with tracer.patched(triples):
        bench.make_dataset("oscillator", 3, n_samples=40, counts=(4, 2, 1))
    S = T.summary()
    assert S["dynamics.smooth"]["calls"] == 1
    assert S["dynamics.cholesky"]["calls"] == 0
    assert len(eighs) == len(dynamics.SMOOTH_LENGTHSCALE_FACTORS)
    assert S["dynamics.differentiate"]["calls"] == 6


def test_benchmark_integrates_each_run_in_one_batch():
    # One run integrates every split in one rk4_record call and the truth
    # with every method, W-linear or expression tree, in one stacked LTP
    # integration: a fallback to one integration per split or per method
    # records more steps.
    from symodes.dynamics import INTERNAL_DT

    for bc, methods in ((bench_small(runs=1), ["equiv-c", "sindy"]),
                        (bench_gp(runs=1), ["equiv-gp-r", "gp"])):
        tracer, T, triples = perfbench_hooks()
        with tracer.patched(triples):
            report = run_benchmark(bc)
        assert sorted(report["ltp"]) == methods
        assert not any(r["error"] for r in report["records"])
        data = dict(bc.data)
        dt = get_system(bc.system).data.dt
        stride = round(dt / INTERNAL_DT)
        horizon = data["n_samples"] * dt
        S, C = T.summary(), T.counts()
        assert S["integrate.rk4_record"]["calls"] == 1
        assert C["integrate.rk4_steps"] == ((data["n_samples"] - 1) * stride
                                            + round(horizon / INTERNAL_DT))


def test_na_formatting_for_zero_successful_runs():
    from symodes.bench import _fmt_cell

    assert _fmt_cell(None) == "NA"
    assert _fmt_cell(0.25) == "0.25"
