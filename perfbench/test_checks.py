"""The benchmark's checks reject perturbed inputs; its tracer adds up.

    python3 -m pytest -q perfbench/test_checks.py

Run from the root of a source checkout (symodes is imported from ./src).
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from tracer import Tracer, patched  # noqa: E402


def oscillator_trajectory(x0, n=100, dt=0.2):
    t = dt * np.arange(n)
    c, s = np.cos(t), np.sin(t)
    clean = np.exp(-0.1 * t)[:, None] * np.stack(
        [c * x0[0] - s * x0[1], s * x0[0] + c * x0[1]], axis=1)
    return SimpleNamespace(times=t, clean_states=clean)


# -- data checks ------------------------------------------------------------------


def test_oscillator_clean_states_reject_perturbation():
    trajs = [oscillator_trajectory(x0) for x0 in ([1.0, 0.5], [-1.5, 0.2])]
    assert checks.check_clean_states("oscillator", trajs) == []
    trajs[1].clean_states[57, 0] += 1e-7
    assert checks.check_clean_states("oscillator", trajs)


def test_oscillator_clean_states_accept_symodes_output():
    from symodes.dynamics import make_dataset
    ds = make_dataset("oscillator", seed=5, counts=(2, 1, 1),
                      smooth_splits=())
    assert checks.check_clean_states(
        "oscillator", ds.train + ds.val + ds.test) == []


def test_glycolytic_clean_states_reject_perturbation():
    from symodes.dynamics import make_dataset
    ds = make_dataset("glycolytic", seed=1, n_samples=400, counts=(2, 0, 1),
                      smooth_splits=())
    trajs = ds.train + ds.test
    assert checks.check_clean_states("glycolytic", trajs) == []
    trajs[0].clean_states[300, 1] += 1e-6
    assert checks.check_clean_states("glycolytic", trajs)


def test_smoother_check_rejects_a_series_worse_than_raw():
    rng = np.random.default_rng(0)
    tr = oscillator_trajectory([1.0, 0.0])
    clean = tr.clean_states
    tr.states = clean + 0.1 * rng.standard_normal(clean.shape)
    tr.smoothed = clean + 0.01 * rng.standard_normal(clean.shape)
    assert checks.check_smoother_denoises([tr]) == []
    tr.smoothed[:, 1] = tr.states[:, 1] + 0.05
    assert len(checks.check_smoother_denoises([tr])) == 1


def test_derivative_error_is_zero_for_true_derivatives_only():
    tr = oscillator_trajectory([0.3, 1.2])
    tr.derivs = checks.oscillator_field(tr.clean_states)
    assert checks.derivative_error([tr], checks.oscillator_field) == 0.0
    tr.derivs = tr.derivs * 1.1
    assert checks.derivative_error([tr], checks.oscillator_field) > 0.05


# -- model checks -----------------------------------------------------------------


def test_equivariance_check_rejects_a_symmetry_breaking_term():
    rng = np.random.default_rng(1)
    truth = [dict(eq) for eq in checks.OSCILLATOR_TRUTH]
    assert checks.check_rotation_equivariant(truth, rng) == []
    # x1^2 + x2^2 times the identity is rotation-equivariant too
    radial = [{"x1": 1.0, "x1^3": 1.0, "x1*x2^2": 1.0},
              {"x2": 1.0, "x1^2*x2": 1.0, "x2^3": 1.0}]
    assert checks.check_rotation_equivariant(radial, rng) == []
    for label in ("x1^2", "1", "x1*x2"):
        broken = [dict(eq) for eq in truth]
        broken[0][label] = 0.3
        assert checks.check_rotation_equivariant(broken, rng), label
    tilted = [dict(eq) for eq in truth]
    tilted[1]["x2"] = -0.2
    assert checks.check_rotation_equivariant(tilted, rng)


def test_monomial_labels_match_the_library():
    from symodes.library import build_library
    lib = build_library(2, 3)
    X = np.random.default_rng(2).normal(size=(7, 2))
    Theta = lib.evaluate(X)
    for mu, key in enumerate(lib.terms):
        np.testing.assert_allclose(checks.monomial(key.label(), X),
                                   Theta[:, mu], rtol=1e-14)


def test_paired_recovery_rejects_sindy_only_runs():
    def recs(sindy, equiv):
        return [{"method": "sindy", "joint_success": sindy},
                {"method": "equiv-c", "joint_success": equiv}]
    assert checks.check_paired_recovery(recs(True, True)) == []
    assert checks.check_paired_recovery(recs(False, True)) == []
    assert checks.check_paired_recovery(recs(False, False)) == []
    assert checks.check_paired_recovery(recs(True, False))


def test_coefficient_tolerance_rejects_a_far_recovered_coefficient():
    truth = checks.OSCILLATOR_TRUTH
    near = [{k: v + 0.05 for k, v in eq.items()} for eq in truth]
    rec = {"eq_success": [True, True], "coefficients": near}
    assert checks.check_coefficients_near_truth(rec, truth) == []
    far = [dict(eq) for eq in near]
    far[1]["x1"] = 1.5
    rec = {"eq_success": [True, True], "coefficients": far}
    assert len(checks.check_coefficients_near_truth(rec, truth)) == 1
    # an equation whose term set was missed is not scored here
    rec = {"eq_success": [True, False], "coefficients": far}
    assert checks.check_coefficients_near_truth(rec, truth) == []


def test_better_than_constant_rejects_a_constant_and_a_wrong_tree():
    from symodes.expressions import parse
    X = np.random.default_rng(3).uniform(-2, 2, size=(300, 2))
    dX = checks.oscillator_field(X)
    good = [parse("-0.1*x1 - x2", 2), parse("x1 - 0.1*x2", 2)]
    assert checks.check_better_than_constant(good, X, dX) == []
    const = [good[0], parse(str(float(dX[:, 1].mean())), 2)]
    assert len(checks.check_better_than_constant(const, X, dX)) == 1
    wrong = [parse("x2", 2), good[1]]
    assert len(checks.check_better_than_constant(wrong, X, dX)) == 1


def test_tree_evaluator_matches_symodes_protected_division():
    from symodes.discover import gp_evaluate
    from symodes.expressions import parse
    X = np.array([[0.0, 1.0], [2.0, 0.0], [-1.5, 0.5]])
    for text in ("x1/x2 + exp(x2)*x1^2", "(x1 - x1)/x1", "-(x2/(x1*0))"):
        e = parse(text, 2)
        np.testing.assert_array_equal(checks.evaluate_tree(e, X),
                                      gp_evaluate(e, X))


# -- tracer --------------------------------------------------------------------------


def test_self_times_add_up_to_the_root_and_patches_are_undone():
    import time as _time
    ns = SimpleNamespace()

    def leaf(x):
        t0 = _time.process_time()
        while _time.process_time() - t0 < 0.002:
            pass
        return x

    def inner(x):
        return ns.leaf(x) + ns.leaf(x)

    def fails():
        raise ValueError("no")

    ns.leaf, ns.inner, ns.fails = leaf, inner, fails
    T = Tracer()
    root = T.span(lambda: [ns.inner(1) for _ in range(3)], "root")
    with patched([(ns, "leaf", T.span(leaf, "leaf")),
                  (ns, "inner", T.span(inner, "inner")),
                  (ns, "fails", T.span(fails, "fails"))]):
        root()
        with pytest.raises(ValueError):
            ns.fails()
    assert ns.leaf is leaf and ns.inner is inner and ns.fails is fails
    S = T.summary()
    assert (S["leaf"]["calls"], S["inner"]["calls"]) == (6, 3)
    assert S["fails"]["errors"] == 1
    assert S["leaf"]["self_s"] >= 6 * 0.002
    parts = sum(S[n]["self_s"] for n in ("root", "inner", "leaf"))
    assert parts == pytest.approx(S["root"]["total_s"], rel=1e-9)


def test_call_counter_counts_recursive_calls():
    from symodes.expressions import Expr, parse
    e = parse("x1*x2 + exp(x1)", 2)
    T = Tracer()
    orig = Expr.__dict__["node_count"]
    with patched([(Expr, "node_count",
                   T.count_calls(orig, "node_count"))]):
        assert e.node_count() == 6
    assert Expr.__dict__["node_count"] is orig
    assert T.counts()["node_count"] == 6


# -- harness -------------------------------------------------------------------------


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "osc-sparse",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_file_matches_the_harness():
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.LAYER_UNITS
    assert set(run.SELF_TIME_PARTS) <= set(run.LAYER_UNITS)
