"""Sparse regression, constrained and regularized fits, and the GP engine."""

import tracemalloc

import numpy as np
import pytest

from symodes import discover
from symodes.constraint import assemble_equivariant_basis, constraint_residual
from symodes.discover import (DiscoveryConfig, GpConfig, SindyModel,
                              equation_strings, equiv_c_fit, equiv_r_fit,
                              gp_candidate_fitness, gp_evaluate,
                              gp_fitness_points, gp_penalty_data, gp_fit,
                              design, refit_constants, stlsq)
from symodes.dynamics import get_system, split_rng
from symodes.expressions import Expr, parse, to_string
from symodes.library import build_library
from symodes.symmetry import Generator

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def clean_arrays(name, n=400, seed=0, lo=0.3, hi=1.5):
    """Exact states and derivatives sampled from the governing equations."""
    sys = get_system(name)
    rng = np.random.default_rng(seed)
    X = rng.uniform(lo, hi, size=(n, sys.dim))
    oracle = sys.oracle()
    return sys, oracle.lib, X, oracle.h(X)


def support(W, tol=1e-12):
    return {(i, mu) for i in range(W.shape[0]) for mu in range(W.shape[1])
            if abs(W[i, mu]) > tol}


# -- STLSQ ---------------------------------------------------------------------


def test_stlsq_recovers_truth_from_exact_derivatives():
    sys, lib, X, dX = clean_arrays("oscillator")
    W = stlsq(lib.evaluate(X), dX, threshold=0.05)
    np.testing.assert_allclose(W, sys.truth_matrix(lib), atol=1e-10)


def test_stlsq_recovers_growth_with_quadratic_term():
    sys, lib, X, dX = clean_arrays("growth")
    W = stlsq(lib.evaluate(X), dX, threshold=0.05)
    np.testing.assert_allclose(W, sys.truth_matrix(lib), atol=1e-10)


def test_stlsq_prunes_small_coefficients():
    # A dense least-squares solution with tiny spurious entries must come
    # back with exactly the true support.
    sys, lib, X, dX = clean_arrays("oscillator")
    rng = np.random.default_rng(1)
    dX_noisy = dX + 1e-4 * rng.normal(size=dX.shape)
    W = stlsq(lib.evaluate(X), dX_noisy, threshold=0.05)
    assert support(W) == support(sys.truth_matrix(lib))


def test_stlsq_zero_threshold_is_plain_least_squares():
    sys, lib, X, dX = clean_arrays("oscillator")
    Theta = lib.evaluate(X)
    W = stlsq(Theta, dX, threshold=0.0)
    lsq = np.linalg.lstsq(Theta, dX, rcond=None)[0].T
    np.testing.assert_allclose(W, lsq, atol=1e-12)


def test_stlsq_from_smoothed_finite_difference_data():
    # End-to-end through the published pipeline on noiseless data: the
    # coefficients are limited only by finite-difference truncation.
    from symodes.dynamics import NoiseSpec, make_dataset

    ds = make_dataset("oscillator", seed=5, counts=(10, 0, 0),
                      noise=NoiseSpec("none", 0.0))
    sys = get_system("oscillator")
    lib = sys.library()
    X, dX = ds.regression_arrays("train")
    W = stlsq(lib.evaluate(X), dX, threshold=0.05)
    np.testing.assert_allclose(W, sys.truth_matrix(lib), atol=1e-2)


def test_fits_on_unsmoothed_dataset_use_raw_state_derivatives():
    # A split left out of smooth_splits has no stored derivatives; the fits
    # fall back to finite differences of the raw states.
    from symodes.dynamics import estimate_derivatives, make_dataset

    ds = make_dataset("oscillator", seed=0, counts=(50, 0, 0),
                      smooth_splits=())
    sys = get_system("oscillator")
    lib = sys.library()
    X, dX = ds.regression_arrays("train")
    first = ds.train[0]
    np.testing.assert_array_equal(X[:first.n_samples], first.states)
    np.testing.assert_array_equal(dX[:first.n_samples],
                                  estimate_derivatives(first.states, first.dt))
    cfg = DiscoveryConfig(threshold=ds.threshold)
    truth = support(sys.truth_matrix(lib))
    assert support(stlsq(lib.evaluate(X), dX, ds.threshold)) == truth
    assert support(equiv_c_fit(ds, lib, sys.generators, cfg).W) == truth


# -- the reduced least-squares problem -------------------------------------------


def stlsq_per_dimension(Theta, dX, threshold):
    """Reference STLSQ: per-dimension lstsq on Theta[:, support] each round."""
    d, p = dX.shape[1], Theta.shape[1]
    active = np.ones((d, p), dtype=bool)
    for _ in range(1 + discover.THRESHOLD_ROUNDS):
        W = np.zeros((d, p))
        for i in range(d):
            idx = np.flatnonzero(active[i])
            if idx.size:
                W[i, idx] = np.linalg.lstsq(Theta[:, idx], dX[:, i],
                                            rcond=None)[0]
        small = active & (np.abs(W) < threshold)
        if not small.any():
            break
        active &= ~small
    return W


@pytest.mark.parametrize("N, p, d, twin", [
    (2000, 6, 2, False),        # N >> p
    (5, 6, 2, False),           # N < p + d: the factor is zero-padded
    (300, 10, 4, True),         # a repeated Theta column
])
def test_reduction_preserves_the_squared_residual(N, p, d, twin):
    rng = np.random.default_rng(N + p)
    Theta = rng.normal(size=(N, p))
    if twin:
        Theta[:, 3] = Theta[:, 1]
    dX = rng.normal(size=(N, d))
    R, B, rss, n = discover._reduce(Theta, dX)
    assert R.shape == (p, p) and B.shape == (p, d) and n == N
    for _ in range(5):
        W = rng.normal(size=(d, p))
        full = float(((dX - Theta @ W.T) ** 2).sum())
        reduced = float(((B - R @ W.T) ** 2).sum()) + rss
        assert abs(reduced - full) <= 1e-12 * full


def registry_training_data(name):
    from symodes.dynamics import make_dataset

    sys = get_system(name)
    counts = (2 if name == "lotka_volterra" else sys.data.n_train, 0, 0)
    X, dX = make_dataset(name, seed=0, counts=counts).regression_arrays()
    return sys.library(), X, dX


@pytest.mark.parametrize("case", [
    "oscillator", "growth", "lotka_volterra", "glycolytic", "seir",
    "underdetermined", "wide"])
def test_reduce_matches_the_numpy_qr_reference_bit_for_bit(case):
    # The dgeqrf of the design buffer is the factorization np.linalg.qr
    # (mode="r") runs on its own copy: R, B and rss keep their bits, whether
    # _reduce copies Theta and dX or factors design()'s buffer in place.
    # "underdetermined" has N < p + d rows; "wide" has 35 + 4 columns, more
    # than dgeqrf's block of 32.  Up to 128 columns LAPACK factors without
    # blocking; wider designs may differ from numpy's in the last bit, since
    # numpy and scipy bring their own OpenBLAS builds.
    rng = np.random.default_rng(9)
    if case == "underdetermined":
        lib, X = build_library(2, 2), rng.normal(size=(5, 2))
        dX = rng.normal(size=(5, 2))
    elif case == "wide":
        lib, X = build_library(4, 3), rng.uniform(-1.0, 1.0, size=(3000, 4))
        dX = rng.normal(size=(3000, 4))
    else:
        lib, X, dX = registry_training_data(case)
    Theta = lib.evaluate(X)
    N, p = Theta.shape
    T = np.linalg.qr(np.hstack([Theta, dX]), mode="r")
    T = np.vstack([T, np.zeros((T.shape[1] - T.shape[0], T.shape[1]))])
    want = (T[:p, :p].tobytes(), T[:p, p:].tobytes(),
            float((T[p:, p:] ** 2).sum()), N)
    in_place = design((X, dX), lib)[:2]
    assert in_place[0].tobytes() == Theta.tobytes()
    for Th, dXh in ((Theta, dX), in_place):
        R, B, rss, n = discover._reduce(Th, dXh)
        assert (R.tobytes(), B.tobytes(), rss, n) == want
    assert in_place[0].tobytes() != Theta.tobytes()    # factored in place


def test_reduce_past_the_blocking_crossover_matches_numpy_closely():
    # build_library(6, 4) plus 6 derivative columns is 216 columns, past
    # LAPACK's 128-column crossover: dgeqrf's blocked path need not keep
    # numpy's last bits, but R and B stay within 1e-14 of max |R| and the
    # squared residual within 1e-14 of its square, on both paths.
    rng = np.random.default_rng(9)
    lib = build_library(6, 4)
    X = rng.uniform(-1.0, 1.0, size=(400, 6))
    dX = rng.normal(size=(400, 6))
    Theta = lib.evaluate(X)
    p = lib.size
    T = np.linalg.qr(np.hstack([Theta, dX]), mode="r")
    scale = np.abs(T[:p, :p]).max()
    for Th, dXh in ((Theta, dX), design((X, dX), lib)[:2]):
        R, B, rss, n = discover._reduce(Th, dXh)
        assert n == 400 and R.shape == (p, p) and B.shape == (p, 6)
        np.testing.assert_allclose(R, T[:p, :p], rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(B, T[:p, p:], rtol=0, atol=1e-14 * scale)
        assert abs(rss - float((T[p:, p:] ** 2).sum())) <= 1e-14 * scale ** 2


@pytest.mark.parametrize("fit", ["sindy", "equiv-c"])
def test_fit_holds_one_design_buffer(fit):
    # tracemalloc sees numpy's buffers.  Theta is built inside the
    # (N, p + d) buffer that dgeqrf factors in place, so fitting 200,000
    # rows of the degree-3 library on the dataset path peaks at 1.1 times
    # that buffer beyond the caller's X and dX.
    sys = get_system("oscillator")
    lib = build_library(2, 3)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(200_000, 2))
    dX = rng.normal(size=X.shape)
    tracemalloc.start()
    try:
        if fit == "sindy":
            W = stlsq(*design((X, dX), lib)[:2], threshold=0.05)
        else:
            W = equiv_c_fit((X, dX), lib, sys.generators).W
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.shape == (2, lib.size)
    assert peak <= 1.1 * 8 * len(X) * (lib.size + 2)


@pytest.mark.parametrize("name, seed", [
    ("oscillator", 0), ("growth", 1), ("seir", 3), ("glycolytic", 0)])
def test_stlsq_matches_per_dimension_reference(name, seed):
    # The shared reduced refit must give the per-dimension algorithm's
    # supports and coefficients on the registry datasets.
    from symodes.dynamics import make_dataset

    sys = get_system(name)
    ds = make_dataset(name, seed=seed, counts=(sys.data.n_train, 0, 0))
    X, dX = ds.regression_arrays("train")
    Theta = sys.library().evaluate(X)
    W = stlsq(Theta, dX, ds.threshold)
    W_ref = stlsq_per_dimension(Theta, dX, ds.threshold)
    assert support(W, tol=0.0) == support(W_ref, tol=0.0)
    np.testing.assert_allclose(W, W_ref, rtol=1e-10, atol=0.0)


def test_fewer_samples_than_terms_warns_underdetermined():
    # Both fitters share the warning; 4 samples for 6 terms also leave
    # stlsq's support rank-deficient.
    sys, lib, X, dX = clean_arrays("oscillator", n=4)
    for fit in (lambda: stlsq(lib.evaluate(X), dX, threshold=0.0),
                lambda: equiv_c_fit((X, dX), lib, sys.generators)):
        with pytest.warns(UserWarning) as record:
            fit()
        assert any("underdetermined" in str(w.message) for w in record)


def test_repeated_column_warns_and_splits_minimum_norm():
    x = np.linspace(-1.0, 1.0, 50)
    Theta = np.stack([np.ones_like(x), x, x], axis=1)
    dX = np.stack([2.0 * x, 1.0 - x], axis=1)
    with pytest.warns(UserWarning, match="rank-deficient"):
        W = stlsq(Theta, dX, threshold=0.0)
    np.testing.assert_allclose(W, [[0.0, 1.0, 1.0], [1.0, -0.5, -0.5]],
                               atol=1e-12)


def test_each_fit_reduces_once(monkeypatch):
    from symodes.dynamics import make_dataset

    calls = []
    reduce = discover._reduce

    def counted(Theta, dX):
        calls.append(Theta.shape)
        return reduce(Theta, dX)

    monkeypatch.setattr(discover, "_reduce", counted)
    sys = get_system("oscillator")
    lib = sys.library()
    ds = make_dataset("oscillator", seed=0, counts=(6, 2, 0))
    X, dX = ds.regression_arrays("train")
    stlsq(lib.evaluate(X), dX, ds.threshold)
    assert len(calls) == 1
    equiv_c_fit(ds, lib, sys.generators, DiscoveryConfig(ds.threshold))
    assert len(calls) == 2
    equiv_r_fit(ds, lib, sys.generators, DiscoveryConfig(ds.threshold))
    assert len(calls) == 3


# -- constrained fit -------------------------------------------------------------


def test_equiv_c_fit_recovers_truth_and_stays_equivariant():
    sys, lib, X, dX = clean_arrays("oscillator", lo=-1.5, hi=1.5)
    gens = sys.generators
    model = equiv_c_fit((X, dX), lib, gens)
    np.testing.assert_allclose(model.W, sys.truth_matrix(lib), atol=1e-10)
    basis = assemble_equivariant_basis(lib, gens)
    assert constraint_residual(basis, model.W) <= 1e-9
    assert model.provenance["nullities"][0] == 2


def test_equiv_c_fit_growth():
    sys, lib, X, dX = clean_arrays("growth")
    model = equiv_c_fit((X, dX), lib, sys.generators)
    np.testing.assert_allclose(model.W, sys.truth_matrix(lib), atol=1e-10)


def test_equiv_c_pinned_coefficients_are_exactly_zero():
    # Pinning deletes columns from the constraint, so no pinned entry comes
    # back as round-off residue that looks like a discovered term.
    from symodes.dynamics import make_dataset

    sys = get_system("seir")
    lib = sys.library()
    ds = make_dataset(sys, seed=3, counts=(10, 0, 0))
    cfg = DiscoveryConfig(threshold=sys.data.threshold)
    model = equiv_c_fit(ds, lib, sys.generators, cfg)
    W = model.W
    assert np.all(np.abs(W[W != 0.0]) >= cfg.threshold)
    for i, mu in model.provenance["pins"]:
        assert W[i, mu] == 0.0
    assert constraint_residual(assemble_equivariant_basis(lib, sys.generators),
                               W) <= 1e-9


def test_equiv_c_model_interface():
    sys, lib, X, dX = clean_arrays("oscillator")
    model = equiv_c_fit((X, dX), lib, sys.generators)
    eqs = model.equations()
    assert len(eqs) == 2 and eqs[0].startswith("x1' =")
    coeffs = model.coefficients()
    assert len(coeffs) == 2
    np.testing.assert_allclose(model.h(X), dX, atol=1e-9)


# -- regularized fit --------------------------------------------------------------


def test_equiv_r_lambda_zero_matches_stlsq():
    # With the symmetry weight off, masked L-BFGS thresholding must land on
    # the same support and the same coefficients as plain STLSQ.
    sys, lib, X, dX = clean_arrays("oscillator")
    cfg = DiscoveryConfig(threshold=0.05, lambda_symm=0.0)
    model = equiv_r_fit((X, dX), lib, sys.generators, cfg)
    W_ref = stlsq(lib.evaluate(X), dX, threshold=0.05)
    assert support(model.W) == support(W_ref)
    np.testing.assert_allclose(model.W, W_ref, atol=1e-6)


def test_equiv_r_with_symmetry_weight_still_recovers_clean_truth():
    sys, lib, X, dX = clean_arrays("oscillator", lo=-1.5, hi=1.5)
    cfg = DiscoveryConfig(threshold=0.05, lambda_symm=0.1, loss_kind="igie")
    model = equiv_r_fit((X, dX), lib, sys.generators, cfg)
    np.testing.assert_allclose(model.W, sys.truth_matrix(lib), atol=1e-4)
    assert model.provenance["lambda"] == 0.1


def test_a_one_dimensional_pair_is_one_column():
    # X and dX of shape (N,) are N rows of one column, as (N, 1) is; rows
    # that do not pair up are refused.
    lib = build_library(1, 2)
    x = np.random.default_rng(4).uniform(0.5, 1.5, size=50)
    dx = -0.3 * x + 0.2 * x ** 2
    cols = (x[:, None], dx[:, None])
    for pair in ((x, dx), (x[:, None], dx), (x, dx[:, None])):
        Theta, dX, Xs = design(pair, lib)
        assert Theta.shape == (50, lib.size) and dX.shape == (50, 1)
        assert Theta.tobytes() == design(cols, lib)[0].tobytes()
        assert dX.tobytes() == dx.tobytes()
        assert [X.shape for X in Xs] == [(50, 1)]
        assert np.array_equal(stlsq(Theta, dX, 0.05),
                              stlsq(*design(cols, lib)[:2], 0.05))
    cfg = DiscoveryConfig(seed=3, gp=GpConfig(population=16, generations=3))
    want = gp_fit(cols, cfg)
    got = gp_fit((x, dx), cfg)
    assert [to_string(e) for e in got.exprs] == [
        to_string(e) for e in want.exprs]
    assert got.fitness == want.fitness
    for bad in ((x, dx[:-1]), (x[:, None], np.zeros((49, 1)))):
        with pytest.raises(ValueError, match="rows"):
            design(bad, lib)
        with pytest.raises(ValueError, match="rows"):
            gp_fit(bad, cfg)


def test_design_fills_one_trajectory_at_a_time():
    # Theta and dX are those of the stacked training rows, bit for bit, and
    # _rows gathers any rows of the stacked states from the trajectories.
    from symodes.dynamics import make_dataset

    sys = get_system("oscillator")
    lib = sys.library()
    ds = make_dataset(sys, seed=2, counts=(5, 1, 0))
    X, dX = ds.regression_arrays("train")
    Theta, dXd, Xs = design(ds, lib)
    assert Theta.base is dXd.base and Theta.base.flags.f_contiguous
    assert np.array_equal(Theta, lib.evaluate(X))
    assert np.array_equal(dXd, dX)
    assert all(a is tr.regression_states() for a, tr in zip(Xs, ds.train))
    idx = np.random.default_rng(0).choice(len(X), size=120, replace=False)
    assert discover._rows(Xs, idx).tobytes() == X[idx].tobytes()
    assert discover._rows(Xs, idx[:0]).shape == (0, 2)


def test_equiv_r_dataset_and_its_training_pair_give_the_same_bits():
    # A Dataset with a validation split fits at the same lambda as its
    # training rows alone.  Here validation derivative error would pick
    # lambda 1.0 from (0.01, 0.1, 1.0), so a rule that scores lambda on the
    # val split, with a fallback for bare rows, shows up as different bits.
    from symodes.dynamics import make_dataset

    sys = get_system("oscillator")
    lib = sys.library()
    ds = make_dataset(sys, seed=0, counts=(6, 2, 0))
    cfg = DiscoveryConfig(ds.threshold)
    a = equiv_r_fit(ds, lib, sys.generators, cfg)
    b = equiv_r_fit(ds.regression_arrays("train"), lib, sys.generators, cfg)
    assert a.W.tobytes() == b.W.tobytes()
    assert a.provenance == b.provenance
    assert a.provenance["lambda"] == discover.EQUIV_R_LAMBDA


@pytest.mark.parametrize("with_penalty", [False, True])
def test_gp_dataset_and_its_training_pair_give_the_same_bits(with_penalty):
    # 600 training rows: gp_fit gathers its GP_MAX_FIT_SAMPLES rows from the
    # trajectories with the draws it takes on the stacked pair.
    from symodes.dynamics import make_dataset

    sys = get_system("oscillator")
    ds = make_dataset(sys, seed=0, counts=(6, 2, 0))
    X, dX = ds.regression_arrays("train")
    assert len(X) > discover.GP_MAX_FIT_SAMPLES
    cfg = DiscoveryConfig(seed=4, gp=GpConfig(population=32, generations=6))
    symmetry = sys.generators if with_penalty else ()
    a = gp_fit(ds, cfg, symmetry=symmetry)
    b = gp_fit((X, dX), cfg, symmetry=symmetry)
    assert [to_string(e) for e in a.exprs] == [to_string(e) for e in b.exprs]
    assert a.fitness == b.fitness and a.history == b.history
    assert a.provenance == b.provenance


@pytest.mark.parametrize("method", ["sindy", "equiv-c", "equiv-r", "gp"])
def test_an_empty_training_split_is_named_by_every_fitter(method):
    from symodes.bench import _fit_method
    from symodes.dynamics import make_dataset

    sys = get_system("oscillator")
    ds = make_dataset(sys, seed=0, n_samples=20, counts=(0, 1, 1))
    with pytest.raises(ValueError, match="training split is empty"):
        _fit_method(method, ds, sys.library(), sys.generators,
                    DiscoveryConfig(ds.threshold))


def test_equiv_r_misses_no_growth_seed_that_equiv_c_recovers():
    # Paired on the same datasets, as criterion 05 counts pairs.
    from symodes.bench import success, term_set
    from symodes.dynamics import make_dataset

    sys = get_system("growth")
    lib = sys.library()
    truth = [sorted(t.label() for t in s) for s in sys.truth_term_sets()]
    cfg = DiscoveryConfig(sys.data.threshold)
    only_c = []
    for seed in range(10):
        ds = make_dataset(sys, seed)
        joint = {}
        for name, fit in (("equiv-c", equiv_c_fit), ("equiv-r", equiv_r_fit)):
            sets = term_set(fit(ds, lib, sys.generators, cfg), lib,
                            min_coef=cfg.threshold)
            joint[name] = success([labels for labels, _ in sets], truth)[1]
        if joint["equiv-c"] and not joint["equiv-r"]:
            only_c.append(seed)
    assert only_c == []


# -- GP engine -----------------------------------------------------------------


def test_gp_protected_division():
    # Any division by zero evaluates to 1, including 0/0, so candidate
    # fitness stays finite on grids that cross the axes.
    e = parse("x1/x2", 2)
    X = np.array([[2.0, 4.0], [3.0, 0.0], [0.0, 0.0]])
    e2 = Expr.div(Expr.const(1.0), Expr.var(1))
    with np.errstate(divide="ignore", invalid="ignore"):
        got = gp_evaluate(e, X)
        got2 = gp_evaluate(e2, np.array([[5.0, 0.0]]))
    np.testing.assert_allclose(got, [0.5, 1.0, 1.0])
    assert got2[0] == 1.0


def test_gp_evaluate_matches_parser_semantics():
    e = parse("-0.3*x1 + 0.1*x2^2", 2)
    X = np.random.default_rng(2).normal(size=(20, 2))
    np.testing.assert_allclose(gp_evaluate(e, X),
                               -0.3 * X[:, 0] + 0.1 * X[:, 1] ** 2,
                               atol=1e-14)


def test_refit_constants_snaps_to_exact_coefficients():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.5, 1.5, size=(200, 2))
    y = -0.3 * X[:, 0] + 0.1 * X[:, 1] ** 2
    rough = parse("-0.25*x1 + 0.2*x2*x2", 2)
    out = refit_constants(rough, X, y)
    np.testing.assert_allclose(gp_evaluate(out, X), y, atol=1e-10)


def test_gp_penalty_zero_for_equivariant_candidate():
    # dx = Lx data with the rotation generator: the identity field commutes,
    # a quadratic field does not, and a more broken field scores worse.
    rng = np.random.default_rng(4)
    X = rng.uniform(0.5, 1.5, size=(64, 2))
    dX = X @ ROTATION.T
    gens = [Generator.linear(ROTATION)]
    pairs = gp_penalty_data(gens, X, dX, eps=0.1)
    pairs0 = [(gX, T[:, 0]) for gX, T in pairs]
    points, targets = gp_fitness_points(X, pairs0, 1.0)
    cfg = GpConfig(parsimony=0.0)

    def pen(text):
        e = parse(text, 2)
        return gp_candidate_fitness(e, points, dX[:, 0], 1.0, cfg, targets,
                                    1.0)[2]

    assert pen("x2") <= 1e-25
    assert pen("x2 + 0.1*x1^2") > 1e-4
    assert pen("x2 + 0.5*x1^2") > pen("x2 + 0.1*x1^2")


def test_gp_fit_recovers_linear_growth():
    # One-dimensional dx = x from exact data; one seed here, the multi-seed
    # sweep lives in the acceptance suite.
    rng = np.random.default_rng(7)
    X = rng.uniform(0.5, 2.0, size=(200, 1))
    cfg = DiscoveryConfig(seed=7, gp=GpConfig(population=128, generations=30))
    res = gp_fit((X, X.copy()), cfg)
    err = np.max(np.abs(gp_evaluate(res.exprs[0], X) - X[:, 0]))
    assert err <= 1e-6
    assert res.provenance["method"] == "gp"


def test_gp_fit_is_deterministic():
    rng = np.random.default_rng(8)
    X = rng.uniform(0.5, 2.0, size=(100, 1))
    cfg = DiscoveryConfig(seed=3, gp=GpConfig(population=64, generations=8))
    a = gp_fit((X, 2.0 * X), cfg)
    b = gp_fit((X, 2.0 * X), cfg)
    assert [to_string(e) for e in a.exprs] == [to_string(e) for e in b.exprs]
    assert a.fitness == b.fitness


def test_draws_equal_generator_draws():
    # One interleaved sequence through the draws object and through a
    # Generator with the same seed.  n near 2**32 rejects often in Lemire's
    # method, and 2**32 itself is numpy's plain next_uint32 branch.  A numpy
    # release that changes the Generator stream fails here first.
    ns = [1, 2, 3, 5, 7, 13, 256, 1000, 2 ** 31 + 1, 3 * 2 ** 30 + 7,
          2 ** 32 - 1, 2 ** 32]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        draws = discover._Draws(np.random.default_rng(seed))
        pick = np.random.default_rng(100 + seed)
        for _ in range(4000):
            n = ns[int(pick.integers(len(ns)))]
            kind = int(pick.integers(5))
            if kind == 0:
                assert draws.below(n) == int(rng.integers(n))
            elif kind == 1:
                got = [draws.below(n) for _ in range(3)]
                assert got == rng.integers(n, size=3).tolist()
            elif kind == 2:
                assert draws.random() == rng.random()
            elif kind == 3:
                assert draws.uniform(-2.0, 2.0) == rng.uniform(-2.0, 2.0)
            else:
                assert (draws.rng.standard_normal()
                        == rng.standard_normal())


def test_draws_hand_the_stream_back_at_every_block_offset():
    # rng moves the bit generator back to the draws' place, with the kept
    # half of a 32-bit draw, and the next draw takes both back.  Handing
    # over at every offset in a block, past its end too, covers a block
    # read to its last output with no half kept.
    for k in range(discover._DRAW_BLOCK + 3):
        rng = np.random.default_rng(k)
        draws = discover._Draws(np.random.default_rng(k))
        assert draws.below(7) == int(rng.integers(7))       # keeps a half
        assert draws.rng.standard_normal() == rng.standard_normal()
        assert [draws.random() for _ in range(k)] == [
            rng.random() for _ in range(k)]
        assert draws.below(1000) == int(rng.integers(1000))
        assert draws.rng.standard_normal() == rng.standard_normal()
        assert [draws.below(5) for _ in range(3)] == rng.integers(
            5, size=3).tolist()
        assert draws.rng.integers(9) == rng.integers(9)     # its own half
        assert draws.below(3) == int(rng.integers(3))


class _GeneratorDraws:
    """The draws object's interface on the plain Generator methods."""

    def __init__(self, rng):
        self.rng = rng

    def below(self, n):
        return int(self.rng.integers(n))

    def random(self):
        return self.rng.random()

    def uniform(self, lo, hi):
        return self.rng.uniform(lo, hi)


@pytest.mark.parametrize("with_penalty", [False, True])
def test_gp_evolution_equals_generator_draws(with_penalty, monkeypatch):
    X = np.random.default_rng(9).uniform(0.5, 1.5, size=(80, 2))
    dX = X @ ROTATION.T + 0.1 * X ** 2
    cfg = DiscoveryConfig(seed=4, gp=GpConfig(population=32, generations=10))
    symmetry = [Generator.linear(ROTATION)] if with_penalty else ()

    def fit():
        res = gp_fit((X, dX), cfg, symmetry=symmetry)
        return [to_string(e) for e in res.exprs], res.fitness, res.history

    fast = fit()
    monkeypatch.setattr(discover, "_Draws", _GeneratorDraws)
    assert fit() == fast


def _runs(history):
    """[value, count] for each run of equal values in a history."""
    out = []
    for v in history:
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return out


# A small gp_fit on fixed data, recorded before the evolution's overhead
# was cut (block draws, unchecked children, one list of totals per
# generation) on numpy 2.4: a change that keeps every draw, tree and bit of
# the engine keeps these.  The second tree's x1/x1 is a protected division.
GP_PINNED_TREES = [
    "0.990487814309595*x2",
    "1.8462030167146408*(0.881259348120232*(x1/x1 - (-1.462155788318599))"
    "/x2/((0.7108827139514271 - (-1.3009386597340966))/x2"
    "*(((-1.9965800603862736) + 0.02517483826231892)/x1)))"]
GP_PINNED = {
    False: ([(0.010706518514493751, 0.009706518514493752, 0.0, 1),
             (0.24280864581031011, 0.22180864581031012, 0.0, 21)],
            [[[0.010706518514493751, 13]],
             [[1.028070332888299, 1], [0.9477994144172349, 1],
              [0.3504135101891762, 2], [0.2515315327387018, 2],
              [0.24280864581031011, 7]]]),
    True: ([(0.011703812322243887, 0.009706518514493752,
             0.009972938077501353, 1),
            (0.26459193758372757, 0.22180864581031012, 0.21783291773417426,
             21)],
           [[[0.011703812322243887, 13]],
            [[1.128070332888299, 1], [1.0290287702897025, 1],
             [0.37831691074768237, 2], [0.27343358061822765, 2],
             [0.26459193758372757, 7]]]),
}


@pytest.mark.parametrize("with_penalty", [False, True])
def test_gp_fit_keeps_its_recorded_trees_fitness_and_history(with_penalty):
    X = np.random.default_rng(9).uniform(-1.5, 1.5, size=(60, 2))
    dX = X @ ROTATION.T - 0.1 * X
    cfg = DiscoveryConfig(seed=1, gp=GpConfig(population=48, generations=12))
    symmetry = [Generator.linear(ROTATION)] if with_penalty else ()
    res = gp_fit((X, dX), cfg, symmetry=symmetry)
    fitness, histories = GP_PINNED[with_penalty]
    assert [to_string(e) for e in res.exprs] == GP_PINNED_TREES
    assert res.fitness == fitness
    assert [_runs(h) for h in res.history] == histories


def test_every_gp_fitness_evaluation_goes_through_the_module_global(
        monkeypatch):
    # perfbench's discover.gp_candidates counter wraps the module global;
    # a local binding would leave it reading 0.  Every tree evaluation of
    # gp_fit outside refit_constants is one candidate's fitness.
    counts = {"fitness": 0, "evaluate": 0}
    in_refit = [False]
    fitness, evaluate, refit = (discover.gp_candidate_fitness,
                                discover.evaluate, discover.refit_constants)

    def counted_fitness(*args, **kwargs):
        counts["fitness"] += 1
        return fitness(*args, **kwargs)

    def counted_evaluate(*args, **kwargs):
        counts["evaluate"] += not in_refit[0]
        return evaluate(*args, **kwargs)

    def flagged_refit(*args, **kwargs):
        in_refit[0] = True
        try:
            return refit(*args, **kwargs)
        finally:
            in_refit[0] = False

    monkeypatch.setattr(discover, "gp_candidate_fitness", counted_fitness)
    monkeypatch.setattr(discover, "evaluate", counted_evaluate)
    monkeypatch.setattr(discover, "refit_constants", flagged_refit)
    X = np.random.default_rng(5).uniform(0.5, 1.5, size=(60, 2))
    cfg = DiscoveryConfig(seed=2, gp=GpConfig(population=16, generations=4))
    gp_fit((X, X @ ROTATION.T), cfg, symmetry=[Generator.linear(ROTATION)])
    assert counts["fitness"] > 0
    assert counts["fitness"] == counts["evaluate"]


def test_gp_fit_symmetry_weight_and_eps_come_from_the_config(monkeypatch):
    # symmetry= takes the generators; lambda is lambda_symm (0.1 when None)
    # and the group elements use cfg.eps.  No generators is plain GP.
    import symodes.discover as discover

    seen = []
    real = discover.gp_penalty_data

    def spy(gens, X, dX, eps):
        seen.append(eps)
        return real(gens, X, dX, eps)

    monkeypatch.setattr(discover, "gp_penalty_data", spy)
    rng = np.random.default_rng(9)
    X = rng.uniform(0.5, 1.5, size=(60, 2))
    data = (X, X @ ROTATION.T)
    gens = (Generator.linear(ROTATION),)
    gp = GpConfig(population=16, generations=2)
    for lam, want in ((None, 0.1), (0.5, 0.5)):
        cfg = DiscoveryConfig(seed=2, lambda_symm=lam, eps=0.3, gp=gp)
        prov = gp_fit(data, cfg, symmetry=gens).provenance
        assert prov["method"] == "equiv-gp-r"
        assert prov["lambda"] == want
    assert seen == [0.3, 0.3]
    prov = gp_fit(data, DiscoveryConfig(seed=2, gp=gp), symmetry=()).provenance
    assert prov["method"] == "gp" and prov["lambda"] == 0.0
    assert len(seen) == 2


def test_gp_result_term_sets_canonicalize_or_flag():
    from symodes.bench import NONCANONICAL, term_set
    from symodes.discover import GpResult

    lib = build_library(2, 2)
    exprs = [parse("-0.1*x1 - 1.0*x2", 2), parse("exp(exp(x1))", 2)]
    gr = GpResult(exprs=exprs, fitness=[0.0, 0.0], history=[[], []],
                  provenance={})
    sets = term_set(gr, lib)
    assert sets[0][0] == ("x1", "x2")
    assert sets[0][1] == pytest.approx({"x1": -0.1, "x2": -1.0})
    # Nested exponentials cannot be written in the library span.
    assert sets[1] == (NONCANONICAL, {})


# -- printing ------------------------------------------------------------------


def test_equation_strings_format():
    lib = build_library(2, 2)
    sys = get_system("oscillator")
    lines = equation_strings(lib, sys.truth_matrix(lib))
    assert lines == ["x1' = -0.1*x1 - 1*x2", "x2' = 1*x1 - 0.1*x2"]
    zero = equation_strings(lib, np.zeros((2, lib.size)))
    assert zero == ["x1' = 0", "x2' = 0"]
