"""Registry systems, samplers, noise, smoothing, and dataset round trips."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from rk4_reference import rk4_step

from symodes import dynamics
from symodes.dynamics import (INTERNAL_DT, SMOOTH_LENGTHSCALE_FACTORS,
                              SMOOTH_MAX_TRAIN, SMOOTH_ROW_BLOCK,
                              SPLIT_NAMES, SYSTEMS, LinearField,
                              NoiseSpec, SindyModel, Trajectory,
                              differentiate_trajectory, estimate_derivatives,
                              get_system, gp_smooth_series,
                              load_dataset, make_dataset, sample_initial,
                              save_dataset, split_rng)
from symodes.integrate import rk4_final, rk4_record
from symodes.library import build_library
from symodes.symmetry import check_infinitesimal_criterion


# -- registry ------------------------------------------------------------------


def test_registry_contains_published_systems():
    for name in ("oscillator", "growth", "lotka_volterra", "glycolytic",
                 "seir"):
        assert name in SYSTEMS
    with pytest.raises(KeyError):
        get_system("not_a_system")


def test_truth_canonicalizes_into_default_library():
    for name, sys in SYSTEMS.items():
        sets = sys.truth_term_sets()
        assert len(sets) == sys.dim
        assert all(len(s) > 0 for s in sets)


def test_registered_generators_are_consistent_with_truth():
    rng = np.random.default_rng(0)
    for name in ("oscillator", "growth", "seir"):
        sys = get_system(name)
        X = rng.uniform(0.3, 1.2, size=(100, sys.dim))
        report = check_infinitesimal_criterion(sys.oracle(), sys.generators, X)
        assert report["consistent"], name
        assert report["max"] <= 1e-10


# -- initial-condition samplers -------------------------------------------------


def test_annulus_sampler_respects_radii():
    sys = get_system("oscillator")
    rng = np.random.default_rng(1)
    pts = np.array([sample_initial(sys, rng) for _ in range(500)])
    r = np.linalg.norm(pts, axis=1)
    assert r.min() >= 0.5 and r.max() <= 2.0
    # The annulus is actually covered, not just a sliver of it.
    assert r.min() <= 0.6 and r.max() >= 1.9


def test_box_samplers_respect_bounds():
    rng = np.random.default_rng(2)
    growth = np.array([sample_initial(get_system("growth"), rng)
                       for _ in range(200)])
    assert growth.min() >= 0.2 and growth.max() <= 1.0
    seir = np.array([sample_initial(get_system("seir"), rng)
                     for _ in range(200)])
    assert seir.shape == (200, 4)
    assert seir.min() >= 0.0 and seir.max() <= 1.0


def test_log_lv_sampler_stays_in_energy_window():
    from symodes.dynamics import LV_H_WINDOW, _lv_hamiltonian

    sys = get_system("lotka_volterra")
    rng = np.random.default_rng(3)
    pts = np.array([sample_initial(sys, rng) for _ in range(100)])
    H = _lv_hamiltonian(pts)
    assert H.min() >= LV_H_WINDOW[0] and H.max() <= LV_H_WINDOW[1]
    # Log coordinates of populations below one are nonpositive.
    assert pts.max() <= 0.0


# -- seeding -------------------------------------------------------------------


def test_split_rng_is_deterministic_and_path_dependent():
    a = split_rng(7, 3).normal(size=5)
    b = split_rng(7, 3).normal(size=5)
    c = split_rng(7, 4).normal(size=5)
    d = split_rng(8, 3).normal(size=5)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


# -- noise ---------------------------------------------------------------------


def test_additive_relative_noise_scales_with_series_std():
    t = np.linspace(0.0, 20.0, 4000)
    clean = np.stack([np.sin(t), 3.0 * np.cos(t)], axis=1)
    noise = NoiseSpec("additive_relative", 0.2)
    noisy = noise.apply(clean, np.random.default_rng(4))
    resid_std = (noisy - clean).std(axis=0)
    np.testing.assert_allclose(resid_std, 0.2 * clean.std(axis=0), rtol=0.1)


def test_multiplicative_noise_scales_with_signal():
    clean = np.full((4000, 1), 2.0)
    noise = NoiseSpec("multiplicative", 0.05)
    noisy = noise.apply(clean, np.random.default_rng(5))
    ratio = noisy / clean - 1.0
    assert ratio.std() == pytest.approx(0.05, rel=0.1)


def test_noise_none_is_identity_and_validation_rejects_junk():
    clean = np.random.default_rng(6).normal(size=(10, 2))
    out = NoiseSpec("none", 0.0).apply(clean, np.random.default_rng(0))
    np.testing.assert_array_equal(out, clean)
    assert out is not clean
    with pytest.raises(ValueError):
        NoiseSpec("salt_and_pepper", 0.1)
    with pytest.raises(ValueError):
        NoiseSpec("additive_relative", -0.1)


# -- finite differences ----------------------------------------------------------


def test_derivatives_exact_for_quadratics():
    dt = 0.1
    t = dt * np.arange(30)
    x = np.stack([t ** 2, 3.0 - 2.0 * t], axis=1)
    want = np.stack([2.0 * t, -2.0 * np.ones_like(t)], axis=1)
    got = estimate_derivatives(x, dt)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_derivative_truncation_error_is_second_order():
    # For x = t**3 the interior central-difference error is exactly h**2 and
    # the one-sided boundary error is exactly 2 h**2.
    for h in (0.1, 0.05):
        t = h * np.arange(12)
        got = estimate_derivatives((t ** 3)[:, None], h)[:, 0]
        err = got - 3.0 * t ** 2
        np.testing.assert_allclose(err[1:-1], h ** 2, rtol=1e-9)
        assert abs(err[0]) == pytest.approx(2.0 * h ** 2, rel=1e-9)
        assert abs(err[-1]) == pytest.approx(2.0 * h ** 2, rel=1e-9)


def test_two_samples_warns_and_falls_back():
    with pytest.warns(UserWarning):
        d = estimate_derivatives(np.array([[0.0], [1.0]]), 0.5)
    np.testing.assert_allclose(d, [[2.0], [2.0]])
    with pytest.raises(ValueError):
        estimate_derivatives(np.zeros((1, 2)), 0.1)


# -- smoothing -----------------------------------------------------------------


def oscillator_trajectory(seed, n_samples=100, dt=0.2):
    sys = get_system("oscillator")
    rng = split_rng(seed, 0)
    x0 = sample_initial(sys, rng)
    stride = int(round(dt / INTERNAL_DT))
    states = rk4_record(sys.oracle().h, x0, INTERNAL_DT,
                        (n_samples - 1) * stride, stride)
    traj = Trajectory(t0=0.0, dt=INTERNAL_DT * stride, states=states.copy(),
                      clean_states=states)
    return traj, rng


def test_smoothing_leaves_noiseless_series_unchanged():
    # Clean input must pass through nearly untouched: relative RMS change
    # at most 1e-3.
    traj, _ = oscillator_trajectory(11)
    sm, _ = gp_smooth_series(traj.times, traj.states)
    rel = (np.linalg.norm(sm - traj.clean_states)
           / np.linalg.norm(traj.clean_states))
    assert rel <= 1e-3


def test_smoothing_shrinks_noise_on_constant_series():
    t = 0.2 * np.arange(100)
    rng = np.random.default_rng(12)
    y = 1.5 + 0.3 * rng.normal(size=100)
    sm, info = gp_smooth_series(t, y)
    before = np.sqrt(np.mean((y - 1.5) ** 2))
    after = np.sqrt(np.mean((sm - 1.5) ** 2))
    assert after < 0.5 * before
    assert info["noise"] > 0.1 * y.std()


def test_smoothing_info_reports_selected_hyperparameters():
    traj, _ = oscillator_trajectory(13)
    sm, info = gp_smooth_series(traj.times, traj.clean_states[:, 0])
    for key in ("lengthscale", "signal", "noise", "lml"):
        assert key in info
    # A clean series should select the near-zero noise scale.
    assert info["noise"] <= 1e-3 * traj.clean_states[:, 0].std()


def test_denoising_improves_on_at_least_95_percent_of_trajectories():
    # Oscillator with 20% additive-relative noise, 50 trajectories at the
    # published sizes: smoothing must land closer to the clean signal than
    # the noisy observations on at least 48 of the 50.
    sys = get_system("oscillator")
    noise = NoiseSpec("additive_relative", 0.2)
    rngs = [split_rng(123, j) for j in range(50)]
    x0 = np.array([sample_initial(sys, rng) for rng in rngs])
    stride = int(round(sys.data.dt / INTERNAL_DT))
    rec = rk4_record(sys.oracle().h, x0, INTERNAL_DT, 99 * stride, stride)
    improved = 0
    for j in range(50):
        clean = rec[:, j, :]
        tr = Trajectory(t0=0.0, dt=sys.data.dt,
                        states=noise.apply(clean, rngs[j]),
                        clean_states=clean)
        sm, _ = gp_smooth_series(tr.times, tr.states)
        if (np.linalg.norm(sm - clean)
                < np.linalg.norm(tr.states - clean)):
            improved += 1
    assert improved >= 48


def test_shared_smoother_matches_one_series_at_a_time():
    # One call smooths a clean column, a 20%-noise column and a constant
    # column; each gets the hyperparameters and mean of its own 1-D call.
    traj, rng = oscillator_trajectory(15)
    clean = traj.clean_states[:, 0]
    noisy = NoiseSpec("additive_relative", 0.2).apply(
        traj.clean_states, rng)[:, 1]
    Y = np.stack([clean, noisy, np.full_like(clean, 0.75)], axis=1)
    mean, infos = gp_smooth_series(traj.times, Y)
    assert mean.shape == Y.shape and len(infos) == 3
    assert infos[0]["noise"] == pytest.approx(1e-4 * clean.std(), rel=1e-12)
    assert 0.1 * noisy.std() <= infos[1]["noise"] <= 0.3 * noisy.std()
    assert infos[2] == {"degenerate": True}
    np.testing.assert_array_equal(mean[:, 2], Y[:, 2])
    for j in range(2):
        alone, info = gp_smooth_series(traj.times, Y[:, j])
        assert np.abs(mean[:, j] - alone).max() <= 1e-12 * np.abs(alone).max()
        assert infos[j]["lengthscale"] == info["lengthscale"]
        assert infos[j]["noise"] == info["noise"]


def assert_same_bits(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64))


def test_smoother_kernel_is_built_in_place_with_the_reference_bits():
    # Into a fresh array or a partial block of a reused buffer, the kernel
    # has the bits of exp(-0.5 * (diff / ell) ** 2).
    rng = np.random.default_rng(20)
    ta = np.sort(rng.uniform(0.0, 30.0, 25))
    tb = ta[::2]
    want = np.exp(-0.5 * ((ta[:, None] - tb[None, :]) / 0.7) ** 2)
    assert_same_bits(dynamics._se_kernel(ta, tb, 0.7), want)
    block = np.full((40, len(tb)), np.nan)
    got = dynamics._se_kernel(ta, tb, 0.7, out=block[:len(ta)])
    assert np.shares_memory(got, block)
    assert_same_bits(got, want)


@pytest.mark.parametrize("in_batch", [False, True])
def test_smoother_mean_matches_fresh_arrays(in_batch):
    # 2,500 samples: a 500-point subset and row blocks of 1,000, 1,000 and
    # 500.  At the chosen hyperparameters, the mean and the log marginal
    # likelihood are those of GPML Alg. 2.1 on the same subset, with the
    # kernel sd^2 K1 + (nf sd)^2 I factored by Cholesky in fresh arrays.
    # In a batch the series shares its eigenbases with a second, noisier
    # series and is the first column of one call.
    t = 0.01 * np.arange(2500)
    rng = np.random.default_rng(21)
    y = np.sin(t) + 0.2 * rng.normal(size=t.size)
    if in_batch:
        other = np.cos(3 * t) + 0.5 * rng.normal(size=t.size)
        means, infos = dynamics.gp_smooth_series(t, np.column_stack([y, other]))
        mean, info = means[:, 0], infos[0]
    else:
        mean, info = dynamics.gp_smooth_series(t, y)
    idx = dynamics._even_subset(len(t), SMOOTH_MAX_TRAIN)
    assert info["n_train"] == len(idx) == SMOOTH_MAX_TRAIN
    ts, yc = t[idx], y[idx] - y[idx].mean()
    ell, sd, noise = info["lengthscale"], info["signal"], info["noise"]
    K = sd ** 2 * np.exp(-0.5 * ((ts[:, None] - ts[None, :]) / ell) ** 2)
    cho = scipy.linalg.cho_factor(K + noise ** 2 * np.eye(len(ts)),
                                  lower=True)
    alpha = scipy.linalg.cho_solve(cho, yc)
    lml = (-0.5 * yc @ alpha - np.log(np.diag(cho[0])).sum()
           - 0.5 * len(ts) * np.log(2.0 * np.pi))
    Ks = sd ** 2 * np.exp(-0.5 * ((t[:, None] - ts[None, :]) / ell) ** 2)
    want = Ks @ alpha + y[idx].mean()
    assert np.abs(mean - want).max() <= 1e-10 * np.abs(want).max()
    assert info["lml"] == pytest.approx(lml, rel=1e-10)


@pytest.mark.parametrize("case", ["four-series", "two-lengthscales"])
def test_smoother_holds_a_basis_only_while_it_is_chosen(case):
    # tracemalloc sees numpy's buffers.  The 500-point subset is the one
    # conditioning set.  A lengthscale's eigenbasis (U and its lam + nf^2
    # grid) is held only while some series' best so far lies on it, so at
    # most one per series, or per lengthscale, is held beside the subset
    # kernel, eigh's Fortran copy of it and the new U.  The bound is those
    # matrices plus 10%, and the series' own two copies.  Measured peaks:
    # 6.51 m^2 doubles for the four series (which end on three
    # lengthscales), 5.34 for the two, which end on the grid's ends, so a
    # basis is dropped on the way; holding all six bases took 8.9 and 8.7.
    rng = np.random.default_rng(22)
    t = 0.01 * np.arange(10_000)
    if case == "four-series":
        y = np.stack([np.sin((1 + j) * t) + 0.1 * rng.normal(size=t.size)
                      for j in range(4)], axis=1)
    else:
        y = np.stack([np.sin(6.0 * t) + 0.01 * rng.normal(size=t.size),
                      np.sin(0.05 * t) + 0.3 * rng.normal(size=t.size)],
                     axis=1)
    tracemalloc.start()
    try:
        _, infos = dynamics.gp_smooth_series(t, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ells = sorted({info["lengthscale"] for info in infos})
    if case == "two-lengthscales":
        assert ells == [2 * 0.2, 100 * 0.2]
    k, m = y.shape[1], SMOOTH_MAX_TRAIN
    held = min(k, len(SMOOTH_LENGTHSCALE_FACTORS))
    assert peak <= 8 * (1.1 * (held + 3) * m * m + 2 * y.size)


def test_differentiate_trajectory_uses_smoothed_states():
    traj, _ = oscillator_trajectory(14, n_samples=40)
    sm = replace(traj, smoothed=gp_smooth_series(traj.times, traj.states)[0])
    out = differentiate_trajectory(sm)
    want = estimate_derivatives(sm.smoothed, sm.dt)
    np.testing.assert_array_equal(out.derivs, want)


# -- datasets ------------------------------------------------------------------


def small_dataset(seed=21, **kw):
    kw.setdefault("n_samples", 25)
    kw.setdefault("counts", (2, 1, 1))
    return make_dataset("oscillator", seed, **kw)


def test_make_dataset_is_deterministic():
    a = small_dataset()
    b = small_dataset()
    for split in SPLIT_NAMES:
        for ta, tb in zip(a.splits[split], b.splits[split]):
            np.testing.assert_array_equal(ta.states, tb.states)
            np.testing.assert_array_equal(ta.smoothed is None,
                                          tb.smoothed is None)
            if ta.smoothed is not None:
                np.testing.assert_array_equal(ta.smoothed, tb.smoothed)
                np.testing.assert_array_equal(ta.derivs, tb.derivs)


def test_make_dataset_split_structure():
    ds = small_dataset()
    assert [len(ds.splits[s]) for s in SPLIT_NAMES] == [2, 1, 1]
    tr = ds.splits["train"][0]
    assert tr.states.shape == (25, 2)
    assert tr.smoothed is not None and tr.derivs is not None
    # The test split is left raw by default.
    te = ds.splits["test"][0]
    assert te.smoothed is None and te.derivs is None
    X, dX = ds.regression_arrays("train")
    assert X.shape == (50, 2) and dX.shape == (50, 2)


def test_make_dataset_trajectories_are_distinct():
    ds = small_dataset()
    t0, t1 = ds.splits["train"]
    assert not np.allclose(t0.states, t1.states)


def test_make_dataset_noise_override_and_clean_states():
    ds = small_dataset(noise=NoiseSpec("none", 0.0))
    tr = ds.splits["train"][0]
    np.testing.assert_array_equal(tr.states, tr.clean_states)


def test_linear_fields_are_batch_invariant():
    # A row of h(X) has the same bits whether it is evaluated alone, in a
    # batch or in a stacked (2, B, d) batch: the oracle and a dense W-linear
    # model on every registry system, through h and through a field bound
    # to each batch shape, which gives fresh results while reusing its
    # buffers.
    rng = np.random.default_rng(8)
    for name, sys in SYSTEMS.items():
        lib = sys.library()
        X = np.array([sample_initial(sys, rng) for _ in range(37)])
        dense = SindyModel(lib, rng.normal(size=(sys.dim, lib.size)))
        for model in (sys.oracle(), dense):
            batch = model.h(X)
            assert batch.shape == X.shape
            rows = np.array([model.h(x) for x in X])
            np.testing.assert_array_equal(batch, rows, err_msg=name)
            stacked = model.h(np.stack([X, X[::-1]]))
            np.testing.assert_array_equal(stacked[0], batch, err_msg=name)
            np.testing.assert_array_equal(stacked[1], batch[::-1],
                                          err_msg=name)
            bound = model.field(X.shape[:-1])
            first = bound(X)
            np.testing.assert_array_equal(bound(X[::-1]), batch[::-1],
                                          err_msg=name)
            np.testing.assert_array_equal(first, batch, err_msg=name)
            one = model.field(())
            rows = np.array([one(x) for x in X])
            np.testing.assert_array_equal(rows, batch, err_msg=name)
            Ws = np.stack([model.W, model.W])[:, None]
            out = np.empty((2,) + X.shape)
            LinearField(lib, Ws, (2, len(X)))(np.stack([X, X[::-1]]), out)
            np.testing.assert_array_equal(out, stacked, err_msg=name)


def _reference_field(lib, W):
    """W Theta with no buffers and no factor table: the bits to reproduce.

    Each monomial is the product of its variables in order, the exp(x_i)
    columns are np.exp of the gathered states, and the terms of the
    broadcast product are summed by a left fold in library order from +0.0.
    """
    monos = [t.exponents for t in lib.terms if not any(t.expflags)]
    exp_vars = [t.expflags.index(True) for t in lib.terms if any(t.expflags)]

    def h(X):
        cols = []
        for exps in monos:
            col = np.ones(X.shape[:-1])
            for i, e in enumerate(exps):
                for _ in range(e):
                    col = col * X[..., i]
            cols.append(col)
        theta = np.stack(cols, axis=-1)
        if exp_vars:
            theta = np.concatenate([theta, np.exp(X[..., exp_vars])], axis=-1)
        prod = theta[..., None, :] * W
        acc = np.zeros(prod.shape[:-1])
        for mu in range(prod.shape[-1]):
            acc = acc + prod[..., mu]
        return acc

    return h


def _assert_same_bits(got, want):
    # equal bit patterns: unlike assert_array_equal, -0.0 differs from +0.0
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))


def _assert_field_bits(field, X, want):
    # the fresh result and the one written into a NaN-filled out
    _assert_same_bits(field(X), want)
    out = np.full(np.shape(X), np.nan)
    assert field(X, out) is out
    _assert_same_bits(out, want)


def test_linear_field_rows_are_a_left_fold_over_terms():
    # Every row of a bound field is _reference_field's left fold over the
    # library terms from +0.0, bit for bit and zero signs included, alone or
    # in any batch, returned fresh or written into out: d = 1, 2, 4 with
    # p = 1 to 21 (exp columns included), on batches (), (1,), (B,) and
    # (L, B) with stacked W.  p >= 8 is where numpy's pairwise sum differs
    # from the fold, and one state of d = 1 is a reduction to a single
    # element, which numpy sums pairwise.
    rng = np.random.default_rng(21)
    libs = ([build_library(1, q) for q in range(17)]
            + [build_library(1, q, True) for q in (6, 14)]
            + [build_library(2, q) for q in range(6)]
            + [build_library(2, q, True) for q in (2, 4)]
            + [build_library(4, q) for q in range(3)]
            + [build_library(4, q, True) for q in (1, 2)])
    B, L = 9, 3
    for lib in libs:
        d, p = lib.dim, lib.size
        X = rng.uniform(0.2, 1.5, size=(B, d))
        Ws = rng.normal(size=(L, 1, d, p)) * 10.0 ** rng.uniform(
            -6, 6, size=(L, 1, d, p))
        Ws[1, 0, 0] = -0.0  # positive products, all -0.0: the sum is +0.0
        for W in Ws[:2, 0]:
            want = _reference_field(lib, W)(X)
            for x, row in zip(X, want):
                _assert_field_bits(LinearField(lib, W, ()), x, row)
                _assert_field_bits(LinearField(lib, W, (1,)), x[None],
                                   row[None])
            _assert_field_bits(LinearField(lib, W, (B,)), X, want)
        Y = np.stack([X, X[::-1], X])
        got = LinearField(lib, Ws, (L, B))(Y)
        _assert_field_bits(LinearField(lib, Ws, (L, B)), Y,
                           _reference_field(lib, Ws)(Y))
        _assert_same_bits(got[0], LinearField(lib, Ws[0, 0], (B,))(X))
        assert not np.signbit(got[1, :, 0]).any()


def test_numpy_sums_axis_0_as_a_left_fold():
    # LinearField's term order rests on numpy: np.add.reduce over the
    # leading axis of a C-ordered (p, d, ...) array with two or more output
    # elements adds its rows one at a time, from +0.0.  A numpy release
    # that changes this fails here first.
    rng = np.random.default_rng(5)
    for p in (1, 2, 7, 8, 9, 16, 17, 33):
        for tail in ((1, 2), (2,), (2, 70), (4, 9), (2, 3, 10), (4, 1, 9)):
            a = rng.normal(size=(p,) + tail) * 10.0 ** rng.uniform(
                -8, 8, size=(p,) + tail)
            fold = np.zeros(tail)
            for row in a:
                fold = fold + row
            out = np.empty(tail)
            _assert_same_bits(np.add.reduce(a, axis=0, out=out), fold)
    _assert_same_bits(np.add.reduce(np.full((9, 2), -0.0), axis=0,
                                    out=np.empty(2)), np.zeros(2))


def test_bound_fields_integrate_with_the_reference_bits():
    # rk4_record and rk4_final, stepping in place through a bound field,
    # give the states of an rk4_step loop over the reference field bit for
    # bit on every registry system (lotka_volterra's library has exp(x_i)
    # columns): the dataset batch (n, d) through the oracle, and the
    # stacked long-term-prediction batch (L, B, d) with (L, 1, d, p)
    # weights, the truth and two dense perturbations of it.
    rng = np.random.default_rng(12)
    n_steps, stride = 60, 20
    for name, sys in SYSTEMS.items():
        lib = sys.library()
        truth = sys.truth_matrix(lib)
        X = np.array([sample_initial(sys, rng) for _ in range(7)])
        ref = _reference_field(lib, truth)
        y, want = X, [X]
        for i in range(1, n_steps + 1):
            y = rk4_step(ref, y, INTERNAL_DT)
            if i % stride == 0:
                want.append(y)
        got = rk4_record(sys.oracle().field(X.shape[:-1]), X, INTERNAL_DT,
                         n_steps, stride)
        np.testing.assert_array_equal(got, np.array(want), err_msg=name)

        Ws = np.stack([truth] + [truth + 0.05 * rng.normal(size=truth.shape)
                                 for _ in range(2)])[:, None]
        Y = np.stack([X] * len(Ws))
        total = n_steps * INTERNAL_DT
        ref = _reference_field(lib, Ws)
        want = Y
        for _ in range(n_steps):
            want = rk4_step(ref, want, total / n_steps)
        got = rk4_final(LinearField(lib, Ws, Y.shape[:-1]), Y, total,
                        n_steps)
        np.testing.assert_array_equal(got, want, err_msg=name)


def test_make_dataset_matches_one_trajectory_at_a_time():
    # Trajectory j draws its initial condition, then its noise, from
    # split_rng(seed, j) whatever the batch.  All splits integrate in one
    # batch, and the oracle's field gives every row the bits it gets alone,
    # so each trajectory equals integrating it alone, bit for bit.
    sys = get_system("oscillator")
    ds = small_dataset(seed=4)
    stride = int(round(ds.dt / INTERNAL_DT))
    trajs = ds.train + ds.val + ds.test
    for j, tr in enumerate(trajs):
        rng = split_rng(4, j)
        x0 = sample_initial(sys, rng)
        np.testing.assert_array_equal(tr.clean_states[0], x0)
        alone = rk4_record(sys.oracle().h, x0, INTERNAL_DT,
                           (tr.n_samples - 1) * stride, stride)
        np.testing.assert_array_equal(tr.clean_states, alone)
        noisy = sys.data.noise.apply(alone, rng)
        np.testing.assert_array_equal(tr.states, noisy)
    # All smoothed series share one smoother call; each matches smoothing
    # its trajectory alone up to BLAS summation order.
    for tr in ds.train + ds.val:
        alone = differentiate_trajectory(replace(
            tr, smoothed=gp_smooth_series(tr.times, tr.states)[0]))
        scale = np.abs(alone.smoothed).max()
        assert np.abs(tr.smoothed - alone.smoothed).max() <= 1e-12 * scale
        assert np.abs(tr.derivs - alone.derivs).max() <= 1e-12 * scale / ds.dt


def test_lotka_volterra_dataset_smoothing_beats_raw():
    # The published conventions: 220 smoothed series of 10,000 samples with
    # additive noise at 0.99 of each series' spread.  Every smoothed series
    # lands closer to the clean states than the raw observations.
    ds = make_dataset("lotka_volterra", 0)
    trajs = ds.train + ds.val
    assert len(trajs) == 220
    for tr in trajs:
        smooth = np.sqrt(np.mean((tr.smoothed - tr.clean_states) ** 2, axis=0))
        raw = np.sqrt(np.mean((tr.states - tr.clean_states) ** 2, axis=0))
        assert (smooth < raw).all(), (tr.seed, smooth, raw)
    assert all(tr.smoothed is None for tr in ds.test)


def test_oscillator_dataset_smoothing_beats_raw_on_every_series():
    # The noise grid holds the injected 0.2 sd, so no series is smoothed
    # past its signal: every train and val series lands closer to its
    # clean states than the raw observations.
    ds = make_dataset("oscillator", 0)
    for tr in ds.train + ds.val:
        smooth = np.sqrt(np.mean((tr.smoothed - tr.clean_states) ** 2, axis=0))
        raw = np.sqrt(np.mean((tr.states - tr.clean_states) ** 2, axis=0))
        assert (smooth < raw).all(), (tr.seed, smooth, raw)


def test_growth_dataset_smoothing_beats_raw():
    # Multiplicative 5% noise: the smoothed train states are closer to the
    # clean states than the raw ones, summed over the split.
    ds = make_dataset("growth", 0)
    smooth = sum(np.sum((tr.smoothed - tr.clean_states) ** 2)
                 for tr in ds.train)
    raw = sum(np.sum((tr.states - tr.clean_states) ** 2) for tr in ds.train)
    assert smooth < raw


def test_glycolytic_derivative_error_against_the_oracle():
    # Long series at dt = 0.002: the lengthscale grid follows the subset's
    # spacing, so it reaches the time scale of the dynamics.  Mean over
    # series of RMS(derivative - true field) / sd(true field).
    sys = get_system("glycolytic")
    ds = make_dataset(sys, 0, counts=(2, 0, 0))
    errs = []
    for tr in ds.train:
        true = sys.oracle().h(tr.clean_states)
        rms = np.sqrt(np.mean((tr.derivs - true) ** 2, axis=0))
        errs.extend(rms / true.std(axis=0))
    assert np.mean(errs) <= 0.25


def test_make_dataset_rejects_incompatible_dt():
    with pytest.raises(ValueError):
        make_dataset("oscillator", 0, dt=0.013, counts=(1, 0, 0),
                     n_samples=5)


def test_save_load_round_trip(tmp_path):
    ds = small_dataset(seed=33)
    out = tmp_path / "data"
    save_dataset(ds, str(out), extra_meta={"note": "round trip"})
    assert (out / "manifest.json").exists()
    back = load_dataset(str(out))
    assert back.system == ds.system
    assert back.seed == ds.seed
    assert back.dt == ds.dt
    for split in SPLIT_NAMES:
        assert len(back.splits[split]) == len(ds.splits[split])
        for ta, tb in zip(ds.splits[split], back.splits[split]):
            np.testing.assert_array_equal(ta.states, tb.states)
            if ta.smoothed is not None:
                np.testing.assert_array_equal(ta.smoothed, tb.smoothed)
                np.testing.assert_array_equal(ta.derivs, tb.derivs)


@pytest.mark.parametrize("name, kw", [
    ("oscillator", {}), ("growth", {}), ("seir", {}),
    ("glycolytic", {"n_samples": 1500}),
    ("oscillator", {"smooth_splits": ()})])
def test_saved_datasets_hold_observations_and_reload_their_targets(
        tmp_path, name, kw):
    # A CSV holds t and the observed states; loading derives the smoothed
    # states and derivatives of the splits the manifest names again, bit for
    # bit, and leaves the other splits underived.
    ds = make_dataset(name, 5, counts=(3, 2, 1), **kw)
    save_dataset(ds, str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["format_version"] == 2
    assert manifest["meta"]["smooth_splits"] == list(
        kw.get("smooth_splits", ("train", "val")))
    header = (tmp_path / "train_000.csv").read_text().splitlines()[0]
    assert header == ",".join(["t"] + [f"x{i+1}" for i in range(ds.dim)])
    back = load_dataset(str(tmp_path))
    for split in SPLIT_NAMES:
        for ta, tb in zip(ds.splits[split], back.splits[split], strict=True):
            assert tb.states.tobytes() == ta.states.tobytes()
            for a, b in ((ta.smoothed, tb.smoothed), (ta.derivs, tb.derivs)):
                assert (b is None) == (a is None)
                assert a is None or b.tobytes() == a.tobytes()
    if kw.get("smooth_splits") == ():
        assert all(tr.derivs is None for s in SPLIT_NAMES
                   for tr in back.splits[s])
