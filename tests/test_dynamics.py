"""Registry systems, samplers, noise, smoothing, and dataset round trips."""

from dataclasses import replace

import numpy as np
import pytest

from symodes.dynamics import (INTERNAL_DT, SPLIT_NAMES, SYSTEMS, NoiseSpec,
                              Trajectory, differentiate_trajectory,
                              estimate_derivatives, get_system, gp_smooth,
                              gp_smooth_series, load_dataset, make_dataset,
                              sample_initial, save_dataset, split_rng)
from symodes.integrate import rk4_record
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
    sm = gp_smooth(traj).smoothed
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
        sm = gp_smooth(tr).smoothed
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
    assert infos[1]["noise"] == pytest.approx(0.7 * noisy.std(), rel=1e-12)
    assert infos[2] == {"degenerate": True}
    np.testing.assert_array_equal(mean[:, 2], Y[:, 2])
    for j in range(2):
        alone, info = gp_smooth_series(traj.times, Y[:, j])
        assert np.abs(mean[:, j] - alone).max() <= 1e-12 * np.abs(alone).max()
        assert infos[j]["lengthscale"] == info["lengthscale"]
        assert infos[j]["noise"] == info["noise"]


def test_differentiate_trajectory_uses_smoothed_states():
    traj, _ = oscillator_trajectory(14, n_samples=40)
    sm = gp_smooth(traj)
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


def test_make_dataset_matches_one_trajectory_at_a_time():
    # Trajectory j draws its initial condition, then its noise, from
    # split_rng(seed, j) whatever the batch; batched integration agrees with
    # integrating it alone up to BLAS summation order.
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
        np.testing.assert_allclose(tr.clean_states, alone, rtol=0, atol=1e-14)
        noisy = sys.data.noise.apply(alone, rng)
        np.testing.assert_allclose(tr.states, noisy, rtol=0, atol=1e-14)
    # All smoothed series share one smoother call; each matches smoothing
    # its trajectory alone up to BLAS summation order.
    for tr in ds.train + ds.val:
        alone = differentiate_trajectory(gp_smooth(replace(tr, smoothed=None,
                                                           derivs=None)))
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
