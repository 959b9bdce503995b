"""Generators, group elements, the infinitesimal criterion, and the losses."""

import numpy as np
import pytest
import scipy.linalg

from symodes import symmetry
from symodes.discover import SindyModel
from symodes.library import FunctionLibrary, TermKey, build_library
from symodes.symmetry import (DegenerateLossError, Generator, GroupElement,
                              check_infinitesimal_criterion, loss_fgfe,
                              loss_fgie, loss_igfe, loss_igie,
                              matrix_exponential, symmetry_loss,
                              symmetry_loss_grad)

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def key(exponents):
    return TermKey(exponents, (False,) * len(exponents))


def oscillator_model():
    lib = build_library(2, 2)
    W = np.zeros((2, lib.size))
    W[0, lib.index_of(key((1, 0)))] = -0.1
    W[0, lib.index_of(key((0, 1)))] = -1.0
    W[1, lib.index_of(key((1, 0)))] = 1.0
    W[1, lib.index_of(key((0, 1)))] = -0.1
    return SindyModel(lib, W)


def broken_model():
    # h = (x1**2, 0) does not commute with rotation; used as the negative
    # control for the consistency check and the loss worked example.
    lib = build_library(2, 2)
    W = np.zeros((2, lib.size))
    W[0, lib.index_of(key((2, 0)))] = 1.0
    return SindyModel(lib, W)


def test_matrix_exponential_rotation_closed_form():
    for eps in (0.0, 0.1, 1.0, -2.3):
        got = matrix_exponential(eps * ROTATION)
        want = np.array([[np.cos(eps), np.sin(eps)],
                         [-np.sin(eps), np.cos(eps)]])
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_linear_generator_call_and_jacobian():
    gen = Generator.linear(ROTATION, label="rotation")
    X = np.array([[1.0, 2.0], [-0.5, 0.25]])
    np.testing.assert_allclose(gen(X), X @ ROTATION.T, atol=1e-15)
    J = gen.jacobian(X)
    assert J.shape == (2, 2, 2)
    np.testing.assert_allclose(J[0], ROTATION, atol=1e-15)
    assert gen.is_linear


def test_symbolic_generator_matches_linear():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 2))
    lin = Generator.linear(ROTATION)
    sym = Generator.symbolic(("x2", "-x1"), dim=2)
    np.testing.assert_allclose(sym(X), lin(X), atol=1e-14)
    np.testing.assert_allclose(sym.jacobian(X), lin.jacobian(X), atol=1e-14)
    assert not sym.is_linear


def test_generators_write_their_fresh_bits_into_out():
    # A generator is a field of the RK4 stepper: v(X, out) writes into out
    # the bits v(X) returns fresh, linear or symbolic, for contiguous states
    # and out and for strided ones like the state column of a packed
    # tangent system.
    rng = np.random.default_rng(12)
    packed = rng.normal(size=(20, 2, 3))
    for gen in (Generator.linear(ROTATION),
                Generator.linear([[0.3, -1.2], [0.7, 0.1]]),
                Generator.symbolic(("x1*x2", "-x1 + exp(x2)"), dim=2)):
        for X in (packed[..., 0].copy(), packed[..., 0]):
            want = gen(X)
            for out in (np.full(X.shape, np.nan),
                        np.full(X.shape + (3,), np.nan)[..., 0]):
                assert gen(X, out) is out
                np.testing.assert_array_equal(out.view(np.uint64),
                                              want.view(np.uint64))


@pytest.mark.parametrize("tangent", [False, True])
def test_sensitivity_rhs_writes_its_fresh_bits_into_out(tangent,
                                                        monkeypatch):
    # The packed right-hand side of _flow_with_sensitivity, called with out,
    # writes the bits of its terms computed into fresh arrays and packed
    # [y, (delta,) Sy, (Sdelta)] per state component, whatever out held.
    rng = np.random.default_rng(13)
    model = oscillator_model()
    lib, W = model.lib, model.W + 0.01 * rng.normal(size=model.W.shape)
    (n, d), p, k = (6, 2), lib.size, 2 if tangent else 1
    rhs = []
    real = symmetry.rk4_final

    def capture(f, *args):
        rhs.append(f)
        return real(f, *args)

    monkeypatch.setattr(symmetry, "rk4_final", capture)
    X = rng.normal(size=(n, d))
    symmetry._flow_with_sensitivity(W, lib, X, 0.1,
                                    X[::-1] if tangent else None)
    z = rng.normal(size=(n, d, k * (1 + p * d)))
    y, S = z[..., 0], z[..., k:].reshape(n, d, k, p, d)
    Th, Jth = lib.evaluate(y), lib.jacobian(y)
    Jh = np.einsum("ip,npj->nij", W, Jth)
    parts = [Th @ W.T]
    sens = [symmetry._direct_term(Th, d)
            + np.einsum("nij,njma->nima", Jh, S[:, :, 0])]
    if tangent:
        de = z[..., 1]
        T = np.einsum("ip,npk->nik", W, lib.hessian_vp(y, de))
        parts.append(np.einsum("nij,nj->ni", Jh, de))
        sens.append(symmetry._direct_term(np.einsum("npj,nj->np", Jth, de),
                                          d)
                    + np.einsum("nik,nkma->nima", T, S[:, :, 0])
                    + np.einsum("nij,njma->nima", Jh, S[:, :, 1]))
    want = np.concatenate([np.stack(parts, axis=-1),
                           np.stack(sens, axis=2).reshape(n, d, -1)],
                          axis=-1)
    for fill in (np.nan, 0.0):
        out = np.full_like(z, fill)
        rhs[0](z, out)
        np.testing.assert_array_equal(out.view(np.uint64),
                                      want.view(np.uint64))


def test_generator_config_round_trip():
    for gen in (Generator.linear(ROTATION, label="rot"),
                Generator.symbolic(("x2", "-x1"), dim=2, label="rot_sym")):
        back = Generator.from_config(gen.to_config(), dim=2)
        X = np.random.default_rng(0).normal(size=(5, 2))
        np.testing.assert_allclose(back(X), gen(X), atol=1e-14)
        assert back.label == gen.label


def test_group_element_linear_uses_matrix_exponential():
    gen = Generator.linear(ROTATION)
    eps = 0.37
    g = GroupElement(gen, eps)
    X = np.random.default_rng(4).normal(size=(8, 2))
    E = scipy.linalg.expm(eps * ROTATION)
    np.testing.assert_allclose(g.transform(X), X @ E.T, atol=1e-12)
    np.testing.assert_allclose(g.jacobian(X)[0], E, atol=1e-12)


def test_group_element_symbolic_inverse_composes_to_identity():
    gen = Generator.symbolic(("x2", "-x1"), dim=2)
    X = np.random.default_rng(5).normal(size=(8, 2))
    fwd = GroupElement(gen, 0.4).transform(X)
    back = GroupElement(gen, -0.4).transform(fwd)
    np.testing.assert_allclose(back, X, atol=1e-9)


def test_infinitesimal_criterion_consistent_for_oscillator():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(200, 2))
    report = check_infinitesimal_criterion(
        oscillator_model(), [Generator.linear(ROTATION, label="rotation")], X)
    assert report["consistent"]
    assert report["max"] <= 1e-10
    assert report["per_generator"][0]["label"] == "rotation"


def test_infinitesimal_criterion_flags_broken_pair():
    # At x = (1, 1): J_h v - J_v h = (2, 1) and 1 + |J_v h| = 2, so the
    # relative residual is sqrt(5)/2.
    X = np.array([[1.0, 1.0]])
    report = check_infinitesimal_criterion(
        broken_model(), [Generator.linear(ROTATION)], X)
    assert not report["consistent"]
    assert report["max"] >= 1.0
    assert report["max"] == pytest.approx(np.sqrt(5.0) / 2.0, abs=1e-12)


def test_all_four_losses_vanish_at_the_truth():
    model = oscillator_model()
    gens = [Generator.linear(ROTATION)]
    X = np.random.default_rng(9).normal(size=(32, 2))
    assert loss_igie(model, gens, X) <= 1e-10
    assert loss_fgie(model, gens, X, eps=0.1) <= 1e-10
    assert loss_igfe(model, gens, X, tau=0.2) <= 1e-6
    assert loss_fgfe(model, gens, X, tau=0.2, eps=0.1) <= 1e-6


def test_igie_worked_example_equals_five():
    # For h = (x1**2, 0) against rotation at (1, 1) the defect ratio is
    # |(2, 1)|**2 / |(0, -1)|**2 = 5.
    X = np.array([[1.0, 1.0]])
    val = loss_igie(broken_model(), [Generator.linear(ROTATION)], X)
    assert val == pytest.approx(5.0, abs=1e-9)


def test_losses_positive_for_broken_pair():
    gens = [Generator.linear(ROTATION)]
    X = np.random.default_rng(13).normal(size=(16, 2)) + 2.0
    model = broken_model()
    assert loss_igie(model, gens, X) > 1e-2
    assert loss_fgie(model, gens, X) > 1e-2
    assert loss_igfe(model, gens, X, tau=0.2) > 1e-2
    assert loss_fgfe(model, gens, X, tau=0.2) > 1e-2


def test_degenerate_batch_raises():
    # At the origin J_v h vanishes identically, so every denominator
    # underflows and the loss has no usable points.
    X = np.zeros((4, 2))
    with pytest.raises(DegenerateLossError):
        loss_igie(oscillator_model(), [Generator.linear(ROTATION)], X)


def test_empty_generator_list_gives_zero_loss_and_grad():
    model = oscillator_model()
    X = np.random.default_rng(1).normal(size=(8, 2))
    val, grad = symmetry_loss_grad("igie", model, [], X)
    assert val == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(model.W))


def test_symmetry_loss_dispatch_and_validation():
    model = oscillator_model()
    gens = [Generator.linear(ROTATION)]
    X = np.random.default_rng(2).normal(size=(8, 2))
    assert symmetry_loss("igie", model, gens, X) == pytest.approx(
        loss_igie(model, gens, X), rel=1e-12)
    with pytest.raises(ValueError):
        symmetry_loss("nope", model, gens, X)
    with pytest.raises(ValueError):
        symmetry_loss("igfe", model, gens, X)  # tau is required
    with pytest.raises(ValueError):
        loss_fgfe(model, gens, X, tau=0.2, eps=0.0)


@pytest.mark.parametrize("kind", ["igie", "fgie", "igfe", "fgfe"])
def test_loss_gradients_match_finite_differences(kind):
    lib = build_library(2, 2)
    rng = np.random.default_rng(37)
    gens = [Generator.linear(ROTATION)]
    X = rng.normal(size=(12, 2)) + 1.0
    kwargs = {"tau": 0.2} if kind in ("igfe", "fgfe") else {}

    for trial in range(2):
        W = 0.3 * rng.normal(size=(2, lib.size))
        model = SindyModel(lib, W)
        val, grad = symmetry_loss_grad(kind, model, gens, X, **kwargs)
        assert val == pytest.approx(
            symmetry_loss(kind, model, gens, X, **kwargs), rel=1e-10)

        h = 1e-6
        idx = [(0, 1), (1, 3), (0, 4), (1, 0)]
        for a, mu in idx:
            Wp = W.copy()
            Wp[a, mu] += h
            Wm = W.copy()
            Wm[a, mu] -= h
            fp = symmetry_loss(kind, SindyModel(lib, Wp), gens, X, **kwargs)
            fm = symmetry_loss(kind, SindyModel(lib, Wm), gens, X, **kwargs)
            fd = (fp - fm) / (2 * h)
            scale = max(1.0, abs(fd))
            assert abs(grad[a, mu] - fd) / scale <= 1e-5


@pytest.mark.parametrize("kind", ["igie", "fgie", "igfe", "fgfe"])
def test_only_the_igfe_gradient_uses_second_derivatives(kind, monkeypatch):
    # Every value path and the igie, fgie and fgfe gradients use first
    # derivatives at most; igfe's gradient carries the tangent's
    # sensitivity, which needs Hessian-vector products of the library.
    calls = []
    hessian_vp = FunctionLibrary.hessian_vp

    def counted(self, *args):
        calls.append(1)
        return hessian_vp(self, *args)

    monkeypatch.setattr(FunctionLibrary, "hessian_vp", counted)
    model = broken_model()
    gens = [Generator.linear(ROTATION)]
    X = np.random.default_rng(5).normal(size=(8, 2)) + 1.0
    kwargs = {"tau": 0.2} if kind in ("igfe", "fgfe") else {}
    symmetry_loss(kind, model, gens, X, **kwargs)
    assert len(calls) == 0
    symmetry_loss_grad(kind, model, gens, X, **kwargs)
    assert (len(calls) > 0) == (kind == "igfe")



@pytest.mark.parametrize("kind", ["igie", "fgie", "igfe", "fgfe"])
def test_loss_gradients_evaluate_theta_once_per_point_set(kind, monkeypatch):
    # Jacobians and Hessian-vector products gather from the Theta their
    # caller already holds: each call of a sensitivity flow's rhs evaluates
    # Theta once, igie once at X, fgie once at X and once per g X, and
    # (loss, grad) keep the bits of evaluating Theta anew for each.
    rng = np.random.default_rng(19)
    model = oscillator_model()
    model = SindyModel(model.lib, model.W + 0.05 * rng.normal(
        size=model.W.shape))
    gens = [Generator.linear(ROTATION), Generator.linear(np.eye(2))]
    X = rng.normal(size=(7, 2)) + 0.5
    kwargs = {"tau": 0.2} if kind in ("igfe", "fgfe") else {}
    evaluated, rhs_calls = [], []
    evaluate, rk4_final = FunctionLibrary.evaluate, symmetry.rk4_final

    def counted_evaluate(self, X):
        evaluated.append(1)
        return evaluate(self, X)

    def counted_rk4_final(f, *args):
        def rhs(z, dz):
            rhs_calls.append(1)
            f(z, dz)
        return rk4_final(rhs, *args)

    monkeypatch.setattr(FunctionLibrary, "evaluate", counted_evaluate)
    monkeypatch.setattr(symmetry, "rk4_final", counted_rk4_final)
    loss, grad = symmetry_loss_grad(kind, model, gens, X, **kwargs)
    outside = {"igie": 1, "fgie": 1 + len(gens)}.get(kind, 0)
    assert (kind in ("igfe", "fgfe")) == (len(rhs_calls) > 0)
    assert len(evaluated) == len(rhs_calls) + outside

    jacobian, hessian_vp = FunctionLibrary.jacobian, FunctionLibrary.hessian_vp
    monkeypatch.setattr(FunctionLibrary, "jacobian",
                        lambda self, X, theta=None: jacobian(self, X))
    monkeypatch.setattr(FunctionLibrary, "hessian_vp",
                        lambda self, X, U, theta=None: hessian_vp(self, X, U))
    loss_anew, grad_anew = symmetry_loss_grad(kind, model, gens, X, **kwargs)
    assert np.float64(loss).view(np.uint64) == \
        np.float64(loss_anew).view(np.uint64)
    np.testing.assert_array_equal(grad.view(np.uint64),
                                  grad_anew.view(np.uint64))


@pytest.mark.parametrize("name", ["oscillator", "growth", "seir"])
def test_igfe_value_gathers_its_jacobian_from_the_fields_theta(name,
                                                              monkeypatch):
    # The value path's flow_jvp evaluates Theta only in its bound field:
    # the tangent's Jacobian gathers from the Theta the field just computed,
    # so symmetry_loss("igfe") calls FunctionLibrary.evaluate not at all,
    # and keeps the bits of evaluating Theta anew for each Jacobian.
    from symodes.dynamics import get_system

    system = get_system(name)
    rng = np.random.default_rng(23)
    lib = system.library()
    model = SindyModel(lib, system.truth_matrix(lib) + 0.01 * rng.normal(
        size=(system.dim, lib.size)))
    X = 0.5 + 0.3 * rng.random((16, system.dim))
    evaluated = []
    evaluate = FunctionLibrary.evaluate

    def counted_evaluate(self, X, out=None):
        evaluated.append(1)
        return evaluate(self, X, out)

    monkeypatch.setattr(FunctionLibrary, "evaluate", counted_evaluate)
    loss = symmetry_loss("igfe", model, system.generators, X, tau=0.3)
    assert evaluated == []
    jacobian = FunctionLibrary.jacobian
    monkeypatch.setattr(FunctionLibrary, "jacobian",
                        lambda self, X, theta=None: jacobian(self, X))
    anew = symmetry_loss("igfe", model, system.generators, X, tau=0.3)
    assert len(evaluated) == 4 * symmetry.FLOW_STEPS * len(system.generators)
    assert np.float64(loss).view(np.uint64) == \
        np.float64(anew).view(np.uint64)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fgfe_gradient_integrates_the_flow_of_x_once(k, monkeypatch):
    # The flow of X and its W-sensitivity do not depend on the generator:
    # one integration for X plus one per transformed g X.
    calls = []
    flow = symmetry._flow_with_sensitivity

    def counted(*args, **kwargs):
        calls.append(1)
        return flow(*args, **kwargs)

    monkeypatch.setattr(symmetry, "_flow_with_sensitivity", counted)
    gens = [Generator.linear(m) for m in
            (ROTATION, np.eye(2), np.diag([1.0, -1.0]))][:k]
    model = broken_model()
    X = np.random.default_rng(9).normal(size=(6, 2)) + 1.0
    val, _ = symmetry_loss_grad("fgfe", model, gens, X, tau=0.2)
    assert len(calls) == k + 1
    assert val == pytest.approx(
        symmetry_loss("fgfe", model, gens, X, tau=0.2), rel=1e-10)


@pytest.mark.parametrize("kind, kwargs", [
    ("nope", {}),
    ("igfe", {}),                      # tau is required
    ("fgfe", {}),
    ("fgfe", {"tau": 0.2, "eps": 0.0}),
])
def test_value_and_gradient_paths_reject_the_same_arguments(kind, kwargs):
    # The arguments are checked before the no-generator shortcut, so an
    # empty generator list does not hide a bad call on either path.
    model = oscillator_model()
    X = np.random.default_rng(3).normal(size=(4, 2))
    for gens in ([Generator.linear(ROTATION)], []):
        with pytest.raises(ValueError):
            symmetry_loss(kind, model, gens, X, **kwargs)
        with pytest.raises(ValueError):
            symmetry_loss_grad(kind, model, gens, X, **kwargs)


@pytest.mark.parametrize("kind", ["igie", "fgie", "igfe", "fgfe"])
def test_points_with_vanishing_denominators_are_skipped(kind):
    # A model without a constant term has h(0) = 0, and the rotation fixes
    # the origin, so every loss's denominator vanishes there: the origin
    # must leave the value and the gradient exactly as without it.
    lib = build_library(2, 2)
    rng = np.random.default_rng(41)
    W = 0.3 * rng.normal(size=(2, lib.size))
    W[:, lib.index_of(key((0, 0)))] = 0.0
    model = SindyModel(lib, W)
    gens = [Generator.linear(ROTATION)]
    X = rng.normal(size=(6, 2)) + 1.0
    with_origin = np.insert(X, 3, 0.0, axis=0)
    kwargs = {"tau": 0.2} if kind in ("igfe", "fgfe") else {}

    want = symmetry_loss(kind, model, gens, X, **kwargs)
    got = symmetry_loss(kind, model, gens, with_origin, **kwargs)
    assert got == pytest.approx(want, rel=1e-12)
    want_val, want_grad = symmetry_loss_grad(kind, model, gens, X, **kwargs)
    got_val, got_grad = symmetry_loss_grad(kind, model, gens, with_origin,
                                           **kwargs)
    assert got_val == pytest.approx(want_val, rel=1e-12)
    np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12,
                               atol=1e-12 * np.abs(want_grad).max())


@pytest.mark.parametrize("kind", ["igie", "fgie", "igfe", "fgfe"])
def test_a_nan_denominator_makes_the_loss_non_finite(kind):
    # A NaN state stands for a diverged flow: its denominator is NaN, which
    # is not an underflow, so the point is kept and the loss and gradient
    # turn NaN instead of skipping it (equiv-r then raises).
    model = oscillator_model()
    gens = [Generator.linear(ROTATION)]
    X = np.random.default_rng(43).normal(size=(6, 2)) + 1.0
    X[2] = np.nan
    kwargs = {"tau": 0.2} if kind in ("igfe", "fgfe") else {}
    with np.errstate(all="ignore"):
        value = symmetry_loss(kind, model, gens, X, **kwargs)
        grad_value, grad = symmetry_loss_grad(kind, model, gens, X, **kwargs)
    assert np.isnan(value) and np.isnan(grad_value)
    assert np.isnan(grad).any()
