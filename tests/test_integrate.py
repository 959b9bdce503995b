"""Convergence, recording, and sensitivity tests for the RK4 integrator."""

import math
import tracemalloc

import numpy as np
import pytest
from rk4_reference import linear_field, rk4_step

from symodes import bench, integrate
from symodes.discover import GpResult
from symodes.dynamics import INTERNAL_DT, LinearField, SindyModel, get_system
from symodes.expressions import TreeField, evaluate_all, parse
from symodes.integrate import (BoundField, IntegrationError, rk4_final,
                               rk4_flow_tangents, rk4_record)
from symodes.library import build_library
from symodes.symmetry import FLOW_STEPS


def harmonic(x, out):
    out[..., 0] = x[..., 1]
    np.negative(x[..., 0], out[..., 1])


def fresh(f):
    """A field f(x, out) as rk4_step's f(x), returning a fresh array."""
    def h(x):
        out = np.empty_like(x)
        f(x, out)
        return out
    return h


def harmonic_exact(x0, t):
    c, s = np.cos(t), np.sin(t)
    return np.stack([c * x0[..., 0] + s * x0[..., 1],
                     -s * x0[..., 0] + c * x0[..., 1]], axis=-1)


def test_rk4_step_linear_problem_one_step_error():
    # One RK4 step on x' = -x matches the degree-4 Taylor polynomial of exp,
    # through the reference and through the stepper.
    y = np.array([1.0])
    dt = 0.1
    taylor = sum((-dt) ** k / math.factorial(k) for k in range(5))
    for out in (rk4_step(lambda x: -x, y, dt),
                rk4_final(lambda x, out: np.negative(x, out), y, dt, 1)):
        assert out[0] == pytest.approx(taylor, abs=1e-15)


def test_rk4_in_place_steps_match_rk4_step_for_any_field():
    # rk4_final and rk4_record step in place; they give the bits of an
    # rk4_step loop over the same field returning fresh arrays, for a field
    # writing out directly, one copying a buffer it reuses, one writing
    # through a reversed view of out, one copying a reversed view of its
    # argument, and one copying its argument itself.
    x0 = np.array([[1.0, 0.0], [0.3, -0.7], [-0.2, 0.4]])
    buf = np.empty_like(x0)

    def reused(x, out):
        np.copyto(out, np.multiply(x[..., ::-1], [1.0, -1.0], out=buf))

    dt, steps = 0.01, 40
    for f in (harmonic, reused,
              lambda x, out: np.copyto(out[..., ::-1], x),
              lambda x, out: np.copyto(out, x[..., ::-1]),
              lambda x, out: np.copyto(out, x)):
        y, want = x0, [x0]
        for i in range(1, steps + 1):
            y = rk4_step(fresh(f), y, dt)
            if i % 10 == 0:
                want.append(y)
        np.testing.assert_array_equal(rk4_record(f, x0, dt, steps, 10),
                                      np.array(want))
        y = x0
        for _ in range(steps):
            y = rk4_step(fresh(f), y, 1.0 / steps)
        np.testing.assert_array_equal(rk4_final(f, x0, 1.0, steps), y)


def test_rk4_final_matches_closed_form():
    x0 = np.array([[1.0, 0.0], [0.3, -0.7]])
    t = 2.5
    got = rk4_final(harmonic, x0, t, 400)
    np.testing.assert_allclose(got, harmonic_exact(x0, t), atol=1e-9)


def test_rk4_observed_order_at_least_3_8():
    # Halving the step on the harmonic oscillator should cut the endpoint
    # error by about 2**4; the observed order must stay above 3.8.
    x0 = np.array([1.0, 0.0])
    t = float(np.pi)
    exact = harmonic_exact(x0, t)
    errors = []
    for steps in (40, 80, 160):
        got = rk4_final(harmonic, x0, t, steps)
        errors.append(np.linalg.norm(got - exact))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 3.8


def test_rk4_record_shape_and_stride():
    x0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    dt = 0.01
    n_internal = 40
    stride = 10
    rec = rk4_record(harmonic, x0, dt, n_internal, stride)
    assert rec.shape == (n_internal // stride + 1, 3, 2)
    np.testing.assert_array_equal(rec[0], x0)
    # Each recorded row equals a direct integration to the same time.
    for k in range(1, rec.shape[0]):
        direct = rk4_final(harmonic, x0, dt * stride * k, stride * k)
        np.testing.assert_allclose(rec[k], direct, atol=1e-12)


def test_rk4_record_single_trajectory():
    rec = rk4_record(harmonic, np.array([1.0, 0.0]), 0.05, 20, 5)
    assert rec.shape == (5, 2)
    np.testing.assert_allclose(rec[-1], harmonic_exact(np.array([1.0, 0.0]), 1.0),
                               atol=1e-7)


def test_rk4_record_nonfinite_raises_with_step():
    # x' = x**2 from x0 = 1 blows up at t = 1 (the row from 0.5 at t = 2);
    # the recorder must fail with the index of the first internal step an
    # rk4_step loop makes non-finite, rather than return inf, whether it
    # checks after every step (stride 1), after every 10, once for the whole
    # run (stride 400), or after a sample whose last step is the first
    # failing one, and whether the field is a callable or hands over its
    # calls (a bound tree, and x**2 as a W-linear field).
    def f(x, out):
        np.multiply(x, x, out)

    x0 = np.array([[0.5], [1.0]])
    square = np.array([[0.0, 0.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        y, first = x0, None
        for i in range(1, 401):
            y = rk4_step(fresh(f), y, 0.05)
            if not np.isfinite(y).all():
                first = i
                break
        assert first is not None and first % 10 != 0
        for field in (f, TreeField([parse("x1*x1", 1)], (2,)),
                      LinearField(build_library(1, 2), square, (2,))):
            for n_internal, stride in ((400, 1), (400, 10), (400, 400),
                                       (2 * first, first)):
                with pytest.raises(IntegrationError) as exc:
                    rk4_record(field, x0, 0.05, n_internal, stride)
                assert exc.value.step == first
                assert f"step {first}" in str(exc.value)


def test_step_arguments_are_checked():
    # A step count below 1, a stride below 1, a negative run, or states
    # that do not fit the bound field's shape are named; they used to
    # return y0, divide by zero, or fail inside numpy.
    x0 = np.array([[1.0, 0.0]])
    for steps in (0, -3):
        with pytest.raises(ValueError, match="steps must be at least 1"):
            rk4_final(harmonic, x0, 1.0, steps)
    for stride in (0, -5):
        with pytest.raises(ValueError, match="stride must be at least 1"):
            rk4_record(harmonic, x0, 0.1, 10, stride)
    with pytest.raises(ValueError, match="n_internal must be at least 0"):
        rk4_record(harmonic, x0, 0.1, -10, 5)
    assert rk4_record(harmonic, x0, 0.1, 0, 5).shape == (1, 1, 2)
    field = get_system("oscillator").oracle().field((2,))
    with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
        rk4_final(field, x0, 1.0, 4)


def _same_bits(got, want):
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))


def test_bound_fields_integrate_as_calls_with_the_reference_bits(
        monkeypatch):
    # A bound field is never called as f(x, out) by the integrator (every
    # BoundField's __call__ raises here): it hands over its calls.  They
    # give an rk4_step loop's bits over reference fields returning fresh
    # arrays: a lone state of d = 1 (alone and as a batch of one),
    # lotka_volterra's exp library, and long-term prediction's stacked
    # field of the truth, two W-linear models and two tree blocks, one
    # dividing by zero under protection; and so does a callable.
    sys = get_system("oscillator")
    lib = sys.library()
    rng = np.random.default_rng(6)
    truth = sys.truth_matrix(lib)
    trees = [[parse("-0.12*x1 - x2", 2), parse("x1/(x2 - x2) + x1", 2)],
             [parse("0.3", 2), parse("x1", 2)]]
    models = {"a": SindyModel(lib, 0.97 * truth),
              "b": SindyModel(lib, truth + 0.01 * rng.normal(
                  size=truth.shape))}
    models.update({f"gp{j}": GpResult(exprs=e, fitness=[0.0, 0.0],
                                      history=[])
                   for j, e in enumerate(trees)})
    ics = rng.uniform(-1.0, 1.0, size=(4, 2))
    fields = []
    real = bench.rk4_final

    def capture(f, *args):
        fields.append(f)
        return real(f, *args)

    monkeypatch.setattr(bench, "rk4_final", capture)
    with np.errstate(all="ignore"):
        bench.long_term_error(models, sys, ics, horizon=0.01,
                              checkpoints=[0.01])
    Ws = np.stack([truth, models["a"].W, models["b"].W])[:, None]

    def stacked(Y):
        return np.concatenate(
            [linear_field(lib, Ws)(Y[:3])]
            + [evaluate_all(e, Y[3 + j:4 + j], protected=True)
               for j, e in enumerate(trees)])

    lone = build_library(1, 3)
    W1 = np.array([[0.3, -0.5, 0.1, -0.2]])
    lv = get_system("lotka_volterra")
    X_lv = np.array([[0.1, -0.2], [0.4, 0.3], [-0.3, 0.2]])
    cases = [(LinearField(lone, W1, ()), linear_field(lone, W1),
              np.array([0.7])),
             (LinearField(lone, W1, (1,)), linear_field(lone, W1),
              np.array([[0.7]])),
             (lv.oracle().field((3,)), linear_field(lv.library(),
                                                    lv.truth_matrix()), X_lv),
             (fields[0], stacked, np.stack([ics] * 5)),
             (lambda x, out: evaluate_all(trees[0], x, True, out),
              lambda x: evaluate_all(trees[0], x, True), ics)]
    assert isinstance(fields[0], BoundField)

    def refuse(self, X, out=None):
        raise AssertionError("a bound field was called, not run as calls")

    monkeypatch.setattr(BoundField, "__call__", refuse)
    dt, steps = 0.01, 30
    with np.errstate(all="ignore"):
        for field, ref, y0 in cases:
            y, want = y0, [y0]
            for i in range(1, steps + 1):
                y = rk4_step(ref, y, dt)
                if i % 10 == 0:
                    want.append(y)
            _same_bits(rk4_record(field, y0, dt, steps, 10), np.array(want))
            y = y0
            for _ in range(steps):
                y = rk4_step(ref, y, 0.3 / steps)
            _same_bits(rk4_final(field, y0, 0.3, steps), y)


def test_in_place_steps_allocate_nothing():
    # Through a bound LinearField, rk4_final and rk4_record reach the same
    # traced peak for 100 steps as for 2,000 (rk4_record keeps 11 samples
    # either way).  Nor does any step allocate a state-sized array: from the
    # field's first run on, when the stepper holds its buffers, the traced
    # peak grows by less than the states do when the batch grows tenfold.
    # numpy's per-call scratch does not grow with the batch, and
    # rk4_record's finiteness mask, made once per sample, is 1/8 of a state.
    # The field is called by a callable, or handed to the integrator, whose
    # calls then start with a marker; that peak is the one at the last
    # marker, before rk4_final's one copy of the end state.
    system = get_system("oscillator")
    rng = np.random.default_rng(2)
    small, large = (rng.uniform(-1.0, 1.0, size=(n, 2)) for n in (70, 700))

    def peak_over_base(run, X, n, direct):
        field = system.oracle().field(X.shape[:-1])
        base, last = [], [0]

        def mark():
            if not base:
                base.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            last[0] = tracemalloc.get_traced_memory()[1]

        if direct:
            steps = field.steps
            field.steps = lambda out: [(mark, ())] + steps(out)
            f = field
        else:
            def f(x, out):
                mark()
                field(x, out)

        tracemalloc.start()
        try:
            run(f, X, n)
            peak = last[0] if direct else tracemalloc.get_traced_memory()[1]
            return peak - base[0]
        finally:
            tracemalloc.stop()

    for direct in (False, True):
        for run in (lambda f, X, n: rk4_final(f, X, n * INTERNAL_DT, n),
                    lambda f, X, n: rk4_record(f, X, INTERNAL_DT, n,
                                               n // 10)):
            peak_over_base(run, small, 10, direct)
            assert (peak_over_base(run, small, 100, direct)
                    == peak_over_base(run, small, 2000, direct))
            assert (peak_over_base(run, large, 100, direct)
                    - peak_over_base(run, small, 100, direct)
                    < large.nbytes - small.nbytes)


def test_packed_tangent_rhs_writes_its_fresh_bits_into_out(monkeypatch):
    # rk4_flow_tangents' packed right-hand side, called with out, writes
    # f(y) and J_f(y) V as computed into fresh arrays, whatever out held.
    system = get_system("seir")
    rng = np.random.default_rng(4)
    model = SindyModel(system.library(), system.truth_matrix())
    X = 0.5 + 0.3 * rng.random((5, 4))
    rhs = []
    real = integrate.rk4_final

    def capture(f, *args):
        rhs.append(f)
        return real(f, *args)

    monkeypatch.setattr(integrate, "rk4_final", capture)
    rk4_flow_tangents(model.field(X.shape[:-1]), model.h_jacobian, X,
                      rng.normal(size=(5, 4, 3)), 0.3, 2)
    z = rng.normal(size=(5, 4, 4))
    want = np.concatenate([model.h(z[..., 0])[..., None],
                           np.einsum("...ij,...jm->...im",
                                     model.h_jacobian(z[..., 0]),
                                     z[..., 1:])], axis=-1)
    for fill in (np.nan, 0.0):
        out = np.full_like(z, fill)
        rhs[0](z, out)
        np.testing.assert_array_equal(out.view(np.uint64),
                                      want.view(np.uint64))


def test_rk4_flow_jvp_matches_finite_differences():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 2))
    U = rng.normal(size=(6, 2))
    tau = 0.7

    def jac(x):
        J = np.zeros(x.shape + (2,))
        J[..., 0, 1] = 1.0
        J[..., 1, 0] = -1.0
        return J

    y_end, V = rk4_flow_tangents(harmonic, jac, X, U[..., None], tau, 64)
    jvp = V[..., 0]
    np.testing.assert_allclose(y_end, rk4_final(harmonic, X, tau, 64),
                               atol=1e-14)
    h = 1e-6
    fd = (rk4_final(harmonic, X + h * U, tau, 64)
          - rk4_final(harmonic, X - h * U, tau, 64)) / (2 * h)
    np.testing.assert_allclose(jvp, fd, atol=1e-8)


def test_rk4_flow_jacobian_linear_system_is_matrix_exponential():
    import scipy.linalg

    L = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def jac(x):
        return np.broadcast_to(L, x.shape + (2,)).copy()

    X = np.array([[0.4, -1.2]])
    tau = 0.9
    y_end, J = rk4_flow_tangents(harmonic, jac, X, np.eye(2), tau, 256)
    np.testing.assert_allclose(y_end, harmonic_exact(X, tau), atol=1e-10)
    np.testing.assert_allclose(J[0], scipy.linalg.expm(tau * L), atol=1e-10)


@pytest.mark.parametrize("name", ["oscillator", "seir"])
def test_flow_tangent_columns_advance_independently(name):
    # Packed tangent columns do not mix: each column of a three-column V0
    # has the bits of integrating that column alone, and the columns for
    # V0 = I are the unit-vector Jacobian-vector products.
    system = get_system(name)
    lib = system.library()
    rng = np.random.default_rng(11)
    W = system.truth_matrix(lib) + 0.01 * rng.normal(size=(system.dim,
                                                           lib.size))
    model = SindyModel(lib, W)
    d = system.dim
    X = 0.5 + 0.3 * rng.random((5, d))
    V0 = rng.normal(size=(5, d, 3))
    field = model.field(X.shape[:-1])
    y, V = rk4_flow_tangents(field, model.h_jacobian, X, V0, 0.3, FLOW_STEPS)
    for m in range(3):
        y_m, V_m = rk4_flow_tangents(field, model.h_jacobian, X,
                                     V0[..., m:m + 1], 0.3, FLOW_STEPS)
        assert np.array_equal(y_m, y)
        assert np.array_equal(V_m[..., 0], V[..., m])
    _, J = rk4_flow_tangents(field, model.h_jacobian, X, np.eye(d), 0.3,
                             FLOW_STEPS)
    for k in range(d):
        U = np.broadcast_to(np.eye(d)[k], X.shape)
        y_k, jvp = model.flow_jvp(X, U, 0.3)
        assert np.array_equal(y_k, y)
        assert np.array_equal(jvp, J[..., k])
