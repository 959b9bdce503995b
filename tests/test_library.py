import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from structure_reference import structure_matrix
from symodes.expressions import parse
from symodes.library import (THETA_ROW_BLOCK, FunctionLibrary, NotInSpanError,
                             TermKey, build_library, canonicalize,
                             from_canonical, m_theta)


def test_term_order_and_count():
    lib = build_library(2, 2)
    assert lib.labels() == ["1", "x1", "x2", "x1^2", "x1*x2", "x2^2"]
    for d in (1, 2, 3, 4):
        for q in (0, 1, 2, 3):
            lib = build_library(d, q)
            assert lib.size == math.comb(d + q, q)
            assert lib.labels()[0] == "1"
            degs = [t.degree for t in lib.terms]
            assert degs == sorted(degs)
    lib = build_library(2, 2, include_exponentials=True)
    assert lib.labels() == ["1", "x1", "x2", "x1^2", "x1*x2", "x2^2",
                            "exp(x1)", "exp(x2)"]
    assert build_library(4, 2).size == 15


def test_termkey_validation():
    TermKey((0, 0), (True, False))
    TermKey((1, 2), (False, False))
    with pytest.raises(ValueError):
        TermKey((0, 0), (True, True))
    with pytest.raises(ValueError):
        TermKey((1, 0), (True, False))
    with pytest.raises(ValueError):
        TermKey((1, 0, 0), (False, False))


def test_evaluate_values_and_shapes():
    lib = build_library(2, 2)
    np.testing.assert_allclose(lib.evaluate(np.array([2.0, 3.0])),
                               [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])
    X = np.random.default_rng(0).normal(size=(17, 2))
    assert lib.evaluate(X).shape == (17, 6)
    libe = build_library(2, 1, include_exponentials=True)
    row = libe.evaluate(np.array([1.0, -1.0]))
    np.testing.assert_allclose(row, [1.0, 1.0, -1.0, np.e, 1.0 / np.e])



def test_row_blocked_evaluate_matches_each_row_alone():
    # Theta is filled THETA_ROW_BLOCK rows at a time: three whole blocks and
    # a shorter last one here.  Every row keeps the bits of its own call,
    # for any batch shape.
    lib = build_library(2, 3, include_exponentials=True)
    X = np.random.default_rng(2).uniform(-2.0, 2.0,
                                         size=(3 * THETA_ROW_BLOCK + 8, 2))
    alone = np.stack([lib.evaluate(x) for x in X]).view(np.uint64)
    np.testing.assert_array_equal(lib.evaluate(X).view(np.uint64), alone)
    np.testing.assert_array_equal(
        lib.evaluate(X.reshape(8, -1, 2)).reshape(len(X), -1).view(np.uint64),
        alone)


def test_evaluate_holds_only_its_result():
    # tracemalloc sees numpy's buffers.  Neither the gathered factors nor a
    # transposed copy of Theta is ever held whole, so evaluating 200,000
    # rows peaks at 1.1 times the (N, p) result.
    lib = build_library(2, 3)
    X = np.random.default_rng(4).normal(size=(200_000, 2))
    tracemalloc.start()
    try:
        theta = lib.evaluate(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * theta.nbytes


@pytest.mark.parametrize("lib", [
    build_library(2, 3), build_library(3, 2, include_exponentials=True)],
    ids=repr)
def test_evaluate_into_a_fortran_column_view_gives_the_fresh_bits(lib):
    # discover writes Theta into the first p columns of an F-ordered
    # [Theta | dX] buffer; the rows span two full blocks and a short one.
    X = np.random.default_rng(6).uniform(-1.5, 1.5,
                                         size=(2 * THETA_ROW_BLOCK + 37,
                                               lib.dim))
    A = np.full((len(X), lib.size + 2), np.nan, order="F")
    got = lib.evaluate(X, out=A[:, :lib.size])
    assert np.shares_memory(got, A)
    np.testing.assert_array_equal(A[:, :lib.size].view(np.uint64),
                                  lib.evaluate(X).view(np.uint64))
    assert np.isnan(A[:, lib.size:]).all()


def test_jacobian_against_finite_differences():
    rng = np.random.default_rng(3)
    for lib in (build_library(2, 2), build_library(3, 3),
                build_library(2, 2, include_exponentials=True)):
        X = rng.uniform(-1.5, 1.5, size=(20, lib.dim))
        J = lib.jacobian(X)
        assert J.shape == (20, lib.size, lib.dim)
        step = 1e-6
        for j in range(lib.dim):
            dx = np.zeros(lib.dim)
            dx[j] = step
            fd = (lib.evaluate(X + dx) - lib.evaluate(X - dx)) / (2 * step)
            scale = np.maximum(1.0, np.abs(J[..., j]))
            assert np.all(np.abs(J[..., j] - fd) <= 1e-6 * scale)


def test_jacobian_row_for_cross_term():
    lib = build_library(2, 2)
    a, b = 0.37, -1.21
    J = lib.jacobian(np.array([a, b]))
    mu = lib.labels().index("x1*x2")
    np.testing.assert_allclose(J[mu], [b, a], atol=1e-15)


def test_hessian_vp_matches_jacobian_differences():
    rng = np.random.default_rng(5)
    for lib in (build_library(2, 2), build_library(4, 2),
                build_library(2, 2, include_exponentials=True)):
        X = rng.uniform(-1.0, 1.0, size=(9, lib.dim))
        U = rng.normal(size=(9, lib.dim))
        G = lib.hessian_vp(X, U)
        step = 1e-6
        fd = (lib.jacobian(X + step * U) - lib.jacobian(X - step * U)) / (2 * step)
        assert np.abs(G - fd).max() < 1e-8


def power_formula_derivatives(lib, x):
    """Exact J[mu, j] and H[mu, j, k] of every term at the point x.

    The power formula e_j x^(e - 1_j) (and e_j (e_k - [j = k]) x^(e - 1_j -
    1_k)) in rational arithmetic, rounded once; exp(x_i) terms use math.exp.
    """
    xs = [Fraction(float(v)) for v in x]
    J = np.zeros((lib.size, lib.dim))
    H = np.zeros((lib.size, lib.dim, lib.dim))
    for mu, t in enumerate(lib.terms):
        if any(t.expflags):
            i = t.expflags.index(True)
            J[mu, i] = H[mu, i, i] = math.exp(x[i])
            continue
        for js in itertools.product(range(lib.dim), repeat=2):
            e, c = list(t.exponents), Fraction(1)
            for n, j in enumerate(js):
                c *= e[j]
                e[j] -= 1
                if c == 0:
                    break
                value = c * math.prod(v ** k for v, k in zip(xs, e))
                if n == 0:
                    J[mu, j] = float(value)
                else:
                    H[(mu,) + js] = float(value)
    return J, H


def test_derivative_tables_match_the_power_formula():
    # J and the Hessian are gathers from Theta times constant tables; each
    # entry is within one unit of relative rounding of the exact power
    # formula, and exactly zero where the formula is, on every registry
    # library (and two with higher degree).
    from symodes.dynamics import SYSTEMS

    rng = np.random.default_rng(17)
    libs = [s.library() for s in SYSTEMS.values()]
    libs += [build_library(3, 3), build_library(2, 4, True)]
    for lib in libs:
        X = rng.uniform(-2.0, 2.0, size=(12, lib.dim))
        J = lib.jacobian(X)
        H = np.stack([lib.hessian_vp(X, np.broadcast_to(u, X.shape))
                      for u in np.eye(lib.dim)], axis=-2)     # [n, mu, j, k]
        for n, x in enumerate(X):
            J0, H0 = power_formula_derivatives(lib, x)
            for got, want in ((J[n], J0), (H[n], H0)):
                np.testing.assert_array_equal(got == 0.0, want == 0.0)
                tol = np.finfo(float).eps * np.abs(want)
                assert (np.abs(got - want) <= tol).all(), (lib, x)


def test_m_theta_reproduces_coordinates():
    lib = build_library(2, 2)
    M = m_theta(lib, [parse("x2^2", 2), parse("x2", 2)])
    expected = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                         [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(M, expected)
    with pytest.raises(NotInSpanError, match="component 1"):
        m_theta(lib, [parse("x1^3", 2)])


def test_canonicalize_expands_products():
    lib = build_library(2, 2)
    got = canonicalize(parse("(x1+x2)^2", 2), lib)
    want = {
        TermKey((2, 0), (False, False)): 1.0,
        TermKey((1, 1), (False, False)): 2.0,
        TermKey((0, 2), (False, False)): 1.0,
    }
    assert got == want
    assert canonicalize(parse("x1^3", 2), lib) is None
    assert canonicalize(parse("x1/x2", 2), lib) is None
    assert canonicalize(parse("exp(x1*x1)", 2),
                        build_library(2, 2, True)) is None


def test_canonicalize_drops_tiny_coefficients():
    lib = build_library(2, 2)
    assert canonicalize(parse("1e-13*x1^3", 2), lib) == {}
    got = canonicalize(parse("x1 + 1e-13*x1^3", 2), lib)
    assert got == {TermKey((1, 0), (False, False)): 1.0}


def test_canonicalize_constant_division_and_affine_exp():
    libe = build_library(2, 2, include_exponentials=True)
    got = canonicalize(parse("2/3 - (4/3)*exp(x2)", 2), libe)
    labels = {k.label(): v for k, v in got.items()}
    assert labels == pytest.approx({"1": 2 / 3, "exp(x2)": -4 / 3})
    shifted = canonicalize(parse("exp(x2 + 0.5)", 2), libe)
    labels = {k.label(): v for k, v in shifted.items()}
    assert labels == pytest.approx({"exp(x2)": math.exp(0.5)})
    assert canonicalize(parse("exp(x1 + x2)", 2), libe) is None
    assert canonicalize(parse("exp(0.3*x1)", 2), libe) is None


def test_canonicalize_is_idempotent():
    rng = np.random.default_rng(9)
    lib = build_library(2, 2)
    for _ in range(40):
        coeffs = {t: float(rng.normal()) for t in lib.terms
                  if rng.random() < 0.6}
        e = from_canonical(coeffs, lib)
        got = canonicalize(e, lib)
        assert got is not None
        assert set(got) == set(coeffs)
        for k in coeffs:
            assert got[k] == pytest.approx(coeffs[k], abs=1e-14)
        again = canonicalize(from_canonical(got, lib), lib)
        assert again == got


# The structure matrix M of a linear generator, J_Theta(x) L x = M Theta(x),
# read off the symbolic derivatives by m_theta: the M that criterion 04
# checks equivariance with, independently of the constraint rows.

ROTATION_M = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 2.0, 0.0],
    [0.0, 0.0, 0.0, -1.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, 0.0, -2.0, 0.0],
])


def test_structure_matrix_rotation_and_euler():
    lib = build_library(2, 2)
    L = np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(structure_matrix(lib, L),
                                  ROTATION_M)
    M = structure_matrix(lib, np.eye(2))
    np.testing.assert_array_equal(M, np.diag([0.0, 1.0, 1.0, 2.0, 2.0, 2.0]))


def test_structure_matrix_numeric_identity():
    rng = np.random.default_rng(21)
    for lib in (build_library(2, 2), build_library(3, 2), build_library(4, 2)):
        L = rng.normal(size=(lib.dim, lib.dim))
        M = structure_matrix(lib, L)
        X = rng.uniform(-2, 2, size=(50, lib.dim))
        lhs = np.einsum("nmj,nj->nm", lib.jacobian(X), X @ L.T)
        rhs = lib.evaluate(X) @ M.T
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(lhs).max())


def test_structure_matrix_respects_commutators():
    rng = np.random.default_rng(33)
    lib = build_library(3, 2)
    for _ in range(5):
        L1 = rng.normal(size=(3, 3))
        L2 = rng.normal(size=(3, 3))
        M1 = structure_matrix(lib, L1)
        M2 = structure_matrix(lib, L2)
        Mc = structure_matrix(lib, L2 @ L1 - L1 @ L2)
        assert np.abs(Mc - (M2 @ M1 - M1 @ M2)).max() < 1e-9


def test_structure_matrix_rejects_exponential_library():
    libe = build_library(2, 2, include_exponentials=True)
    with pytest.raises(NotInSpanError):
        structure_matrix(libe, np.eye(2))


def test_structure_matrix_rejects_bad_shape():
    lib = build_library(2, 2)
    with pytest.raises(ValueError):
        structure_matrix(lib, np.eye(3))
