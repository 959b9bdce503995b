"""Equivariance constraints: commutator rows, nullspaces, and pins."""

import numpy as np
import pytest

from structure_reference import structure_matrix
from symodes.constraint import (assemble_equivariant_basis,
                                constraint_residual, materialize, unvec, vec)
from symodes.dynamics import get_system
from symodes.library import FunctionLibrary, build_library
from symodes.symmetry import Generator, GroupElement, commutator_sensitivity

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
SCALING = np.array([[2.0, 0.0], [0.0, 1.0]])


def system_library(name):
    sys = get_system(name)
    return build_library(sys.dim, sys.library_degree,
                         include_exponentials=sys.library_exponentials)


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(0)
    W = rng.normal(size=(3, 7))
    v = vec(W)
    assert v.shape == (21,)
    # Column-major: entry (i, mu) lands at index i + d*mu.
    assert v[1 + 3 * 4] == W[1, 4]
    np.testing.assert_array_equal(unvec(v, 3, 7), W)


def test_structure_matrix_reproduces_directional_derivative():
    # J_Theta(x) L x = M Theta(x) at every x: a linear generator's [v, h]
    # lies in span(Theta), which is why rows at finitely many points make
    # the constraint exact rather than sampled.
    lib = build_library(2, 2)
    for L in (ROTATION, SCALING):
        M = structure_matrix(lib, L)
        X = np.random.default_rng(1).normal(size=(50, 2))
        Th = lib.evaluate(X)
        Jth = lib.jacobian(X)
        lhs = np.einsum("npi,ni->np", Jth, X @ L.T)
        np.testing.assert_allclose(lhs, Th @ M.T, atol=1e-12)


def test_constraint_block_applies_commutator():
    # A point's block of d[v, h]/dW, applied to vec(W), is [v, h] there:
    # for a linear generator, (L W - W M) Theta(x); for a symbolic one,
    # J_v h - J_h v from the generator's own Jacobian.
    lib = build_library(2, 2)
    rng = np.random.default_rng(2)
    W = rng.normal(size=(2, lib.size))
    X = rng.normal(size=(30, 2))
    Th = lib.evaluate(X)
    Jth = lib.jacobian(X, Th)
    M = structure_matrix(lib, ROTATION)
    gens = (Generator.linear(ROTATION),
            Generator.symbolic(("x1*x2", "exp(x2) - x1"), dim=2))
    for gen in gens:
        du = commutator_sensitivity(Th, Jth, gen(X), gen.jacobian(X))[2]
        got = du.reshape(len(X), 2, -1) @ vec(W)
        h = Th @ W.T
        Jh = np.einsum("ip,npj->nij", W, Jth)
        want = (np.einsum("nij,nj->ni", gen.jacobian(X), h)
                - np.einsum("nij,nj->ni", Jh, gen(X)))
        np.testing.assert_allclose(got, want, atol=1e-12)
        if gen.is_linear:
            np.testing.assert_allclose(got, Th @ (ROTATION @ W - W @ M).T,
                                       atol=1e-12)


@pytest.mark.parametrize("name,expected", [
    ("oscillator", 2),
    ("growth", 3),
    ("seir", 34),
])
def test_nullity_of_registered_systems(name, expected):
    sys = get_system(name)
    lib = system_library(name)
    basis = assemble_equivariant_basis(lib, sys.generators)
    assert basis.nullity == expected


def test_truth_coefficients_are_annihilated():
    for name in ("oscillator", "growth", "seir"):
        sys = get_system(name)
        lib = system_library(name)
        W_true = sys.truth_matrix(lib)
        basis = assemble_equivariant_basis(lib, sys.generators)
        assert np.linalg.norm(basis.C @ vec(W_true)) <= 1e-12
        # Projecting the truth onto the subspace, Q Q^T vec(W), changes
        # nothing.
        Q = basis.Q
        np.testing.assert_allclose(Q @ (Q.T @ vec(W_true)), vec(W_true),
                                   atol=1e-12)


def test_materialized_fields_commute_exactly():
    # Every basis combination satisfies L W = W M to solver precision, with
    # M from the symbolic derivatives, and the induced h is equivariant
    # under the finite group element.
    sys = get_system("oscillator")
    lib = system_library("oscillator")
    basis = assemble_equivariant_basis(lib, sys.generators)
    M = structure_matrix(lib, ROTATION)
    rng = np.random.default_rng(5)
    g = GroupElement(Generator.linear(ROTATION), 0.3)
    X = rng.normal(size=(20, 2))
    E = g.jacobian(X)[0]
    for _ in range(100):
        beta = rng.normal(size=basis.nullity)
        W = materialize(basis, beta)
        scale = max(1.0, np.linalg.norm(W))
        assert np.linalg.norm(ROTATION @ W - W @ M) <= 1e-9 * scale
        # Finite check: h(g x) = g h(x).
        h = lib.evaluate(X) @ W.T
        hg = lib.evaluate(X @ E.T) @ W.T
        np.testing.assert_allclose(hg, h @ E.T, atol=1e-8 * scale)


def test_constraint_residual_zero_on_subspace_positive_off():
    sys = get_system("oscillator")
    lib = system_library("oscillator")
    basis = assemble_equivariant_basis(lib, sys.generators)
    rng = np.random.default_rng(6)
    W_in = materialize(basis, rng.normal(size=basis.nullity))
    assert constraint_residual(basis, W_in) <= 1e-12
    W_out = W_in.copy()
    W_out[0, lib.size - 1] += 1.0
    assert constraint_residual(basis, W_out) > 1e-3


def test_coordinates_round_trip():
    sys = get_system("growth")
    lib = system_library("growth")
    basis = assemble_equivariant_basis(lib, sys.generators)
    rng = np.random.default_rng(7)
    beta = rng.normal(size=basis.nullity)
    W = materialize(basis, beta)
    # The basis coordinates Q^T vec(W) of a materialized W are its beta.
    np.testing.assert_allclose(basis.Q.T @ vec(W), beta, atol=1e-12)


def test_pins_zero_out_coefficients_and_shrink_nullity():
    sys = get_system("oscillator")
    lib = system_library("oscillator")
    free = assemble_equivariant_basis(lib, sys.generators)
    pin = (0, lib.index_of(lib.terms[1]))  # first linear term of row 0
    pinned = assemble_equivariant_basis(lib, sys.generators, pins=(pin,))
    assert pinned.nullity < free.nullity
    rng = np.random.default_rng(8)
    for _ in range(10):
        W = materialize(pinned, rng.normal(size=max(pinned.nullity, 1))
                        [:pinned.nullity])
        if pinned.nullity == 0:
            break
        assert W[pin] == 0.0


def test_singular_values_descending():
    sys = get_system("seir")
    lib = system_library("seir")
    basis = assemble_equivariant_basis(lib, sys.generators)
    s = basis.singular_values
    assert np.all(np.diff(s) <= 1e-12)


def test_a_symbolic_rotation_gives_the_linear_span():
    sym = Generator.symbolic(("x2", "-x1"), dim=2)
    for degree in (2, 3):
        lib = build_library(2, degree)
        lin = assemble_equivariant_basis(lib, (Generator.linear(ROTATION),))
        got = assemble_equivariant_basis(lib, (sym,))
        np.testing.assert_array_equal(got.C, lin.C)
        np.testing.assert_array_equal(got.Q, lin.Q)


def test_a_symbolic_population_shift_gives_the_seir_span():
    sys = get_system("seir")
    lib = system_library("seir")
    lin = assemble_equivariant_basis(lib, sys.generators)
    sym = assemble_equivariant_basis(lib, (Generator.symbolic(
        ("0", "0", "0", "x1 + x2 + x3 + x4"), dim=4),))
    assert sym.nullity == lin.nullity == 34
    np.testing.assert_allclose(sym.Q @ sym.Q.T, lin.Q @ lin.Q.T, atol=1e-14)


def test_an_exp_library_takes_a_symbolic_generator():
    # The truth's own field commutes with the truth, so the basis is the
    # truth's direction: a generator built from the truth hands it over.
    sys = get_system("lotka_volterra")
    lib = system_library("lotka_volterra")
    assert lib.include_exponentials
    basis = assemble_equivariant_basis(
        lib, (Generator.symbolic(("2/3 - (4/3)*exp(x2)", "-1 + exp(x1)"),
                                 dim=2),))
    assert basis.nullity == 1
    assert constraint_residual(basis, sys.truth_matrix(lib)) <= 1e-12


@pytest.mark.parametrize("gen,message", [
    (Generator.linear(np.eye(3), label="too_big"), "too_big.*dim 3"),
    (Generator.symbolic(("x2 / (x1 - x1)", "-x1"), dim=2, label="pole"),
     "pole.*not finite"),
    (Generator.symbolic(("exp(1000 * x1^2)", "x2"), dim=2, label="huge"),
     "huge.*not finite"),
])
def test_a_generator_the_library_cannot_take_is_named(gen, message):
    with pytest.raises(ValueError, match=message):
        assemble_equivariant_basis(build_library(2, 2), (gen,))
