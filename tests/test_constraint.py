"""Equivariance constraints: structure matrices, nullspaces, and pins."""

import numpy as np
import pytest

from symodes.constraint import (assemble_equivariant_basis, constraint_block,
                                constraint_residual, materialize, unvec, vec)
from symodes.dynamics import get_system
from symodes.library import (FunctionLibrary, build_library,
                             generator_structure_matrix)
from symodes.symmetry import Generator, GroupElement

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
    # J_Theta(x) (L x) must equal M Theta(x) for every x; that identity is
    # what makes the constraint exact rather than sampled.
    lib = build_library(2, 2)
    for L in (ROTATION, SCALING):
        M = generator_structure_matrix(lib, L)
        X = np.random.default_rng(1).normal(size=(50, 2))
        Th = lib.evaluate(X)
        Jth = lib.jacobian(X)
        lhs = np.einsum("npi,ni->np", Jth, X @ L.T)
        np.testing.assert_allclose(lhs, Th @ M.T, atol=1e-12)


def test_constraint_block_applies_commutator():
    lib = build_library(2, 2)
    L = ROTATION
    M = generator_structure_matrix(lib, L)
    B = constraint_block(M, L)
    rng = np.random.default_rng(2)
    W = rng.normal(size=(2, lib.size))
    direct = L @ W - W @ M
    np.testing.assert_allclose(unvec(B @ vec(W), 2, lib.size), direct,
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
    # Every basis combination satisfies L W = W M to solver precision, and
    # the induced h is equivariant under the finite group element.
    sys = get_system("oscillator")
    lib = system_library("oscillator")
    basis = assemble_equivariant_basis(lib, sys.generators)
    M = generator_structure_matrix(lib, ROTATION)
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


def test_symbolic_generators_rejected():
    lib = build_library(2, 2)
    sym = Generator.symbolic(("x2", "-x1"), dim=2)
    with pytest.raises((TypeError, ValueError)):
        assemble_equivariant_basis(lib, (sym,))
