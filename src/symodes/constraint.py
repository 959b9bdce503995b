"""Exact linear equivariance constraints on library coefficients.

For h(x) = W Theta(x) and any generator v, the commutator [v, h](x) is
linear in W.  Vectorizing W column-major (vec index k = i + d*mu for entry
W[i, mu]), its derivative at x is the d x dp block that the igie gradient
uses too (symmetry.commutator_sensitivity).  The constraint matrix C stacks
those blocks, each scaled to unit norm, at a fixed seeded set of
standard-normal points, for every generator and library alike.  For a
linear generator on a polynomial library, [v, h] lies in span(Theta), so
vanishing at more than p points in general position it vanishes everywhere.

The SVD nullspace of C yields an orthonormal basis Q for all equivariant
coefficient matrices; every W = unvec(Q beta) satisfies the constraints to
solver precision, which is how the constrained discovery engine searches only
symmetric models.  Individual coefficients can be pinned to zero by deleting
their columns from the stacked matrix: the nullspace is taken over the free
coefficients only and Q holds exact zero rows at the pins, which is what
sequential thresholding uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symmetry import commutator_sensitivity

NULLSPACE_RTOL = 1e-10
POINT_SEED = 0
MIN_POINTS = 64                 # C has max(MIN_POINTS, 2 p) points


@dataclass
class EquivariantBasis:
    """Nullspace basis of the stacked constraint matrix.

    C holds the scaled commutator rows over all d*p coefficients.  Q has shape
    (d*p, r) with orthonormal columns and exact zero rows at the pins;
    singular_values are those of C restricted to the unpinned columns,
    descending and zero-padded to one per unpinned coefficient.
    """

    lib: object
    generators: tuple
    C: np.ndarray
    Q: np.ndarray
    singular_values: np.ndarray
    pins: tuple = ()

    @property
    def nullity(self):
        return self.Q.shape[1]


def vec(W):
    """Column-major vectorization; index k = i + d*mu for W[i, mu]."""
    W = np.asarray(W, dtype=float)
    return W.T.reshape(-1)


def unvec(v, d, p):
    return np.asarray(v, dtype=float).reshape(p, d).T


def assemble_equivariant_basis(lib, generators, pins=()):
    """Stack every generator's constraint rows and take their nullspace.

    pins is an iterable of (row, column) coefficient positions forced to
    zero; their columns are deleted before the SVD.  The nullspace threshold
    is NULLSPACE_RTOL times the largest singular value.  A generator of the
    wrong dimension, or not finite at the points, raises ValueError naming it.
    """
    generators = tuple(generators)
    pins = tuple(sorted(set((int(i), int(mu)) for i, mu in pins)))
    if not generators and not pins:
        raise ValueError("need at least one generator or pin")
    d, p = lib.dim, lib.size
    free = np.ones(d * p, dtype=bool)
    for i, mu in pins:
        if not (0 <= i < d and 0 <= mu < p):
            raise ValueError(f"pin {(i, mu)} out of range for ({d}, {p})")
        free[i + d * mu] = False
    X = np.random.default_rng(POINT_SEED).standard_normal(
        (max(MIN_POINTS, 2 * p), d))
    Th = lib.evaluate(X)
    Jth = lib.jacobian(X, Th)
    blocks = [np.zeros((0, d, d * p))]
    for gen in generators:
        if gen.dim != d:
            raise ValueError(f"generator {gen!r} has dim {gen.dim}, not {d}")
        with np.errstate(all="ignore"):
            du = commutator_sensitivity(Th, Jth, gen(X), gen.jacobian(X))[2]
        if not np.all(np.isfinite(du)):
            raise ValueError(f"generator {gen!r} is not finite at the points")
        du = du.reshape(len(X), d, d * p)
        norm = np.linalg.norm(du, axis=(1, 2))[:, None, None]
        blocks.append(du / np.where(norm > 0.0, norm, 1.0))
    C = np.vstack(blocks).reshape(-1, d * p)
    A = C[:, free]
    # Vt is square either way; the thin SVD skips the unused left vectors
    _, s, Vt = np.linalg.svd(A, full_matrices=len(A) < A.shape[1])
    smax = s[0] if len(s) else 0.0
    tol = NULLSPACE_RTOL * smax
    rank = int(np.sum(s > tol))
    Q = np.zeros((d * p, Vt.shape[0] - rank))
    Q[free] = Vt[rank:].T
    sigma = np.zeros(Vt.shape[0])
    sigma[:len(s)] = s
    return EquivariantBasis(lib=lib, generators=generators, C=C, Q=Q,
                            singular_values=sigma, pins=pins)


def materialize(basis, beta):
    """W = unvec(Q beta); satisfies every stacked constraint to SVD precision."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (basis.nullity,):
        raise ValueError(
            f"beta must have shape ({basis.nullity},), got {beta.shape}")
    return unvec(basis.Q @ beta, basis.lib.dim, basis.lib.size)


def constraint_residual(basis, W):
    """|C vec W|, for reporting and tests."""
    return float(np.linalg.norm(basis.C @ vec(W)))
