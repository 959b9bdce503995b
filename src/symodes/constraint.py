"""Exact linear equivariance constraints on library coefficients.

For h(x) = W Theta(x) and a linear generator v(x) = L x, requiring the
commutator [v, h] to vanish identically is equivalent to the matrix equation
L W = W M, where M is the structure matrix with J_Theta(x) L x = M Theta(x).
Vectorizing W column-major (vec index k = i + d*mu for entry W[i, mu]) turns
that into

    (-M^T (+) L) vec(W) = 0,    A (+) B := A kron I + I kron B,

one dp x dp block per generator.  Stacking the blocks and taking the SVD
nullspace yields an orthonormal basis Q for all exactly-equivariant
coefficient matrices; every W = unvec(Q beta) satisfies the constraints to
solver precision, which is how the constrained discovery engine searches only
symmetric models.  Individual coefficients can be pinned to zero by deleting
their columns from the stacked matrix: the nullspace is taken over the free
coefficients only and Q holds exact zero rows at the pinned ones, which is
what sequential thresholding uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .library import generator_structure_matrix

NULLSPACE_RTOL = 1e-10


@dataclass
class EquivariantBasis:
    """Nullspace basis of the stacked constraint matrix.

    C stacks one block per generator over all d*p coefficients.  Q has shape
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


def constraint_block(M, L):
    """-M^T kron I_d + I_p kron L; annihilates vec(W) iff L W = W M."""
    M = np.asarray(M, dtype=float)
    L = np.asarray(L, dtype=float)
    p = M.shape[0]
    d = L.shape[0]
    return -np.kron(M.T, np.eye(d)) + np.kron(np.eye(p), L)


def assemble_equivariant_basis(lib, generators, pins=()):
    """Stack one constraint block per linear generator and take its nullspace.

    pins is an iterable of (row, column) coefficient positions forced to
    zero; their columns are deleted before the SVD.  The nullspace threshold
    is NULLSPACE_RTOL times the largest singular value.
    """
    generators = tuple(generators)
    pins = tuple(sorted(set((int(i), int(mu)) for i, mu in pins)))
    if not generators and not pins:
        raise ValueError("need at least one generator or pin")
    d, p = lib.dim, lib.size
    blocks = []
    for gen in generators:
        if not getattr(gen, "is_linear", False):
            raise ValueError(
                "exact constraints need linear generators; "
                f"got {gen!r}")
        M = generator_structure_matrix(lib, gen.matrix)
        blocks.append(constraint_block(M, gen.matrix))
    free = np.ones(d * p, dtype=bool)
    for i, mu in pins:
        if not (0 <= i < d and 0 <= mu < p):
            raise ValueError(f"pin {(i, mu)} out of range for ({d}, {p})")
        free[i + d * mu] = False
    C = np.vstack(blocks) if blocks else np.zeros((0, d * p))
    _, s, Vt = np.linalg.svd(C[:, free], full_matrices=True)
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
    """max over generators of |L W - W M|_F, for reporting and tests."""
    W = np.asarray(W, dtype=float)
    worst = 0.0
    for gen in basis.generators:
        M = generator_structure_matrix(basis.lib, gen.matrix)
        worst = max(worst, float(np.linalg.norm(
            gen.matrix @ W - W @ M)))
    return worst
