"""The structure matrix of a linear generator, from the symbolic path.

For v(x) = L x and a polynomial library, J_Theta(x) L x = M Theta(x): row mu
of M is the library coordinates of sum_j d(theta_mu)/dx_j (L x)_j, built by
`differentiate` and read by `m_theta`.  Nothing in the constraint code builds
M, so the commutator check L W - W M that uses it is independent of the
sampled constraint it checks.
"""

import numpy as np

from symodes.expressions import Expr, differentiate, monomial
from symodes.library import m_theta


def structure_matrix(lib, L):
    """M with J_Theta(x) L x = M Theta(x)."""
    d = lib.dim
    if np.shape(L) != (d, d):
        raise ValueError(f"generator matrix must be {(d, d)}")
    Lx = []
    for j in range(d):
        comp = Expr.const(0.0)
        for k in range(d):
            comp = Expr.add(comp, Expr.mul(Expr.const(L[j][k]), Expr.var(k)))
        Lx.append(comp)
    rows = []
    for t in lib.terms:
        theta = monomial(t.exponents, tuple(map(int, t.expflags)))
        row = Expr.const(0.0)
        for j in range(d):
            row = Expr.add(row, Expr.mul(differentiate(theta, j), Lx[j]))
        rows.append(row)
    return m_theta(lib, rows)
