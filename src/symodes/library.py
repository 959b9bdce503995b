"""Polynomial (plus optional exponential) function libraries.

A library Theta(x) = [theta_1(x), ..., theta_p(x)] collects all monomials in
x1..xd up to a total degree, ordered graded-lexicographically with the
constant term first (1, x1, .., xd, x1^2, x1*x2, ...), optionally followed by
exp(x1)..exp(xd).  Candidate dynamics are linear combinations h(x) = W
Theta(x) with W of shape (d, p).

Every monomial of degree at most q is the product of exactly q factors drawn
from [1, x1, .., xd] (x1*x2 in a degree-3 library is 1 * x1 * x2), so the
library stores that factor table once, transposed to (q, p_mono), and one
kernel, ThetaKernel, evaluates Theta from it: no powers, and the bits of a
row do not depend on how many rows are evaluated together.  Derivatives
reuse Theta: d(x^e)/dx_j = e_j x^(e - 1_j) is itself a library monomial, so
the Jacobian is one gather from Theta times a constant coefficient table,
and the Hessian likewise with e - 1_j - 1_k.

Canonicalization maps an arbitrary expression tree onto library coordinates
when possible, which is how true coefficient matrices and term-set
comparisons are computed.  There is no numerical fitting anywhere in this
module.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .expressions import Expr, expand, monomial

COEFF_DROP_TOL = 1e-12
THETA_ROW_BLOCK = 1024


class NotInSpanError(ValueError):
    """An expression falls outside the span of the requested library."""


@dataclass(frozen=True)
class TermKey:
    """Identity of one library term: exponent vector plus exp flags.

    At most one exp flag may be set, and a set flag forces all exponents to
    zero (libraries contain pure monomials and pure exp(x_i), never mixed
    products).
    """

    exponents: tuple
    expflags: tuple

    def __post_init__(self):
        if len(self.exponents) != len(self.expflags):
            raise ValueError("exponents and expflags must have equal length")
        if sum(self.expflags) > 1:
            raise ValueError("at most one exp flag may be set")
        if any(self.expflags) and any(self.exponents):
            raise ValueError("exp flags are exclusive with nonzero exponents")

    @property
    def degree(self):
        return sum(self.exponents)

    def label(self):
        if any(self.expflags):
            i = self.expflags.index(True)
            return f"exp(x{i + 1})"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts) if parts else "1"


class FunctionLibrary:
    """Ordered term basis with vectorized evaluation and derivatives.

    Theta comes from a ThetaKernel: evaluate binds one to its row blocks,
    and dynamics.LinearField binds one for its whole lifetime.
    """

    def __init__(self, dim, degree, include_exponentials=False):
        if dim < 1:
            raise ValueError("dim must be at least 1")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.dim = int(dim)
        self.degree = int(degree)
        self.include_exponentials = bool(include_exponentials)
        self.terms = tuple(_ordered_terms(self.dim, self.degree,
                                          self.include_exponentials))
        self.size = len(self.terms)
        self._index = {t: i for i, t in enumerate(self.terms)}
        self._n_mono = sum(1 for t in self.terms if not any(t.expflags))
        self._jac_src, self._jac_coef = self._derivative_table(1)
        self._hess_src, self._hess_coef = self._derivative_table(2)

    def __len__(self):
        return self.size

    def __repr__(self):
        tail = "+exp" if self.include_exponentials else ""
        return f"FunctionLibrary(d={self.dim}, q={self.degree}{tail}, p={self.size})"

    def index_of(self, key):
        try:
            return self._index[key]
        except KeyError:
            raise NotInSpanError(f"term {key.label()} is not in {self!r}")

    def labels(self):
        return [t.label() for t in self.terms]

    # -- numerics --------------------------------------------------------

    def evaluate(self, X, out=None):
        """Theta(X) for X of shape (..., d); returns a C-ordered (..., p).

        Row blocks go through one kernel bound to their shape (a shorter
        last block binds its own), so only the result is held whole; an
        (N, p) out of any strides, for X of shape (N, d), is filled instead."""
        rows = np.asarray(X, dtype=float).reshape(-1, self.dim)
        theta = np.empty((len(rows), self.size)) if out is None else out
        for r in range(0, len(rows), THETA_ROW_BLOCK):
            block = rows[r:r + THETA_ROW_BLOCK]
            if r == 0 or len(block) < THETA_ROW_BLOCK:
                kernel = ThetaKernel(self, (len(block),))
            kernel.pad[1:] = block.T
            theta[r:r + len(block)] = kernel().T
        return theta.reshape(np.shape(X)[:-1] + (self.size,))

    def jacobian(self, X, theta=None):
        """d Theta / dx, shape (..., p, d); theta, if given, is Theta(X)."""
        theta = self.evaluate(X) if theta is None else theta
        return theta[..., self._jac_src] * self._jac_coef

    def hessian_vp(self, X, U, theta=None):
        """Sum_j d^2 Theta / dx dx_j * U_j, shape (..., p, d).

        Entry (mu, k) is the k-th component of the Hessian of term mu applied
        to the direction U at X; theta is as in jacobian.
        """
        U = np.asarray(U, dtype=float)
        theta = self.evaluate(X) if theta is None else theta
        H = theta[..., self._hess_src] * self._hess_coef
        return (H * U[..., None, :, None]).sum(axis=-2)

    @functools.cached_property
    def _gather_index(self):
        """ThetaKernel's gather, C-ordered (q, n_mono [+ d]) indices into
        [1, x1, .., xd]: every monomial's factors, then for each exp(x_i)
        x_i in the first row, the rest unused."""
        # two factors at least (1 * x is x, bit for bit), so every product
        # in ThetaKernel starts with one multiply
        rows = _factor_table(self.terms[:self._n_mono], max(self.degree, 2))
        if self.include_exponentials:
            args = np.zeros((self.dim, rows.shape[1]), dtype=np.intp)
            args[:, 0] = np.arange(1, self.dim + 1)
            rows = np.vstack([rows, args])
        return np.ascontiguousarray(rows.T)

    def _derivative_table(self, order):
        """(src, coef) with d^order theta_mu / dx_j (dx_k) = coef * Theta[src].

        src and coef have shape (p,) + (d,) * order.  Each derivative of a
        library term is a constant times a library term (a lower monomial,
        or the same exp(x_i)); a vanishing one points at the constant term
        with coefficient 0, so it stays 0 wherever Theta is finite.
        """
        shape = (self.size,) + (self.dim,) * order
        src = np.zeros(shape, dtype=np.intp)
        coef = np.zeros(shape)
        for mu, t in enumerate(self.terms):
            for js in itertools.product(range(self.dim), repeat=order):
                if any(t.expflags):
                    if all(j == t.expflags.index(True) for j in js):
                        src[(mu,) + js], coef[(mu,) + js] = mu, 1.0
                    continue
                e, c = list(t.exponents), 1.0
                for j in js:
                    c *= e[j]
                    e[j] -= 1
                if c != 0.0:
                    src[(mu,) + js] = self._index[TermKey(tuple(e),
                                                          t.expflags)]
                    coef[(mu,) + js] = c
        return src, coef


class ThetaKernel:
    """Theta of one library on one batch shape, into buffers bound here.

    The caller writes the states batch-last into pad[1:] (pad[0] holds the
    ones), (1 + d,) + batch; steps() are the calls that fill theta,
    (p,) + copies + batch, Theta repeated along the copies axes, allocating
    nothing, and a call runs them and returns theta.  One gather takes
    every monomial's factors, and the exp arguments, from pad; the factors
    are multiplied in place, left to right as np.multiply.reduce does; the
    exp(x_1) .. exp(x_d) rows, which follow the monomials, come last.
    """

    def __init__(self, lib, batch, copies=()):
        batch, copies, n_mono = tuple(batch), tuple(copies), lib._n_mono
        self._index = lib._gather_index
        for n in copies:
            self._index = self._index[..., None].repeat(n, -1)
        self.pad = np.zeros((1 + lib.dim,) + batch)
        self.pad[0] = 1.0
        self.theta = np.empty((lib.size,) + copies + batch)
        self._gather = np.empty(self._index.shape + batch)
        self._first, self._second, *self._rest = self._gather[:, :n_mono]
        self._mono = self.theta[:n_mono]
        self._exp = ((self._gather[0, n_mono:], self.theta[n_mono:])
                     if lib.include_exponentials else None)

    def steps(self):
        """Theta's (ufunc, args) calls: one gather, then in-place products."""
        mono = self._mono
        calls = [(self.pad.take, (self._index, 0, self._gather, "clip")),
                 (np.multiply, (self._first, self._second, mono))]
        calls += [(np.multiply, (mono, row, mono)) for row in self._rest]
        if self._exp:
            calls.append((np.exp, self._exp))
        return calls

    def __call__(self):
        for ufunc, args in self.steps():
            ufunc(*args)
        return self.theta


def _ordered_terms(dim, degree, include_exponentials):
    tuples = [e for e in itertools.product(range(degree + 1), repeat=dim)
              if sum(e) <= degree]
    tuples.sort(key=lambda e: (sum(e), tuple(-v for v in e)))
    flags0 = (False,) * dim
    terms = [TermKey(t, flags0) for t in tuples]
    if include_exponentials:
        for i in range(dim):
            flags = tuple(j == i for j in range(dim))
            terms.append(TermKey((0,) * dim, flags))
    expect = math.comb(dim + degree, degree) + (dim if include_exponentials
                                                else 0)
    assert len(terms) == expect
    return terms


def _factor_table(monomials, degree):
    """(n_mono, degree) indices into [1, x1, .., xd] whose product is x^e.

    A monomial of degree s takes degree - s leading factors of 1, then x_i
    e_i times in variable order.
    """
    rows = [[0] * (degree - t.degree)
            + [i + 1 for i, e in enumerate(t.exponents) for _ in range(e)]
            for t in monomials]
    return np.array(rows, dtype=np.intp).reshape(len(rows), degree)


def build_library(dim, degree, include_exponentials=False):
    return FunctionLibrary(dim, degree, include_exponentials)


# -- canonicalization ---------------------------------------------------------


def canonicalize(e, lib):
    """Coefficients of e in library coordinates, or None if outside the span.

    Coefficients with magnitude below COEFF_DROP_TOL are dropped before the
    span check, so numerically-zero out-of-library terms do not poison the
    result.  The returned dict iterates in library order.
    """
    raw = expand(e, lib.dim)
    if raw is None:
        return None
    coeffs = {}
    for (exps, ecounts), c in raw.items():
        if abs(c) < COEFF_DROP_TOL:
            continue
        if not any(ecounts):
            key = TermKey(exps, (False,) * lib.dim)
        elif sum(ecounts) == 1 and not any(exps):
            key = TermKey(exps, tuple(n == 1 for n in ecounts))
        else:
            return None
        if key not in lib._index:
            return None
        coeffs[key] = coeffs.get(key, 0.0) + c
    return {t: coeffs[t] for t in lib.terms if t in coeffs}


def from_canonical(coeffs, lib):
    """Rebuild an expression tree from library coordinates."""
    out = None
    for key, c in coeffs.items():
        lib.index_of(key)  # NotInSpanError for a key outside lib
        term = Expr.mul(Expr.const(c),
                        monomial(key.exponents, tuple(map(int, key.expflags))))
        out = term if out is None else Expr.add(out, term)
    return out if out is not None else Expr.const(0.0)


def m_theta(lib, components):
    """Symbolic coordinate matrix M with components(x) = M Theta(x).

    components is a sequence of expression trees (or strings are not accepted
    here; parse them first).  Raises NotInSpanError naming the offending
    component when one falls outside span(Theta).
    """
    rows = np.zeros((len(components), lib.size))
    for r, comp in enumerate(components):
        coeffs = canonicalize(comp, lib)
        if coeffs is None:
            raise NotInSpanError(
                f"component {r + 1} ({comp}) is outside the span of {lib!r}")
        for key, c in coeffs.items():
            rows[r, lib.index_of(key)] = c
    return rows

