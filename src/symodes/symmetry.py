"""Point-symmetry generators, group elements, consistency checks, and losses.

A generator is a time-independent vector field v on state space, given either
as a matrix (v(x) = L x) or as symbolic components.  Exponentiating a
generator for a parameter eps yields a group element g = exp(eps v) acting on
states; linear generators exponentiate by matrix exponential, symbolic ones
by integrating dy/ds = v(y) for s in [0, eps].

For dynamics h, exact symmetry can be written four ways (commutator of fields,
equivariance of h under g, equivariance of the time-tau flow under g, and the
flow-Jacobian pushforward of v), each of which becomes a relative residual
loss here:

    igie:  |J_v h - J_h v|^2        / |J_v h|^2
    fgie:  |J_g h - h(g x)|^2       / |J_g h|^2
    igfe:  |J_f v - v(f(x))|^2      / |J_f v|^2
    fgfe:  |f(g x) - g f(x)|^2      / |f(g x) - f(x)|^2

igie and igfe need no group element; igfe and fgfe integrate the learned
flow.  Only igfe's gradient needs second derivatives of the learned dynamics
(the tangent's sensitivity); every value and the other gradients use first
derivatives at most.  Losses average the per-point, per-generator ratios;
points whose denominator underflows DENOM_TOL are skipped and counted
instead of clamped.

For models that are linear in their parameters, h(x) = W Theta(x), every loss
also has an analytic gradient in W, obtained by propagating parameter
sensitivities through the discrete Runge-Kutta map that computes the loss
alongside it (finite differences appear only in tests).  That loss agrees
with the value losses' to a relative 1e-10, not bit for bit, because the two
paths sum W Theta in different orders.  Both average their ratios with one
accumulator, so both skip points and raise DegenerateLossError alike.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .expressions import differentiate, evaluate_all, parse, to_string
from .integrate import IntegrationError, rk4_final, rk4_flow_tangents

DENOM_TOL = 1e-30
DEFAULT_EPS = 0.1
DEFAULT_FLOW_STEPS = 64

LOSS_KINDS = ("igfe", "fgfe", "fgie", "igie")


class DegenerateLossError(ValueError):
    """Every point in a loss batch had an underflowing denominator."""


def matrix_exponential(A):
    """exp(A) by scaling-and-squaring with Pade approximation."""
    return scipy.linalg.expm(np.asarray(A, dtype=float))


class Generator:
    """Infinitesimal symmetry generator, linear or symbolic."""

    def __init__(self, dim, matrix=None, components=None, label=""):
        self.dim = int(dim)
        self.label = label
        if (matrix is None) == (components is None):
            raise ValueError("provide exactly one of matrix or components")
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=float)
            if matrix.shape != (self.dim, self.dim):
                raise ValueError(f"matrix must be {(self.dim, self.dim)}")
            self.matrix = matrix
            self.components = None
            self._jac_exprs = None
        else:
            comps = []
            for c in components:
                comps.append(parse(c, self.dim) if isinstance(c, str) else c)
            if len(comps) != self.dim:
                raise ValueError(f"need {self.dim} components")
            self.matrix = None
            self.components = tuple(comps)
            # row-major: entry (i, j) is at i * dim + j
            self._jac_exprs = [differentiate(c, j) for c in comps
                               for j in range(self.dim)]

    @classmethod
    def linear(cls, matrix, label=""):
        matrix = np.asarray(matrix, dtype=float)
        return cls(matrix.shape[0], matrix=matrix, label=label)

    @classmethod
    def symbolic(cls, components, dim, label=""):
        return cls(dim, components=components, label=label)

    @property
    def is_linear(self):
        return self.matrix is not None

    def __call__(self, X):
        """v(X) for X of shape (..., d)."""
        X = np.asarray(X, dtype=float)
        if self.is_linear:
            return X @ self.matrix.T
        return evaluate_all(self.components, X)

    def jacobian(self, X):
        """J_v(X), shape (..., d, d)."""
        X = np.asarray(X, dtype=float)
        if self.is_linear:
            return np.broadcast_to(self.matrix,
                                   X.shape[:-1] + (self.dim, self.dim)).copy()
        return evaluate_all(self._jac_exprs, X).reshape(
            X.shape[:-1] + (self.dim, self.dim))

    def to_config(self):
        if self.is_linear:
            cfg = {"kind": "linear", "matrix": self.matrix.tolist()}
        else:
            cfg = {"kind": "symbolic",
                   "components": [to_string(c) for c in self.components]}
        if self.label:
            cfg["label"] = self.label
        return cfg

    @classmethod
    def from_config(cls, cfg, dim):
        kind = cfg.get("kind")
        label = cfg.get("label", "")
        if kind == "linear":
            return cls(dim, matrix=cfg["matrix"], label=label)
        if kind == "symbolic":
            return cls(dim, components=cfg["components"], label=label)
        raise ValueError(f"unknown generator kind {kind!r}")

    def __repr__(self):
        if self.is_linear:
            return f"Generator(linear, d={self.dim}, label={self.label!r})"
        comps = ", ".join(to_string(c) for c in self.components)
        return f"Generator([{comps}], label={self.label!r})"


class GroupElement:
    """Finite transform g = exp(eps * v) of a generator v."""

    def __init__(self, generator, eps, steps=DEFAULT_FLOW_STEPS):
        self.generator = generator
        self.eps = float(eps)
        self.steps = int(steps)
        self._A = (matrix_exponential(self.eps * generator.matrix)
                   if generator.is_linear else None)

    def transform(self, X):
        """g . X; integrates the generator flow for symbolic generators."""
        X = np.asarray(X, dtype=float)
        if self._A is not None:
            return X @ self._A.T
        if self.eps == 0.0:
            return X.copy()
        Y = rk4_final(self.generator, X, self.eps, self.steps)
        if not np.all(np.isfinite(Y)):
            raise IntegrationError(
                self.steps, "group flow diverged before reaching eps")
        return Y

    def jacobian(self, X):
        """J_g(X), shape (..., d, d), via the variational equation."""
        X = np.asarray(X, dtype=float)
        d = self.generator.dim
        if self._A is not None:
            return np.broadcast_to(self._A, X.shape[:-1] + (d, d)).copy()
        if self.eps == 0.0:
            return np.broadcast_to(np.eye(d), X.shape[:-1] + (d, d)).copy()
        _, J = rk4_flow_tangents(self.generator, self.generator.jacobian,
                                 X, np.eye(d), self.eps, self.steps)
        if not np.all(np.isfinite(J)):
            raise IntegrationError(
                self.steps, "group flow Jacobian diverged")
        return J


def check_infinitesimal_criterion(oracle, generators, points, tol=1e-8):
    """Normalized commutator residuals |J_h v - J_v h| / (1 + |J_v h|).

    Returns a dict with max/mean residuals overall and per generator, and a
    `consistent` flag (max <= tol).
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    h = oracle.h(X)
    Jh = oracle.h_jacobian(X)
    per_gen = []
    all_res = []
    for gen in generators:
        v, Jv = gen(X), gen.jacobian(X)
        lhs = np.einsum("...ij,...j->...i", Jh, v)
        rhs = np.einsum("...ij,...j->...i", Jv, h)
        res = np.linalg.norm(lhs - rhs, axis=-1) / (
            1.0 + np.linalg.norm(rhs, axis=-1))
        per_gen.append({
            "label": gen.label or gen.to_config()["kind"],
            "max": float(res.max()),
            "mean": float(res.mean()),
        })
        all_res.append(res)
    if not all_res:
        raise ValueError("no generators to check")
    stack = np.concatenate(all_res)
    return {
        "max": float(stack.max()),
        "mean": float(stack.mean()),
        "tol": float(tol),
        "consistent": bool(stack.max() <= tol),
        "per_generator": per_gen,
    }


# -- loss values ---------------------------------------------------------------
#
# The value losses take any dynamics object that provides what they call on a
# batch of points: h and h_jacobian (igie), h (fgie), flow_jvp (igfe) or flow
# (fgfe).  SindyModel provides all four.


class _Quotient:
    """Accumulates mean(num/den) over points and generators.

    With parameter sensitivities it also accumulates the W-gradient.
    """

    def __init__(self, shape_dp=None):
        self.total = 0.0
        self.grad = None if shape_dp is None else np.zeros(shape_dp)
        self.used = 0
        self.skipped = 0

    def add(self, u, s, du=None, ds=None):
        """u, s: (n, d) residual/denominator vectors; du, ds: (n, d, p, d)."""
        num = np.sum(u * u, axis=-1)
        den = np.sum(s * s, axis=-1)
        mask = den >= DENOM_TOL
        self.used += int(mask.sum())
        self.skipped += int((~mask).sum())
        if not mask.any():
            return
        num, den = num[mask], den[mask]
        self.total += float(np.sum(num / den))
        if du is None:
            return
        u, du, s, ds = u[mask], du[mask], s[mask], ds[mask]
        dnum = 2.0 * np.einsum("ni,nima->nma", u, du)
        dden = 2.0 * np.einsum("ni,nima->nma", s, ds)
        g = dnum / den[:, None, None] - (num / den ** 2)[:, None, None] * dden
        self.grad += g.sum(axis=0).T  # (p, d) -> (d, p)

    def result(self):
        """The mean, or (mean, gradient) when a gradient was accumulated."""
        if self.used == 0 and self.skipped:
            raise DegenerateLossError(
                "all points were skipped (denominators below tolerance)")
        n = self.used or 1  # no points at all: 0.0 and a zero gradient
        value = self.total / n
        return value if self.grad is None else (value, self.grad / n)


def loss_igie(oracle, generators, X):
    """Commutator defect of h against each generator, relative form."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    h = oracle.h(X)
    Jh = oracle.h_jacobian(X)
    acc = _Quotient()
    for gen in generators:
        v, Jv = gen(X), gen.jacobian(X)
        jvh = np.einsum("nij,nj->ni", Jv, h)
        jhv = np.einsum("nij,nj->ni", Jh, v)
        acc.add(jvh - jhv, jvh)
    return acc.result()


def loss_fgie(oracle, generators, X, eps=DEFAULT_EPS,
              steps=DEFAULT_FLOW_STEPS):
    """Equivariance defect of h under the finite transforms exp(eps v)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    h = oracle.h(X)
    acc = _Quotient()
    for gx, Jg in precompute_transforms(generators, X, eps, steps):
        jgh = np.einsum("nij,nj->ni", Jg, h)
        acc.add(jgh - oracle.h(gx), jgh)
    return acc.result()


def loss_igfe(oracle, generators, X, tau, steps=DEFAULT_FLOW_STEPS):
    """Pushforward defect: flow Jacobian applied to v versus v at the endpoint."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    acc = _Quotient()
    for gen in generators:
        y_end, jvp = oracle.flow_jvp(X, gen(X), tau, steps)
        acc.add(jvp - gen(y_end), jvp)
    return acc.result()


def loss_fgfe(oracle, generators, X, tau, eps=DEFAULT_EPS,
              steps=DEFAULT_FLOW_STEPS):
    """Flow equivariance defect under the finite transforms exp(eps v)."""
    _check_loss_args("fgfe", tau, eps)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    fx = oracle.flow(X, tau, steps)
    acc = _Quotient()
    for gen in generators:
        g = GroupElement(gen, eps, steps)
        fgx = oracle.flow(g.transform(X), tau, steps)
        gfx = g.transform(fx)
        acc.add(fgx - gfx, fgx - fx)
    return acc.result()


def precompute_transforms(generators, X, eps=DEFAULT_EPS,
                          steps=DEFAULT_FLOW_STEPS):
    """(g . X, J_g(X)) per generator."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = []
    for gen in generators:
        g = GroupElement(gen, eps, steps)
        out.append((g.transform(X), g.jacobian(X)))
    return out


def _check_loss_args(kind, tau, eps):
    """The argument rules shared by the value and gradient paths."""
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected {LOSS_KINDS}")
    if kind in ("igfe", "fgfe") and tau is None:
        raise ValueError(f"loss {kind!r} integrates the flow and needs tau")
    if kind == "fgfe" and eps == 0.0:
        raise ValueError("fgfe needs a nontrivial group element (eps != 0)")


def symmetry_loss(kind, oracle, generators, X, tau=None, eps=DEFAULT_EPS,
                  steps=DEFAULT_FLOW_STEPS):
    """Dispatch on loss kind; tau is required for the flow-based losses."""
    _check_loss_args(kind, tau, eps)
    if kind == "igie":
        return loss_igie(oracle, generators, X)
    if kind == "fgie":
        return loss_fgie(oracle, generators, X, eps=eps, steps=steps)
    if kind == "igfe":
        return loss_igfe(oracle, generators, X, tau, steps=steps)
    return loss_fgfe(oracle, generators, X, tau, eps=eps, steps=steps)


# -- analytic gradients for W-linear models -----------------------------------
#
# The model is h(x) = W Theta(x) with W of shape (d, p).  Sensitivities are
# carried as tensors S[n, i, mu, a] = d y_i / d W_{a mu}, so the direct term
# of d(W Theta)/dW is Theta outer identity.


def _direct_term(coefs, d):
    """(n, p) coefficients -> (n, d, p, d) tensor delta_{ia} coefs[n, mu]."""
    return np.einsum("nm,ia->nima", coefs, np.eye(d))


def _flow_with_sensitivity(W, lib, X, tau, steps, V0=None):
    """Integrate y (and optionally a tangent delta) with d/dW sensitivities.

    Returns (y, Sy) or (y, delta, Sy, Sdelta); S arrays have shape
    (n, d, p, d) indexed [point, state, column, row] of W.  The parts
    advance packed along the last axis of one (n, d, k) array, per state
    component: y, [delta], Sy, [Sdelta], through rk4_final.
    """
    W = np.asarray(W, dtype=float)
    d, p = W.shape
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    k = 1 if V0 is None else 2       # y and, if given, the tangent delta
    z0 = np.zeros((n, d, k * (1 + p * d)))
    z0[..., 0] = X
    if V0 is not None:
        z0[..., 1] = V0
    dz = np.empty_like(z0)

    def split(z):
        """Views [y, (delta,) Sy, (Sdelta)] of a packed array."""
        S = z[..., k:].reshape(n, d, k, p, d)
        return [z[..., i] for i in range(k)] + [S[:, :, i] for i in range(k)]

    def rhs(z):
        v, out = split(z), split(dz)
        y, Sy = v[0], v[k]
        Th = lib.evaluate(y)
        Jth = lib.jacobian(y)
        Jh = np.einsum("ip,npj->nij", W, Jth)
        out[0][...] = Th @ W.T
        out[k][...] = (_direct_term(Th, d)
                       + np.einsum("nij,njma->nima", Jh, Sy))
        if k == 2:
            de, Sd = v[1], v[3]
            out[1][...] = np.einsum("nij,nj->ni", Jh, de)
            T = np.einsum("ip,npk->nik", W, lib.hessian_vp(y, de))
            out[3][...] = (_direct_term(np.einsum("npj,nj->np", Jth, de), d)
                           + np.einsum("nik,nkma->nima", T, Sy)
                           + np.einsum("nij,njma->nima", Jh, Sd))
        return dz

    return tuple(a.copy() for a in split(rk4_final(rhs, z0, tau, steps)))


def symmetry_loss_grad(kind, model, generators, X, tau=None, eps=DEFAULT_EPS,
                       steps=DEFAULT_FLOW_STEPS):
    """(loss, d loss / dW) for a W-linear model.

    `model` must expose W (d, p) and lib; SindyModel qualifies.  The flow
    losses differentiate the discrete integrator itself, so the gradient is
    exact for the loss this path computes.  That loss agrees with
    symmetry_loss to a relative 1e-10, not bit for bit: here W Theta is a
    BLAS product, while the value path sums it in LinearField's fixed order.
    """
    _check_loss_args(kind, tau, eps)
    W = np.asarray(model.W, dtype=float)
    lib = model.lib
    d, p = W.shape
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not generators:
        return 0.0, np.zeros((d, p))
    acc = _Quotient((d, p))

    if kind == "igie":
        Th = lib.evaluate(X)
        Jth = lib.jacobian(X)
        h = Th @ W.T
        for gen in generators:
            v, Jv = gen(X), gen.jacobian(X)
            s = np.einsum("nij,nj->ni", Jv, h)
            jtv = np.einsum("npj,nj->np", Jth, v)
            u = s - jtv @ W.T
            # ds_i/dW_{a mu} = Jv[i, a] Theta_mu; du subtracts the direct
            # term of d(J_h v)/dW
            ds = np.einsum("nia,nm->nima", Jv, Th)
            du = ds - _direct_term(jtv, d)
            acc.add(u, s, du, ds)
    elif kind == "fgie":
        Th = lib.evaluate(X)
        h = Th @ W.T
        for gx, Jg in precompute_transforms(generators, X, eps, steps):
            Thg = lib.evaluate(gx)
            s = np.einsum("nij,nj->ni", Jg, h)
            u = s - Thg @ W.T
            ds = np.einsum("nia,nm->nima", Jg, Th)
            du = ds - _direct_term(Thg, d)
            acc.add(u, s, du, ds)
    elif kind == "igfe":
        for gen in generators:
            y, de, Sy, Sd = _flow_with_sensitivity(W, lib, X, tau, steps,
                                                   V0=gen(X))
            Jv_end = gen.jacobian(y)
            u = de - gen(y)
            du = Sd - np.einsum("nij,njma->nima", Jv_end, Sy)
            acc.add(u, de, du, Sd)
    else:  # fgfe
        y2, S2 = _flow_with_sensitivity(W, lib, X, tau, steps)
        for gen in generators:
            g = GroupElement(gen, eps, steps)
            gX = g.transform(X)
            y1, S1 = _flow_with_sensitivity(W, lib, gX, tau, steps)
            gfx = g.transform(y2)
            Jg2 = g.jacobian(y2)
            u = y1 - gfx
            du = S1 - np.einsum("nij,njma->nima", Jg2, S2)
            w = y1 - y2
            dw = S1 - S2
            acc.add(u, w, du, dw)
    return acc.result()
