"""Fixed-step classical Runge-Kutta integration.

States are arrays of shape (..., d) and vector fields map (..., d) to
(..., d), so a whole bundle of initial conditions integrates in lockstep.
The same fourth-order stepper drives trajectory generation, group flows,
variational (tangent) propagation, and the parameter-sensitivity systems, so
that quantities differentiated through the flow see exactly the discrete map
that produced the values: a tangent or sensitivity system is packed with its
state into one array (rk4_flow_tangents) and advanced by rk4_final.

An integration is bound once, when it starts, into one flat list of
(ufunc, args) calls over buffers fixed then: one RK4 step, which rk4_final
and rk4_record run as often as asked, so no step allocates.  A BoundField
(dynamics.LinearField, expressions.TreeField, bench's stacked field) hands
over its own calls: its state, slopes and stages live in its batch-last
layout (d,) + batch, each stage's y + c k is written straight into its
input buffer x, and its steps(out) write h(x) straight into the stepper's
slope buffer out.  A LinearField's calls evaluate only the library
columns its W uses, with the bits of the full W Theta, except that a
non-finite Theta in an unused column no longer makes h NaN (so a state
that only such a column would have made non-finite integrates on).  Any
other field is a callable f(x, out) that reads x and writes h(x) into
out, a stepper-owned array of the states' own shape: the one call
(f, (x, out)) per stage.  The calls follow the order of
y + (dt/6)(k1 + 2k2 + 2k3 + k4), so the states have that out-of-place
formula's bits.  rk4_record checks finiteness once per recorded sample and
replays a non-finite sample step by step from the last recorded state, to
name the first failing step: y + s is non-finite wherever y is, so a state
stays non-finite to the sample end.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np


class IntegrationError(RuntimeError):
    """Integration hit a non-finite state; `step` is the failing step index."""

    def __init__(self, step, message=None):
        super().__init__(message or
                         f"non-finite state at integration step {step}")
        self.step = step


class BoundField:
    """A vector field bound to states of one batch shape, as calls.

    A subclass sets up its buffers, then passes its input buffer x, of
    shape (d,) + batch, to this __init__, and defines steps(out): the
    (ufunc, args) calls that read x and write h(x) into out, an array of
    x's shape.  f(X, out) writes h(X) for X of shape batch + (d,) into out,
    allocating nothing, and f(X) returns a fresh array: the same calls,
    between a copy in and a copy out.
    """

    def __init__(self, x):
        self.x = x
        h = np.empty(x.shape)
        self._calls = self.steps(h)
        self._x_in, self._h_out = np.moveaxis(x, 0, -1), np.moveaxis(h, 0, -1)

    def __call__(self, X, out=None):
        """h(X) for X of the bound shape (..., d), written into out if given."""
        self._x_in[...] = X
        _run(self._calls)
        if out is None:
            return self._h_out.copy()
        out[...] = self._h_out
        return out


def _run(calls, times=1):
    for ufunc, args in chain.from_iterable(repeat(calls, times)):
        ufunc(*args)


def _bind(f, y0, dt):
    """(y, state, calls): one RK4 step of field f from y0, bound.

    calls advance y, the state in f's layout, in place; state is y laid
    out as y0 (a view).  k1 goes straight into the slope sum acc, k2..k4
    into k (then 2k); 0-d constants make the cheapest ufunc calls.
    """
    if isinstance(f, BoundField):
        y = np.empty(f.x.shape)
        state = np.moveaxis(y, 0, -1)
        if state.shape != np.shape(y0):
            raise ValueError(f"states of shape {np.shape(y0)} do not fit a "
                             f"field bound to {state.shape}")
        state[...] = y0
        x, acc, k = f.x, np.empty_like(y), np.empty_like(y)
        calls, hk = [(np.copyto, (x, y))] + f.steps(acc), f.steps(k)
    else:
        y = state = np.array(y0, dtype=float)
        x, acc, k = np.empty_like(y), np.empty_like(y), np.empty_like(y)
        calls, hk = [(f, (y, acc))], [(f, (x, k))]
    half, full, sixth, two = map(np.array, (0.5 * dt, dt, dt / 6.0, 2.0))
    calls += [(np.multiply, (half, acc, x)), (np.add, (y, x, x))]
    for c in (half, full):
        calls += hk + [(np.multiply, (c, k, x)), (np.add, (y, x, x)),
                       (np.multiply, (two, k, k)), (np.add, (acc, k, acc))]
    calls += hk + [(np.add, (acc, k, acc)),
                   (np.multiply, (sixth, acc, acc)), (np.add, (y, acc, y))]
    return y, state, calls


def _check_count(name, value, least):
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def rk4_final(f, y0, total_time, steps):
    """Endpoint of `steps` RK4 substeps; non-finite values propagate silently."""
    _check_count("steps", steps, 1)
    y, state, calls = _bind(f, y0, total_time / steps)
    _run(calls, steps)
    return np.ascontiguousarray(state)


def rk4_record(f, y0, dt_internal, n_internal, stride):
    """Integrate n_internal steps, recording every stride-th state.

    Returns an array of shape (n_internal // stride + 1, ...) that includes
    the initial state.  A non-finite state aborts with the offending
    internal step index.
    """
    _check_count("stride", stride, 1)
    _check_count("n_internal", n_internal, 0)
    if n_internal % stride != 0:
        raise ValueError("n_internal must be a multiple of stride")
    y, state, calls = _bind(f, y0, dt_internal)
    out = np.empty((n_internal // stride + 1,) + state.shape)
    out[0] = state
    for j in range(1, n_internal // stride + 1):
        _run(calls, stride)
        if not np.isfinite(y).all():
            state[...] = out[j - 1]
            for i in range((j - 1) * stride + 1, j * stride + 1):
                _run(calls)
                if not np.isfinite(y).all():
                    raise IntegrationError(i)
        out[j] = state
    return out


def rk4_flow_tangents(f, jac, y0, V0, total_time, steps):
    """Flow endpoint and tangents J_flow(y0) V0, with V0 of shape (..., d, m).

    The tangents follow the variational equation dV/dt = J_f(y) V rather
    than a finite difference of the flow.  y and V advance packed as one
    array z of shape (..., d, 1 + m), z[..., 0] = y and z[..., 1:] = V,
    through rk4_final.  jac(y) is called right after f(y, .), at the same
    y, so it may read what f computed there.  Returns (y, V).
    """
    y0, V0 = np.asarray(y0, dtype=float), np.asarray(V0, dtype=float)
    V0 = np.broadcast_to(V0, y0.shape + V0.shape[-1:])

    def rhs(z, dz):
        y = z[..., 0]
        f(y, dz[..., 0])
        np.einsum("...ij,...jm->...im", jac(y), z[..., 1:], out=dz[..., 1:])

    z = rk4_final(rhs, np.concatenate([y0[..., None], V0], axis=-1),
                  total_time, steps)
    # contiguous copies, so later BLAS products see fresh-array layouts
    return z[..., 0].copy(), z[..., 1:].copy()
