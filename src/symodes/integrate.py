"""Fixed-step classical Runge-Kutta integration, batch-first.

States are arrays of shape (..., d) and vector fields map (..., d) to
(..., d), so a whole bundle of initial conditions integrates in lockstep.
The same fourth-order stepper drives trajectory generation, group flows,
variational (tangent) propagation, and the parameter-sensitivity systems, so
that quantities differentiated through the flow see exactly the discrete map
that produced the values: a tangent or sensitivity system is packed with its
state into one array (rk4_flow_tangents) and advanced by rk4_final.

Every field follows one contract: f(x, out) reads x and writes h(x) into
out, a stepper-owned array of x's shape.  rk4_final and rk4_record advance one
state in place through three scratch arrays kept for the whole integration,
so no step allocates, and in the order of y + (dt/6)(k1 + 2k2 + 2k3 + k4),
so the states have that out-of-place formula's bits.  rk4_record checks
finiteness once per recorded sample and replays a non-finite sample step
by step from the last recorded state, to name the first failing step: y + s
is non-finite wherever y is, so a state stays non-finite to the sample end.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np


class IntegrationError(RuntimeError):
    """Integration hit a non-finite state; `step` is the failing step index."""

    def __init__(self, step, message=None):
        super().__init__(message or
                         f"non-finite state at integration step {step}")
        self.step = step


def _stepper(f, y, dt):
    """A function advancing y, which the caller owns, one RK4 step in place.

    k1 goes straight into the slope sum acc, k2..k4 into k (then 2k); 0-d
    constants and positional outs make the cheapest ufunc calls.
    """
    k, stage, acc = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    half, full, sixth, two = map(np.array, (0.5 * dt, dt, dt / 6.0, 2.0))

    def step():
        f(y, acc)
        np.add(y, np.multiply(half, acc, stage), stage)
        for c in (half, full):
            f(stage, k)
            np.add(y, np.multiply(c, k, stage), stage)
            np.add(acc, np.multiply(two, k, k), acc)
        f(stage, k)
        np.add(acc, k, acc)
        np.add(y, np.multiply(sixth, acc, acc), y)

    return step


def rk4_final(f, y0, total_time, steps):
    """Endpoint of `steps` RK4 substeps; non-finite values propagate silently."""
    y = np.array(y0, dtype=float)
    step = _stepper(f, y, total_time / steps)
    for _ in repeat(None, steps):
        step()
    return y


def rk4_record(f, y0, dt_internal, n_internal, stride):
    """Integrate n_internal steps, recording every stride-th state.

    Returns an array of shape (n_internal // stride + 1, ...) that includes
    the initial state.  A non-finite state aborts with the offending
    internal step index.
    """
    if n_internal % stride != 0:
        raise ValueError("n_internal must be a multiple of stride")
    y = np.array(y0, dtype=float)
    out = np.empty((n_internal // stride + 1,) + y.shape)
    out[0] = y
    step = _stepper(f, y, dt_internal)
    for j in range(1, n_internal // stride + 1):
        for _ in repeat(None, stride):
            step()
        if not np.isfinite(y).all():
            y[...] = out[j - 1]
            for i in range((j - 1) * stride + 1, j * stride + 1):
                step()
                if not np.isfinite(y).all():
                    raise IntegrationError(i)
        out[j] = y
    return out


def rk4_flow_tangents(f, jac, y0, V0, total_time, steps):
    """Flow endpoint and tangents J_flow(y0) V0, with V0 of shape (..., d, m).

    The tangents follow the variational equation dV/dt = J_f(y) V rather
    than a finite difference of the flow.  y and V advance packed as one
    array z of shape (..., d, 1 + m), z[..., 0] = y and z[..., 1:] = V,
    through rk4_final.  Returns (y, V).
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
