"""Fixed-step classical Runge-Kutta integration, batch-first.

States are arrays of shape (..., d) and vector fields map (..., d) to
(..., d), so a whole bundle of initial conditions integrates in lockstep.
The same fourth-order stepper drives trajectory generation, group flows,
variational (tangent) propagation, and the parameter-sensitivity systems, so
that quantities differentiated through the flow see exactly the discrete map
that produced the values: a tangent or sensitivity system is packed with its
state into one array (rk4_flow_tangents) and advanced by rk4_final.

rk4_final and rk4_record advance one state array in place, writing every
RK4 temporary into scratch arrays kept for the whole integration, so the
stepper allocates nothing per step and gives rk4_step's bits.  A field's
result is used only until its next call, so a field may return a buffer it
reuses or its own argument.
"""

from __future__ import annotations

import numpy as np


class IntegrationError(RuntimeError):
    """Integration hit a non-finite state; `step` is the failing step index."""

    def __init__(self, step, message=None):
        super().__init__(message or
                         f"non-finite state at integration step {step}")
        self.step = step


def rk4_step(f, y, dt):
    """One classical RK4 update: the reference the in-place stepper follows."""
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stepper(f, y, dt):
    """A function advancing y, which the caller owns, one RK4 step in place.

    Every product and sum of rk4_step, in its order, writes into one of
    three scratch arrays: the stage state, the weighted slope sum and one
    product.
    """
    stage, acc, tmp = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    half, sixth = 0.5 * dt, dt / 6.0

    def step():
        k = f(y)
        np.copyto(acc, k)
        np.add(y, np.multiply(half, k, out=stage), out=stage)
        for c in (half, dt):
            k = f(stage)
            np.add(acc, np.multiply(2.0, k, out=tmp), out=acc)
            np.add(y, np.multiply(c, k, out=stage), out=stage)
        np.add(acc, f(stage), out=acc)
        np.add(y, np.multiply(sixth, acc, out=acc), out=y)

    return step


def rk4_final(f, y0, total_time, steps):
    """Endpoint of `steps` RK4 substeps; non-finite values propagate silently."""
    y = np.array(y0, dtype=float)
    step = _stepper(f, y, total_time / steps)
    for _ in range(steps):
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
    for i in range(1, n_internal + 1):
        step()
        if not np.isfinite(y).all():
            raise IntegrationError(i)
        if i % stride == 0:
            out[i // stride] = y
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
    dz = np.empty(V0.shape[:-1] + (1 + V0.shape[-1],))

    def rhs(z):
        y = z[..., 0]
        dz[..., 0] = f(y)
        np.einsum("...ij,...jm->...im", jac(y), z[..., 1:], out=dz[..., 1:])
        return dz

    z = rk4_final(rhs, np.concatenate([y0[..., None], V0], axis=-1),
                  total_time, steps)
    # contiguous copies, so later BLAS products see fresh-array layouts
    return z[..., 0].copy(), z[..., 1:].copy()
