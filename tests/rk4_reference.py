"""The classical RK4 update out of place: the reference the stepper follows.

integrate's stepper advances fields in place; this reference takes fields
f(x) that return a fresh array, so it shares no buffer with the code it
checks.  linear_field is the W-linear field such a reference integrates.
"""

import numpy as np


def rk4_step(f, y, dt):
    """One classical RK4 update of y with step dt."""
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def linear_field(lib, W):
    """W Theta with no buffers and no factor table: the bits to reproduce.

    Each monomial is the product of its variables in order, the exp(x_i)
    columns are np.exp of the gathered states, and the terms of the
    broadcast product are summed by a left fold in library order from +0.0.
    """
    monos = [t.exponents for t in lib.terms if not any(t.expflags)]
    exp_vars = [t.expflags.index(True) for t in lib.terms if any(t.expflags)]

    def h(X):
        cols = []
        for exps in monos:
            col = np.ones(X.shape[:-1])
            for i, e in enumerate(exps):
                for _ in range(e):
                    col = col * X[..., i]
            cols.append(col)
        theta = np.stack(cols, axis=-1)
        if exp_vars:
            theta = np.concatenate([theta, np.exp(X[..., exp_vars])], axis=-1)
        prod = theta[..., None, :] * W
        acc = np.zeros(prod.shape[:-1])
        for mu in range(prod.shape[-1]):
            acc = acc + prod[..., mu]
        return acc

    return h
