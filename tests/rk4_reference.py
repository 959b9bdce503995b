"""The classical RK4 update out of place: the reference the stepper follows.

integrate's stepper advances fields f(x, out) in place; this reference takes
fields f(x) that return a fresh array, so it shares no buffer with the code
it checks.
"""


def rk4_step(f, y, dt):
    """One classical RK4 update of y with step dt."""
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
