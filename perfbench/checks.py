"""Correctness checks of one benchmark run, computed apart from symodes.

Each check returns a list of failure messages; an empty list means it
passed.  Reference values come from closed forms, scipy's own integrator or
plain numpy, never from the symodes code under test, so a fault in a shared
helper cannot hide itself.
"""

from __future__ import annotations

import re

import numpy as np
import scipy.integrate

# Ground truth of the two registry systems the workloads use, written out
# here from the paper's equations rather than read from the registry.
OSCILLATOR_A = np.array([[-0.1, -1.0], [1.0, -0.1]])
OSCILLATOR_TRUTH = [{"x1": -0.1, "x2": -1.0}, {"x1": 1.0, "x2": -0.1}]


def glycolytic_field(x):
    """x' of the glycolytic oscillator at states x of shape (..., 2)."""
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack([0.75 - 0.1 * x1 - x1 * x2 ** 2,
                     0.1 * x1 - x2 + x1 * x2 ** 2], axis=-1)


def oscillator_field(x):
    return x @ OSCILLATOR_A.T


FLOW_TOL = {"oscillator": 1e-9, "glycolytic": 1e-8}
EQUIV_R_COEF_TOL = 0.2           # absolute, per recovered coefficient
EQUIVARIANCE_RTOL = 1e-9
_LABEL = re.compile(r"^x(\d+)(?:\^(\d+))?$")


# -- data ----------------------------------------------------------------------


def oscillator_flow_error(times, states):
    """Max |x(t) - expm(A t) x0| over one trajectory of the linear oscillator.

    expm(A t) = exp(-0.1 t) R(t) with R(t) the rotation by angle t.
    """
    t = np.asarray(times, dtype=float)
    x0 = states[0]
    c, s = np.cos(t), np.sin(t)
    ref = np.exp(-0.1 * t)[:, None] * np.stack(
        [c * x0[0] - s * x0[1], s * x0[0] + c * x0[1]], axis=1)
    return float(np.max(np.abs(states - ref)))


def glycolytic_reference(times, x0s):
    """DOP853 solution (rtol 1e-11) of every initial condition at once.

    Returns an array of shape (len(times), n, 2).
    """
    x0s = np.asarray(x0s, dtype=float)
    n = x0s.shape[0]

    def rhs(_t, y):
        return glycolytic_field(y.reshape(n, 2)).reshape(-1)

    sol = scipy.integrate.solve_ivp(rhs, (times[0], times[-1]),
                                    x0s.reshape(-1), method="DOP853",
                                    t_eval=times, rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T.reshape(len(times), n, 2)


def check_clean_states(system, trajectories):
    """Clean states agree with an integrator independent of symodes."""
    tol = FLOW_TOL[system]
    if system == "oscillator":
        errs = [oscillator_flow_error(tr.times, tr.clean_states)
                for tr in trajectories]
    else:
        times = trajectories[0].times
        ref = glycolytic_reference(times, [tr.clean_states[0]
                                           for tr in trajectories])
        errs = [float(np.max(np.abs(tr.clean_states - ref[:, j])))
                for j, tr in enumerate(trajectories)]
    worst = max(errs)
    if not worst <= tol:
        return [f"clean states differ from the reference flow by {worst:.3g}"
                f" (tolerance {tol:g})"]
    return []


def check_smoother_denoises(trajectories):
    """Every smoothed series is closer to the clean states than the raw one."""
    out = []
    for j, tr in enumerate(trajectories):
        smooth = np.sqrt(np.mean((tr.smoothed - tr.clean_states) ** 2, axis=0))
        raw = np.sqrt(np.mean((tr.states - tr.clean_states) ** 2, axis=0))
        for i in np.flatnonzero(~(smooth < raw)):
            out.append(f"trajectory {j} x{i + 1}: smoothed RMSE "
                       f"{smooth[i]:.3g} is not below raw RMSE {raw[i]:.3g}")
    return out


def derivative_error(trajectories, field):
    """Mean over series of RMS(estimated - true derivative) / sd(true)."""
    errs = []
    for tr in trajectories:
        true = field(tr.clean_states)
        rms = np.sqrt(np.mean((tr.derivs - true) ** 2, axis=0))
        errs.extend(rms / true.std(axis=0))
    return float(np.mean(errs))


# -- models --------------------------------------------------------------------


def monomial(label, X):
    """Value of a library term label ("1", "x1", "x1^2", "x1*x2") at X."""
    out = np.ones(X.shape[:-1])
    if label == "1":
        return out
    for factor in label.split("*"):
        m = _LABEL.match(factor)
        if m is None:
            raise ValueError(f"unsupported term label {label!r}")
        out = out * X[..., int(m.group(1)) - 1] ** int(m.group(2) or 1)
    return out


def linear_model_field(coefficients, X):
    """h(X) of a model given per equation as {term label: coefficient}."""
    return np.stack([sum((c * monomial(k, X) for k, c in eq.items()),
                         np.zeros(X.shape[:-1])) for eq in coefficients],
                    axis=-1)


def check_rotation_equivariant(coefficients, rng, n_points=64):
    """h(R x) = R h(x) for random rotations R at random points x."""
    X = rng.uniform(-2.0, 2.0, size=(n_points, 2))
    th = rng.uniform(0.0, 2.0 * np.pi, size=n_points)
    R = np.stack([np.stack([np.cos(th), -np.sin(th)], -1),
                  np.stack([np.sin(th), np.cos(th)], -1)], axis=1)
    lhs = linear_model_field(coefficients, np.einsum("nij,nj->ni", R, X))
    rhs = np.einsum("nij,nj->ni", R, linear_model_field(coefficients, X))
    err = float(np.max(np.abs(lhs - rhs)))
    scale = 1.0 + float(np.max(np.abs(rhs)))
    if not err <= EQUIVARIANCE_RTOL * scale:
        return [f"model is not rotation-equivariant: |h(Rx) - R h(x)| = "
                f"{err:.3g}"]
    return []


def check_paired_recovery(records):
    """No run is recovered by sindy and missed by equiv-c."""
    joint = {r["method"]: r["joint_success"] for r in records}
    if joint.get("sindy") and not joint.get("equiv-c"):
        return ["sindy recovered the run and equiv-c did not"]
    return []


def check_coefficients_near_truth(record, truth, tol=EQUIV_R_COEF_TOL):
    """Coefficients of every recovered equation lie within tol of the truth."""
    out = []
    for i, (ok, got) in enumerate(zip(record["eq_success"],
                                      record["coefficients"])):
        if not ok:
            continue
        for label, want in truth[i].items():
            if not abs(got.get(label, 0.0) - want) <= tol:
                out.append(f"equation {i + 1} term {label}: "
                           f"{got.get(label, 0.0):.4g} vs truth {want:g}")
    return out


def evaluate_tree(e, X):
    """Expression tree value with protected division (x/0 evaluates to 1)."""
    k, kids = e.kind, e.children
    if k == "const":
        return np.full(X.shape[:-1], float(e.value))
    if k == "var":
        return X[..., e.value]
    if k == "neg":
        return -evaluate_tree(kids[0], X)
    if k == "exp":
        return np.exp(evaluate_tree(kids[0], X))
    if k == "pow":
        return evaluate_tree(kids[0], X) ** e.value
    a, b = evaluate_tree(kids[0], X), evaluate_tree(kids[1], X)
    if k == "add":
        return a + b
    if k == "sub":
        return a - b
    if k == "mul":
        return a * b
    if k == "div":
        zero = b == 0.0
        return np.where(zero, 1.0, a / np.where(zero, 1.0, b))
    raise ValueError(f"unknown node kind {k!r}")


def check_better_than_constant(exprs, X, dX):
    """Each expression fits its derivative better than the best constant."""
    out = []
    with np.errstate(all="ignore"):
        for i, e in enumerate(exprs):
            y = dX[:, i]
            mse = float(np.mean((evaluate_tree(e, X) - y) ** 2))
            if not mse < float(y.var()):
                out.append(f"equation {i + 1}: MSE {mse:.4g} is not below "
                           f"the best constant's {float(y.var()):.4g}")
    return out
