"""Benchmark systems, trajectory generation, noise, smoothing, derivatives.

The registry holds five autonomous systems with their published data
conventions (initial-condition samplers, sampling rate, split sizes, noise
model, sparsity threshold).  Trajectories are integrated with fixed-step RK4
at a fine internal step and recorded at the coarser sampling interval; noisy
observations are optionally denoised per dimension by a squared-exponential
Gaussian-process smoother, whose lengthscale and noise level maximize each
series' marginal likelihood through one eigendecomposition per lengthscale,
before derivatives are estimated with second-order finite differences.

Randomness is reproducible by construction: every trajectory owns an RNG
stream seeded by SeedSequence((master_seed, trajectory_index)), with the
initial condition drawn first and the noise second, so datasets are
bit-identical across runs and degrees of parallelism on one numpy build and
CPU.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

from . import __version__ as _tool_version
from .expressions import parse
from .integrate import BoundField, rk4_final, rk4_flow_tangents, rk4_record
from .library import ThetaKernel, build_library, m_theta
from .symmetry import FLOW_STEPS, Generator

INTERNAL_DT = 0.002
NOISE_KINDS = ("additive_relative", "multiplicative", "none")


def split_rng(master_seed, *path):
    """Independent generator for a seed path, e.g. (master, trajectory)."""
    entropy = (int(master_seed),) + tuple(int(x) for x in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class NoiseSpec:
    """Observation noise model.

    additive_relative: x + N(0, (sigma * std_i)^2) with std_i the per-
    dimension standard deviation of that trajectory's clean states.
    multiplicative: x * (1 + N(0, sigma^2)) elementwise.
    """

    kind: str
    sigma: float

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    def apply(self, clean, rng):
        if self.kind == "none" or self.sigma == 0.0:
            return clean.copy()
        if self.kind == "additive_relative":
            scale = self.sigma * clean.std(axis=0)
            return clean + rng.normal(size=clean.shape) * scale
        return clean * (1.0 + rng.normal(scale=self.sigma, size=clean.shape))


@dataclass
class Trajectory:
    t0: float
    dt: float
    states: np.ndarray                 # (T, d) observed (possibly noisy)
    clean_states: np.ndarray = None    # (T, d) noise-free, if known
    smoothed: np.ndarray = None        # (T, d) denoised states
    derivs: np.ndarray = None          # (T, d) estimated time derivatives
    seed: int = None

    @property
    def times(self):
        return self.t0 + self.dt * np.arange(self.states.shape[0])

    @property
    def n_samples(self):
        return self.states.shape[0]

    @property
    def dim(self):
        return self.states.shape[1]

    def regression_states(self):
        return self.smoothed if self.smoothed is not None else self.states


@dataclass(frozen=True)
class DataSpec:
    """Published data-generation conventions for one system."""

    n_train: int
    n_val: int
    n_test: int
    n_samples: int
    dt: float
    noise: NoiseSpec
    threshold: float


@dataclass(frozen=True)
class OdeSystem:
    name: str
    dim: int
    rhs: tuple                       # Expr per dimension
    generators: tuple                # known exact symmetry generators
    sampler: str
    data: DataSpec
    library_degree: int = 2
    library_exponentials: bool = False

    def library(self):
        return build_library(self.dim, self.library_degree,
                             self.library_exponentials)

    def truth_matrix(self, lib=None):
        """True coefficients W with rhs = W Theta; raises if not in span."""
        return m_theta(lib or self.library(), self.rhs)

    def truth_term_sets(self, lib=None):
        return [frozenset(c) for c in self.oracle(lib).coefficients()]

    def oracle(self, lib=None):
        """The true dynamics as a W-linear model over the system's library."""
        lib = lib or self.library()
        return SindyModel(lib, self.truth_matrix(lib))


@dataclass
class SindyModel:
    """Linear-in-library dynamics h(x) = W Theta(x)."""

    lib: object
    W: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.W = np.ascontiguousarray(self.W, dtype=float)
        if self.W.ndim != 2 or self.W.shape[1] != self.lib.size:
            raise ValueError(
                f"W must be (d, {self.lib.size}), got {self.W.shape}")

    @property
    def dim(self):
        return self.W.shape[0]

    def field(self, shape):
        """h bound to states of batch shape `shape` (see LinearField)."""
        return LinearField(self.lib, self.W, shape)

    def h(self, X, out=None):
        X = np.asarray(X, dtype=float)
        return self.field(X.shape[:-1])(X, out)

    def h_jacobian(self, X, theta=None):
        """J_h(X), (..., d, d); theta, if given, is Theta(X)."""
        return np.einsum("ip,...pj->...ij", self.W,
                         self.lib.jacobian(X, theta))

    def flow(self, X, tau):
        X = np.atleast_2d(np.asarray(X, float))
        return rk4_final(self.field(X.shape[:-1]), X, tau, FLOW_STEPS)

    def flow_jvp(self, X, U, tau):
        X = np.atleast_2d(np.asarray(X, float))
        U = np.atleast_2d(np.asarray(U, float))
        field = self.field(X.shape[:-1])
        # the field has just run at y, so its Theta is Theta(y)
        y, V = rk4_flow_tangents(
            field, lambda y: self.h_jacobian(y, field.theta), X, U[..., None],
            tau, FLOW_STEPS)
        return y, V[..., 0]

    def coefficients(self):
        """Per-equation {TermKey: value} over the nonzero entries."""
        out = []
        for row in self.W:
            out.append({self.lib.terms[mu]: float(c)
                        for mu, c in enumerate(row) if c != 0.0})
        return out

    def equations(self):
        return equation_strings(self.lib, self.W)


class LinearField(BoundField):
    """h(x) = W Theta(x) on states (..., d) of one batch shape.

    A BoundField (see integrate): its input x is pad[1:] of a ThetaKernel
    bound to the batch with d copies.  The kernel evaluates only W's
    support, the k library columns nonzero in some row of some stacked
    block, so Theta comes as (k, d) + batch, and W's support columns,
    spread to (k, d) + batch once, here, multiply it into a buffer of their
    own in one call with nothing broadcast (a broadcasting ufunc may
    allocate).  The term sum is one np.add.reduce over the leading axis
    into out: a left fold over the support in library order, from +0.0,
    whatever the batch, so a row gets the same bits in any batch (BLAS
    Theta @ W.T would not).  These are the bits of the fold over all p
    terms: each dropped term is a +-0.0 product, and a fold from +0.0
    never holds -0.0, so adding +-0.0 changes nothing.  The exception is a
    non-finite Theta in a column outside the support: the full fold's
    0 * inf made h NaN there, the support's h stays finite.  Leading axes
    of W broadcast to the batch's, so a stack of models W (M, 1, d, p) on
    states (M, B, d) is one field, bound to the union of their supports.

    self.theta is the full Theta (..., p) at the states last run,
    batch-first, evaluated when read by a kernel of every column.
    """

    def __init__(self, lib, W, shape):
        d, shape = lib.dim, tuple(shape)
        # numpy sums a reduction to one element pairwise, not as a left
        # fold, so a lone state of d = 1 is bound as two, the second kept 0
        # and its sum copied out of lane 0
        lone = d * math.prod(shape) == 1
        batch = (2,) if lone else shape
        W = np.asarray(W, dtype=float)
        support = np.flatnonzero(W.reshape(-1, lib.size).any(axis=0))
        k = len(support)
        W = W[..., support]
        W = np.moveaxis(W.reshape(d, k) if lone else W, (-1, -2), (0, 1))
        # W's batch axes align with the trailing axes of the buffers'
        self._W = np.ascontiguousarray(np.broadcast_to(W.reshape(
            (k, d) + (1,) * (len(batch) + 2 - W.ndim) + W.shape[2:]),
            (k, d) + batch))
        self._kernel = ThetaKernel(lib, batch, (d,), support)
        self._terms = np.empty((k, d) + batch)
        self._sum = np.empty((d,) + batch) if lone else None
        self._lib, x = lib, self._kernel.pad[1:]
        if lone:
            x = x[:, :1].reshape(1, *shape)
        super().__init__(x)

    @functools.cached_property
    def _theta_kernel(self):
        return ThetaKernel(self._lib, self.x.shape[1:])

    @property
    def theta(self):
        kernel = self._theta_kernel
        kernel.pad[1:] = self.x
        return np.moveaxis(kernel(), 0, -1)

    def steps(self, out):
        kernel = self._kernel
        calls = kernel.steps() + [
            (np.multiply, (kernel.theta, self._W, self._terms))]
        if self._sum is None:
            return calls + [(np.add.reduce, (self._terms, 0, None, out))]
        return calls + [(np.add.reduce, (self._terms, 0, None, self._sum)),
                        (np.copyto, (out, self._sum[:, :1].reshape(
                            out.shape)))]


def equation_strings(lib, W):
    """Human-readable "xi' = ..." lines for a coefficient matrix."""
    labels = lib.labels()
    lines = []
    for i, row in enumerate(np.asarray(W, dtype=float)):
        parts = []
        for mu, c in enumerate(row):
            if c == 0.0:
                continue
            mag = f"{abs(c):.6g}"
            body = mag if labels[mu] == "1" else f"{mag}*{labels[mu]}"
            parts.append(("- " if c < 0 else "+ ") + body)
        if not parts:
            lines.append(f"x{i+1}' = 0")
            continue
        head = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
        lines.append(f"x{i+1}' = " + " ".join([head] + parts[1:]))
    return lines


def _system(name, dim, rhs, generators, sampler, data, degree=2,
            exponentials=False):
    rhs = tuple(parse(r, dim) for r in rhs)
    sys = OdeSystem(name=name, dim=dim, rhs=rhs, generators=tuple(generators),
                    sampler=sampler, data=data, library_degree=degree,
                    library_exponentials=exponentials)
    # registration gate: the truth must lie in the span of the default library
    sys.oracle()
    return sys


SYSTEMS = {}

SYSTEMS["oscillator"] = _system(
    "oscillator", 2,
    ("-0.1*x1 - x2", "x1 - 0.1*x2"),
    [Generator.linear([[0.0, 1.0], [-1.0, 0.0]], label="rotation")],
    "annulus",
    DataSpec(n_train=50, n_val=10, n_test=10, n_samples=100, dt=0.2,
             noise=NoiseSpec("additive_relative", 0.2), threshold=0.05))

SYSTEMS["growth"] = _system(
    "growth", 2,
    ("-0.3*x1 + 0.1*x2^2", "x2"),
    [Generator.linear([[2.0, 0.0], [0.0, 1.0]], label="scaling")],
    "box_0.2_1",
    DataSpec(n_train=100, n_val=20, n_test=20, n_samples=100, dt=0.02,
             noise=NoiseSpec("multiplicative", 0.05), threshold=0.05))

SYSTEMS["lotka_volterra"] = _system(
    "lotka_volterra", 2,
    ("2/3 - (4/3)*exp(x2)", "-1 + exp(x1)"),
    [],
    "log_lv",
    DataSpec(n_train=200, n_val=20, n_test=20, n_samples=10000, dt=0.002,
             noise=NoiseSpec("additive_relative", 0.99), threshold=0.15),
    exponentials=True)

SYSTEMS["glycolytic"] = _system(
    "glycolytic", 2,
    ("0.75 - 0.1*x1 - x1*x2^2", "0.1*x1 - x2 + x1*x2^2"),
    [],
    "box_0.5_1",
    DataSpec(n_train=10, n_val=2, n_test=2, n_samples=10000, dt=0.002,
             noise=NoiseSpec("additive_relative", 0.2), threshold=0.075),
    degree=3)

_seir_L = np.zeros((4, 4))
_seir_L[3, :] = 1.0
SYSTEMS["seir"] = _system(
    "seir", 4,
    ("0.15 - 0.6*x1*x3", "0.6*x1*x3 - x2", "x2 - 0.5*x3", "-0.15 + 0.5*x3"),
    [Generator.linear(_seir_L, label="population_shift")],
    "box_0_1",
    DataSpec(n_train=50, n_val=10, n_test=10, n_samples=100, dt=0.2,
             noise=NoiseSpec("additive_relative", 0.05), threshold=0.05))


def get_system(name):
    try:
        return SYSTEMS[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; known: {sorted(SYSTEMS)}")


# -- initial conditions -------------------------------------------------------

LV_H_WINDOW = (3.0, 4.5)
LV_MAX_DRAWS = 100_000


def _lv_hamiltonian(x):
    return (np.exp(x[..., 0]) - x[..., 0]
            + 1.333 * np.exp(x[..., 1]) - 0.667 * x[..., 1])


def sample_initial(system, rng):
    """One initial condition from the system's published sampler."""
    s = system.sampler
    if s == "annulus":
        r = rng.uniform(0.5, 2.0)
        th = rng.uniform(0.0, 2.0 * np.pi)
        return np.array([r * np.cos(th), r * np.sin(th)])
    if s.startswith("box_"):
        lo, hi = (float(v) for v in s.split("_")[1:])
        return rng.uniform(lo, hi, size=system.dim)
    if s == "log_lv":
        for _ in range(LV_MAX_DRAWS):
            x = np.log(rng.uniform(0.0, 1.0, size=2))
            hval = _lv_hamiltonian(x)
            if LV_H_WINDOW[0] <= hval <= LV_H_WINDOW[1]:
                return x
        raise RuntimeError(
            f"no initial condition accepted after {LV_MAX_DRAWS} draws")
    raise ValueError(f"unknown sampler {s!r}")


# -- Gaussian-process smoothing ------------------------------------------------
#
# Squared-exponential smoother whose hyperparameters maximize the log
# marginal likelihood over a grid (GPML, Rasmussen & Williams 2006, Alg. 2.1
# and section 5.4.1).  The signal scale is the series standard deviation sd,
# the noise scale a factor nf of it on a dense log grid, and the lengthscale
# a multiple of the spacing of one evenly spaced subset of at most
# SMOOTH_MAX_TRAIN points, which both chooses the hyperparameters and
# conditions the posterior mean on the full grid.
#
# The series of one time grid share one eigendecomposition per lengthscale,
# which makes the noise grid free.  K = sd^2 (K1(ell) + nf^2 I); with
# K1 = U diag(lam) U^T and P = U^T y_c / sd for the centred series y_c, the
# log marginal likelihood at any nf is -1/2 [sum P^2 / (lam + nf^2)
# + sum log(lam + nf^2)] - m log sd - (m/2) log 2 pi, and the posterior
# weights are alpha = U (P / (lam + nf^2)) sd.  Each series keeps its first
# maximum in grid order (lengthscale, then noise).  An m x m eigenbasis is
# held only while some series' maximum so far lies on its lengthscale, and
# one SMOOTH_ROW_BLOCK-row block of K1(t, t_subset) in one reused buffer.
#
# A series' mean is taken on its own row, and its weights are solved and
# multiplied out per chosen (ell, nf): at the clean end of the noise grid,
# 1 / (lam + nf^2) amplifies a 1-ulp difference about 1e8 times, so a
# series' bits may depend only on the other series that chose its (ell, nf).

SMOOTH_LENGTHSCALE_FACTORS = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
SMOOTH_NOISE_FACTORS = np.geomspace(1e-4, 1.0, 41)
SMOOTH_MAX_TRAIN = 500
SMOOTH_ROW_BLOCK = 1000


def _even_subset(n, k):
    if n <= k:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, k).round().astype(int))


def _se_kernel(ta, tb, ell, out=None):
    K = np.subtract.outer(ta, tb, out=out)
    K /= ell
    np.square(K, out=K)
    K *= -0.5
    return np.exp(K, out=K)


def gp_smooth_series(t, y):
    """Posterior-mean smoothing of every column of y on the shared grid t.

    y is (n,) or (n, k); returns (mean, info) with mean shaped like y and
    info one dict per column (a single dict for 1-D y).  A column with zero
    spread, or a grid under three points, passes through unchanged with
    info {"degenerate": True}.  A 1-D series is the one-column case.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    Ys = np.ascontiguousarray(np.atleast_2d(y.T))   # one series per row
    k, n = Ys.shape
    mean = Ys.T.copy()
    infos = [{"degenerate": True} for _ in range(k)]
    sd = Ys.std(axis=1)
    live = np.flatnonzero(sd != 0.0) if n >= 3 else np.arange(0)
    if live.size:
        idx = _even_subset(n, SMOOTH_MAX_TRAIN)
        ts, m, sd = t[idx], len(idx), sd[live]
        ys = Ys[np.ix_(live, idx)]
        del Ys                              # the subset is all that is read
        mu = np.array([row.mean() for row in ys])
        Yc = ((ys - mu[:, None]) / sd[:, None]).T          # (m, live)
        ells = [f * float(ts[1] - ts[0]) for f in SMOOTH_LENGTHSCALE_FACTORS]
        nn = len(SMOOTH_NOISE_FACTORS)
        bases, chosen, best = {}, 0, 0.0
        for e, ell in enumerate(ells):
            lam, U = scipy.linalg.eigh(_se_kernel(ts, ts, ell),
                                       overwrite_a=True)
            lam = np.maximum(lam, 0.0)[:, None] + SMOOTH_NOISE_FACTORS ** 2
            lml = -0.5 * (np.square(U.T @ Yc).T @ (1.0 / lam)
                          + np.log(lam).sum(axis=0))     # (live, noise)
            up = (lml.max(axis=1) > best) | (e == 0)     # first maximum
            chosen = np.where(up, e * nn + lml.argmax(axis=1), chosen)
            best = np.where(up, lml.max(axis=1), best)
            bases[e] = lam, U
            del lam, U                      # a dropped basis goes now
            bases = {j: bases[j] for j in np.unique(chosen // nn)}
        lml = best - m * np.log(sd) - 0.5 * m * np.log(2 * np.pi)
        block = np.empty((min(n, SMOOTH_ROW_BLOCK), m))
        for e in np.unique(chosen // nn):
            ell, (lam, U) = ells[e], bases[e]
            cands = np.unique(chosen[chosen // nn == e])
            groups = [np.flatnonzero(chosen == c) for c in cands]
            alphas = [U @ ((U.T @ Yc[:, g]) / lam[:, [c % nn]]) * sd[g]
                      for c, g in zip(cands, groups)]
            for r in range(0, n, SMOOTH_ROW_BLOCK):
                Kr = _se_kernel(t[r:r + SMOOTH_ROW_BLOCK], ts, ell,
                                block[:n - r])
                for g, alpha in zip(groups, alphas):
                    mean[r:r + len(Kr), live[g]] = Kr @ alpha + mu[g]
        for j, c, s, v in zip(live, chosen, sd, lml):
            infos[j] = {"lengthscale": ells[c // nn], "signal": float(s),
                        "noise": float(SMOOTH_NOISE_FACTORS[c % nn] * s),
                        "lml": float(v), "n_train": m}
    return (mean[:, 0], infos[0]) if y.ndim == 1 else (mean, infos)


# -- derivative estimation -----------------------------------------------------


def estimate_derivatives(values, dt):
    """Second-order finite-difference time derivatives along axis 0.

    Interior points use central differences; the ends use one-sided
    second-order stencils.  Two samples fall back to a first-order difference
    with a warning.
    """
    x = np.asarray(values, dtype=float)
    T = x.shape[0]
    if T < 2:
        raise ValueError("need at least two samples to differentiate")
    if T == 2:
        warnings.warn("only two samples: falling back to first-order "
                      "differences", stacklevel=2)
        d = (x[1] - x[0]) / dt
        return np.stack([d, d])
    out = np.empty_like(x)
    out[1:-1] = (x[2:] - x[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * dt)
    out[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * dt)
    return out


def differentiate_trajectory(traj):
    """Fill derivs from the smoothed states (or raw states as fallback)."""
    return replace(traj, derivs=estimate_derivatives(traj.regression_states(),
                                                     traj.dt))


# -- datasets ------------------------------------------------------------------

SPLIT_NAMES = ("train", "val", "test")
SMOOTH_SPLITS = ("train", "val")        # make_dataset's, and format 1's


@dataclass
class Dataset:
    system: str
    dim: int
    seed: int
    dt: float
    noise: NoiseSpec
    splits: dict                     # split name -> list of Trajectory
    threshold: float
    meta: dict = field(default_factory=dict)

    @property
    def train(self):
        return self.splits["train"]

    @property
    def val(self):
        return self.splits["val"]

    @property
    def test(self):
        return self.splits["test"]

    def regression_parts(self, split="train"):
        """One (X, dX) per trajectory of a split: its smoothed states and
        derivatives.

        A trajectory without derivatives (a split left unsmoothed) is
        differentiated from its regression states, as
        differentiate_trajectory does.
        """
        return [(tr.regression_states(),
                 tr.derivs if tr.derivs is not None
                 else estimate_derivatives(tr.regression_states(), tr.dt))
                for tr in self.splits[split]]

    def regression_arrays(self, split="train"):
        """The regression_parts of a split, stacked into one (X, dX)."""
        parts = self.regression_parts(split)
        return tuple(np.concatenate(a) for a in zip(*parts))


def derive_targets(splits, smooth_splits):
    """Fill in the smoothed states and derivatives of the smoothed splits.

    splits maps split names to lists of Trajectory and is updated in place.
    The series of the splits named in smooth_splits, train before val, lie
    on one time grid, so they are smoothed by a single gp_smooth_series
    call: each lengthscale's kernel is eigendecomposed once for all of them
    (see the smoothing notes above), and a series' smoothed states match
    smoothing its trajectory alone up to BLAS summation order.  Each
    trajectory is then differentiated from its smoothed states.  The
    targets depend on the observed states and smooth_splits alone; both
    make_dataset and load_dataset call this, so no file stores them.
    """
    smoothed = [s for s in SPLIT_NAMES if s in smooth_splits and splits.get(s)]
    if smoothed:
        trajs = [tr for s in smoothed for tr in splits[s]]
        means, _ = gp_smooth_series(trajs[0].times,
                                    np.hstack([tr.states for tr in trajs]))
        per_traj = iter(np.hsplit(means, len(trajs)))
        for s in smoothed:
            splits[s] = [differentiate_trajectory(
                replace(tr, smoothed=next(per_traj).copy())) for tr in splits[s]]


def make_dataset(system, seed, noise=None, n_samples=None, dt=None,
                 counts=None, smooth_splits=SMOOTH_SPLITS):
    """Generate a full train/val/test dataset for one registry system.

    Any of the published conventions can be overridden; the internal
    integration step is always INTERNAL_DT.  Trajectory j (in
    global order train, val, test) draws its initial condition and then its
    noise from split_rng(seed, j), so the random streams do not depend on
    how trajectories are batched.  All trajectories of all splits are
    integrated in one batch by a single rk4_record call, with the oracle
    bound once to that batch (see LinearField).  Its right-hand side gives
    the same bits for a row whatever the batch, so each trajectory's clean
    and noisy states equal integrating it alone, bit for bit.

    The splits named in smooth_splits get their regression targets from
    derive_targets, as a saved copy of the dataset gets them on loading.
    """
    if isinstance(system, str):
        system = get_system(system)
    spec = system.data
    noise = noise if noise is not None else spec.noise
    n_samples = n_samples or spec.n_samples
    dt = dt or spec.dt
    counts = counts or (spec.n_train, spec.n_val, spec.n_test)
    stride = int(round(dt / INTERNAL_DT))
    if abs(stride * INTERNAL_DT - dt) > 1e-12:
        raise ValueError(
            f"dt={dt} is not a multiple of the internal step {INTERNAL_DT}")
    rngs = [split_rng(seed, j) for j in range(sum(counts))]
    trajs = []
    if rngs:
        x0 = np.array([sample_initial(system, rng) for rng in rngs])
        recorded = rk4_record(system.oracle().field(x0.shape[:-1]), x0,
                              INTERNAL_DT, (n_samples - 1) * stride, stride)
        trajs = [Trajectory(t0=0.0, dt=dt,
                            states=noise.apply(recorded[:, j, :], rng),
                            clean_states=recorded[:, j, :], seed=j)
                 for j, rng in enumerate(rngs)]
    bounds = np.cumsum((0,) + tuple(counts))
    splits = {split: trajs[lo:hi]
              for split, lo, hi in zip(SPLIT_NAMES, bounds, bounds[1:])}
    derive_targets(splits, smooth_splits)
    return Dataset(system=system.name, dim=system.dim, seed=int(seed), dt=dt,
                   noise=noise, splits=splits, threshold=spec.threshold,
                   meta={"n_samples": n_samples, "internal_dt": INTERNAL_DT,
                         "counts": tuple(counts),
                         "smooth_splits": tuple(smooth_splits)})


# -- serialization -------------------------------------------------------------


def _fmt(v):
    return repr(float(v))


def save_dataset(ds, outdir, extra_meta=None):
    """Directory with manifest.json and one CSV per trajectory.

    A CSV holds the observations only, in columns t, x1..xd; the manifest's
    meta.smooth_splits names the splits whose targets load_dataset derives
    again.  Floats are written with shortest round-trip formatting, so
    reloading is bit-exact.
    """
    import os
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "format": "symodes-dataset",
        "format_version": 2,
        "tool_version": _tool_version,
        "system": ds.system,
        "dim": ds.dim,
        "seed": ds.seed,
        "dt": ds.dt,
        "threshold": ds.threshold,
        "noise": {"kind": ds.noise.kind, "sigma": ds.noise.sigma},
        "splits": {k: len(v) for k, v in ds.splits.items()},
        "meta": {k: list(v) if isinstance(v, tuple) else v
                 for k, v in ds.meta.items()},
    }
    if extra_meta:
        manifest.update(extra_meta)
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for split, trajs in ds.splits.items():
        for j, tr in enumerate(trajs):
            path = os.path.join(outdir, f"{split}_{j:03d}.csv")
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["t"] + [f"x{i+1}" for i in range(tr.dim)])
                w.writerows([_fmt(v) for v in row] for row in
                            np.column_stack((tr.times, tr.states)))


def load_dataset(indir):
    """The Dataset saved in indir, its targets derived by derive_targets.

    Format 1 files also hold smoothed (xs*) and derivative (dx*) columns;
    they are ignored, and the splits of SMOOTH_SPLITS, which every format 1
    file was made with, are smoothed again.
    """
    import os
    with open(os.path.join(indir, "manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest.get("format") != "symodes-dataset":
        raise ValueError(f"{indir} does not look like a dataset directory")
    if (version := manifest.get("format_version")) not in (1, 2):
        raise ValueError(f"{indir} has format_version {version!r}, not 1 or 2")
    dim = manifest["dim"]
    splits = {}
    for split, count in manifest["splits"].items():
        trajs = []
        for j in range(count):
            path = os.path.join(indir, f"{split}_{j:03d}.csv")
            with open(path, newline="") as fh:
                data = np.array(list(csv.reader(fh))[1:], dtype=float)
            t = data[:, 0]
            dt = float(t[1] - t[0]) if len(t) > 1 else manifest["dt"]
            trajs.append(Trajectory(t0=float(t[0]), dt=dt,
                                    states=data[:, 1:1 + dim]))
        splits[split] = trajs
    meta = dict(manifest.get("meta", {}))
    derive_targets(splits, meta.get("smooth_splits", SMOOTH_SPLITS))
    noise = NoiseSpec(manifest["noise"]["kind"], manifest["noise"]["sigma"])
    return Dataset(system=manifest["system"], dim=dim, seed=manifest["seed"],
                   dt=manifest["dt"], noise=noise, splits=splits,
                   threshold=manifest["threshold"], meta=meta)
