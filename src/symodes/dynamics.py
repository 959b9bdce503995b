"""Benchmark systems, trajectory generation, noise, smoothing, derivatives.

The registry holds five autonomous systems with their published data
conventions (initial-condition samplers, sampling rate, split sizes, noise
model, sparsity threshold).  Trajectories are integrated with fixed-step RK4
at a fine internal step and recorded at the coarser sampling interval; noisy
observations are optionally denoised per dimension by a squared-exponential
Gaussian-process smoother before derivatives are estimated with second-order
finite differences.

Randomness is reproducible by construction: every trajectory owns an RNG
stream seeded by SeedSequence((master_seed, trajectory_index)), with the
initial condition drawn first and the noise second, so datasets are
bit-identical across runs, machines, and degrees of parallelism.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import __version__ as _tool_version
from .expressions import parse
from .integrate import rk4_final, rk4_flow_jvp, rk4_record
from .library import build_library, canonicalize, m_theta
from .symmetry import DEFAULT_FLOW_STEPS, Generator

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
        lib = lib or self.library()
        out = []
        for comp in self.rhs:
            coeffs = canonicalize(comp, lib)
            assert coeffs is not None, f"{self.name}: rhs outside its library"
            out.append(frozenset(coeffs))
        return out

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
        self.W = np.asarray(self.W, dtype=float)
        if self.W.ndim != 2 or self.W.shape[1] != self.lib.size:
            raise ValueError(
                f"W must be (d, {self.lib.size}), got {self.W.shape}")

    @property
    def dim(self):
        return self.W.shape[0]

    def h(self, X):
        return self.lib.evaluate(X) @ self.W.T

    def h_jacobian(self, X):
        return np.einsum("ip,...pj->...ij", self.W, self.lib.jacobian(X))

    def flow(self, X, tau, steps=DEFAULT_FLOW_STEPS):
        return rk4_final(self.h, np.atleast_2d(np.asarray(X, float)),
                         tau, steps)

    def flow_jvp(self, X, U, tau, steps=DEFAULT_FLOW_STEPS):
        return rk4_flow_jvp(self.h, self.h_jacobian,
                            np.atleast_2d(np.asarray(X, float)),
                            np.atleast_2d(np.asarray(U, float)), tau, steps)

    def coefficients(self):
        """Per-equation {TermKey: value} over the nonzero entries."""
        out = []
        for row in self.W:
            out.append({self.lib.terms[mu]: float(c)
                        for mu, c in enumerate(row) if c != 0.0})
        return out

    def equations(self):
        return equation_strings(self.lib, self.W)


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
    # registration gate: the truth must canonicalize into the default library
    sys.truth_term_sets()
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
# Squared-exponential smoother with grid-searched hyperparameters.
# Lengthscales are multiples of the sampling interval; the signal scale is the
# series standard deviation and noise scales are multiples of it.  The noise
# grid is deliberately two-point: a near-zero scale so that clean series are
# reproduced essentially unchanged, and a conservative scale at 0.7 of the
# series std so that heavily contaminated series are smoothed aggressively.
# Hyperparameters maximize the log marginal likelihood on an evenly spaced
# subsample of at most SMOOTH_MAX_TRAIN points; the posterior mean is then
# evaluated on the full grid from at most SMOOTH_MAX_INDUCING conditioning
# points.
#
# Every series on one time grid shares its factorizations.  With signal scale
# sd and noise factor nf the kernel is K = sd^2 (K1(ell) + nf^2 I), so sd
# factors out: one Cholesky factor of K1 + nf^2 I per (ell, nf) candidate
# gives every series' log marginal likelihood through one multi-column solve
# (the -m log sd term is added per series), and one factor of the inducing
# kernel per chosen (ell, nf) gives the posterior mean of every series that
# chose it, in which sd cancels.  The cross-kernel K1(t, t_inducing) is formed
# SMOOTH_ROW_BLOCK rows at a time, so the n x SMOOTH_MAX_INDUCING matrix
# (160 MB at 10,000 samples) is never held whole.

SMOOTH_LENGTHSCALE_FACTORS = (5.0, 10.0, 20.0, 50.0, 100.0)
SMOOTH_NOISE_FACTORS = (1e-4, 0.7)
SMOOTH_MAX_TRAIN = 500
SMOOTH_MAX_INDUCING = 2000
SMOOTH_JITTER = 1e-8
SMOOTH_ROW_BLOCK = 1000


def _even_subset(n, k):
    if n <= k:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, k).round().astype(int))


def _se_kernel(ta, tb, ell):
    diff = ta[:, None] - tb[None, :]
    return np.exp(-0.5 * (diff / ell) ** 2)


def _chol_with_jitter(K):
    for jit in (0.0, SMOOTH_JITTER, 1e-4):
        try:
            return scipy.linalg.cho_factor(
                K + jit * np.eye(K.shape[0]), lower=True), jit
        except scipy.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "kernel matrix not positive definite even with jitter 1e-4")


def _select_hyperparameters(t, Ys, sd):
    """(lml, chosen, candidates, m) maximizing each series' marginal likelihood.

    Ys holds one series per row on the grid t.  candidates lists the (ell, nf)
    pairs that factorized, in grid order; chosen[i] indexes the first one at
    which series i attains its maximum lml[i]; m is the training size.
    """
    dt = float(t[1] - t[0])
    idx = _even_subset(len(t), SMOOTH_MAX_TRAIN)
    ts, m = t[idx], len(idx)
    ys = Ys[:, idx]
    Yc = (ys - ys.mean(axis=1)[:, None]).T
    log_sd = np.log(sd)
    k = len(sd)
    best_lml = np.full(k, -np.inf)
    best = np.full(k, -1)
    cands = []
    for lf in SMOOTH_LENGTHSCALE_FACTORS:
        K1 = _se_kernel(ts, ts, lf * dt)
        for nf in SMOOTH_NOISE_FACTORS:
            try:
                cho, _ = _chol_with_jitter(K1 + nf ** 2 * np.eye(m))
            except np.linalg.LinAlgError:
                continue
            alpha = scipy.linalg.cho_solve(cho, Yc)
            lml = (-0.5 * np.einsum("ij,ij->j", Yc, alpha) / sd ** 2
                   - float(np.log(np.diag(cho[0])).sum()) - m * log_sd
                   - 0.5 * m * np.log(2.0 * np.pi))
            take = (best < 0) | (lml > best_lml)
            best_lml[take] = lml[take]
            best[take] = len(cands)
            cands.append((lf * dt, nf))
    if not cands:
        raise np.linalg.LinAlgError("no hyperparameter candidate factorized")
    return best_lml, best, cands, m


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
    lml, chosen = np.zeros(k), np.full(k, -1)
    if live.size:
        lml[live], chosen[live], cands, m = _select_hyperparameters(
            t, Ys[live], sd[live])
    ind = _even_subset(n, SMOOTH_MAX_INDUCING)
    ti = t[ind]
    for c in np.unique(chosen[live]):
        ell, nf = cands[c]
        sel = np.flatnonzero(chosen == c)
        yi = Ys[sel][:, ind]
        mu_i = yi.mean(axis=1)
        cho, jit = _chol_with_jitter(_se_kernel(ti, ti, ell)
                                     + nf ** 2 * np.eye(len(ind)))
        alpha = scipy.linalg.cho_solve(cho, (yi - mu_i[:, None]).T)
        for r in range(0, n, SMOOTH_ROW_BLOCK):
            rows = slice(r, r + SMOOTH_ROW_BLOCK)
            mean[rows, sel] = _se_kernel(t[rows], ti, ell) @ alpha + mu_i
        for j in sel:
            infos[j] = {"lengthscale": ell, "signal": float(sd[j]),
                        "noise": nf * float(sd[j]), "lml": float(lml[j]),
                        "jitter": jit, "n_train": m, "n_inducing": len(ind)}
    if y.ndim == 1:
        return mean[:, 0], infos[0]
    return mean, infos


def gp_smooth(traj):
    """Trajectory with the smoothed field filled in, its d series in one call."""
    mean, _ = gp_smooth_series(traj.times, traj.states)
    return replace(traj, smoothed=mean)


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

    def regression_arrays(self, split="train"):
        """Stacked (X, dX) over a split, from smoothed states + derivatives.

        A trajectory without derivatives (a split left unsmoothed) is
        differentiated from its regression states, as
        differentiate_trajectory does.
        """
        trajs = self.splits[split]
        X = np.concatenate([tr.regression_states() for tr in trajs])
        dX = np.concatenate([
            tr.derivs if tr.derivs is not None
            else estimate_derivatives(tr.regression_states(), tr.dt)
            for tr in trajs])
        return X, dX


def make_dataset(system, seed, noise=None, n_samples=None, dt=None,
                 counts=None, smooth_splits=("train", "val")):
    """Generate a full train/val/test dataset for one registry system.

    Any of the published conventions can be overridden; the internal
    integration step is always INTERNAL_DT.  Trajectory j (in
    global order train, val, test) draws its initial condition and then its
    noise from split_rng(seed, j), so the random streams do not depend on
    how trajectories are batched.  Integration runs batched per split; the
    states are not bit-identical to integrating one trajectory at a time,
    because Theta @ W.T goes through BLAS, whose summation order depends on
    the batch shape (they differ by under 1e-15 on oscillator, seir and
    glycolytic at the published conventions).

    Every series of the smoothed splits lies on one time grid, so they are
    smoothed by a single gp_smooth_series call: each hyperparameter
    candidate is factorized once for all of them (see the smoothing notes
    above).  A series' smoothed states therefore match smoothing its
    trajectory alone up to BLAS summation order.
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
    oracle = system.oracle()
    splits = {}
    offset = 0
    for split, count in zip(SPLIT_NAMES, counts):
        rngs = [split_rng(seed, offset + j) for j in range(count)]
        x0 = np.array([sample_initial(system, rng) for rng in rngs])
        if count == 0:
            splits[split] = []
            continue
        recorded = rk4_record(oracle.h, x0, INTERNAL_DT,
                              (n_samples - 1) * stride, stride)
        splits[split] = [
            Trajectory(t0=0.0, dt=dt, states=noise.apply(recorded[:, j, :],
                                                         rngs[j]),
                       clean_states=recorded[:, j, :], seed=offset + j)
            for j in range(count)]
        offset += count
    smoothed = [s for s in SPLIT_NAMES if s in smooth_splits and splits[s]]
    if smoothed:
        trajs = [tr for s in smoothed for tr in splits[s]]
        means, _ = gp_smooth_series(trajs[0].times,
                                    np.hstack([tr.states for tr in trajs]))
        per_traj = iter(np.hsplit(means, len(trajs)))
        for s in smoothed:
            splits[s] = [differentiate_trajectory(
                replace(tr, smoothed=next(per_traj).copy())) for tr in splits[s]]
    return Dataset(system=system.name, dim=system.dim, seed=int(seed), dt=dt,
                   noise=noise, splits=splits, threshold=spec.threshold,
                   meta={"n_samples": n_samples, "internal_dt": INTERNAL_DT,
                         "counts": tuple(counts)})


# -- serialization -------------------------------------------------------------


def _fmt(v):
    return repr(float(v))


def save_dataset(ds, outdir, extra_meta=None):
    """Directory with manifest.json and one CSV per trajectory.

    CSV columns: t, x1..xd, then xs1..xsd when smoothed states exist, then
    dx1..dxd when derivatives exist.  Floats are written with shortest
    round-trip formatting, so reloading is bit-exact.
    """
    import os
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "format": "symodes-dataset",
        "format_version": 1,
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
            cols = [f"x{i+1}" for i in range(tr.dim)]
            if tr.smoothed is not None:
                cols += [f"xs{i+1}" for i in range(tr.dim)]
            if tr.derivs is not None:
                cols += [f"dx{i+1}" for i in range(tr.dim)]
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["t"] + cols)
                times = tr.times
                for k in range(tr.n_samples):
                    row = [times[k]]
                    row.extend(tr.states[k])
                    if tr.smoothed is not None:
                        row.extend(tr.smoothed[k])
                    if tr.derivs is not None:
                        row.extend(tr.derivs[k])
                    w.writerow([_fmt(v) for v in row])


def load_dataset(indir):
    import os
    with open(os.path.join(indir, "manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest.get("format") != "symodes-dataset":
        raise ValueError(f"{indir} does not look like a dataset directory")
    dim = manifest["dim"]
    splits = {}
    for split, count in manifest["splits"].items():
        trajs = []
        for j in range(count):
            path = os.path.join(indir, f"{split}_{j:03d}.csv")
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            header, data = rows[0], np.array(rows[1:], dtype=float)
            t = data[:, 0]
            states = data[:, 1:1 + dim]
            smoothed = derivs = None
            if f"xs1" in header:
                c = header.index("xs1")
                smoothed = data[:, c:c + dim]
            if f"dx1" in header:
                c = header.index("dx1")
                derivs = data[:, c:c + dim]
            dt = float(t[1] - t[0]) if len(t) > 1 else manifest["dt"]
            trajs.append(Trajectory(t0=float(t[0]), dt=dt, states=states,
                                    smoothed=smoothed, derivs=derivs))
        splits[split] = trajs
    noise = NoiseSpec(manifest["noise"]["kind"], manifest["noise"]["sigma"])
    meta = dict(manifest.get("meta", {}))
    return Dataset(system=manifest["system"], dim=dim, seed=manifest["seed"],
                   dt=manifest["dt"], noise=noise, splits=splits,
                   threshold=manifest["threshold"], meta=meta)
