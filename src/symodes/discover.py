"""Equation-discovery engines over a fixed function library.

Four fitters; all but stlsq, which takes (Theta, dX, threshold), accept a
Dataset or an (X, dX) pair:

* stlsq           -- sequentially thresholded least squares on W.
* equiv_c_fit     -- the same least squares over the nullspace of the
                     symmetry constraint, with thresholding realized by
                     pinning entries: their columns are deleted from the
                     constraint, so pinned entries are exactly zero and
                     every intermediate W stays exactly equivariant.
* equiv_r_fit     -- L-BFGS-B on the masked entries of W minimizing
                     (1/N)||dX - W Theta||_F^2 + lambda * symmetry loss,
                     wrapped in the same sequential thresholding.
* gp_fit          -- genetic programming over expression trees, one
                     evolution per output dimension, with an optional
                     finite-transform penalty computed against transformed
                     data pairs that are built once up front; each new
                     candidate costs one tree evaluation on the fit and
                     penalty points together, and each generation enters
                     np.errstate once for all its candidates.  Tree
                     shapes, picks and constants are drawn through the
                     bit generator's C functions (_Draws), which give the
                     Generator's own draws at a third of the overhead.

The three W-linear fitters share one sequential-thresholding loop and
one in-place QR of the design buffer [Theta | dX] per fit, after which the
data term's cost does not depend on the row count.  SindyModel lives in
dynamics, where it also serves as the registry systems' true dynamics.
All fitters are deterministic given (data, config, seed).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy

from .constraint import assemble_equivariant_basis, unvec
# equation_strings is re-exported: callers import it with SindyModel
from .dynamics import Dataset, SindyModel, equation_strings, split_rng
from .expressions import (Expr, evaluate, evaluate_all, expand, monomial,
                          to_string)
from .symmetry import DEFAULT_EPS, precompute_transforms, symmetry_loss_grad

# Fixed settings of the fitters; no caller varies them.
THRESHOLD_ROUNDS = 10               # refits after the first, at most
LBFGS_OPTIONS = {"maxiter": 500, "gtol": 1e-8, "maxcor": 10, "ftol": 1e-15}
GP_P_CROSSOVER = 0.7                # else subtree or point mutation, or a copy
GP_P_SUBTREE = 0.2
GP_P_POINT = 0.1
GP_MAX_DEPTH = 8                    # a deeper child is replaced by its parent
GP_TOURNAMENT = 3
GP_OPERATORS = ("+", "-", "*", "/", "exp")
GP_CONSTANT_RANGE = (-2.0, 2.0)     # random constants are uniform on it
GP_MAX_FIT_SAMPLES = 512            # fit rows, subsampled beyond this
GP_PENALTY_POINTS = 128             # fit rows transformed per generator
EQUIV_R_PENALTY_POINTS = 512        # training states the equiv-r loss sees
GP_TARGET_MSE = 1e-12               # evolution stops once the best reaches it
EQUIV_R_LAMBDA = 1.0                # equiv-r's symmetry weight by default
GP_LAMBDA = 0.1                     # equiv-gp-r's symmetry weight by default


@dataclass(frozen=True)
class GpConfig:
    population: int = 256
    generations: int = 100
    parsimony: float = 1e-3


@dataclass(frozen=True)
class DiscoveryConfig:
    """What a caller sets for one fit.

    lambda_symm weighs the symmetry penalty of equiv-r and equiv-gp-r; None
    gives each method its fixed weight, EQUIV_R_LAMBDA or GP_LAMBDA.  No
    fitter chooses lambda from the data.
    """
    threshold: float = 0.05
    lambda_symm: float = None
    loss_kind: str = "igie"
    tau: float = 0.2
    eps: float = DEFAULT_EPS
    seed: int = 0
    gp: GpConfig = GpConfig()

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")
        if self.lambda_symm is not None and self.lambda_symm < 0:
            raise ValueError("lambda_symm must be nonnegative")


def _regression_data(dataset):
    if isinstance(dataset, Dataset):
        return dataset.regression_arrays("train")
    X, dX = dataset
    return np.atleast_2d(np.asarray(X, float)), \
        np.atleast_2d(np.asarray(dX, float))


# -- sequential thresholding -----------------------------------------------------


def _reduce(Theta, dX):
    """(R, B, rss, N): ||dX - Theta W^T||^2 = ||B - R W^T||^2 + rss for all W.

    One in-place LAPACK dgeqrf, without Q, of the Fortran-ordered buffer
    A = [Theta | dX]: the one design() built them in, else a new one holding
    copies.  R, B and rss are the (p, p), (p, d) and squared (d, d) blocks
    of its factor, zero-padded below p + d rows.  Up to LAPACK's blocking
    crossover (NX = 128 columns) they match np.linalg.qr bit for bit; wider
    designs take dgeqrf's blocked GEMM path, whose last bits depend on the
    OpenBLAS build, and agree to about 1e-16 of max |R|.
    """
    N, p = np.shape(Theta)
    A = getattr(Theta, "base", None)
    if not (isinstance(A, np.ndarray) and A.flags.f_contiguous and [
            v.__array_interface__ for v in (Theta, dX)] == [
            v.__array_interface__ for v in (A[:, :p], A[:, p:])]):
        A = np.empty((N, p + np.shape(dX)[1]), order="F")
        A[:, :p], A[:, p:] = Theta, dX
    n = A.shape[1]
    lapack = scipy.linalg.lapack            # scipy.linalg loads on first use
    qr, _, _, info = lapack.dgeqrf(A, lwork=int(lapack.dgeqrf_lwork(N, n)[0]),
                                   overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed with info {info}")
    T = np.zeros((n, n))
    T[:min(N, n)] = np.triu(qr[:n])
    return T[:p, :p], T[:p, p:], float((T[p:, p:] ** 2).sum()), N


def design(dataset, lib):
    """(Theta, dX, X) of a Dataset or (X, dX) pair, Theta = lib(X) built in
    place: Theta and dX are the column blocks of one buffer for _reduce."""
    X, dX = _regression_data(dataset)
    A = np.empty((len(X), lib.size + dX.shape[1]), order="F")
    A[:, lib.size:] = dX
    del dX                                  # Theta fills in beside X alone
    return lib.evaluate(X, out=A[:, :lib.size]), A[:, lib.size:], X


def _threshold_rounds(fit, shape, threshold):
    """Sequential thresholding shared by the W-linear fitters.

    fit(active) returns a W of the given shape that is zero outside the
    boolean support `active`.  Each round drops the active entries with
    |W| < threshold and refits on the rest, so supports only shrink; at most
    1 + THRESHOLD_ROUNDS fits run, and a zero threshold is a single fit.
    Returns (W, active).
    """
    active = np.ones(shape, dtype=bool)
    W = fit(active)
    if threshold == 0.0:
        return W, active
    for _ in range(THRESHOLD_ROUNDS):
        small = active & (np.abs(W) < threshold)
        if not small.any():
            break
        active = active & ~small
        W = fit(active)
    return W, active


def _basis_rounds(Theta, dX, basis, threshold):
    """Thresholded least squares over W = unvec(Q beta), Q = basis(active).

    Q is (d*p, r) in constraint.vec order and zero outside `active`; each
    round solves lstsq of R Q against vec B (see _reduce).
    """
    R, B, _, N = _reduce(Theta, dX)
    p, d = B.shape
    if N < p:
        warnings.warn(f"only {N} samples for {p} library terms; the fit is "
                      "underdetermined", stacklevel=3)

    def fit(active):
        Q = basis(active)
        r = Q.shape[1]
        A = (R @ Q.reshape(p, d * r)).reshape(p * d, r)
        beta, _, rank, _ = np.linalg.lstsq(A, B.reshape(-1), rcond=None)
        if rank < r:
            warnings.warn("rank-deficient support: using the minimum-norm "
                          "solution", stacklevel=5)
        return unvec(Q @ beta, d, p)

    return _threshold_rounds(fit, (d, p), threshold)


def stlsq(Theta, dX, threshold):
    """Sequentially thresholded lstsq of dX ~ Theta W^T on one _reduce
    (which overwrites a Theta and dX from design())."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    dX = np.reshape(dX, (len(Theta), -1))
    return _basis_rounds(Theta, dX, lambda a: np.eye(a.size)[:, a.T.ravel()],
                         threshold)[0]


# -- constrained regression in the equivariant subspace -------------------------


def equiv_c_fit(dataset, lib, gens, cfg=None):
    """Least squares over the symmetry-constrained coefficient subspace.

    stlsq's refit over W = unvec(Q beta), Q the constraint's nullspace.
    Thresholding pins small entries: the nullspace is recomputed with their
    columns deleted from the constraint matrix, so pinned entries come back
    exactly zero and every intermediate W is exactly equivariant.  A
    collapsed nullspace returns W = 0.
    """
    cfg = cfg or DiscoveryConfig()
    nullities = []

    def basis(active):
        Q = assemble_equivariant_basis(lib, gens, pins=np.argwhere(~active)).Q
        nullities.append(Q.shape[1])
        return Q

    W, active = _basis_rounds(*design(dataset, lib)[:2], basis,
                              cfg.threshold)
    pins = [(int(i), int(mu)) for i, mu in np.argwhere(~active)]
    prov = {"method": "equiv-c", "nullities": nullities, "pins": pins,
            "threshold": cfg.threshold}
    return SindyModel(lib, W, provenance=prov)


# -- regularized regression ------------------------------------------------------


def _masked_minimize(W0, active, reduced, lam, penalty):
    """One L-BFGS-B solve over the active entries of W.

    reduced is _reduce's (R, B, rss, N).  Returns (W, converged).  The
    callback raises RuntimeError if the objective increases across an
    accepted step; the best iterate is returned even on an early stop.
    """
    d, p = W0.shape
    R, B, rss, N = reduced
    best = {"f": np.inf, "w": None}

    def objective(w):
        W = np.zeros((d, p))
        W[active] = w
        E = B - R @ W.T
        f = (float((E * E).sum()) + rss) / N
        G = (-2.0 / N) * (E.T @ R)
        if lam > 0.0:
            ls, Gs = penalty(W)
            f += lam * float(ls)
            G = G + lam * Gs
        if not np.isfinite(f) or not np.all(np.isfinite(G)):
            raise FloatingPointError(
                f"equiv-r objective at lambda {lam} is not finite")
        if f < best["f"]:
            best["f"] = f
            best["w"] = w.copy()
        return f, G[active]

    prev = None

    def callback(intermediate_result):
        nonlocal prev
        fk = float(intermediate_result.fun)
        if prev is not None and fk > prev + 1e-9 * (1.0 + abs(prev)):
            raise RuntimeError("objective increased across an accepted step")
        prev = fk

    res = scipy.optimize.minimize(
        objective, W0[active], jac=True, method="L-BFGS-B", callback=callback,
        options=LBFGS_OPTIONS)
    W = np.zeros((d, p))
    W[active] = best["w"] if best["f"] < res.fun else res.x
    return W, bool(res.success)


def _equiv_r_rounds(reduced, lam, penalty, threshold):
    """Sequential thresholding by masked L-BFGS-B at one lambda.

    Each round starts from the previous W on the new support.  A
    DegenerateLossError or a non-finite objective (FloatingPointError)
    propagates from the round that meets it.
    """
    p, d = reduced[1].shape
    W_prev = np.linalg.lstsq(*reduced[:2], rcond=None)[0].T
    converged = True
    rounds = 0

    def fit(active):
        nonlocal W_prev, converged, rounds
        rounds += 1
        if not active.any():
            return np.zeros((d, p))
        W, ok = _masked_minimize(W_prev * active, active, reduced, lam,
                                 penalty)
        converged = converged and ok
        W_prev = W
        return W

    W, _ = _threshold_rounds(fit, (d, p), threshold)
    return W, {"rounds": rounds, "lambda": lam, "converged": converged}


def equiv_r_fit(dataset, lib, gens, cfg=None):
    """Symmetry-regularized regression with sequential thresholding.

    Minimizes the mean squared equation error plus lambda times the
    configured symmetry loss, evaluated on a fixed subsample of
    min(EQUIV_R_PENALTY_POINTS, N) of the N training states; all rounds
    share one _reduce, so the data term costs O(d p^2), not O(N).  lambda
    is cfg.lambda_symm, or EQUIV_R_LAMBDA when None; a Dataset and its
    training (X, dX) pair give the same W.  A DegenerateLossError or a
    non-finite objective (FloatingPointError, naming lambda) raises.  An
    empty gens runs one fit with lambda 0, i.e. thresholded least squares
    by L-BFGS-B; the CLI and the benchmark refuse equiv-r without a
    generator.
    """
    cfg = cfg or DiscoveryConfig()
    Theta, dX, X = design(dataset, lib)
    reduced = _reduce(Theta, dX)
    del Theta, dX
    rng = split_rng(cfg.seed, 0)
    nb = min(EQUIV_R_PENALTY_POINTS, X.shape[0])
    Xb = X[rng.choice(X.shape[0], size=nb, replace=False)]

    def penalty(W):
        return symmetry_loss_grad(cfg.loss_kind, SindyModel(lib, W), gens,
                                  Xb, tau=cfg.tau, eps=cfg.eps)

    lam = 0.0 if not gens else float(
        EQUIV_R_LAMBDA if cfg.lambda_symm is None else cfg.lambda_symm)
    W, info = _equiv_r_rounds(reduced, lam, penalty, cfg.threshold)
    prov = {"method": "equiv-r", "loss_kind": cfg.loss_kind, **info}
    return SindyModel(lib, W, provenance=prov)


# -- genetic programming ---------------------------------------------------------

_GP_BINOPS = {"+": Expr.add, "-": Expr.sub, "*": Expr.mul, "/": Expr.div}


def gp_evaluate(e, X):
    """Tree evaluation with protected division: any x/0 evaluates to 1."""
    return evaluate(e, X, protected=True)


class _Draws:
    """A Generator's bounded-integer and uniform draws, at less overhead.

    below(n) equals int(rng.integers(n)) for 1 <= n <= 2**32, and k calls
    equal rng.integers(n, size=k); random() and uniform(lo, hi) equal
    rng.random() and rng.uniform(lo, hi).  They call the bit generator's C
    next_uint32 and next_double through rng.bit_generator.ctypes, as the
    Generator does (below is numpy's Lemire rejection method, and below(1)
    draws nothing), so these draws and rng's own interleave into one
    stream.  The ctypes calls bypass the bit generator's lock: use the
    object from one thread only.
    """

    __slots__ = ("rng", "_state", "_u32", "_f64")

    def __init__(self, rng):
        ct = rng.bit_generator.ctypes
        self.rng = rng
        self._state, self._u32, self._f64 = (ct.state, ct.next_uint32,
                                             ct.next_double)

    def below(self, n):
        if n == 1:
            return 0
        m = self._u32(self._state) * n
        if (m & 0xFFFFFFFF) < n:
            threshold = (1 << 32) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._u32(self._state) * n
        return m >> 32

    def random(self):
        return self._f64(self._state)

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self._f64(self._state)


def _random_tree(draws, dim, depth, full):
    if depth <= 1 or (not full and draws.random() < 0.3):
        if draws.random() < 0.5:
            return Expr.var(draws.below(dim))
        return Expr.const(draws.uniform(*GP_CONSTANT_RANGE))
    op = GP_OPERATORS[draws.below(len(GP_OPERATORS))]
    if op == "exp":
        return Expr.exp(_random_tree(draws, dim, depth - 1, full))
    a = _random_tree(draws, dim, depth - 1, full)
    b = _random_tree(draws, dim, depth - 1, full)
    return _GP_BINOPS[op](a, b)


def _initial_population(draws, dim, cfg):
    # ramped half-and-half over depths 2..6
    pop = []
    for i in range(cfg.population):
        depth = min(2 + (i % 5), GP_MAX_DEPTH)
        full = (i // 5) % 2 == 0
        pop.append(_random_tree(draws, dim, depth, full))
    return pop


def _subtree(e, k):
    """Node k of e in preorder, found by walking down with child sizes."""
    while k:
        k -= 1
        for c in e.children:
            if k < c.size:
                e = c
                break
            k -= c.size
        else:
            raise IndexError("node index out of range")
    return e


def _replace_node(e, k, new):
    if k == 0:
        return new
    k -= 1
    kids = list(e.children)
    for j, c in enumerate(kids):
        n = c.size
        if k < n:
            kids[j] = _replace_node(c, k, new)
            return Expr(e.kind, tuple(kids), e.value)
        k -= n
    raise IndexError("node index out of range")


def _crossover(a, b, draws):
    ka = draws.below(a.size)
    kb = draws.below(b.size)
    return _replace_node(a, ka, _subtree(b, kb))


def _subtree_mutation(e, draws, dim):
    k = draws.below(e.size)
    sub = _random_tree(draws, dim, 3, False)
    return _replace_node(e, k, sub)


def _point_mutation(e, draws, dim):
    k = draws.below(e.size)
    t = _subtree(e, k)
    if t.kind == "const":
        width = GP_CONSTANT_RANGE[1] - GP_CONSTANT_RANGE[0]
        new = Expr.const(t.value + 0.1 * width
                         * draws.rng.standard_normal())
    elif t.kind == "var":
        new = Expr.var(draws.below(dim))
    elif t.kind in ("add", "sub", "mul", "div"):
        names = [o for o in GP_OPERATORS if o in _GP_BINOPS]
        new = _GP_BINOPS[names[draws.below(len(names))]](*t.children)
    else:
        return e
    return _replace_node(e, k, new)


def gp_penalty_data(gens, X, dX, eps):
    """Pre-transformed pairs for the finite-group equation penalty.

    For each generator g the pair is (g(x), J_g(x) dx): the candidate is
    compared against the pushed-forward measured derivatives, so evolution
    only ever evaluates trees at the precomputed transformed points, stacked
    with the fit points into one evaluation per candidate.
    """
    return [(gX, np.einsum("nij,nj->ni", Jg, dX))
            for gX, Jg in precompute_transforms(gens, X, eps)]


def _mean_square(r):
    # the bits of np.mean(r * r) for 1-D r, without its overhead
    return float(np.add.reduce(r * r) / r.shape[0])


def gp_fitness_points(X, penalty, lam):
    """(points, targets) for gp_candidate_fitness, built once per evolution.

    points stacks X with every penalty pair's transformed points, so each
    candidate is evaluated once on all of them.  targets holds (first row
    in points, pushed-forward derivatives, their mean square) for each pair
    in the same order, leaving out pairs whose derivatives are all but zero.
    Without a penalty (lam 0 or no pairs) the points are X's values and
    there are no targets.
    """
    pairs = penalty if lam > 0.0 and penalty else ()
    targets, lo = [], X.shape[0]
    for _, target in pairs:
        denom = _mean_square(target)
        if not denom < 1e-30:  # a NaN stays, making every candidate inf
            targets.append((lo, target, denom))
        lo += target.shape[0]
    return np.concatenate([X] + [gX for gX, _ in pairs]), targets


def gp_candidate_fitness(e, points, y, inv_var, cfg, targets, lam):
    """(total, mse, penalty, size); total is inf for non-finite candidates.

    points and targets come from gp_fitness_points: the tree is evaluated
    once on the fit points and every penalty point set stacked together,
    and the MSE and each penalty term are read from slices.  The caller
    owns np.errstate: evolution enters it once per generation, and a
    candidate that overflows or divides by zero warns without it.
    """
    size = e.size
    n = y.shape[0]
    v = evaluate(e, points, protected=True)
    mse = _mean_square(v[:n] - y) * inv_var
    if not math.isfinite(mse):
        return (np.inf, np.inf, 0.0, size)
    pen = 0.0
    for lo, target, denom in targets:
        q = v[lo:lo + target.shape[0]] - target
        pen += _mean_square(q) / denom
    pen = pen / len(targets) if targets else 0.0
    if not math.isfinite(pen):
        return (np.inf, mse, np.inf, size)
    return (mse + cfg.parsimony * size + lam * pen, mse, pen, size)


def _additive_terms(e, sign=1.0):
    if e.kind == "add":
        return (_additive_terms(e.children[0], sign)
                + _additive_terms(e.children[1], sign))
    if e.kind == "sub":
        return (_additive_terms(e.children[0], sign)
                + _additive_terms(e.children[1], -sign))
    if e.kind == "neg":
        return _additive_terms(e.children[0], -sign)
    return [(sign, e)]


def refit_constants(e, X, y):
    """Least-squares refit of the tree's linear-in-constant slots.

    A tree that expands into monomial-times-exponential terms is rebuilt as
    that expansion with every coefficient refit jointly; otherwise only the
    top-level additive coefficients are refit.  The original tree is kept
    whenever the refit does not improve the squared error.
    """
    dim = X.shape[-1]
    terms = None
    monomials = expand(e, dim)
    if monomials is not None and 0 < len(monomials) <= 40:
        terms = [(1.0, monomial(*key)) for key in sorted(monomials)]
    if terms is None:
        terms = _additive_terms(e)
    cols = []
    with np.errstate(all="ignore"):
        for sign, t in terms:
            col = (np.ones(X.shape[0]) if t.kind == "const"
                   else sign * gp_evaluate(t, X))
            cols.append(col)
    A = np.stack(cols, axis=1)
    if not np.all(np.isfinite(A)):
        return e
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    parts = []
    for (sign, t), c in zip(terms, coef):
        if t.kind == "const":
            parts.append(Expr.const(float(c)))
        else:
            parts.append(Expr.mul(Expr.const(float(c * sign)), t))
    out = parts[0]
    for t in parts[1:]:
        out = Expr.add(out, t)
    with np.errstate(all="ignore"):
        err_new = float(np.mean((gp_evaluate(out, X) - y) ** 2))
        err_old = float(np.mean((gp_evaluate(e, X) - y) ** 2))
    if not np.isfinite(err_new) or err_new >= err_old:
        return e
    return out


def _tournament(pop, fits, draws, k):
    n = len(pop)
    idx = [draws.below(n) for _ in range(k)]
    j = min(idx, key=lambda j: (fits[j][0], j))
    return pop[j]


def _evolve_dimension(X, y, cfg, rng, penalty, lam):
    var = float(y.var())
    inv_var = 1.0 / var if var > 0 else 1.0
    points, targets = gp_fitness_points(X, penalty, lam)
    draws = _Draws(rng)

    scored = {}

    def score(pop):
        # A tree object scored in this or the previous generation (the
        # elite, a parent copied or picked twice) keeps its fitness.  The
        # dict holds the trees it keys, so an id is never reused inside it.
        nonlocal scored
        prev, scored = scored, {}
        fits = []
        with np.errstate(all="ignore"):
            for e in pop:
                hit = scored.get(id(e)) or prev.get(id(e))
                if hit is None:
                    hit = (e, gp_candidate_fitness(e, points, y, inv_var,
                                                   cfg, targets, lam))
                scored[id(e)] = hit
                fits.append(hit[1])
        return fits

    pop = _initial_population(draws, X.shape[-1], cfg)
    fits = score(pop)
    if all(not np.isfinite(f[0]) for f in fits):
        pop = _initial_population(draws, X.shape[-1], cfg)
        fits = score(pop)
        if all(not np.isfinite(f[0]) for f in fits):
            raise RuntimeError("every candidate in the reseeded population "
                               "evaluated non-finite")
    j = int(np.argmin([f[0] for f in fits]))
    best_e, best_f = pop[j], fits[j]
    history = [best_f[0]]
    for _ in range(cfg.generations):
        if best_f[1] <= GP_TARGET_MSE:
            break
        newpop = [best_e]
        while len(newpop) < cfg.population:
            parent = _tournament(pop, fits, draws, GP_TOURNAMENT)
            r = draws.random()
            if r < GP_P_CROSSOVER:
                child = _crossover(
                    parent, _tournament(pop, fits, draws, GP_TOURNAMENT),
                    draws)
            elif r < GP_P_CROSSOVER + GP_P_SUBTREE:
                child = _subtree_mutation(parent, draws, X.shape[-1])
            elif r < GP_P_CROSSOVER + GP_P_SUBTREE + GP_P_POINT:
                child = _point_mutation(parent, draws, X.shape[-1])
            else:
                child = parent
            if child.height > GP_MAX_DEPTH:
                child = parent
            newpop.append(child)
        pop = newpop
        fits = score(pop)
        j = int(np.argmin([f[0] for f in fits]))
        if fits[j][0] < best_f[0]:
            best_e, best_f = pop[j], fits[j]
        history.append(best_f[0])
    return best_e, best_f, history


@dataclass
class GpResult:
    """Per-dimension discovered expressions plus evolution diagnostics."""

    exprs: list
    fitness: list
    history: list
    provenance: dict = field(default_factory=dict)

    def h(self, X, out=None):
        """The discovered vector field at X of shape (..., d)."""
        return evaluate_all(self.exprs, X, protected=True, out=out)

    def equations(self):
        return [f"x{i+1}' = {to_string(e)}"
                for i, e in enumerate(self.exprs)]


def gp_fit(dataset, cfg=None, symmetry=()):
    """Evolve one expression per output dimension.

    symmetry, when given, is a sequence of generators v; the penalty uses
    the group elements exp(cfg.eps * v) with weight cfg.lambda_symm
    (GP_LAMBDA when None).  It compares candidates at precomputed
    transformed points against the pushed-forward measured derivatives;
    those points join the fit points in each candidate's one tree
    evaluation, so the penalty adds GP_PENALTY_POINTS rows (fewer if there
    are fewer fit rows) per generator to it.  An empty symmetry is plain
    GP, with provenance method "gp"; the CLI and the benchmark refuse
    equiv-gp-r without a generator.
    """
    cfg = cfg or DiscoveryConfig()
    X, dX = _regression_data(dataset)
    d = dX.shape[1]
    rng0 = split_rng(cfg.seed, 0)
    if X.shape[0] > GP_MAX_FIT_SAMPLES:
        keep = np.sort(rng0.choice(X.shape[0], size=GP_MAX_FIT_SAMPLES,
                                   replace=False))
        X, dX = X[keep], dX[keep]
    lam = 0.0
    penalty_all = None
    if symmetry:
        lam = float(GP_LAMBDA if cfg.lambda_symm is None else cfg.lambda_symm)
        np_pen = min(GP_PENALTY_POINTS, X.shape[0])
        penalty_all = gp_penalty_data(symmetry, X[:np_pen], dX[:np_pen],
                                      float(cfg.eps))
    exprs, fits, histories = [], [], []
    for i in range(d):
        rng = split_rng(cfg.seed, 1 + i)
        penalty = ([(gX, T[:, i]) for gX, T in penalty_all]
                   if penalty_all else None)
        e, f, hist = _evolve_dimension(X, dX[:, i], cfg.gp, rng, penalty, lam)
        e = refit_constants(e, X, dX[:, i])
        exprs.append(e)
        fits.append(f)
        histories.append(hist)
    prov = {"method": "equiv-gp-r" if lam > 0 else "gp",
            "lambda": lam, "seed": cfg.seed,
            "generations": [len(h) - 1 for h in histories]}
    return GpResult(exprs=exprs, fitness=fits, history=histories,
                    provenance=prov)
