"""Equation-discovery engines over a fixed function library.

Four fitters; all but stlsq, which takes (Theta, dX, threshold), accept a
Dataset or an (X, dX) pair:

* stlsq           -- sequentially thresholded least squares on W.
* equiv_c_fit     -- least squares restricted to the nullspace of the
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
                     penalty points together.

The three W-linear fitters share one sequential-thresholding loop.  The
model class SindyModel lives in dynamics, where it also serves as the
registry systems' true dynamics.  All fitters are deterministic given
(data, config, seed).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .constraint import assemble_equivariant_basis, materialize
# equation_strings is re-exported: callers import it with SindyModel
from .dynamics import Dataset, SindyModel, equation_strings, split_rng
from .expressions import (Expr, evaluate, evaluate_all, expand, monomial,
                          to_string)
from .symmetry import (DEFAULT_EPS, DegenerateLossError,
                       precompute_transforms, symmetry_loss_grad)

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
GP_TARGET_MSE = 1e-12               # evolution stops once the best reaches it


@dataclass(frozen=True)
class GpConfig:
    population: int = 256
    generations: int = 100
    parsimony: float = 1e-3


@dataclass(frozen=True)
class DiscoveryConfig:
    threshold: float = 0.05
    lambda_symm: float = None        # None selects from lambda_grid on val
    loss_kind: str = "igie"
    tau: float = 0.2
    eps: float = DEFAULT_EPS
    batch: int = 512
    seed: int = 0
    lambda_grid: tuple = (0.01, 0.1, 1.0)
    gp: GpConfig = GpConfig()

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")
        if self.lambda_symm is not None and self.lambda_symm < 0:
            raise ValueError("lambda_symm must be nonnegative")


def _regression_data(dataset, split="train"):
    if isinstance(dataset, Dataset):
        return dataset.regression_arrays(split)
    X, dX = dataset
    return np.atleast_2d(np.asarray(X, float)), \
        np.atleast_2d(np.asarray(dX, float))


def _validation_data(dataset):
    if isinstance(dataset, Dataset) and dataset.splits.get("val"):
        return dataset.regression_arrays("val")
    return None


# -- sequential thresholding -----------------------------------------------------


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


def stlsq(Theta, dX, threshold):
    """W minimizing ||dX - Theta W^T|| with hard-thresholded refits.

    Each round solves per-dimension least squares on the surviving support,
    then zeroes entries with |W| < threshold; supports only shrink.  A zero
    threshold is plain least squares.
    """
    Theta = np.asarray(Theta, dtype=float)
    dX = np.asarray(dX, dtype=float)
    if dX.ndim == 1:
        dX = dX[:, None]
    N, p = Theta.shape
    d = dX.shape[1]
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    if N < p:
        warnings.warn(f"only {N} samples for {p} library terms; the fit is "
                      "underdetermined", stacklevel=2)

    def refit(active):
        W = np.zeros((d, p))
        for i in range(d):
            idx = np.flatnonzero(active[i])
            if idx.size == 0:
                continue
            coef, _, rank, _ = np.linalg.lstsq(Theta[:, idx], dX[:, i],
                                               rcond=None)
            if rank < idx.size:
                warnings.warn("rank-deficient support in dimension "
                              f"{i + 1}: using the minimum-norm solution",
                              stacklevel=4)
            W[i, idx] = coef
        return W

    return _threshold_rounds(refit, (d, p), threshold)[0]


# -- constrained regression in the equivariant subspace -------------------------


def equiv_c_fit(dataset, lib, gens, cfg=None):
    """Least squares over the symmetry-constrained coefficient subspace.

    The regression unknown is beta with W = unvec(Q beta), so the problem
    stays linear.  Thresholding pins small entries: the nullspace is
    recomputed with their columns deleted from the constraint matrix, so
    pinned entries come back exactly zero and every intermediate W is
    exactly equivariant.  A collapsed nullspace returns W = 0.
    """
    cfg = cfg or DiscoveryConfig()
    X, dX = _regression_data(dataset)
    Theta = lib.evaluate(X)
    d = dX.shape[1]
    p = lib.size
    nullities = []

    def fit(active):
        basis = assemble_equivariant_basis(lib, gens,
                                           pins=np.argwhere(~active))
        r = basis.nullity
        nullities.append(r)
        if r == 0:
            return np.zeros((d, p))
        A = np.einsum("nm,mir->nir", Theta, basis.Q.reshape(p, d, r))
        beta, *_ = np.linalg.lstsq(A.reshape(-1, r), dX.reshape(-1),
                                   rcond=None)
        return materialize(basis, beta)

    W, active = _threshold_rounds(fit, (d, p), cfg.threshold)
    pins = [(int(i), int(mu)) for i, mu in np.argwhere(~active)]
    prov = {"method": "equiv-c", "nullities": nullities, "pins": pins,
            "threshold": cfg.threshold}
    return SindyModel(lib, W, provenance=prov)


# -- regularized regression ------------------------------------------------------


class _NonFiniteLoss(RuntimeError):
    pass


def _masked_minimize(W0, active, Theta, dX, lib, gens, lam, cfg, Xb):
    """One L-BFGS-B solve over the active entries of W.

    Returns (W, converged, objective).  The per-iteration callback raises
    RuntimeError if the objective increases across an accepted step; the
    best iterate seen is returned even if the optimizer stops early.
    """
    d, p = W0.shape
    N = Theta.shape[0]
    mask = active
    best = {"f": np.inf, "w": None}

    def objective(w):
        W = np.zeros((d, p))
        W[mask] = w
        R = dX - Theta @ W.T
        f = float((R * R).sum()) / N
        G = (-2.0 / N) * (R.T @ Theta)
        if lam > 0.0 and gens:
            try:
                ls, Gs = symmetry_loss_grad(
                    cfg.loss_kind, SindyModel(lib, W), gens, Xb,
                    tau=cfg.tau, eps=cfg.eps)
            except DegenerateLossError as exc:
                raise _NonFiniteLoss(str(exc))
            f += lam * float(ls)
            G = G + lam * Gs
        if not np.isfinite(f) or not np.all(np.isfinite(G)):
            raise _NonFiniteLoss("objective is not finite")
        if f < best["f"]:
            best["f"] = f
            best["w"] = w.copy()
        return f, G[mask]

    prev = None

    def callback(intermediate_result):
        nonlocal prev
        fk = float(intermediate_result.fun)
        if prev is not None and fk > prev + 1e-9 * (1.0 + abs(prev)):
            raise RuntimeError("objective increased across an accepted step")
        prev = fk

    res = scipy.optimize.minimize(
        objective, W0[mask], jac=True, method="L-BFGS-B", callback=callback,
        options=LBFGS_OPTIONS)
    if best["w"] is not None and best["f"] < res.fun:
        w, f = best["w"], best["f"]
    else:
        w, f = res.x, float(res.fun)
    W = np.zeros((d, p))
    W[mask] = w
    return W, bool(res.success), f


def _equiv_r_rounds(Theta, dX, lib, gens, lam, cfg, Xb):
    d = dX.shape[1]
    p = lib.size
    W_prev = stlsq(Theta, dX, 0.0)
    lam_eff = lam
    halved = False
    converged = True
    rounds = 0

    def fit(active):
        nonlocal W_prev, lam_eff, halved, converged, rounds
        rounds += 1
        if not active.any():
            return np.zeros((d, p))
        while True:
            try:
                W, ok, _ = _masked_minimize(W_prev * active, active, Theta,
                                            dX, lib, gens, lam_eff, cfg, Xb)
                break
            except _NonFiniteLoss:
                if halved or lam_eff == 0.0:
                    raise
                lam_eff *= 0.5
                halved = True
        converged = converged and ok
        W_prev = W
        return W

    W, _ = _threshold_rounds(fit, (d, p), cfg.threshold)
    return W, {"rounds": rounds, "lambda": lam_eff, "halved": halved,
               "converged": converged}


def equiv_r_fit(dataset, lib, gens, cfg=None):
    """Symmetry-regularized regression with sequential thresholding.

    Minimizes the mean squared equation error plus lambda times the
    configured symmetry loss, evaluated on a fixed subsample of
    min(cfg.batch, N) of the N training states.  When cfg.lambda_symm is
    None the weight is picked from cfg.lambda_grid by equation error on the
    validation split (0.1 if there is none).  An empty gens runs one fit
    with lambda 0, i.e. thresholded least squares by L-BFGS-B; the CLI and
    the benchmark refuse equiv-r without a generator instead.
    """
    cfg = cfg or DiscoveryConfig()
    X, dX = _regression_data(dataset)
    Theta = lib.evaluate(X)
    rng = split_rng(cfg.seed, 0)
    nb = min(cfg.batch, X.shape[0])
    Xb = X[rng.choice(X.shape[0], size=nb, replace=False)]
    if not gens:
        lam_values = (0.0,)
    elif cfg.lambda_symm is not None:
        lam_values = (float(cfg.lambda_symm),)
    else:
        val = _validation_data(dataset)
        lam_values = tuple(cfg.lambda_grid) if val is not None else (0.1,)
    results = []
    for lam in lam_values:
        W, info = _equiv_r_rounds(Theta, dX, lib, gens, lam, cfg, Xb)
        results.append((lam, W, info))
    if len(results) == 1:
        lam, W, info = results[0]
        scores = None
    else:
        Xv, dXv = val
        Tv = lib.evaluate(Xv)
        scores = [float(((dXv - Tv @ W.T) ** 2).mean())
                  for _, W, _ in results]
        lam, W, info = results[int(np.argmin(scores))]
    prov = {"method": "equiv-r", "loss_kind": cfg.loss_kind,
            "lambda_symm": lam, "val_scores": scores, **info}
    return SindyModel(lib, W, provenance=prov)


# -- genetic programming ---------------------------------------------------------

_GP_BINOPS = {"+": Expr.add, "-": Expr.sub, "*": Expr.mul, "/": Expr.div}


def gp_evaluate(e, X):
    """Tree evaluation with protected division: any x/0 evaluates to 1."""
    return evaluate(e, X, protected=True)


def _random_tree(rng, dim, depth, full):
    if depth <= 1 or (not full and rng.random() < 0.3):
        if rng.random() < 0.5:
            return Expr.var(int(rng.integers(dim)))
        return Expr.const(float(rng.uniform(*GP_CONSTANT_RANGE)))
    op = GP_OPERATORS[int(rng.integers(len(GP_OPERATORS)))]
    if op == "exp":
        return Expr.exp(_random_tree(rng, dim, depth - 1, full))
    a = _random_tree(rng, dim, depth - 1, full)
    b = _random_tree(rng, dim, depth - 1, full)
    return _GP_BINOPS[op](a, b)


def _initial_population(rng, dim, cfg):
    # ramped half-and-half over depths 2..6
    pop = []
    for i in range(cfg.population):
        depth = min(2 + (i % 5), GP_MAX_DEPTH)
        full = (i // 5) % 2 == 0
        pop.append(_random_tree(rng, dim, depth, full))
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


def _crossover(a, b, rng):
    ka = int(rng.integers(a.size))
    kb = int(rng.integers(b.size))
    return _replace_node(a, ka, _subtree(b, kb))


def _subtree_mutation(e, rng, dim):
    k = int(rng.integers(e.size))
    sub = _random_tree(rng, dim, 3, False)
    return _replace_node(e, k, sub)


def _point_mutation(e, rng, dim):
    k = int(rng.integers(e.size))
    t = _subtree(e, k)
    if t.kind == "const":
        width = GP_CONSTANT_RANGE[1] - GP_CONSTANT_RANGE[0]
        new = Expr.const(t.value + 0.1 * width * rng.standard_normal())
    elif t.kind == "var":
        new = Expr.var(int(rng.integers(dim)))
    elif t.kind in ("add", "sub", "mul", "div"):
        names = [o for o in GP_OPERATORS if o in _GP_BINOPS]
        new = _GP_BINOPS[names[int(rng.integers(len(names)))]](*t.children)
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
    candidate is evaluated once on all of them; targets are the pairs'
    pushed-forward derivatives, in the same order.  Without a penalty (lam
    0 or no pairs) the points are X and there are no targets.
    """
    pairs = penalty if lam > 0.0 and penalty else ()
    if not pairs:
        return X, ()
    return (np.concatenate([X] + [gX for gX, _ in pairs]),
            [target for _, target in pairs])


def gp_candidate_fitness(e, points, y, inv_var, cfg, targets, lam):
    """(total, mse, penalty, size); total is inf for non-finite candidates.

    points and targets come from gp_fitness_points: the tree is evaluated
    once on the fit points and every penalty point set stacked together,
    and the MSE and each penalty term are read from slices.
    """
    size = e.size
    n = y.shape[0]
    with np.errstate(all="ignore"):
        v = evaluate(e, points, protected=True)
        mse = _mean_square(v[:n] - y) * inv_var
        if not np.isfinite(mse):
            return (np.inf, np.inf, 0.0, size)
        pen = 0.0
        used = 0
        for target in targets:
            q = v[n:n + target.shape[0]] - target
            n += target.shape[0]
            denom = _mean_square(target)
            if denom < 1e-30:
                continue
            pen += _mean_square(q) / denom
            used += 1
    pen = pen / used if used else 0.0
    if not np.isfinite(pen):
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


def _tournament(pop, fits, rng, k):
    idx = rng.integers(len(pop), size=k).tolist()
    j = min(idx, key=lambda j: (fits[j][0], j))
    return pop[j]


def _evolve_dimension(X, y, cfg, rng, penalty, lam):
    var = float(y.var())
    inv_var = 1.0 / var if var > 0 else 1.0
    points, targets = gp_fitness_points(X, penalty, lam)

    scored = {}

    def score(pop):
        # A tree object scored in this or the previous generation (the
        # elite, a parent copied or picked twice) keeps its fitness.  The
        # dict holds the trees it keys, so an id is never reused inside it.
        nonlocal scored
        prev, scored = scored, {}
        fits = []
        for e in pop:
            hit = scored.get(id(e)) or prev.get(id(e))
            if hit is None:
                hit = (e, gp_candidate_fitness(e, points, y, inv_var, cfg,
                                               targets, lam))
            scored[id(e)] = hit
            fits.append(hit[1])
        return fits

    pop = _initial_population(rng, X.shape[-1], cfg)
    fits = score(pop)
    if all(not np.isfinite(f[0]) for f in fits):
        pop = _initial_population(rng, X.shape[-1], cfg)
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
            parent = _tournament(pop, fits, rng, GP_TOURNAMENT)
            r = rng.random()
            if r < GP_P_CROSSOVER:
                child = _crossover(parent,
                                   _tournament(pop, fits, rng, GP_TOURNAMENT),
                                   rng)
            elif r < GP_P_CROSSOVER + GP_P_SUBTREE:
                child = _subtree_mutation(parent, rng, X.shape[-1])
            elif r < GP_P_CROSSOVER + GP_P_SUBTREE + GP_P_POINT:
                child = _point_mutation(parent, rng, X.shape[-1])
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
    the group elements exp(cfg.eps * v) with weight cfg.lambda_symm (0.1
    when None).  It compares candidates at precomputed transformed points
    against the pushed-forward measured derivatives; those points join the
    fit points in each candidate's one tree evaluation, so the penalty adds
    GP_PENALTY_POINTS rows (fewer if there are fewer fit rows) per
    generator to it.  An empty symmetry is plain GP, with provenance method
    "gp"; the CLI and the benchmark refuse equiv-gp-r without a generator.
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
        lam = float(cfg.lambda_symm if cfg.lambda_symm is not None else 0.1)
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
