import pickle

import numpy as np
import pytest

from symodes.expressions import (Expr, ExprSyntaxError, TreeField,
                                 differentiate, evaluate, evaluate_all,
                                 expand, monomial, parse, to_string)


def test_parse_and_eval_basics():
    e = parse("-0.1*x1 - x2", 2)
    assert evaluate(e, [1.0, 2.0]) == pytest.approx(-2.1, abs=1e-15)
    e = parse("x1*x2^2", 2)
    assert evaluate(e, [0.75, 2.0]) == 3.0
    e = parse("2/3 - (4/3)*exp(x2)", 2)
    assert evaluate(e, [0.0, 0.0]) == pytest.approx(2 / 3 - 4 / 3, abs=1e-15)


def test_eval_broadcasts_over_batches():
    e = parse("x1^2 + x2", 2)
    X = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, -1.0]])
    np.testing.assert_allclose(evaluate(e, X), [3.0, 13.0, -1.0])


def test_division_by_zero_is_nonfinite_not_fatal():
    e = parse("x1/x2", 2)
    with np.errstate(divide="ignore"):
        val = evaluate(e, [1.0, 0.0])
        vals = evaluate(e, np.array([[1.0, 0.0], [1.0, 2.0]]))
    assert not np.isfinite(val)
    assert not np.isfinite(vals[0])
    assert vals[1] == 0.5


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + ", 2)
    assert err.value.position == 5
    with pytest.raises(ExprSyntaxError):
        parse("x3 + 1", 2)  # out of range for dim 2
    with pytest.raises(ExprSyntaxError):
        parse("x1 ^ x2", 2)  # exponent must be an integer literal
    with pytest.raises(ExprSyntaxError):
        parse("x1^-2", 2)
    with pytest.raises(ExprSyntaxError):
        parse("y1 + 1", 2)
    with pytest.raises(ExprSyntaxError):
        parse("(x1 + x2", 2)
    with pytest.raises(ExprSyntaxError):
        parse("x1 x2", 2)


def test_nodes_are_immutable():
    e = parse("x1 + 1", 2)
    with pytest.raises(AttributeError):
        e.kind = "mul"


def _random_expr(rng, dim, depth):
    """Random tree with bounded depth, for round-trip and derivative checks."""
    if depth <= 1 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.5:
            return Expr.var(int(rng.integers(dim)))
        return Expr.const(round(float(rng.uniform(-3, 3)), 3))
    kind = rng.choice(["add", "sub", "mul", "div", "neg", "exp", "pow"])
    if kind == "neg":
        return Expr.neg(_random_expr(rng, dim, depth - 1))
    if kind == "exp":
        return Expr.exp(_random_expr(rng, dim, depth - 1))
    if kind == "pow":
        return Expr.pow(_random_expr(rng, dim, depth - 1),
                        int(rng.integers(0, 4)))
    a = _random_expr(rng, dim, depth - 1)
    b = _random_expr(rng, dim, depth - 1)
    return Expr(kind, (a, b))


def test_print_parse_round_trip_is_exact():
    rng = np.random.default_rng(42)
    for _ in range(300):
        e = _random_expr(rng, 3, 6)
        back = parse(to_string(e), 3)
        X = rng.uniform(-2, 2, size=(8, 3))
        with np.errstate(all="ignore"):
            a = np.asarray(evaluate(e, X), dtype=float)
            b = np.asarray(evaluate(back, X), dtype=float)
        assert np.array_equal(a, b, equal_nan=True), to_string(e)


def test_differentiate_matches_finite_differences():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 120:
        e = _random_expr(rng, 2, 5)
        x = rng.uniform(0.3, 1.7, size=2)
        step = 1e-6
        for i in range(2):
            d = evaluate(differentiate(e, i), x)
            dx = np.zeros(2)
            dx[i] = step
            hi = evaluate(e, x + dx)
            lo = evaluate(e, x - dx)
            vals = np.array([d, hi, lo, evaluate(e, x)])
            if not np.all(np.isfinite(vals)) or np.abs(vals).max() > 1e6:
                continue  # stay on smooth, well-scaled points
            fd = (hi - lo) / (2 * step)
            assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))
            checked += 1


def test_differentiate_is_linear():
    rng = np.random.default_rng(11)
    for _ in range(50):
        e1 = _random_expr(rng, 2, 4)
        e2 = _random_expr(rng, 2, 4)
        a, b = rng.uniform(-2, 2, size=2)
        combo = Expr.add(Expr.mul(Expr.const(a), e1),
                         Expr.mul(Expr.const(b), e2))
        X = rng.uniform(0.2, 1.5, size=(5, 2))
        for i in range(2):
            lhs = evaluate(differentiate(combo, i), X)
            rhs = (a * evaluate(differentiate(e1, i), X)
                   + b * evaluate(differentiate(e2, i), X))
            ok = np.isfinite(lhs) & np.isfinite(rhs)
            scale = np.maximum(1.0, np.abs(rhs[ok]))
            assert np.all(np.abs(lhs[ok] - rhs[ok]) <= 1e-10 * scale)


def _recursive_depth(e):
    return 1 + max((_recursive_depth(c) for c in e.children), default=0)


def _assert_sizes(e):
    assert e.size == e.node_count(), to_string(e)
    assert e.height == _recursive_depth(e), to_string(e)
    for c in e.children:
        _assert_sizes(c)


def test_depth_and_node_count():
    from symodes.discover import _crossover, _Draws, _replace_node

    e = parse("x1 + x2*x1", 2)
    assert e.node_count() == e.size == 5
    assert e.height == 3
    assert parse("x1", 1).height == 1
    # size and height are stored at construction; they must equal the
    # recursive definitions on every tree the GP engine can build.
    rng = np.random.default_rng(3)
    draws = _Draws(rng)
    trees = [_random_expr(rng, 3, 6) for _ in range(200)]
    for a, b in zip(trees, trees[1:]):
        _assert_sizes(a)
        k = int(rng.integers(a.size))
        _assert_sizes(_replace_node(a, k, b))
        _assert_sizes(_crossover(a, b, draws))
        back = pickle.loads(pickle.dumps(a))
        _assert_sizes(back)
        assert (back.size, back.height) == (a.size, a.height)


def _reference_eval(e, x, protected):
    """The recursive evaluator with one np.full array per constant node."""
    k = e.kind
    if k == "const":
        return np.full(x.shape[:-1], e.value) if x.ndim > 1 else e.value
    if k == "var":
        return x[..., e.value]
    kids = [_reference_eval(c, x, protected) for c in e.children]
    if k == "add":
        return kids[0] + kids[1]
    if k == "sub":
        return kids[0] - kids[1]
    if k == "mul":
        return kids[0] * kids[1]
    if k == "div":
        num, den = kids
        if not protected:
            return np.divide(num, den)
        zero = den == 0.0
        return np.where(zero, 1.0, num / np.where(zero, 1.0, den))
    if k == "neg":
        return -kids[0]
    if k == "exp":
        return np.exp(kids[0])
    if k == "pow":
        return np.asarray(kids[0]) ** e.value
    raise AssertionError(k)


def reference_evaluate(e, x, protected=False):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _reference_eval(e, x, protected)
    if np.ndim(out) == 0 and x.ndim == 1:
        return float(out)
    return out


def _assert_same_bits(e, x, protected):
    got = evaluate(e, x, protected)
    want = reference_evaluate(e, x, protected)
    assert type(got) is type(want), to_string(e)
    assert np.shape(got) == np.shape(want) == np.shape(x)[:-1]
    assert np.array_equal(got, want, equal_nan=True), to_string(e)
    # the same bits, down to the sign of zeros and the NaN payloads
    bits = [np.asarray(v, dtype=float).view(np.uint64) for v in (got, want)]
    assert np.array_equal(*bits), to_string(e)


def test_evaluate_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    # Zeros make x/0 and 0/0, large entries overflow exp.
    X = rng.choice([0.0, -1.0, 0.5, 2.0, 750.0], size=(4, 6, 3))
    X[0] = rng.uniform(-3, 3, size=(6, 3))
    trees = [_random_expr(rng, 3, 6) for _ in range(300)]
    trees += [parse(t, 3) for t in (
        "2", "1/0", "0/0", "-1/0", "exp(1000)", "exp(exp(3))",
        "(2 - 3*1.5)^3", "x1/0", "0/x1", "x1/(x2 - x2)", "(x1 - x1)/x3",
        "exp(x3)*exp(x3) - exp(x3)^2", "x1 + exp(800)/exp(800)")]
    with np.errstate(all="ignore"):
        for e in trees:
            for protected in (False, True):
                _assert_same_bits(e, X, protected)       # batched (4, 6, d)
                _assert_same_bits(e, X[1], protected)    # batched (6, d)
                for x in X[:, 0]:                        # 1-D inputs
                    _assert_same_bits(e, x, protected)


def test_evaluate_all_stacks_evaluate():
    rng = np.random.default_rng(8)
    exprs = [_random_expr(rng, 2, 5) for _ in range(40)] + [parse("2", 2)]
    X = rng.uniform(-2, 2, size=(7, 2))
    X[0] = 0.0
    with np.errstate(all="ignore"):
        for protected in (False, True):
            out = evaluate_all(exprs, X, protected)
            assert out.shape == (7, len(exprs))
            for i, e in enumerate(exprs):
                assert np.array_equal(out[:, i], evaluate(e, X, protected),
                                      equal_nan=True)
            row = evaluate_all(exprs, X[1], protected)
            assert np.array_equal(row, out[1], equal_nan=True)


def test_tree_field_equals_evaluate_all_bit_for_bit():
    # A bound field runs _eval's ufuncs on the same values into its own
    # registers, so it gets evaluate_all's bits in every batch shape: x/0
    # and 0/0 (protected or not), exp overflow, pow nodes (2 is np.square),
    # folded constant-only subtrees, and constant-only and variable roots,
    # whatever out held.
    rng = np.random.default_rng(11)
    X = rng.choice([0.0, -1.0, 0.5, 2.0, 750.0], size=(4, 6, 3))
    X[0] = rng.uniform(-3, 3, size=(6, 3))
    trees = [_random_expr(rng, 3, 6) for _ in range(240)]
    trees += [parse(t, 3) for t in (
        "2", "x2", "-x3", "1/0", "0/0", "exp(1000)", "x1/0", "0/x1",
        "x1/(x2 - x2)", "(x1 - x1)/(x3 - x3)", "x1/(1 - 1)", "exp(x1)*x2",
        "exp(x3)*exp(x3) - exp(x3)^2", "x1 + exp(800)/exp(800)",
        "x1^0 + x2^1 + x3^2 + (x1 - x2)^3", "(2 - 3*1.5)^3*x1",
        "x2*(exp(2)/(1 - 1) + 0.5^2)", "x3^2/x3")]
    assert len(trees) % 3 == 0                      # fields of 3 trees
    batches = [X, X[1], X[1, 2], X[:, :1]]         # (4, 6), (6,), (), (4, 1)
    with np.errstate(all="ignore"):
        for protected in (False, True):
            for i in range(0, len(trees), 3):
                exprs = trees[i:i + 3]
                for x in batches:
                    want = evaluate_all(exprs, x, protected)
                    field = TreeField(exprs, x.shape[:-1], protected)
                    for fill in (np.nan, 0.0):
                        out = np.full(x.shape, fill)
                        assert field(x, out) is out
                        assert np.array_equal(out.view(np.uint64),
                                              want.view(np.uint64)), exprs
                    fresh = field(x)
                    assert fresh.flags.c_contiguous
                    assert np.array_equal(fresh.view(np.uint64),
                                          want.view(np.uint64)), exprs


def test_ieee_errors_follow_the_callers_errstate():
    # The evaluator enters no np.errstate of its own: a caller that asks for
    # division by zero to raise gets the error, protected division included.
    from symodes.discover import gp_evaluate

    e = parse("1/x1", 1)
    X = np.array([[0.0], [2.0]])
    with np.errstate(divide="raise"):
        for evaluation in (lambda: evaluate(e, X),
                           lambda: evaluate_all([e], X),
                           lambda: gp_evaluate(e, X)):
            with pytest.raises(FloatingPointError):
                evaluation()


@pytest.mark.parametrize("exps, ecounts", [
    ((0, 0), (0, 0)),                  # the constant 1
    ((1, 0), (0, 0)),
    ((1, 1), (0, 0)),                  # a product
    ((3, 0), (0, 0)),                  # a power
    ((2, 1), (0, 0)),
    ((0, 0), (0, 1)),                  # exp(x2)
    ((0, 0), (2, 0)),                  # exp(2*x1)
    ((0, 0), (1, 1)),                  # exp(x1 + x2)
    ((1, 2), (2, 1)),                  # x1*x2^2*exp(2*x1 + x2)
    ((0, 3, 1), (0, 2, 1)),
])
def test_monomial_inverts_expand(exps, ecounts):
    e = monomial(exps, ecounts)
    assert expand(e, len(exps)) == {(exps, ecounts): 1.0}
