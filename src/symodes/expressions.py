"""Immutable symbolic expression trees over state variables x1..xd.

Grammar accepted by :func:`parse` (whitespace is insignificant):

    expr    := term  (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom ("^" integer)?
    atom    := number | variable | "exp" "(" expr ")" | "(" expr ")"
    variable:= "x" digits          (1-based index, bounded by the declared dim)
    number  := decimal literal, e.g. "2", "0.75", "1e-3"

Exponents are literal nonnegative integers; anything else after "^" is a
syntax error.  Evaluation follows IEEE semantics: division by zero and
overflow produce non-finite values, reported (ignored, warned or raised) as
the caller's np.errstate says, so callers that create them on purpose enter
their own np.errstate (the GP engine also asks for protected division, where
any x/0 is 1).  Nodes are immutable; rewriting always builds new trees.
"""

from __future__ import annotations

import re

import numpy as np

from .integrate import BoundField

_KINDS = ("const", "var", "add", "sub", "mul", "div", "neg", "exp", "pow")

# printing precedence, larger binds tighter
_PREC = {
    "add": 1, "sub": 1,
    "mul": 2, "div": 2,
    "neg": 2,
    "pow": 3,
    "const": 4, "var": 4, "exp": 4,
}


class ExprSyntaxError(ValueError):
    """Raised by parse(); carries the character position of the failure."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Expr:
    """A node in an expression tree.

    kind is one of const/var/add/sub/mul/div/neg/exp/pow.  `value` holds the
    float for const, the 0-based variable index for var, and the integer
    exponent for pow; it is None otherwise.  `size` (node count) and `height`
    (a leaf has height 1) are computed from the children at construction.
    """

    __slots__ = ("kind", "children", "value", "size", "height")

    def __init__(self, kind, children=(), value=None):
        if kind not in _KINDS:
            raise ValueError(f"unknown node kind {kind!r}")
        _fill(self, kind, tuple(children), value)

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")

    def __reduce__(self):
        # __slots__ plus a raising __setattr__ breaks default pickling
        return (Expr, (self.kind, self.children, self.value))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c):
        return make_node("const", (), float(c))

    @staticmethod
    def var(i):
        if i < 0:
            raise ValueError("variable index must be nonnegative")
        return make_node("var", (), int(i))

    @staticmethod
    def add(a, b):
        return make_node("add", (a, b))

    @staticmethod
    def sub(a, b):
        return make_node("sub", (a, b))

    @staticmethod
    def mul(a, b):
        return make_node("mul", (a, b))

    @staticmethod
    def div(a, b):
        return make_node("div", (a, b))

    @staticmethod
    def neg(a):
        return make_node("neg", (a,))

    @staticmethod
    def exp(a):
        return make_node("exp", (a,))

    @staticmethod
    def pow(a, n):
        n = int(n)
        if n < 0:
            raise ValueError("exponents must be nonnegative integers")
        return make_node("pow", (a,), n)

    # -- queries -----------------------------------------------------------

    def node_count(self):
        """The number of nodes, counted recursively (`size` stores it)."""
        return 1 + sum(c.node_count() for c in self.children)

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        return evaluate(self, x)

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"Expr<{to_string(self)}>"


_new = object.__new__
# the slot setters, which a raising __setattr__ leaves the only way in
_SET_KIND, _SET_CHILDREN, _SET_VALUE, _SET_SIZE, _SET_HEIGHT = (
    Expr.__dict__[name].__set__ for name in Expr.__slots__)


def _fill(e, kind, children, value):
    size = height = 1
    for c in children:
        size += c.size
        if c.height >= height:
            height = c.height + 1
    _SET_KIND(e, kind)
    _SET_CHILDREN(e, children)
    _SET_VALUE(e, value)
    _SET_SIZE(e, size)
    _SET_HEIGHT(e, height)


def make_node(kind, children, value=None):
    """Expr(kind, children, value) for a known kind and a tuple of children,
    without checking or copying them: the constructor of the builders above
    and of the GP engine's children."""
    e = _new(Expr)
    _fill(e, kind, children, value)
    return e


# The ufunc of each operator kind.  _eval and TreeField both take a node's
# ufunc from _UFUNCS and _power, so a bound tree gets the one-shot bits; pow
# by 2 is np.square, as ndarray ** 2 is.  Under protected division any x/0,
# 0/0 included, is X_OVER_ZERO, whatever the quotient was.
_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
           "div": np.divide, "neg": np.negative, "exp": np.exp}
X_OVER_ZERO = 1.0


def _power(e):
    """(ufunc, trailing operands) of a pow node."""
    return (np.square, ()) if e.value == 2 else (np.power, (e.value,))


def evaluate(e, x, protected=False):
    """Evaluate e at points x of shape (..., d); returns shape (...).

    Non-finite intermediate values (division by zero, exp overflow) propagate
    as inf/nan, and IEEE errors are reported under the caller's np.errstate.
    With protected, any division by zero, including 0/0, evaluates to 1
    instead.
    """
    x = np.asarray(x, dtype=float)
    out = _eval(e, x, protected)
    if type(out) is np.ndarray and out.ndim:
        return out
    return float(out) if x.ndim == 1 else np.full(x.shape[:-1], out)


def evaluate_all(exprs, x, protected=False, out=None):
    """evaluate(e, x, protected) of each e, stacked on a new last axis.

    The result is written into out when it is given.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(x.shape[:-1] + (len(exprs),))
    for i, e in enumerate(exprs):
        out[..., i] = _eval(e, x, protected)
    return out


def _eval(e, x, protected):
    # The one-shot evaluator.  Constants stay scalars and broadcast where
    # they meet a variable, so a constant-only subtree is computed once, not
    # once per point.
    k = e.kind
    if k == "var":
        return x[..., e.value]
    if k == "const":
        return e.value
    c = e.children
    a = _eval(c[0], x, protected)
    if k == "pow":
        ufunc, n = _power(e)
        return ufunc(a, *n)
    if len(c) == 1:
        return _UFUNCS[k](a)
    b = _eval(c[1], x, protected)
    v = _UFUNCS[k](a, b)
    if protected and k == "div":
        return np.where(b == 0.0, X_OVER_ZERO, v)
    return v


class TreeField(BoundField):
    """The field h(x) = (e_1(x), .., e_d(x)) of d trees over x1..xd, bound
    to states (..., d) of one batch shape.

    A BoundField (see integrate): each tree is compiled once, here, into
    steps (ufunc, operands with the output last) over registers of the
    batch shape, one per operator node, reading the variables from x,
    (d,) + shape; steps(out) puts row i of out where tree i's root writes.
    A step runs one ufunc per node (three for a protected division:
    np.equal of the divisor into a bool buffer, the division, np.putmask of
    X_OVER_ZERO), or copies a root that is a variable or a constant, so it
    allocates nothing.  Constant-only subtrees are folded by _eval.  Every
    node applies _eval's ufunc to the same values, so h(X) has the bits of
    evaluate_all(exprs, X, protected).  IEEE errors are reported under the
    caller's np.errstate, as there, and the folding's under the binder's.
    """

    def __init__(self, exprs, shape, protected=False):
        x = self.x = np.empty((len(exprs),) + tuple(shape))
        self._protected = protected
        # stand-ins for the rows of out, which steps(out) puts in their place
        roots = np.empty(x.shape)
        self._roots = [roots[i, ...] for i in range(len(exprs))]
        self._steps = []
        for e, row in zip(exprs, self._roots):
            value = self._bind(e, row)
            if value is None:                   # a constant
                value = np.asarray(_eval(e, None, protected), dtype=float)
            if value is not row:                # a constant or a variable
                self._steps.append((np.copyto, (row, value)))
        super().__init__(x)

    def _bind(self, e, out=None):
        """Add the steps of e; return the array holding its value then, or
        None for a constant-only e.  out, if given, is the root's row."""
        if e.kind == "var":
            return self.x[e.value, ...]
        if e.kind == "const":
            return None
        kids = e.children
        vals = [self._bind(c) for c in kids]
        if all(v is None for v in vals):
            return None
        if out is None:
            # a child's register is free once read, and ufuncs run in place
            out = next((v for c, v in zip(kids, vals)
                        if v is not None and c.kind != "var"), None)
            if out is None:
                out = np.empty(self.x.shape[1:])
        args = [np.asarray(_eval(c, None, self._protected)) if v is None
                else v for c, v in zip(kids, vals)]
        if self._protected and e.kind == "div":
            # the divisor is tested before the quotient may overwrite it
            zero = np.empty(out.shape, dtype=bool)
            self._steps += [(np.equal, (args[1], _ZERO_0D, zero)),
                            (np.divide, (*args, out)),
                            (np.putmask, (out, zero, _X_OVER_ZERO_0D))]
            return out
        ufunc, extra = (_power(e) if e.kind == "pow"
                        else (_UFUNCS[e.kind], ()))
        self._steps.append((ufunc, (*args, *extra, out)))
        return out

    def steps(self, out):
        rows = {id(r): out[i, ...] for i, r in enumerate(self._roots)}
        return [(ufunc, tuple(rows.get(id(a), a) for a in args))
                for ufunc, args in self._steps]


# 0-d operands make cheaper ufunc calls than Python floats
_ZERO_0D, _X_OVER_ZERO_0D = np.array(0.0), np.array(X_OVER_ZERO)


# -- printing ---------------------------------------------------------------


def to_string(e):
    """Infix rendering that parses back to an evaluation-identical tree."""
    return _render(e, 0)


def _render(e, parent_prec):
    k = e.kind
    if k == "const":
        s = repr(e.value)
        if e.value < 0 or s.startswith("-"):
            s = f"({s})" if parent_prec > 0 else s
        return s
    if k == "var":
        return f"x{e.value + 1}"
    if k == "exp":
        return f"exp({_render(e.children[0], 0)})"
    prec = _PREC[k]
    if k == "neg":
        inner = _render(e.children[0], prec + 1)
        s = f"-{inner}"
    elif k == "pow":
        base = _render(e.children[0], prec + 1)
        s = f"{base}^{e.value}"
    else:
        op = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[k]
        left = _render(e.children[0], prec)
        # parenthesize equal-precedence right children so the reparsed tree
        # groups identically (float arithmetic is not associative)
        right = _render(e.children[1], prec + 1)
        s = f"{left}{op}{right}"
    if prec < parent_prec or (k == "neg" and parent_prec > 0):
        return f"({s})"
    return s


# -- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[()+\-*/^]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(
                f"unexpected character {stripped[0]!r}",
                len(text) - len(stripped))
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, dim):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", pos)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = Expr.add(e, rhs) if val == "+" else Expr.sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                e = Expr.mul(e, rhs) if val == "*" else Expr.div(e, rhs)
            else:
                return e

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Expr.neg(self.unary())
        return self.power()

    def power(self):
        e = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            nkind, nval, npos = self.next()
            if nkind != "num" or not re.fullmatch(r"\d+", nval):
                raise ExprSyntaxError(
                    "exponent must be a nonnegative integer literal", npos)
            e = Expr.pow(e, int(nval))
        return e

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return Expr.const(float(val))
        if kind == "name":
            if val == "exp":
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return Expr.exp(inner)
            m = re.fullmatch(r"x(\d+)", val)
            if m is None:
                raise ExprSyntaxError(f"unknown symbol {val!r}", pos)
            idx = int(m.group(1))
            if idx < 1 or idx > self.dim:
                raise ExprSyntaxError(
                    f"variable x{idx} out of range for dimension {self.dim}",
                    pos)
            return Expr.var(idx - 1)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(f"unexpected token {val!r}" if val else
                              "unexpected end of input", pos)


def parse(text, dim):
    """Parse `text` into an Expr over x1..x{dim}."""
    return _Parser(text, dim).parse()


# -- differentiation --------------------------------------------------------

_ZERO = Expr.const(0.0)
_ONE = Expr.const(1.0)


def _is_const(e, c=None):
    return e.kind == "const" and (c is None or e.value == c)


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if a.kind == "const" and b.kind == "const":
        return Expr.const(a.value + b.value)
    return Expr.add(a, b)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Expr.neg(b)
    if a.kind == "const" and b.kind == "const":
        return Expr.const(a.value - b.value)
    return Expr.sub(a, b)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if a.kind == "const" and b.kind == "const":
        return Expr.const(a.value * b.value)
    return Expr.mul(a, b)


def _pow(a, n):
    if n == 0:
        return _ONE
    if n == 1:
        return a
    return Expr.pow(a, n)


def differentiate(e, i):
    """Partial derivative of e with respect to variable index i (0-based)."""
    k = e.kind
    if k == "const":
        return _ZERO
    if k == "var":
        return _ONE if e.value == i else _ZERO
    if k == "add":
        return _add(differentiate(e.children[0], i),
                    differentiate(e.children[1], i))
    if k == "sub":
        return _sub(differentiate(e.children[0], i),
                    differentiate(e.children[1], i))
    if k == "neg":
        d = differentiate(e.children[0], i)
        if _is_const(d, 0.0):
            return _ZERO
        return Expr.neg(d)
    if k == "mul":
        a, b = e.children
        return _add(_mul(differentiate(a, i), b), _mul(a, differentiate(b, i)))
    if k == "div":
        a, b = e.children
        num = _sub(_mul(differentiate(a, i), b), _mul(a, differentiate(b, i)))
        if _is_const(num, 0.0):
            return _ZERO
        return Expr.div(num, Expr.pow(b, 2))
    if k == "exp":
        d = differentiate(e.children[0], i)
        if _is_const(d, 0.0):
            return _ZERO
        return _mul(d, e)
    if k == "pow":
        a = e.children[0]
        n = e.value
        if n == 0:
            return _ZERO
        d = differentiate(a, i)
        if _is_const(d, 0.0):
            return _ZERO
        return _mul(_mul(Expr.const(float(n)), _pow(a, n - 1)), d)
    raise AssertionError(k)


# -- polynomial/exponential expansion ----------------------------------------

# Internal expansion key: (exponent tuple, exp-multiplicity tuple), both length
# d.  exp multiplicities count factors of exp(x_i); libraries only admit keys
# with all-zero multiplicities, or a single unit multiplicity and all-zero
# exponents, so everything else signals "outside any library span" later.


def expand(e, dim):
    """Expand e into {(exponents, exp_counts): coefficient}, or None.

    None means the expression cannot be written as a finite combination of
    monomials times integer powers of exp(x_i): division by a non-constant,
    exp of a non-affine argument, exp with negative or non-integer variable
    coefficients, or an out-of-range variable.
    """
    k = e.kind
    zero_key = ((0,) * dim, (0,) * dim)
    if k == "const":
        return {zero_key: e.value}
    if k == "var":
        if e.value >= dim:
            return None
        exps = [0] * dim
        exps[e.value] = 1
        return {(tuple(exps), (0,) * dim): 1.0}
    if k in ("add", "sub"):
        a = expand(e.children[0], dim)
        b = expand(e.children[1], dim)
        if a is None or b is None:
            return None
        sign = 1.0 if k == "add" else -1.0
        out = dict(a)
        for key, c in b.items():
            out[key] = out.get(key, 0.0) + sign * c
        return out
    if k == "neg":
        a = expand(e.children[0], dim)
        if a is None:
            return None
        return {key: -c for key, c in a.items()}
    if k == "mul":
        a = expand(e.children[0], dim)
        b = expand(e.children[1], dim)
        if a is None or b is None:
            return None
        return _convolve(a, b)
    if k == "div":
        a = expand(e.children[0], dim)
        b = expand(e.children[1], dim)
        if a is None or b is None:
            return None
        nonzero = {key: c for key, c in b.items() if c != 0.0}
        if list(nonzero.keys()) not in ([zero_key], []):
            return None
        if not nonzero:
            return None
        denom = nonzero[zero_key]
        return {key: c / denom for key, c in a.items()}
    if k == "pow":
        a = expand(e.children[0], dim)
        if a is None:
            return None
        out = {zero_key: 1.0}
        for _ in range(e.value):
            out = _convolve(out, a)
        return out
    if k == "exp":
        a = expand(e.children[0], dim)
        if a is None:
            return None
        scale = 1.0
        counts = [0] * dim
        for (exps, ecounts), c in a.items():
            if c == 0.0:
                continue
            if (exps, ecounts) == zero_key:
                scale = float(np.exp(c))
                continue
            if any(ecounts) or sum(exps) != 1:
                return None
            n = c
            if abs(n - round(n)) > 1e-9 or round(n) < 0:
                return None
            counts[exps.index(1)] += int(round(n))
        return {((0,) * dim, tuple(counts)): scale}
    raise AssertionError(k)


def monomial(exps, ecounts):
    """The tree that expand() maps to {(exps, ecounts): 1.0}.

    It is x^exps * exp(sum_i ecounts_i x_i): factors multiply left to right
    in variable order with the exp factor last, and the empty product is 1.
    """
    factors = []
    for i, n in enumerate(exps):
        if n == 1:
            factors.append(Expr.var(i))
        elif n > 1:
            factors.append(Expr.pow(Expr.var(i), n))
    lin = None
    for i, m in enumerate(ecounts):
        if m == 0:
            continue
        part = Expr.var(i) if m == 1 else Expr.mul(Expr.const(float(m)),
                                                   Expr.var(i))
        lin = part if lin is None else Expr.add(lin, part)
    if lin is not None:
        factors.append(Expr.exp(lin))
    if not factors:
        return Expr.const(1.0)
    out = factors[0]
    for f in factors[1:]:
        out = Expr.mul(out, f)
    return out


def _convolve(a, b):
    out = {}
    for (ea, ca), va in a.items():
        for (eb, cb), vb in b.items():
            key = (tuple(x + y for x, y in zip(ea, eb)),
                   tuple(x + y for x, y in zip(ca, cb)))
            out[key] = out.get(key, 0.0) + va * vb
    return out
