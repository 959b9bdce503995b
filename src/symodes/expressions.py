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


_set = object.__setattr__


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
        children = tuple(children)
        size = height = 1
        for c in children:
            size += c.size
            if c.height >= height:
                height = c.height + 1
        _set(self, "kind", kind)
        _set(self, "children", children)
        _set(self, "value", value)
        _set(self, "size", size)
        _set(self, "height", height)

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")

    def __reduce__(self):
        # __slots__ plus a raising __setattr__ breaks default pickling
        return (Expr, (self.kind, self.children, self.value))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c):
        return Expr("const", value=float(c))

    @staticmethod
    def var(i):
        if i < 0:
            raise ValueError("variable index must be nonnegative")
        return Expr("var", value=int(i))

    @staticmethod
    def add(a, b):
        return Expr("add", (a, b))

    @staticmethod
    def sub(a, b):
        return Expr("sub", (a, b))

    @staticmethod
    def mul(a, b):
        return Expr("mul", (a, b))

    @staticmethod
    def div(a, b):
        return Expr("div", (a, b))

    @staticmethod
    def neg(a):
        return Expr("neg", (a,))

    @staticmethod
    def exp(a):
        return Expr("exp", (a,))

    @staticmethod
    def pow(a, n):
        n = int(n)
        if n < 0:
            raise ValueError("exponents must be nonnegative integers")
        return Expr("pow", (a,), value=n)

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


def evaluate(e, x, protected=False):
    """Evaluate e at points x of shape (..., d); returns shape (...).

    Non-finite intermediate values (division by zero, exp overflow) propagate
    as inf/nan, and IEEE errors are reported under the caller's np.errstate.
    With protected, any division by zero, including 0/0, evaluates to 1
    instead.
    """
    x = np.asarray(x, dtype=float)
    out = _eval(e, x, protected)
    if np.ndim(out) == 0:
        return float(out) if x.ndim == 1 else np.full(x.shape[:-1], out)
    return out


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
    # Constants stay scalars and broadcast where they meet a variable, so a
    # constant-only subtree is computed once, not once per point.
    k = e.kind
    if k == "const":
        return e.value
    if k == "var":
        return x[..., e.value]
    if k == "add":
        return (_eval(e.children[0], x, protected)
                + _eval(e.children[1], x, protected))
    if k == "sub":
        return (_eval(e.children[0], x, protected)
                - _eval(e.children[1], x, protected))
    if k == "mul":
        return (_eval(e.children[0], x, protected)
                * _eval(e.children[1], x, protected))
    if k == "div":
        num = _eval(e.children[0], x, protected)
        den = _eval(e.children[1], x, protected)
        q = np.divide(num, den)
        return np.where(den == 0.0, 1.0, q) if protected else q
    if k == "neg":
        return -_eval(e.children[0], x, protected)
    if k == "exp":
        return np.exp(_eval(e.children[0], x, protected))
    if k == "pow":
        base = np.asarray(_eval(e.children[0], x, protected))
        return base ** e.value
    raise AssertionError(k)


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
