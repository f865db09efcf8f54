"""Expression DAGs over the coordinates (x, y, t).

Maps and scalar fields are built as small expression trees with shared
subtrees. Every walker over a DAG (`subs`, `diff`, `to_str`, the exact
kernel's conversion and the tape compiler) visits the nodes in the one order
`postorder` gives, iteratively, so a deep DAG does not exhaust the
interpreter's stack; each keeps only its per-op rules and a memo local to
the call, so a shared subtree is visited once per call.

Evaluation runs a `Tape`: a tuple of roots compiled once into numbered
slots and one step `(fn, i, j, k)` per node, in that same order, which
stores fn(slot i, slot j) in slot k; a run fills a copy of the tape's slot
template, its constants in place. `tape` keeps the tapes of the last 8
tuples of roots. One entry point, `evaluate`, takes one root or a tuple of
roots that share a DAG and runs their tape over complex scalars or over Jet
values (`eval_at` and `jet_eval` only make the seeds); scalars and jets run
the same step format, and on jets a division multiplies by its divisor's
reciprocal, made once per divisor. An RK4 flow fetches its field's tape
once and runs its scalar steps inside each stage, on a slot list of the
flow's own (`fields._stage`): the one other loop over a tape's steps, kept
because the flows spend nearly all their time there and a run of the tape
per stage took 1.45 to 1.7 times as long.

Constants keep their exact type (int / Fraction) on the tree, which is what
lets the exact polynomial kernel read coefficients off parsed input without
float noise. The tape lowers every constant to complex, so jet coefficients
stay complex128.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
import re
from fractions import Fraction

import numpy as np

from .errors import DomainError, EvalError, ParseError
from .jets import Jet, jet_seed

_COORDS = ("x", "y", "t")
_FUNCS = ("exp", "log", "sin", "cos", "sqrt", "conj", "re", "im")
_INFIX = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}


class Expr:
    __slots__ = ("op", "args", "val")

    def __init__(self, op, args=(), val=None):
        self.op = op
        self.args = args
        self.val = val

    # arithmetic sugar; all routing goes through the smart constructors
    def __add__(self, o): return add(self, as_expr(o))
    def __radd__(self, o): return add(as_expr(o), self)
    def __sub__(self, o): return sub(self, as_expr(o))
    def __rsub__(self, o): return sub(as_expr(o), self)
    def __mul__(self, o): return mul(self, as_expr(o))
    def __rmul__(self, o): return mul(as_expr(o), self)
    def __truediv__(self, o): return div(self, as_expr(o))
    def __rtruediv__(self, o): return div(as_expr(o), self)
    def __neg__(self): return neg(self)
    def __pow__(self, n): return pow_(self, n)

    def __repr__(self):
        return f"Expr<{to_str(self)}>"


X = Expr("coord", val=0)
Y = Expr("coord", val=1)
T = Expr("coord", val=2)
ZERO = Expr("const", val=0)
ONE = Expr("const", val=1)


def const(v) -> Expr:
    if isinstance(v, Expr):
        raise EvalError("const() got an Expr")
    if v == 0:
        return ZERO
    if v == 1:
        return ONE
    return Expr("const", val=v)


def as_expr(v) -> Expr:
    return v if isinstance(v, Expr) else const(v)


def coord(i: int) -> Expr:
    return (X, Y, T)[i]


def _is_const(e: Expr) -> bool:
    return e.op == "const"


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.val + b.val)
    if _is_const(a) and a.val == 0:
        return b
    if _is_const(b) and b.val == 0:
        return a
    return Expr("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.val - b.val)
    if _is_const(b) and b.val == 0:
        return a
    if _is_const(a) and a.val == 0:
        return neg(b)
    return Expr("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.val * b.val)
    if _is_const(a):
        if a.val == 0:
            return ZERO
        if a.val == 1:
            return b
    if _is_const(b):
        if b.val == 0:
            return ZERO
        if b.val == 1:
            return a
    return Expr("mul", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b):
        if b.val == 0:
            raise DomainError("constant division by zero in expression")
        if b.val == 1:
            return a
        if _is_const(a):
            if isinstance(a.val, (int, Fraction)) and isinstance(b.val, (int, Fraction)):
                return const(Fraction(a.val, 1) / Fraction(b.val, 1))
            return const(a.val / b.val)
    if _is_const(a) and a.val == 0:
        return ZERO
    return Expr("div", (a, b))


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return const(-a.val)
    if a.op == "neg":
        return a.args[0]
    return Expr("neg", (a,))


def pow_(a: Expr, n: int) -> Expr:
    if not isinstance(n, int):
        raise EvalError("expression powers must be integers")
    if n == 0:
        return ONE
    if n == 1:
        return a
    if _is_const(a):
        if a.val == 0 and n < 0:
            raise DomainError("0 raised to a negative power")
        if isinstance(a.val, (int, Fraction)) and n < 0:
            return const(Fraction(a.val) ** n)
        return const(a.val ** n)
    return Expr("pow", (a,), val=n)


def _unary(op):
    def make(a: Expr) -> Expr:
        return Expr(op, (as_expr(a),))
    make.__name__ = op
    return make


exp_ = _unary("exp")
log_ = _unary("log")
sin_ = _unary("sin")
cos_ = _unary("cos")
sqrt_ = _unary("sqrt")


def conj_(a: Expr) -> Expr:
    a = as_expr(a)
    if _is_const(a):
        v = a.val
        return const(v.conjugate() if isinstance(v, complex) else v)
    if a.op == "conj":
        return a.args[0]
    return Expr("conj", (a,))


def re_(a: Expr) -> Expr:
    a = as_expr(a)
    if _is_const(a):
        v = a.val
        return const(v.real if isinstance(v, complex) else v)
    return Expr("re", (a,))


def im_(a: Expr) -> Expr:
    a = as_expr(a)
    if _is_const(a):
        v = a.val
        return const(v.imag if isinstance(v, complex) else 0)
    return Expr("im", (a,))


_I = const(1j)


# --- evaluation ------------------------------------------------------------

def _checked(scalar, name):
    """A scalar function that raises DomainError at zero and the negative
    reals, where its principal branch is cut."""
    def fn(v):
        if v == 0 or (v.imag == 0 and v.real <= 0):
            raise DomainError(f"{name} of nonpositive value {v}")
        return scalar(v)
    return fn


def _lift(scalar, jet_method):
    """A tape step for a unary node: the Jet method on a jet, else scalar."""
    def step(a, _):
        return jet_method(a) if isinstance(a, Jet) else scalar(a)
    return step


def _div(a, b):
    if not isinstance(b, Jet) and b == 0:
        raise DomainError("division by zero at a 'div' node")
    return a / b


def _pow(a, n):
    if not isinstance(a, Jet) and a == 0 and n < 0:
        raise DomainError("zero base at a negative 'pow' node")
    return a ** n


def _neg(a, _):
    return -a


# the function of each op's tape step, called on the values of its two slots
# (a unary step names its argument's slot twice, a 'pow' step its exponent's)
_STEPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": _div,
    "pow": _pow, "neg": _neg,
    "exp": _lift(cmath.exp, Jet.exp),
    "log": _lift(_checked(cmath.log, "log"), Jet.log),
    "sqrt": _lift(_checked(cmath.sqrt, "sqrt"), Jet.sqrt),
    "sin": _lift(cmath.sin, Jet.sin),
    "cos": _lift(cmath.cos, Jet.cos),
    "conj": _lift(lambda v: v.conjugate(), Jet.conj),
    "re": _lift(lambda v: complex(v.real), Jet.real),
    "im": _lift(lambda v: complex(v.imag), Jet.imag),
}


def postorder(roots) -> list:
    """Every node under an Expr, or a tuple of Exprs, once and after its
    arguments, in the order a memoized recursion (arguments left to right,
    roots in turn) finishes them; the bottom stack entry stands for the roots."""
    order, seen = [], set()
    stack = [(None, iter((roots,) if isinstance(roots, Expr) else roots))]
    while stack:
        node, args = stack[-1]
        for a in args:
            if a not in seen:
                seen.add(a)
                if a.args:
                    stack.append((a, iter(a.args)))
                    break
                order.append(a)   # a leaf is finished at once
        else:
            stack.pop()
            order.append(node)
    order.pop()
    return order


def _not_finite_at(jets):
    """The base point of the first point where a coefficient of one of the
    jets (of one base) is not finite, or None."""
    # An inf or nan term makes a sum inf or nan, so a finite sum clears a
    # root; finite terms may sum past the float range (the tape runs this
    # under its np.errstate: that is no error), so a sum that is not finite
    # sends the roots to the test coefficient by coefficient. A sum is a
    # routine the jet arithmetic has run already, while a process's first
    # np.isfinite on complex maps about 0.1 MiB more; the common case never
    # pays that.
    if all(cmath.isfinite(j.coef.sum()) for j in jets):
        return None
    bad = ~np.isfinite(jets[0].coef).all(axis=0)
    for j in jets[1:]:
        bad |= ~np.isfinite(j.coef).all(axis=0)
    if not bad.any():
        return None
    base = jets[0].base
    return base if bad.ndim == 0 else tuple(base[bad.argmax()].tolist())


def _reciprocal(b, _):
    return b.reciprocal()


def _schedule(roots, nodes, leaves, expo, nconst, jets) -> tuple:
    """The steps `(fn, i, j, k)` of the nodes and the roots' slots, for a
    run whose slots `jets` hold jets (the seeds; none for scalars): there a
    'div' by a jet multiplies by the reciprocal of its divisor's slot, made
    once."""
    slot, jets, recip, steps = dict(leaves), set(jets), {}, []
    for node in nodes:
        fn = _STEPS[node.op]
        i = slot[node.args[0]]
        j = expo[node] if node.op == "pow" else slot[node.args[-1]]
        if fn is _div and j in jets:
            if j not in recip:
                recip[j] = 3 + nconst + len(steps)
                steps.append((_reciprocal, j, j, recip[j]))
            fn, j = operator.mul, recip[j]
        k = slot[node] = 3 + nconst + len(steps)
        if i in jets or j in jets:
            jets.add(k)
        steps.append((fn, i, j, k))
    return tuple(steps), tuple(slot[r] for r in roots)


class Tape:
    """A tuple of roots compiled into numbered slots and steps.

    Slots 0-2 hold the seeds x, y, t; then come the constants, lowered to
    complex here (a 'pow' exponent stays an int); then one slot per step.
    A step `(fn, i, j, k)` stores fn(slot i, slot j) in slot k, one per
    remaining node in `postorder` order. Each step is the operation the
    node names on the values of its arguments, so a run gives the values a
    walk over the nodes gives, bit for bit. `template` is the slot list
    before a run: the constants in place, the other slots empty; a run
    fills a copy of it.

    Jets run a schedule of their own, `jet_steps`: a 'div' by a jet
    multiplies by the divisor's reciprocal, one 'reciprocal' step per
    divisor slot, just before its first use, so the inversion's three
    components divide by one shared denominator with one Horner series.
    That is what `a / b` computes on jets, so the bits are the same.
    Scalars keep `a / b`: complex `a * (1 / b)` may round otherwise.
    """
    __slots__ = ("template", "steps", "outs", "jet_steps", "jet_outs")

    def __init__(self, roots: tuple):
        slot, expo, consts, nodes = {}, {}, [], []
        try:
            for node in postorder(roots):
                op = node.op
                if op == "coord":
                    slot[node] = node.val
                elif op == "const":
                    slot[node] = 3 + len(consts)
                    consts.append(complex(node.val))
                elif op in _STEPS:
                    if op == "pow":
                        expo[node] = 3 + len(consts)
                        consts.append(node.val)
                    nodes.append(node)
                else:
                    raise EvalError(f"unknown node '{op}'")
        except OverflowError as e:
            raise DomainError(f"evaluation overflowed: {e}") from None
        self.steps, self.outs = _schedule(roots, nodes, slot, expo, len(consts), ())
        self.jet_steps, self.jet_outs = _schedule(roots, nodes, slot, expo, len(consts),
                                                  (0, 1, 2))
        # the jet schedule has the more steps: its reciprocals
        self.template = (None,) * 3 + tuple(consts) + (None,) * len(self.jet_steps)

    def __call__(self, vx, vy, vt) -> tuple:
        """The roots' values at the seeds, complex scalars or Jets.

        In jet mode a root that comes out as a scalar becomes a constant
        jet, and a coefficient of a root jet that is not finite is a
        DomainError (at the lowest-index such point of a batch); in scalar
        mode a root that is not finite is a DomainError. Python's complex
        arithmetic raises OverflowError or ZeroDivisionError where floats
        would give inf (x^-2 at tiny x), and cmath raises ValueError where
        numpy would give nan (sin of an infinite value); each becomes a
        DomainError.
        """
        s = list(self.template)
        s[0], s[1], s[2] = vx, vy, vt
        if not isinstance(vx, Jet):
            out = _run(s, self.steps, self.outs)
            if not all(map(cmath.isfinite, out)):
                raise DomainError(f"evaluation gave a value that is not finite: {out}")
            return out
        # numpy's overflow warnings would only repeat the DomainError below
        with np.errstate(over="ignore", invalid="ignore"):
            out = tuple(r if isinstance(r, Jet) else Jet.constant(r, vx.base, vx.order)
                        for r in _run(s, self.jet_steps, self.jet_outs))
            at = _not_finite_at(out)
        if at is not None:
            raise DomainError(f"evaluation gave a jet that is not finite at {at}")
        return out


# what Python's complex arithmetic and cmath raise where floats and numpy
# would give inf or nan
STEP_ERRORS = (OverflowError, ZeroDivisionError, ValueError)


def step_error(e: Exception) -> DomainError:
    """The DomainError of one of the STEP_ERRORS a step raised."""
    if isinstance(e, ValueError):
        return DomainError(f"evaluation left the domain: {e}")
    return DomainError(f"evaluation overflowed: {e}")


def _run(s: list, steps: tuple, outs: tuple) -> tuple:
    """The roots' slots after the steps have run on the slot list s, in place."""
    try:
        for fn, i, j, k in steps:
            s[k] = fn(s[i], s[j])
    except STEP_ERRORS as e:
        raise step_error(e) from None
    return tuple([s[k] for k in outs])


# A map's values and its jets run the same roots, and the five trajectories
# of flow_contact_residuals share one field; the cache keeps their DAGs
# alive and shares each tape, read only.
tape = functools.lru_cache(maxsize=8)(Tape)


def evaluate(roots, vx, vy, vt):
    """Value of an Expr, or a tuple of Exprs sharing a DAG, at the seeds,
    complex scalars or Jets: a run of the roots' cached tape."""
    if isinstance(roots, Expr):
        return tape((roots,))(vx, vy, vt)[0]
    return tape(tuple(roots))(vx, vy, vt)


def eval_at(roots, p):
    """Complex value of an Expr, or a tuple of them, at p = (x, y, t)."""
    return evaluate(roots, complex(p[0]), complex(p[1]), complex(p[2]))


def jet_eval(roots, p, order: int):
    """Order-`order` jet of an Expr, or a tuple of them, at p."""
    return evaluate(roots, *jet_seed(p, order))


def subs(roots, ex: Expr, ey: Expr, et: Expr):
    """Substitute expressions for the three coordinates (composition) in an
    Expr or a tuple of Exprs; subtrees shared between roots stay shared."""
    memo = {}
    seeds = (ex, ey, et)
    for node in postorder(roots):
        op = node.op
        if op == "coord":
            r = seeds[node.val]
        elif op == "const":
            r = node
        elif op == "pow":
            r = pow_(memo[node.args[0]], node.val)
        else:
            r = _REBUILD[op](*map(memo.__getitem__, node.args))
        memo[node] = r
    return memo[roots] if isinstance(roots, Expr) else tuple(map(memo.__getitem__, roots))


# the smart constructor of each op but pow, which also takes node.val
_REBUILD = {"add": add, "sub": sub, "mul": mul, "div": div, "neg": neg, "exp": exp_,
            "log": log_, "sin": sin_, "cos": cos_, "sqrt": sqrt_, "conj": conj_,
            "re": re_, "im": im_}


def diff(e: Expr, var: int) -> Expr:
    """Symbolic partial derivative in coordinate var (0=x, 1=y, 2=t)."""
    memo = {}
    d = memo.__getitem__
    for node in postorder(e):
        op = node.op
        if op == "coord":
            r = ONE if node.val == var else ZERO
        elif op == "const":
            r = ZERO
        elif op == "add":
            r = add(d(node.args[0]), d(node.args[1]))
        elif op == "sub":
            r = sub(d(node.args[0]), d(node.args[1]))
        elif op == "mul":
            a, b = node.args
            r = add(mul(d(a), b), mul(a, d(b)))
        elif op == "div":
            a, b = node.args
            r = div(sub(mul(d(a), b), mul(a, d(b))), mul(b, b))
        elif op == "neg":
            r = neg(d(node.args[0]))
        elif op == "pow":
            a, n = node.args[0], node.val
            r = mul(mul(const(n), pow_(a, n - 1)), d(a))
        elif op == "exp":
            r = mul(node, d(node.args[0]))
        elif op == "log":
            r = div(d(node.args[0]), node.args[0])
        elif op == "sqrt":
            r = div(d(node.args[0]), mul(const(2), node))
        elif op == "sin":
            r = mul(cos_(node.args[0]), d(node.args[0]))
        elif op == "cos":
            r = neg(mul(sin_(node.args[0]), d(node.args[0])))
        elif op == "conj":
            r = conj_(d(node.args[0]))
        elif op == "re":
            r = re_(d(node.args[0]))
        elif op == "im":
            r = im_(d(node.args[0]))
        else:
            raise EvalError(f"cannot differentiate node '{op}'")
        memo[node] = r
    return memo[e]


# --- pretty printing (debugging and CLI error messages) ---------------------

def to_str(e: Expr) -> str:
    """Text that parse_expr reads back as the same tree (real constants only)."""
    memo = {}
    for node in postorder(e):
        op, a = node.op, [memo[k] for k in node.args]
        if op == "coord":
            r = _COORDS[node.val]
        elif op == "const":
            r = f"({node.val})" if isinstance(node.val, Fraction) else str(node.val)
        elif op in _INFIX:
            r = f"({a[0]}{_INFIX[op]}{a[1]})"
        elif op == "neg":
            r = f"(-{a[0]})"
        elif op == "pow":
            r = f"({a[0]}^{node.val})"
        else:
            r = f"{op}({a[0]})"
        memo[node] = r
    return memo[e]


# --- parser -----------------------------------------------------------------

# one token: a number in ASCII digits with an optional fraction and exponent,
# a name, an operator (** is ^), a run of whitespace, or a bad character
_TOKEN = re.compile(r"(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>\*\*|[-+*/^(),])|\s+|(?P<bad>.)")


def _tokenize(s: str):
    toks = []
    for m in _TOKEN.finditer(s):
        kind, text = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r} at position {m.start()} in {s!r}")
        if kind == "num" and text.isdigit() and len(text) > 4300:   # int()'s digit limit
            raise ParseError(f"integer constant of {len(text)} digits (at most 4300)")
        if kind == "num":
            toks.append((kind, int(text) if text.isdigit() else float(text)))
        elif kind:
            toks.append((kind, "^" if text == "**" else text))
    return toks + [("end", "")]


class _Parser:
    """Recursive descent over the tokens of one text; the methods share the
    cursor through the instance, so a parse leaves no reference cycle."""

    def __init__(self, s: str):
        self.s, self.toks, self.pos = s, _tokenize(s), 0
        self.overflow = f"a constant in {s!r} is not a finite float"

    def finite(self, e: Expr) -> Expr:
        # isfinite raises OverflowError for an int beyond the float range
        if e.op == "const" and not cmath.isfinite(e.val):
            raise ParseError(self.overflow)
        return e

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None, value=None):
        k, v = self.toks[self.pos]
        if kind is not None and k != kind or value is not None and v != value:
            raise ParseError(f"expected {value or kind}, got {v!r} in {self.s!r}")
        self.pos += 1
        return v

    def expression(self):
        e = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take("op")
            rhs = self.term()
            e = self.finite(add(e, rhs) if op == "+" else sub(e, rhs))
        return e

    def term(self):
        e = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take("op")
            rhs = self.unary()
            e = self.finite(mul(e, rhs) if op == "*" else div(e, rhs))
        return e

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take("op")
            return neg(self.unary())
        if self.peek() == ("op", "+"):
            self.take("op")
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take("op")
            sign = 1
            while self.peek() == ("op", "-"):
                self.take("op")
                sign = -sign
            k, v = self.peek()
            if k != "num" or not isinstance(v, int):
                raise ParseError(f"exponent must be an integer in {self.s!r}")
            self.take("num")
            return self.finite(pow_(base, sign * v))
        return base

    def atom(self):
        k, v = self.peek()
        if k == "num":
            self.take("num")
            return self.finite(const(v))
        if k == "name":
            self.take("name")
            if v in _COORDS:
                return coord(_COORDS.index(v))
            if v == "pi":
                return const(math.pi)
            if v in _FUNCS:
                self.take("op", "(")
                inner = self.expression()
                self.take("op", ")")
                return _REBUILD[v](inner)
            raise ParseError(f"unknown name {v!r} in {self.s!r}")
        if (k, v) == ("op", "("):
            self.take("op", "(")
            inner = self.expression()
            self.take("op", ")")
            return inner
        raise ParseError(f"unexpected token {v!r} in {self.s!r}")


def parse_expr(s: str) -> Expr:
    """Parse 'x^2 + sin(t)*exp(-y)' style input into an Expr. A constant, as
    written or folded, that is not a finite float (1e400, 1e300*1e300) or
    that folds to a domain error (1/0, 0^-1) is a ParseError, and so is
    nesting deeper than the recursive descent can follow (about 200
    parentheses)."""
    p = _Parser(s)
    try:
        e = p.expression()
    except OverflowError:
        raise ParseError(p.overflow) from None
    except DomainError as e:   # from the smart constructors' constant folds
        raise ParseError(f"{s!r}: {e}") from None
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if p.peek() != ("end", ""):
        raise ParseError(f"trailing input {p.peek()[1]!r} in {s!r}")
    return e


# --- finite-difference oracle ------------------------------------------------

_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}

_FD_STEP = {1: 1e-3, 2: 4e-3, 3: 1e-2}


def fd_oracle(e: Expr, p, alpha, h: float | None = None) -> complex:
    """Central finite differences for d^alpha e at p, |alpha| <= 3.

    Richardson-extrapolates from steps h and h/2, killing the leading h^2
    term, so the raw O(h^2) stencils come back at O(h^4).
    """
    total = sum(alpha)
    if total > 3:
        raise DomainError("fd_oracle handles |alpha| <= 3 only")
    if h is None:
        h = _FD_STEP.get(total, 1e-3)

    def estimate(step: float) -> complex:
        acc = 0j
        for o0, w0 in _STENCILS[alpha[0]]:
            for o1, w1 in _STENCILS[alpha[1]]:
                for o2, w2 in _STENCILS[alpha[2]]:
                    q = (p[0] + o0 * step, p[1] + o1 * step, p[2] + o2 * step)
                    acc += w0 * w1 * w2 * eval_at(e, q)
        return acc / step ** total

    if total == 0:
        return eval_at(e, p)
    coarse, fine = estimate(h), estimate(h / 2)
    return (4.0 * fine - coarse) / 3.0
