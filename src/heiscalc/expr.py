"""Expression DAGs over the coordinates (x, y, t).

Scalar fields, and the maps given by coordinate expressions, are built as
small expression trees with shared subtrees. Every walker over a DAG (`subs`, `diff`, `to_str`, the exact
kernel's conversion and the tape compiler) visits the nodes in the one order
`postorder` gives, iteratively, so a deep DAG does not exhaust the
interpreter's stack; each keeps only its per-op rules and a memo local to
the call, so a shared subtree is visited once per call.

Evaluation runs a `Tape`: a tuple of roots compiled in one pass over that
same order into numbered slots and one step `(fn, i, j, k)` per node,
which stores fn(slot i, slot j) in slot k, and then, once, into one
straight-line Python function of the three seeds with one assignment per
step (`Tape.run`). Scalars and jets run the same steps, which reuse slots:
each writes into the slot of a value whose last reader has run, so a
batched run holds only the jets it will still read. A division by a jet
multiplies by the divisor's reciprocal, which the jet makes once and keeps
(`Jet.reciprocal`). Every run takes the one guard of an evaluation,
`guarded`, which a map's evaluation takes too (`group.HeisMap`, whose maps
hold their own tapes or run without one). `evaluate` takes one root or a
tuple of roots that share a DAG and runs their tape from `tape`, which
keeps the tapes of the last 8 tuples of roots (`eval_at` and `jet_eval`
only make the seeds). An RK4 flow fetches its field's tape once and calls
its function in each stage under a guard of the stage's own
(`fields._stage`), so no loop over a tape's steps runs anywhere.

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


_INFIX_STEPS = {operator.add: "+", operator.sub: "-", operator.mul: "*"}

# the code of a straight-line run, by its source text: tapes of one shape,
# a potential parsed again say, compile once
_compiled = functools.lru_cache(maxsize=256)(lambda source: compile(source, "<tape>", "exec"))


def _straight_line(template, steps, outs):
    """The function of the seeds x, y, t that runs the steps: one assignment
    per step, `s6 = s5 * s0` or `s4 = f0(s0, s0)` for a step that is not
    +, - or *, then the roots' slots as a tuple. The source holds only slot
    names, the three infix operators and the names f0, f1, ...; the
    constants, exponents and step functions are its default arguments."""
    ns, names = {}, {}
    params = ["s0", "s1", "s2"]
    for k in range(3, len(template)):
        if template[k] is not None:
            params.append(f"s{k}=s{k}")
            ns[f"s{k}"] = template[k]
    lines = []
    for fn, i, j, k in steps:
        if fn in _INFIX_STEPS:
            lines.append(f"s{k} = s{i} {_INFIX_STEPS[fn]} s{j}")
        else:
            lines.append(f"s{k} = {names.setdefault(fn, f'f{len(names)}')}(s{i}, s{j})")
    for fn, name in names.items():
        params.append(f"{name}={name}")
        ns[name] = fn
    lines.append(f"return ({''.join(f's{k}, ' for k in outs)})")
    exec(_compiled(f"def run({', '.join(params)}):\n    " + "\n    ".join(lines)), ns)
    # the function holds ns as its globals: out of ns, it is in no cycle
    return ns.pop("run")


class Tape:
    """A tuple of roots compiled into numbered slots and steps, and the
    steps into one function.

    A step `(fn, i, j, k)` stores fn(slot i, slot j) in slot k, one per
    node that is no seed or constant, in `postorder` order. Each step is
    the operation the node names on the values of its arguments, so a run
    gives the values a walk over the nodes gives, bit for bit, on complex
    scalars and on single or batched jets alike. `template` is the slot
    list before a run: the seeds x, y, t in slots 0-2 (empty), each
    constant (lowered to complex) and each 'pow' exponent (an int) in a
    slot of its own, and the work slots (empty).

    A step writes into a work slot freed by a value whose last reader has
    run (that step included: it reads its operands before it writes), or
    into a new one when none is free; a root's slot is never freed. The
    scan potential's 10 steps write 3 work slots, the inversion's 17 write
    4, so a batched run holds a few jets at a time. A division by a jet
    multiplies by the divisor's reciprocal, which the jet makes once and
    keeps (`Jet.reciprocal`), so the inversion's three components divide
    by one shared denominator with one Horner series.

    `run(vx, vy, vt)` gives the roots' values with no guard. It is the
    steps as straight-line code, a local variable per slot and one
    assignment per step (`_straight_line`), made once when the tape is
    built: a run unpacks no step and indexes no slot list. Its source names
    only slots and step functions, never a constant, so tapes of one shape
    share one code object (`_compiled`), and a build whose shape was seen
    costs a few microseconds more than the steps alone.
    """
    __slots__ = ("template", "steps", "outs", "run")

    def __init__(self, roots: tuple):
        order = postorder(roots)
        # the index in `order` of the last reader of each node a step makes;
        # a root has none, so its slot is never freed
        last = {a: n for n, node in enumerate(order) for a in node.args if a.args}
        for r in roots:
            last.pop(r, None)
        slot, template, steps, free = {}, [None] * 3, [], []
        try:
            for n, node in enumerate(order):
                op = node.op
                if op == "coord":
                    slot[node] = node.val
                elif op == "const":
                    slot[node] = len(template)
                    template.append(complex(node.val))
                elif op in _STEPS:
                    a, b = node.args[0], node.args[-1]
                    i = slot[a]
                    if op == "pow":
                        j = len(template)
                        template.append(node.val)
                    else:
                        j = slot[b]
                    if last.get(a) == n:
                        free.append(i)
                    if last.get(b) == n and b is not a:   # freed once when both operands
                        free.append(j)
                    if not free:
                        free.append(len(template))
                        template.append(None)
                    k = slot[node] = free.pop()
                    steps.append((_STEPS[op], i, j, k))
                else:
                    raise EvalError(f"unknown node '{op}'")
        except OverflowError as e:
            raise DomainError(f"evaluation overflowed: {e}") from None
        self.template, self.steps = tuple(template), tuple(steps)
        self.outs = tuple(slot[r] for r in roots)
        self.run = _straight_line(self.template, self.steps, self.outs)

    def __call__(self, vx, vy, vt) -> tuple:
        """The roots' values at the seeds, complex scalars or Jets, under
        the guard of an evaluation (`guarded`)."""
        return guarded(self.run, vx, vy, vt)


# what Python's complex arithmetic and cmath raise where floats and numpy
# would give inf or nan
STEP_ERRORS = (OverflowError, ZeroDivisionError, ValueError)


def step_error(e: Exception) -> DomainError:
    """The DomainError of one of the STEP_ERRORS a step raised."""
    if isinstance(e, ValueError):
        return DomainError(f"evaluation left the domain: {e}")
    return DomainError(f"evaluation overflowed: {e}")


def guarded(run, vx, vy, vt) -> tuple:
    """The values run(vx, vy, vt) gives, complex scalars or Jets, under the
    one guard of an evaluation: of a tape, and of a map (`group.HeisMap`).

    Python's complex arithmetic raises OverflowError or ZeroDivisionError
    where floats would give inf (x^-2 at tiny x), and cmath raises
    ValueError where numpy would give nan (sin of an infinite value); each
    becomes a DomainError. In scalar mode a value that is not finite is a
    DomainError. In jet mode a value that comes out as a scalar becomes a
    constant jet, and a coefficient that is not finite is a DomainError (at
    the lowest-index such point of a batch), checked once over all values.
    """
    if not isinstance(vx, Jet):
        try:
            out = run(vx, vy, vt)
        except STEP_ERRORS as e:
            raise step_error(e) from None
        if not all(map(cmath.isfinite, out)):
            raise DomainError(f"evaluation gave a value that is not finite: {out}")
        return out
    # numpy's overflow warnings would only repeat the DomainError below
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = run(vx, vy, vt)
        except STEP_ERRORS as e:
            raise step_error(e) from None
        out = tuple([r if isinstance(r, Jet) else Jet.constant(r, vx.base, vx.order)
                     for r in out])
        at = _not_finite_at(out)
    if at is not None:
        raise DomainError(f"evaluation gave a jet that is not finite at {at}")
    return out


# The expressions evaluated again and again fetch their tapes here: a
# potential at each point a diagnostic reads, and the field that the five
# trajectories of flow_contact_residuals share. The cache keeps their DAGs
# alive and shares each tape, read only. A map compiles and holds a tape of
# its own (`group.HeisMap`), so no map's tape evicts theirs.
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
