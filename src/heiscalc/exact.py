"""Exact polynomial kernel: Gaussian-rational polynomials in (x, y, t).

This is the second, independent oracle route. Everything here is done in
fractions.Fraction arithmetic with no floats, so identities verified by this
module hold exactly, coefficient by coefficient; only `RatPoly.eval`, which
gives values at points, works in floats. The jet engine never feeds this
module and vice versa; tests compare the two from the outside.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np

from . import expr as ex
from .errors import BadPotential, EvalError, NoConsistentConstant

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


class QQi:
    """Gaussian rational a + b*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        o = _qqi(o)
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = _qqi(o)
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return _qqi(o) - self

    def __mul__(self, o):
        o = _qqi(o)
        return QQi(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _qqi(o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by Gaussian-rational zero")
        return QQi((self.re * o.re + self.im * o.im) / d,
                   (self.im * o.re - self.re * o.im) / d)

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def conj(self):
        return QQi(self.re, -self.im)

    def __eq__(self, o):
        o = _qqi(o)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


QQI_I = QQi(0, 1)
_MINUS_I = QQi(0, -1)


def _qqi(v) -> QQi:
    if isinstance(v, QQi):
        return v
    if isinstance(v, complex):
        return QQi(Fraction(v.real), Fraction(v.imag))
    return QQi(Fraction(v))


class RatPoly:
    """dict-backed polynomial, keys (i, j, k) = powers of x, y, t."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                c = _qqi(c)
                if c:
                    self.terms[m] = c

    @staticmethod
    def monomial(i, j, k, coef=1) -> "RatPoly":
        return RatPoly({(i, j, k): coef})

    @staticmethod
    def variable(name: str) -> "RatPoly":
        return RatPoly.monomial(*{"x": (1, 0, 0), "y": (0, 1, 0), "t": (0, 0, 1)}[name])

    def __add__(self, o):
        o = _rp(o)
        out = dict(self.terms)
        for m, c in o.terms.items():
            s = out.get(m, QQi()) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        r = RatPoly()
        r.terms = out
        return r

    __radd__ = __add__

    def __sub__(self, o):
        return self + (-_rp(o))

    def __rsub__(self, o):
        return _rp(o) + (-self)

    def __neg__(self):
        r = RatPoly()
        r.terms = {m: -c for m, c in self.terms.items()}
        return r

    def __mul__(self, o):
        o = _rp(o)
        out = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in o.terms.items():
                m = (i1 + i2, j1 + j2, k1 + k2)
                s = out.get(m, QQi()) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        r = RatPoly()
        r.terms = out
        return r

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("RatPoly powers must be nonnegative")
        out = self if n else RatPoly({(0, 0, 0): 1})
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, o):
        return self.terms == _rp(o).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def conj(self) -> "RatPoly":
        r = RatPoly()
        r.terms = {m: c.conj() for m, c in self.terms.items()}
        return r

    def re_part(self) -> "RatPoly":
        r = RatPoly()
        r.terms = {m: QQi(c.re) for m, c in self.terms.items() if c.re != 0}
        return r

    def im_part(self) -> "RatPoly":
        r = RatPoly()
        r.terms = {m: QQi(c.im) for m, c in self.terms.items() if c.im != 0}
        return r

    def wdeg(self) -> int:
        """Weighted degree: x, y weigh 1, t weighs 2."""
        if not self.terms:
            return -1
        return max(i + j + 2 * k for (i, j, k) in self.terms)

    def eval(self, p):
        """Float value at a point (x, y, t), a complex, or at the rows of an
        (n, 3) array, a length-n complex array even for a constant. Terms
        are c * x^i * y^j * t^k from the left, with powers built by repeated
        products, so a point and its row of an array agree bitwise."""
        pts = np.asarray(p, dtype=float)
        cols = pts.reshape(-1, 3).T
        deg = [max((m[v] for m in self.terms), default=0) for v in range(3)]
        powers = [[None, *accumulate([c] * d, mul)] for c, d in zip(cols, deg)]
        acc = np.zeros(len(cols[0]), complex)
        for m, c in self.terms.items():
            term = complex(c)
            for pw, n in zip(powers, m):
                if n:
                    term = term * pw[n]
            acc = acc + term
        return complex(acc[0]) if pts.ndim == 1 else acc

    def to_expr(self) -> ex.Expr:
        acc = ex.ZERO
        for (i, j, k) in sorted(self.terms):
            c = self.terms[(i, j, k)]
            cval = ex.const(c.re) if c.im == 0 else ex.const(complex(c))
            term = cval
            for v, n in ((ex.X, i), (ex.Y, j), (ex.T, k)):
                if n:
                    term = ex.mul(term, ex.pow_(v, n))
            acc = ex.add(acc, term)
        return acc

    def __repr__(self):
        if not self.terms:
            return "RatPoly(0)"
        bits = []
        for (i, j, k) in sorted(self.terms):
            mono = "".join(f"{v}^{n}" for v, n in zip("xyt", (i, j, k)) if n)
            bits.append(f"{self.terms[(i, j, k)]!r}*{mono or '1'}")
        return "RatPoly(" + " + ".join(bits) + ")"


def _rp(v) -> RatPoly:
    if isinstance(v, RatPoly):
        return v
    return RatPoly({(0, 0, 0): v})


RP_X = RatPoly.variable("x")
RP_Y = RatPoly.variable("y")
RP_T = RatPoly.variable("t")
RP_ONE = RatPoly.monomial(0, 0, 0)


def potential_expr(u) -> ex.Expr:
    """A potential given as text, a RatPoly or an Expr, as an Expr."""
    if isinstance(u, str):
        return ex.parse_expr(u)
    if isinstance(u, RatPoly):
        return u.to_expr()
    if isinstance(u, ex.Expr):
        return u
    raise BadPotential(f"cannot use {type(u).__name__} as a potential")


def ratpoly_from_expr(e: ex.Expr) -> RatPoly:
    """Exact conversion of a polynomial Expr; floats convert exactly
    (binary floats are rationals). Raises EvalError on non-polynomial nodes."""

    def walk(node: ex.Expr) -> RatPoly:
        op = node.op
        if op == "coord":
            return (RP_X, RP_Y, RP_T)[node.val]
        if op == "const":
            v = node.val
            if isinstance(v, complex):
                return _rp(QQi(Fraction(v.real), Fraction(v.imag)))
            return _rp(QQi(Fraction(v)))
        if op == "add":
            return walk(node.args[0]) + walk(node.args[1])
        if op == "sub":
            return walk(node.args[0]) - walk(node.args[1])
        if op == "mul":
            return walk(node.args[0]) * walk(node.args[1])
        if op == "neg":
            return -walk(node.args[0])
        if op == "pow":
            if node.val < 0:
                raise EvalError("negative power is not polynomial")
            return walk(node.args[0]) ** node.val
        if op == "div":
            den = node.args[1]
            if den.op != "const":
                raise EvalError("division by a non-constant is not polynomial")
            dval = den.val
            if isinstance(dval, complex):
                return walk(node.args[0]) * _rp(QQi(1) / QQi(Fraction(dval.real), Fraction(dval.imag)))
            return walk(node.args[0]) * _rp(QQi(Fraction(1) / Fraction(dval)))
        if op == "conj":
            return walk(node.args[0]).conj()
        if op == "re":
            return walk(node.args[0]).re_part()
        if op == "im":
            return walk(node.args[0]).im_part()
        raise EvalError(f"node '{op}' is not polynomial")

    return walk(e)


# --- derivations -------------------------------------------------------------

def d_coord(p: RatPoly, var: int) -> RatPoly:
    out = {}
    for m, c in p.terms.items():
        n = m[var]
        if n == 0:
            continue
        m2 = list(m)
        m2[var] -= 1
        out[tuple(m2)] = c * n
    r = RatPoly()
    r.terms = {m: c for m, c in out.items() if c}
    return r


def frame_x(p: RatPoly) -> RatPoly:
    return d_coord(p, 0) + RP_Y * d_coord(p, 2) * 2


def frame_y(p: RatPoly) -> RatPoly:
    return d_coord(p, 1) - RP_X * d_coord(p, 2) * 2


def frame_t(p: RatPoly) -> RatPoly:
    return d_coord(p, 2)


def _frame_complex(p: RatPoly, unit: QQi) -> RatPoly:
    """(X + unit Y)/2 applied to p: Z for unit = -i, Zbar for unit = i."""
    fx, fy = frame_x(p), frame_y(p)
    r = RatPoly()
    for m in set(fx.terms) | set(fy.terms):
        c = (fx.terms.get(m, QQi()) + unit * fy.terms.get(m, QQi())) * _HALF
        if c:
            r.terms[m] = c
    return r


def frame_z(p: RatPoly) -> RatPoly:
    return _frame_complex(p, _MINUS_I)


def frame_zbar(p: RatPoly) -> RatPoly:
    return _frame_complex(p, QQI_I)


_FRAME_OPS = {"X": frame_x, "Y": frame_y, "T": frame_t,
              "Z": frame_z, "Zb": frame_zbar}


def parse_frame_word(word) -> list:
    """'ZZbX' -> ['Z','Zb','X']; sequences pass through."""
    if not isinstance(word, str):
        return list(word)
    out, i = [], 0
    while i < len(word):
        if word.startswith("Zb", i):
            out.append("Zb")
            i += 2
        elif word[i] in "XYZT":
            out.append(word[i])
            i += 1
        else:
            raise EvalError(f"bad frame letter {word[i]!r} in {word!r}")
    return out


def word_apply(word, p: RatPoly) -> RatPoly:
    """Apply a frame word, rightmost letter first: word_apply('XY', p) = X(Y(p))."""
    for letter in reversed(parse_frame_word(word)):
        p = _FRAME_OPS[letter](p)
    return p


def laplacian_h(p: RatPoly) -> RatPoly:
    return frame_x(frame_x(p)) + frame_y(frame_y(p))


# --- monomial bases and exact linear algebra ---------------------------------

def monomials_wdeg(dmax: int, tmax: int | None = None) -> list:
    """Monomials with weighted degree i + j + 2k <= dmax (optionally k <= tmax)."""
    out = []
    for d in range(dmax + 1):
        for k in range(d // 2 + 1):
            if tmax is not None and k > tmax:
                continue
            for i in range(d - 2 * k + 1):
                j = d - 2 * k - i
                out.append((i, j, k))
    return out


def _rref(mat: list[list[Fraction]]):
    """In-place reduced row echelon; returns pivot column list."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for rr in range(r, rows):
            if mat[rr][c] != 0:
                pivot = rr
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for rr in range(rows):
            if rr != r and mat[rr][c] != 0:
                f = mat[rr][c]
                mat[rr] = [a - f * b for a, b in zip(mat[rr], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def real_nullspace(op, monos: list) -> list[RatPoly]:
    """Real-coefficient combinations of the monomials annihilated by op.

    op maps RatPoly -> RatPoly (possibly complex-coefficient output); the
    kernel condition splits into real and imaginary rows. Returns a basis of
    RatPolys with rational coefficients.
    """
    images = [op(RatPoly.monomial(*m)) for m in monos]
    row_index: dict = {}
    for img in images:
        for m in img.terms:
            row_index.setdefault(m, len(row_index))
    nrows = 2 * len(row_index)
    if nrows == 0:
        return [RatPoly.monomial(*m) for m in monos]
    mat = [[_ZERO] * len(monos) for _ in range(nrows)]
    for col, img in enumerate(images):
        for m, c in img.terms.items():
            base = 2 * row_index[m]
            mat[base][col] = c.re
            mat[base + 1][col] = c.im
    pivots = _rref(mat)
    pivot_set = set(pivots)
    free = [c for c in range(len(monos)) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [_ZERO] * len(monos)
        vec[fc] = _ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        poly = RatPoly()
        for c, v in enumerate(vec):
            if v != 0:
                poly.terms[monos[c]] = QQi(v)
        basis.append(poly)
    return basis


def fit_constant(pairs) -> QQi:
    """The unique c with lhs = c * rhs across all (lhs, rhs) pairs, exactly.

    Raises NoConsistentConstant if the data is inconsistent or if every rhs
    is zero (underdetermined unless every lhs is zero too, which still has
    no unique constant).
    """
    c = None
    for lhs, rhs in pairs:
        if rhs.is_zero():
            if not lhs.is_zero():
                raise NoConsistentConstant("lhs nonzero where rhs is zero")
            continue
        m = next(iter(rhs.terms))
        cand = lhs.terms.get(m, QQi()) / rhs.terms[m]
        if c is None:
            c = cand
        elif c != cand:
            raise NoConsistentConstant(f"constants disagree: {c!r} vs {cand!r}")
        if not (lhs - rhs * c).is_zero():
            raise NoConsistentConstant("residual after fitting is nonzero")
    if c is None:
        raise NoConsistentConstant("every right-hand side is zero")
    return c


def harmonic_nullspace(d: int) -> list[RatPoly]:
    """Basis of polynomials of weighted degree <= d killed by the sublaplacian."""
    return real_nullspace(laplacian_h, monomials_wdeg(d))


def vzerosol_nullspace(dmax: int, tmax: int | None = None):
    """(dimension, basis) of real polynomial potentials killed by Z^2.

    tmax bounds the t-degree of the monomial pool; leaving it unrestricted
    must not change the answer, which the suite checks.
    """
    basis = real_nullspace(lambda p: frame_z(frame_z(p)), monomials_wdeg(dmax, tmax))
    return len(basis), basis


def appendix_identities(dmax: int = 6) -> list[tuple[str, str, bool]]:
    """Exact operator identities: (name, scope, holds).

    Unconditional ones are checked on every monomial of weighted degree
    <= dmax; conditional ones on a basis of the Z^2 kernel of the same degree.
    All entries must come back True.
    """
    monos = [RatPoly.monomial(*m) for m in monomials_wdeg(dmax)]
    _, kernel = vzerosol_nullspace(dmax)

    w = word_apply
    unconditional = [
        ("commutator [Zb,Z] = 2iT",
         lambda p: w("ZbZ", p) - w("ZZb", p) - frame_t(p) * (2 * QQI_I)),
        ("commutator [X,Y] = -4T",
         lambda p: w("XY", p) - w("YX", p) + frame_t(p) * 4),
        ("2 ZZbZ = ZZZb + ZbZZ",
         lambda p: w("ZZbZ", p) * 2 - w("ZZZb", p) - w("ZbZZ", p)),
        ("2 ZbZZb = ZbZbZ + ZZbZb",
         lambda p: w("ZbZZb", p) * 2 - w("ZbZbZ", p) - w("ZZbZb", p)),
        ("ZbZZZb = ZZbZbZ",
         lambda p: w("ZbZZZb", p) - w("ZZbZbZ", p)),
        ("8 T^2 = -ZZZbZb + ZZbZbZ + ZbZZZb - ZbZbZZ",
         lambda p: (frame_t(frame_t(p)) * 8 + w("ZZZbZb", p) - w("ZZbZbZ", p)
                    - w("ZbZZZb", p) + w("ZbZbZZ", p))),
    ]
    conditional = [
        ("4 T^2 v = ZZbZbZ v",
         lambda p: frame_t(frame_t(p)) * 4 - w("ZZbZbZ", p)),
        ("4 T^2 v = ZbZZZb v",
         lambda p: frame_t(frame_t(p)) * 4 - w("ZbZZZb", p)),
        ("ZZZb v = 2 ZZbZ v",
         lambda p: w("ZZZb", p) - w("ZZbZ", p) * 2),
        ("ZbZbZ v = 2 ZbZZb v",
         lambda p: w("ZbZbZ", p) - w("ZbZZb", p) * 2),
        ("(ZbZ)^2 v = (ZZb)^2 v",
         lambda p: w("ZbZZbZ", p) - w("ZZbZZb", p)),
        ("(ZbZ)^3 v = 0",
         lambda p: w("ZbZZbZZbZ", p)),
        ("T^3 v = 0",
         lambda p: frame_t(frame_t(frame_t(p)))),
    ]
    out = []
    for name, resid in unconditional:
        ok = all(resid(p).is_zero() for p in monos)
        out.append((name, "all polynomials", ok))
    for name, resid in conditional:
        ok = all(resid(p).is_zero() for p in kernel)
        out.append((name, "Z^2 kernel", ok))
    return out
