"""Exact polynomial kernel: Gaussian-rational polynomials in (x, y, t).

This is the second, independent oracle route. A RatPoly keeps each
coefficient as a Gaussian-integer numerator (re, im), a pair of Python ints,
over one positive denominator shared by the whole polynomial, always in
lowest terms. Sums, products, conjugates, derivatives and the frame
operators work on those integers in one pass over the terms (Z and Zbar only
double the denominator), and row reduction is fraction-free, so identities
verified by this module hold exactly, coefficient by coefficient. A
nullspace is row-reduced block by block, each block a set of columns whose
images are joined by shared monomials; the reduced echelon form is unique,
so the basis is the one a reduction of the whole matrix gives. A frame
operator is applied as a word (`word_apply`), through a table of the
polynomial's suffix images (`_word_image`); the operator identities keep one
such table per polynomial, for all their words. Only
`RatPoly.eval`, which gives values at points, works in floats. QQi, a
Gaussian rational, is the type of the exact constants `fit_constant`
returns. The jet engine never feeds this module and vice versa; tests
compare the two from the outside.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate
from math import gcd, lcm
from operator import mul

import numpy as np

from . import expr as ex
from .errors import BadPotential, EvalError, NoConsistentConstant

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


def _qqi(v) -> QQi:
    if isinstance(v, QQi):
        return v
    if isinstance(v, complex):
        return QQi(Fraction(v.real), Fraction(v.imag))
    return QQi(Fraction(v))


class RatPoly:
    """Polynomial over Q(i) in (x, y, t).

    num maps each monomial (i, j, k), the powers of x, y and t, to a nonzero
    Gaussian-integer numerator (re, im); the coefficient is num[m] / den.
    den is positive and the gcd of den and every numerator is 1, so equal
    polynomials have equal fields.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        """From a {monomial: coefficient} dict; ints, Fractions, floats,
        complexes and QQi convert exactly."""
        coefs = [(m, _qqi(c)) for m, c in (terms or {}).items()]
        den = lcm(1, *(f.denominator for _, c in coefs for f in (c.re, c.im)))
        self._reduce({m: tuple(f.numerator * (den // f.denominator) for f in (c.re, c.im))
                      for m, c in coefs}, den)

    def _reduce(self, num: dict, den: int):
        """Keep num (no copy) unless a term cancelled or a common factor
        divides out; one loop finds both."""
        g, cancelled = den, False
        for re, im in num.values():
            if not (re or im):
                cancelled = True
            elif g != 1:
                g = gcd(g, re, im)
        if g > 1:
            num = {m: (re // g, im // g) for m, (re, im) in num.items() if re or im}
            den //= g
        elif cancelled:
            num = {m: c for m, c in num.items() if c[0] or c[1]}
        self.num, self.den = num, den

    @classmethod
    def from_num(cls, num: dict, den: int = 1) -> "RatPoly":
        """From {monomial: (re, im)} integer numerators over a positive
        denominator; drops zero terms and reduces to lowest terms. The
        polynomial may keep num itself, so the caller must not change it."""
        r = cls.__new__(cls)
        r._reduce(num, den)
        return r

    @staticmethod
    def monomial(i, j, k, coef=1) -> "RatPoly":
        if type(coef) is int:
            return RatPoly.from_num({(i, j, k): (coef, 0)})
        return RatPoly({(i, j, k): coef})

    @staticmethod
    def variable(name: str) -> "RatPoly":
        return RatPoly.monomial(*{"x": (1, 0, 0), "y": (0, 1, 0), "t": (0, 0, 1)}[name])

    def coef(self, m) -> QQi:
        """The coefficient of monomial m, exactly."""
        re, im = self.num.get(m, (0, 0))
        return QQi(Fraction(re, self.den), Fraction(im, self.den))

    def _combine(self, o: "RatPoly", sign: int) -> "RatPoly":
        """self + sign * o in one pass over the terms of each."""
        den = lcm(self.den, o.den)
        fa, fb = den // self.den, (den // o.den) * sign
        out = {m: (fa * re, fa * im) for m, (re, im) in self.num.items()}
        get = out.get
        for m, (re, im) in o.num.items():
            r0, i0 = get(m, (0, 0))
            out[m] = (r0 + fb * re, i0 + fb * im)
        return RatPoly.from_num(out, den)

    def __add__(self, o):
        return self._combine(_rp(o), 1)

    __radd__ = __add__

    def __sub__(self, o):
        return self._combine(_rp(o), -1)

    def __rsub__(self, o):
        return _rp(o)._combine(self, -1)

    def __neg__(self):
        return RatPoly.from_num({m: (-re, -im) for m, (re, im) in self.num.items()}, self.den)

    def __mul__(self, o):
        o = _rp(o)
        out = {}
        get = out.get
        for (i1, j1, k1), (r1, m1) in self.num.items():
            for (i2, j2, k2), (r2, m2) in o.num.items():
                m = (i1 + i2, j1 + j2, k1 + k2)
                r0, i0 = get(m, (0, 0))
                out[m] = (r0 + r1 * r2 - m1 * m2, i0 + r1 * m2 + m1 * r2)
        return RatPoly.from_num(out, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("RatPoly powers must be nonnegative")
        out = self if n else RatPoly.monomial(0, 0, 0)
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, o):
        o = _rp(o)
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.den))

    def is_zero(self) -> bool:
        return not self.num

    def conj(self) -> "RatPoly":
        return RatPoly.from_num({m: (re, -im) for m, (re, im) in self.num.items()}, self.den)

    def re_part(self) -> "RatPoly":
        return RatPoly.from_num({m: (re, 0) for m, (re, _) in self.num.items()}, self.den)

    def im_part(self) -> "RatPoly":
        return RatPoly.from_num({m: (im, 0) for m, (_, im) in self.num.items()}, self.den)

    def eval(self, p):
        """Float value at a point (x, y, t), a complex, or at the rows of an
        (n, 3) array, a length-n complex array even for a constant. Terms
        are c * x^i * y^j * t^k from the left, in the order of num, with
        each c correctly rounded and powers built by repeated products, so a
        point and its row of an array agree bitwise."""
        pts = np.asarray(p, dtype=float)
        cols = pts.reshape(-1, 3).T
        deg = [max((m[v] for m in self.num), default=0) for v in range(3)]
        powers = [[None, *accumulate([c] * d, mul)] for c, d in zip(cols, deg)]
        acc = np.zeros(len(cols[0]), complex)
        den = self.den
        for m, (re, im) in self.num.items():
            term = complex(re / den, im / den)
            for pw, n in zip(powers, m):
                if n:
                    term = term * pw[n]
            acc = acc + term
        return complex(acc[0]) if pts.ndim == 1 else acc

    def to_expr(self) -> ex.Expr:
        acc = ex.ZERO
        for (i, j, k) in sorted(self.num):
            c = self.coef((i, j, k))
            cval = ex.const(c.re) if c.im == 0 else ex.const(complex(c))
            term = cval
            for v, n in ((ex.X, i), (ex.Y, j), (ex.T, k)):
                if n:
                    term = ex.mul(term, ex.pow_(v, n))
            acc = ex.add(acc, term)
        return acc

    def __repr__(self):
        if not self.num:
            return "RatPoly(0)"
        bits = []
        for m in sorted(self.num):
            mono = "".join(f"{v}^{n}" for v, n in zip("xyt", m) if n)
            bits.append(f"{self.coef(m)!r}*{mono or '1'}")
        return "RatPoly(" + " + ".join(bits) + ")"


def _rp(v) -> RatPoly:
    if isinstance(v, RatPoly):
        return v
    return RatPoly.monomial(0, 0, 0, v)


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
    memo = {}
    poly = memo.__getitem__
    for node in ex.postorder(e):
        op = node.op
        if op == "coord":
            r = (RP_X, RP_Y, RP_T)[node.val]
        elif op == "const":
            r = _rp(node.val)
        elif op == "add":
            r = poly(node.args[0]) + poly(node.args[1])
        elif op == "sub":
            r = poly(node.args[0]) - poly(node.args[1])
        elif op == "mul":
            r = poly(node.args[0]) * poly(node.args[1])
        elif op == "neg":
            r = -poly(node.args[0])
        elif op == "pow":
            if node.val < 0:
                raise EvalError("negative power is not polynomial")
            r = poly(node.args[0]) ** node.val
        elif op == "div":
            den = node.args[1]
            if den.op != "const":
                raise EvalError("division by a non-constant is not polynomial")
            r = poly(node.args[0]) * _rp(QQi(1) / _qqi(den.val))
        elif op == "conj":
            r = poly(node.args[0]).conj()
        elif op == "re":
            r = poly(node.args[0]).re_part()
        elif op == "im":
            r = poly(node.args[0]).im_part()
        else:
            raise EvalError(f"node '{op}' is not polynomial")
        memo[node] = r
    return memo[e]


# --- derivations -------------------------------------------------------------

def d_coord(p: RatPoly, var: int) -> RatPoly:
    out = {}
    for m, (re, im) in p.num.items():
        n = m[var]
        if n:
            m2 = list(m)
            m2[var] -= 1
            out[tuple(m2)] = (n * re, n * im)
    return RatPoly.from_num(out, p.den)


def _frame(p: RatPoly, ax: tuple, ay: tuple, scale: int = 1) -> RatPoly:
    """(ax X + ay Y)/scale applied to p, for Gaussian integers ax, ay, in one
    pass: X = d/dx + 2y d/dt and Y = d/dy - 2x d/dt."""
    (xr, xi), (yr, yi) = ax, ay
    out = {}
    get = out.get
    for (i, j, k), (re, im) in p.num.items():
        cx = (xr * re - xi * im, xr * im + xi * re)      # ax * coefficient
        cy = (yr * re - yi * im, yr * im + yi * re)      # ay * coefficient
        for n, m, (cr, ci) in ((i, (i - 1, j, k), cx), (2 * k, (i, j + 1, k - 1), cx),
                               (j, (i, j - 1, k), cy), (-2 * k, (i + 1, j, k - 1), cy)):
            if n and (cr or ci):
                r0, i0 = get(m, (0, 0))
                out[m] = (r0 + n * cr, i0 + n * ci)
    return RatPoly.from_num(out, p.den * scale)


# each letter's operator on a RatPoly; Z = (X - iY)/2 and Zb = (X + iY)/2
_FRAME_OPS = {"X": lambda p: _frame(p, (1, 0), (0, 0)),
              "Y": lambda p: _frame(p, (0, 0), (1, 0)),
              "T": lambda p: d_coord(p, 2),
              "Z": lambda p: _frame(p, (1, 0), (0, -1), 2),
              "Zb": lambda p: _frame(p, (1, 0), (0, 1), 2)}


def _first_letter(word: str) -> str:
    """The first letter of a nonempty frame word; an EvalError if it is none."""
    first = "Zb" if word.startswith("Zb") else word[0]
    if first not in _FRAME_OPS:
        raise EvalError(f"bad frame letter {first!r} in {word!r}")
    return first


def parse_frame_word(word) -> list:
    """'ZZbX' -> ['Z','Zb','X']; sequences pass through."""
    if not isinstance(word, str):
        return list(word)
    out = []
    while word:
        out.append(_first_letter(word))
        word = word[len(out[-1]):]
    return out


def word_apply(word: str, p: RatPoly) -> RatPoly:
    """Apply a frame word, rightmost letter first: word_apply('XY', p) = X(Y(p)).
    A single letter is its operator, with no suffix table."""
    op = _FRAME_OPS.get(word)
    return op(p) if op is not None else _word_image({"": p}, word)


def _word_image(table: dict, word: str) -> RatPoly:
    """word_apply(word, p) for the p that table maps "" to, through the
    images of p under suffixes already in the table: 'ZbZZ' applies Zb to
    the image of 'ZZ', which applies Z to that of 'Z'. Adds the images it
    makes to the table. Every letter is checked before any is applied."""
    got = table.get(word)
    if got is None:
        first = _first_letter(word)
        got = table[word] = _FRAME_OPS[first](_word_image(table, word[len(first):]))
    return got


def laplacian_h(p: RatPoly) -> RatPoly:
    """The sublaplacian X^2 + Y^2, through the letters themselves: it is the
    operator of every harmonic nullspace, one call per monomial."""
    x, y = _FRAME_OPS["X"], _FRAME_OPS["Y"]
    return x(x(p)) + y(y(p))


# --- monomial bases and exact linear algebra ---------------------------------

def monomials_wdeg(dmax: int) -> list:
    """Monomials with weighted degree i + j + 2k <= dmax."""
    out = []
    for d in range(dmax + 1):
        for k in range(d // 2 + 1):
            for i in range(d - 2 * k + 1):
                j = d - 2 * k - i
                out.append((i, j, k))
    return out


def _rref(mat: list[list[int]]) -> list[int]:
    """In-place fraction-free reduced row echelon form of an integer matrix;
    returns the pivot columns. Each elimination step is
    row <- pv * row - f * pivot_row, then the row is divided by the gcd of
    its entries, so every entry stays an int. Row r of the rational reduced
    form is mat[r] / mat[r][pivots[r]]."""
    # reduce(gcd, row), not gcd(*row): on the short rows of a block, memory
    # that the star call allocated stayed held until the next full garbage
    # collection (about 330 KiB after 300 Z^2 kernels at d = 7) and raised the
    # peak RSS of those 300 by 0.375 MiB
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((rr for rr in range(r, rows) if mat[rr][c]), None)
        if pivot is None:
            continue
        prow = mat[pivot]
        g = reduce(gcd, prow)
        prow = [v // g for v in prow]
        mat[pivot], mat[r] = mat[r], prow
        pv = prow[c]
        for rr in range(rows):
            f = mat[rr][c]
            if rr != r and f:
                row = [pv * a - f * b for a, b in zip(mat[rr], prow)]
                g = reduce(gcd, row)
                mat[rr] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def _blocks(images: list) -> list[list[int]]:
    """The columns grouped into connected blocks: two columns share a block
    when a chain of columns joins them, each sharing an image monomial with
    the next. Blocks are ordered by their first column, columns ascending."""
    up = list(range(len(images)))   # towards the first column of the block
    first = {}                      # monomial -> first column whose image has it

    def find(c):
        while up[c] != c:
            up[c] = c = up[up[c]]
        return c
    for col, img in enumerate(images):
        for m in img.num:
            a, b = find(first.setdefault(m, col)), find(col)
            up[max(a, b)] = min(a, b)
    blocks = {}
    for col in range(len(images)):
        blocks.setdefault(find(col), []).append(col)
    return list(blocks.values())


def real_nullspace(op, monos: list) -> list[RatPoly]:
    """Real-coefficient combinations of the monomials annihilated by op.

    op maps RatPoly -> RatPoly (possibly complex-coefficient output); the
    kernel condition splits into real and imaginary rows. Column c of the
    matrix holds the numerators of op(monos[c]), whose denominator scales a
    kernel vector back only at the end. Returns the reduced-echelon basis,
    RatPolys with rational coefficients, one per free column in ascending
    order.

    Columns whose images share no monomial never meet in the elimination,
    so each connected block of columns (`_blocks`) is row-reduced on its own,
    over only the rows of its image monomials. Up to the order of rows and
    columns the matrix is block diagonal, and the reduced echelon form is
    unique, so the pivots, the free columns and every basis vector are those
    of one reduction of the whole matrix: the basis is the same RatPolys in
    the same order. Z^2 and the sublaplacian lower the weighted degree by 2,
    so their blocks are no wider than one weighted degree.
    """
    images = [op(RatPoly.monomial(*m)) for m in monos]
    basis = []
    for block in _blocks(images):
        n = len(block)
        rows: dict = {}
        for i, col in enumerate(block):
            for m, (re, im) in images[col].num.items():
                if m not in rows:
                    rows[m] = ([0] * n, [0] * n)
                rows[m][0][i], rows[m][1][i] = re, im
        mat = [row for pair in rows.values() for row in pair if any(row)]
        pivots = _rref(mat)
        dens = [images[col].den for col in block]
        for fc in sorted(set(range(n)) - set(pivots)):
            vec = {fc: 1}
            for r, pc in enumerate(pivots):
                vec[pc] = Fraction(-mat[r][fc] * dens[pc], mat[r][pc] * dens[fc])
            basis.append((block[fc], RatPoly({monos[block[c]]: v
                                              for c, v in sorted(vec.items()) if v})))
    return [poly for _, poly in sorted(basis)]


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
        m = next(iter(rhs.num))
        cand = lhs.coef(m) / rhs.coef(m)
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


def vzerosol_nullspace(dmax: int):
    """(dimension, basis) of real polynomial potentials killed by Z^2."""
    basis = real_nullspace(partial(word_apply, "ZZ"), monomials_wdeg(dmax))
    return len(basis), basis


def appendix_identities(dmax: int = 6) -> list[tuple[str, str, bool]]:
    """Exact operator identities: (name, scope, holds).

    Unconditional ones are checked on every monomial of weighted degree
    <= dmax; conditional ones on a basis of the Z^2 kernel of the same degree.
    All entries must come back True.

    Each scope runs one polynomial at a time: every identity that has not
    failed yet is checked on it, its words applied through one table of
    suffix images (`_word_image`), and the table is dropped before the next
    polynomial. At dmax = 6 a monomial costs 22 frame derivatives through the
    table against 54 letter by letter. Only one polynomial's table is ever
    held: keeping every table to the end of the call raised the traced peak
    of one call (CPython 3.11, tracemalloc) from 35 to 328 KiB at dmax = 6
    and from 78 to 1046 KiB at dmax = 8.
    """
    monos = [RatPoly.monomial(*m) for m in monomials_wdeg(dmax)]
    _, kernel = vzerosol_nullspace(dmax)

    unconditional = [
        ("commutator [Zb,Z] = 2iT",
         lambda w: w("ZbZ") - w("ZZb") - w("T") * (2 * QQI_I)),
        ("commutator [X,Y] = -4T",
         lambda w: w("XY") - w("YX") + w("T") * 4),
        ("2 ZZbZ = ZZZb + ZbZZ",
         lambda w: w("ZZbZ") * 2 - w("ZZZb") - w("ZbZZ")),
        ("2 ZbZZb = ZbZbZ + ZZbZb",
         lambda w: w("ZbZZb") * 2 - w("ZbZbZ") - w("ZZbZb")),
        ("ZbZZZb = ZZbZbZ",
         lambda w: w("ZbZZZb") - w("ZZbZbZ")),
        ("8 T^2 = -ZZZbZb + ZZbZbZ + ZbZZZb - ZbZbZZ",
         lambda w: (w("TT") * 8 + w("ZZZbZb") - w("ZZbZbZ")
                    - w("ZbZZZb") + w("ZbZbZZ"))),
    ]
    conditional = [
        ("4 T^2 v = ZZbZbZ v",
         lambda w: w("TT") * 4 - w("ZZbZbZ")),
        ("4 T^2 v = ZbZZZb v",
         lambda w: w("TT") * 4 - w("ZbZZZb")),
        ("ZZZb v = 2 ZZbZ v",
         lambda w: w("ZZZb") - w("ZZbZ") * 2),
        ("ZbZbZ v = 2 ZbZZb v",
         lambda w: w("ZbZbZ") - w("ZbZZb") * 2),
        ("(ZbZ)^2 v = (ZZb)^2 v",
         lambda w: w("ZbZZbZ") - w("ZZbZZb")),
        ("(ZbZ)^3 v = 0",
         lambda w: w("ZbZZbZZbZ")),
        ("T^3 v = 0",
         lambda w: w("TTT")),
    ]
    out = []
    for scope, identities, polys in (("all polynomials", unconditional, monos),
                                     ("Z^2 kernel", conditional, kernel)):
        holds = [True] * len(identities)
        for p in polys:
            table = {"": p}
            w = partial(_word_image, table)
            for i, (_, resid) in enumerate(identities):
                holds[i] = holds[i] and resid(w).is_zero()
        out += [(name, scope, ok) for (name, _), ok in zip(identities, holds)]
    return out
