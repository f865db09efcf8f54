"""Dense truncated Taylor jets in three real variables (x, y, t).

A Jet stores the Taylor coefficients (not derivatives: coefficient of the
monomial (x-x0)^i (y-y0)^j (t-t0)^k) of a smooth function at a base point,
up to a total order. Coefficients are complex128 throughout; real fields
simply carry zero imaginary parts.

A jet may carry a trailing point axis: `coef` is `(ncoef,)` for one base
point, a tuple (x, y, t), or `(ncoef, N)` for a batch of N base points, an
`(N, 3)` array (`jet_seed` makes a batch from such an array). Every
operation works on either shape, so one expression evaluation over a batch
gives the jets at all N points. On a batch, `value` and `partial` return
length-N arrays and scalar operands may be length-N arrays. Each operation
checks its domain at all points at once and raises the DomainError that the
lowest-index failing point raises on its own.

Products use one of two kernels, chosen by `coef.ndim`. A single jet
multiplies with one `np.add.at` over the cached `_mul_table`: one fancy
indexed multiply-accumulate, into a fresh `np.zeros` of the coefficient
count (0.3 us, where `np.zeros_like` takes 1.2 us). A batch multiplies row
by row over the grade-major monomials, `out[tgt_a] += A[a] * B[:m_a]` from
the cached `_mul_rows`, with a = 0 and the top grade done as whole slices.
That costs a few numpy calls per monomial but spreads them over the
batch. At order 5 (Python 3.11, numpy 2.4, one core of a 2-vCPU Xeon host)
the row kernel takes about 2.4 ms for 1000 points, where `np.add.at` on
the batch takes about 21 ms, but about 0.3 ms for one point, where
`np.add.at` takes 12 us.
Both kernels add each output coefficient's products in the same order, so
a batched product is bitwise equal to the per-point products.

A product with a coordinate takes a third kernel, `times_coordinate`: by
c0 + (x_var - base_var) it is a scale by c0 plus a one-index shift along
the cached `_shift_table`, two numpy calls on either shape. `Jet.coordinate`
(so `jet_seed`, and the seeds of an evaluation) returns a jet marked with
its variable, and `*` sends a product with a marked operand on either side
to the shift kernel; a marked jet's series (exp(x), 1/x) runs its Horner
steps on a marked nil of value 0, and a coordinate power x^n on the mark
too. The full product adds the same two nonzero products to each
coefficient, so the bits agree.

Derivatives are coefficient shifts and consume one order: the derivative of
an order-K jet is an order-(K-1) jet. The frame operators of `horizontal`
build their own operator from `_diff_table` and `_shift_table` and go
through neither `derive` nor `times_coordinate`. Elementary functions (exp,
log, sqrt, sin, cos, reciprocal) are Horner evaluations of the scalar
Taylor series in the nilpotent part and keep the order.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, OrderError

_VARS = ("x", "y", "t")


@lru_cache(maxsize=None)
def indices(order: int) -> tuple[tuple[int, int, int], ...]:
    """Multi-indices (i, j, k) with i+j+k <= order, grade-major.

    Grade-major means indices(K-1) is a prefix of indices(K), which is what
    makes truncation and derivative shifts pure slicing.
    """
    out = []
    for g in range(order + 1):
        for i in range(g, -1, -1):
            for j in range(g - i, -1, -1):
                out.append((i, j, g - i - j))
    return tuple(out)


@lru_cache(maxsize=None)
def _rank(order: int) -> dict:
    return {m: r for r, m in enumerate(indices(order))}


def ncoef(order: int) -> int:
    return (order + 1) * (order + 2) * (order + 3) // 6


@lru_cache(maxsize=None)
def _mul_table(order: int):
    idx = indices(order)
    rank = _rank(order)
    ia, ib, io = [], [], []
    for ra, a in enumerate(idx):
        ga = a[0] + a[1] + a[2]
        for rb, b in enumerate(idx):
            if ga + b[0] + b[1] + b[2] > order:
                continue
            ia.append(ra)
            ib.append(rb)
            io.append(rank[(a[0] + b[0], a[1] + b[1], a[2] + b[2])])
    return (np.asarray(ia, dtype=np.intp),
            np.asarray(ib, dtype=np.intp),
            np.asarray(io, dtype=np.intp))


@lru_cache(maxsize=None)
def _mul_rows(order: int):
    """Rows of the batched product: (rank of a, m_a, tgt_a) for each
    monomial a of grade 1 to order-1, grade-major. The first m_a monomials
    b are those with |a| + |b| <= order, and tgt_a[b] is the rank of a + b."""
    idx = indices(order)
    rank = _rank(order)
    rows = []
    for ra in range(1, ncoef(order - 1)):
        a = idx[ra]
        low = indices(order - sum(a))
        tgt = [rank[(a[0] + b[0], a[1] + b[1], a[2] + b[2])] for b in low]
        rows.append((ra, len(low), np.asarray(tgt, dtype=np.intp)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _diff_table(order: int, var: int):
    """(src, mult): the derivative in var has new_coef[b] = old_coef[src[b]]
    * mult[b], src[b] the rank of b + e_var and mult[b] = b_var + 1, for
    each monomial b of indices(order - 1)."""
    mult = [b[var] + 1 for b in indices(order - 1)]
    return _shift_table(order, var), np.asarray(mult, dtype=np.float64)


@lru_cache(maxsize=None)
def _shift_table(order: int, var: int) -> np.ndarray:
    """tgt[b] = rank of b + e_var, for each monomial b of indices(order - 1);
    the source ranks are 0 .. ncoef(order - 1) - 1, a prefix."""
    rank = _rank(order)
    tgt = []
    for b in indices(order - 1):
        shifted = list(b)
        shifted[var] += 1
        tgt.append(rank[tuple(shifted)])
    return np.asarray(tgt, dtype=np.intp)


def is_batch(p) -> bool:
    """Whether p is a batch of points, as np.ndim(p) == 2 tells, or one
    point: the one test of `jet_seed` and of `group.HeisMap`. A tuple or a
    list whose first coordinate is a float or an int is one point, told
    without np.ndim, which makes an array of it (2 us, against 0.3 us)."""
    if isinstance(p, np.ndarray):
        return p.ndim == 2
    if isinstance(p, (tuple, list)) and p and isinstance(p[0], (float, int)):
        return False
    return np.ndim(p) == 2


def coordinate_value(base, var: int):
    """Coordinate var of a base point, or of each point of a batch."""
    return base[:, var] if isinstance(base, np.ndarray) and base.ndim == 2 else base[var]


def _zeros(base, order: int) -> np.ndarray:
    """Zero coefficients for a base point, or for a batch of them."""
    if isinstance(base, np.ndarray) and base.ndim == 2:
        return np.zeros((ncoef(order), len(base)), dtype=np.complex128)
    return np.zeros(ncoef(order), dtype=np.complex128)


def _nonpositive(u0):
    """Zero or a nonpositive real, for a complex scalar or array."""
    return (u0 == 0) | ((u0.imag == 0) & (u0.real <= 0))


class Jet:
    """Truncated Taylor expansion at a fixed base point, or at each point of
    a batch (see the module docstring)."""

    __slots__ = ("base", "order", "coef", "_recip")

    def __init__(self, base, order: int, coef: np.ndarray):
        self.base = base
        self.order = int(order)
        self.coef = coef
        self._recip = None   # the reciprocal, made on the first division by this jet

    # --- constructors -----------------------------------------------------

    @staticmethod
    def constant(value, base, order: int) -> "Jet":
        c = _zeros(base, order)
        c[0] = value
        return Jet(base, order, c)

    @staticmethod
    def coordinate(var, base, order: int) -> "Jet":
        if isinstance(var, str):
            var = _VARS.index(var)
        c = _zeros(base, order)
        c[0] = coordinate_value(base, var)
        if order >= 1:
            e = [0, 0, 0]
            e[var] = 1
            c[_rank(order)[tuple(e)]] = 1.0
        return _Coordinate(var, base, order, c)

    def copy(self) -> "Jet":
        return Jet(self.base, self.order, self.coef.copy())

    # --- bookkeeping -------------------------------------------------------

    @property
    def value(self):
        """Value at the base point: a complex, or a length-N array."""
        v = self.coef[0]
        return complex(v) if v.ndim == 0 else v.copy()

    def truncate(self, order: int) -> "Jet":
        if not 0 <= order <= self.order:
            raise OrderError(f"cannot truncate an order-{self.order} jet to order {order}")
        if order == self.order:
            return self
        return Jet(self.base, order, self.coef[:ncoef(order)].copy())

    def partial(self, alpha) -> complex:
        """Partial derivative value d^alpha f / dx^i dy^j dt^k at the base."""
        i, j, k = alpha
        if i + j + k > self.order:
            raise OrderError(
                f"partial {tuple(alpha)} needs order {i + j + k}, jet has {self.order}")
        fac = math.factorial(i) * math.factorial(j) * math.factorial(k)
        v = self.coef[_rank(self.order)[(i, j, k)]]
        return (complex(v) if v.ndim == 0 else v.copy()) * fac

    def derive(self, var) -> "Jet":
        if isinstance(var, str):
            var = _VARS.index(var)
        if self.order == 0:
            raise OrderError("derivative of an order-0 jet")
        src, mult = _diff_table(self.order, var)
        if self.coef.ndim == 2:
            mult = mult[:, None]
        return Jet(self.base, self.order - 1, self.coef[src] * mult)

    def _check(self, other: "Jet"):
        a, b = self.base, other.base
        if self.coef.ndim == 1 == other.coef.ndim:
            same = a == b
        else:
            same = a is b or np.array_equal(a, b)
        if not same:
            raise ValueError(f"jet base mismatch: {a} vs {b}")

    def _raise_if(self, bad, u0, message: str):
        """DomainError with message formatted at the first point where bad
        holds; bad and u0 are scalars or per-point arrays."""
        if self.coef.ndim == 1:
            if bad:
                raise DomainError(message.format(u0))
        elif bad.any():
            raise DomainError(message.format(complex(u0[bad.argmax()])))

    def _fn(self):
        """Scalar complex functions for one point (cmath), or per-point (numpy)."""
        return cmath if self.coef.ndim == 1 else np

    def _pair(self, other):
        if not isinstance(other, Jet):
            return self, Jet.constant(other, self.base, self.order)
        self._check(other)
        if self.order == other.order:
            return self, other
        k = min(self.order, other.order)
        return self.truncate(k), other.truncate(k)

    # --- ring operations ---------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        return Jet(a.base, a.order, a.coef + b.coef)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return Jet(a.base, a.order, a.coef - b.coef)

    def __rsub__(self, other):
        a, b = self._pair(other)
        return Jet(a.base, a.order, b.coef - a.coef)

    def __neg__(self):
        return Jet(self.base, self.order, -self.coef)

    def times_coordinate(self, var: int, c0) -> "Jet":
        """(c0 + (x_var - base_var)) * self, with c0 a value or a per-point
        array: a scale by c0 plus a one-index shift of the coefficients, in
        place of the full product.

        The full product adds the same two products to each coefficient,
        and exact zeros besides; its sums start at +0.0, hence the + 0.0,
        and IEEE addition is commutative, so the bits are the same."""
        out = self.coef * c0
        out += 0.0
        tgt = _shift_table(self.order, var)
        out[tgt] += self.coef[:len(tgt)]
        return Jet(self.base, self.order, out)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.base, self.order, self.coef * other)
        a, b = self._pair(other)
        if isinstance(other, _Coordinate):
            return a.times_coordinate(other.var, other.coef[0])
        if isinstance(self, _Coordinate):
            return b.times_coordinate(self.var, self.coef[0])
        A, B = a.coef, b.coef
        if A.ndim == 1:
            ia, ib, io = _mul_table(a.order)
            out = np.zeros(len(A), dtype=np.complex128)
            np.add.at(out, io, A[ia] * B[ib])
            return Jet(a.base, a.order, out)
        # Row by row in the order np.add.at takes _mul_table, so each output
        # sums the same products in the same order. a = 0 comes first and
        # reaches every output; + 0.0 turns -0.0 into 0.0 as adding to zeros
        # does. A top-grade a reaches only a + 0, after every other row.
        out = A[0] * B
        out += 0.0
        for ra, m, tgt in _mul_rows(a.order):
            out[tgt] += A[ra] * B[:m]
        top = max(ncoef(a.order - 1), 1)
        out[top:] += A[top:] * B[0]
        return Jet(a.base, a.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            if other == 0:
                raise DomainError("jet divided by scalar zero")
            return Jet(self.base, self.order, self.coef / other)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("jet powers must be integers")
        if n < 0:
            return self.reciprocal() ** (-n)
        out = self if n else Jet.constant(1.0, self.base, self.order)
        for _ in range(n - 1):
            out = out * self
        return out

    # --- coefficientwise maps ----------------------------------------------

    def conj(self) -> "Jet":
        return Jet(self.base, self.order, np.conj(self.coef))

    def real(self) -> "Jet":
        return Jet(self.base, self.order, self.coef.real.astype(np.complex128))

    def imag(self) -> "Jet":
        return Jet(self.base, self.order, self.coef.imag.astype(np.complex128))

    # --- analytic functions of the jet --------------------------------------

    def _series(self, derivs, u0=None) -> "Jet":
        """Horner sum of derivs[k] * w^k, w = self - value, or with u0 the
        relative w = (self - value) / u0: each product is divided by u0, so
        no power of u0 (which underflows) is formed. For a coordinate,
        self - value is a coordinate of value 0, so each product is a shift."""
        nil = self.copy()
        nil.coef[0] = 0.0
        if isinstance(self, _Coordinate):
            nil = _Coordinate(self.var, nil.base, nil.order, nil.coef)
        acc = Jet.constant(derivs[-1], self.base, self.order)
        for k in range(len(derivs) - 2, -1, -1):
            # adding to the constant term in place gives the bits of adding
            # a constant jet, save that a -0.0 (a 0.0 divided by u0) stays
            acc = acc * nil
            if u0 is not None:
                acc.coef /= u0
            acc.coef[0] += derivs[k]
        return acc

    def reciprocal(self) -> "Jet":
        """1/self, made once and shared: every division by this jet
        multiplies by the one series, as the inversion's three components
        divide by one denominator."""
        r = self._recip
        if r is None:
            # 1/u = (1/u0) / (1 + w) = (1/u0) (1 - w + w^2 - ...)
            u0 = self.value
            self._raise_if(u0 == 0, u0, "reciprocal of a jet with zero value")
            r0 = 1.0 / u0
            r = self._recip = self._series(
                [r0 if k % 2 == 0 else -r0 for k in range(self.order + 1)], u0)
        return r

    def exp(self) -> "Jet":
        e0 = self._fn().exp(self.value)
        d = [e0 / math.factorial(k) for k in range(self.order + 1)]
        return self._series(d)

    def log(self) -> "Jet":
        u0 = self.value
        self._raise_if(_nonpositive(u0), u0, "log of nonpositive value {}")
        # log u = log u0 + log(1 + w) = log u0 + w - w^2/2 + ...
        d = [self._fn().log(u0)] + [(-1.0) ** (k - 1) / k for k in range(1, self.order + 1)]
        return self._series(d, u0)

    def sqrt(self) -> "Jet":
        u0 = self.value
        self._raise_if(_nonpositive(u0), u0, "sqrt of nonpositive value {}")
        # sqrt u = sqrt(u0) sqrt(1 + w) = sqrt(u0) (1 + w/2 - w^2/8 + ...),
        # scaled after the sum, whose terms are of size 1 where those of
        # sqrt(u0) w^k would underflow with u0^1.5 (|u0| below about 1e-205)
        d, binom = [], 1.0
        for k in range(self.order + 1):
            d.append(binom)
            binom *= (0.5 - k) / (k + 1)
        return self._series(d, u0) * self._fn().sqrt(u0)

    def sin(self) -> "Jet":
        fn = self._fn()
        s0, c0 = fn.sin(self.value), fn.cos(self.value)
        cyc = (s0, c0, -s0, -c0)
        d = [cyc[k % 4] / math.factorial(k) for k in range(self.order + 1)]
        return self._series(d)

    def cos(self) -> "Jet":
        fn = self._fn()
        s0, c0 = fn.sin(self.value), fn.cos(self.value)
        cyc = (c0, -s0, -c0, s0)
        d = [cyc[k % 4] / math.factorial(k) for k in range(self.order + 1)]
        return self._series(d)

    def __repr__(self):
        return f"Jet(base={self.base}, order={self.order}, value={self.value})"


class _Coordinate(Jet):
    """The jet of coordinate var, c0 + (x_var - base_var) with c0 = coef[0].
    Products with it take the shift kernel. Every operation builds a plain
    Jet, so the mark lasts only as long as these coefficients."""

    __slots__ = ("var",)

    def __init__(self, var: int, base, order: int, coef: np.ndarray):
        super().__init__(base, order, coef)
        self.var = var


def jet_seed(p, order: int) -> tuple[Jet, Jet, Jet]:
    """Coordinate jets (x, y, t) at p, each of the given order; batched
    over the points when p is an (N, 3) array. The base is normalised here
    once, to a tuple of floats or a float array, and every jet computed from
    the three shares that object."""
    p = np.asarray(p, dtype=float) if is_batch(p) else tuple(float(c) for c in p)
    return (Jet.coordinate(0, p, order),
            Jet.coordinate(1, p, order),
            Jet.coordinate(2, p, order))
