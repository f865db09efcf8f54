"""Dense truncated Taylor jets in three real variables (x, y, t).

A Jet stores the Taylor coefficients (not derivatives: coefficient of the
monomial (x-x0)^i (y-y0)^j (t-t0)^k) of a smooth function at a base point,
up to a total order. Coefficients are complex128 throughout; real fields
simply carry zero imaginary parts. Multiplication uses a cached index table
per order, so products cost one fancy-indexed multiply-accumulate.

Derivatives are coefficient shifts and consume one order: the derivative of
an order-K jet is an order-(K-1) jet. Elementary functions (exp, log, sqrt,
sin, cos, reciprocal) are Horner evaluations of the scalar Taylor series in
the nilpotent part and keep the order.
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
def _diff_table(order: int, var: int):
    # new_coef[beta] = old_coef[beta + e_var] * (beta_var + 1), new order-1
    rank_old = _rank(order)
    src, mult = [], []
    for b in indices(order - 1):
        shifted = list(b)
        shifted[var] += 1
        src.append(rank_old[tuple(shifted)])
        mult.append(b[var] + 1)
    return np.asarray(src, dtype=np.intp), np.asarray(mult, dtype=np.float64)


class Jet:
    """Truncated Taylor expansion at a fixed base point."""

    __slots__ = ("base", "order", "coef")

    def __init__(self, base, order: int, coef: np.ndarray):
        self.base = tuple(float(c) for c in base)
        self.order = int(order)
        self.coef = coef

    # --- constructors -----------------------------------------------------

    @staticmethod
    def constant(value, base, order: int) -> "Jet":
        c = np.zeros(ncoef(order), dtype=np.complex128)
        c[0] = value
        return Jet(base, order, c)

    @staticmethod
    def coordinate(var, base, order: int) -> "Jet":
        if isinstance(var, str):
            var = _VARS.index(var)
        c = np.zeros(ncoef(order), dtype=np.complex128)
        c[0] = base[var]
        if order >= 1:
            e = [0, 0, 0]
            e[var] = 1
            c[_rank(order)[tuple(e)]] = 1.0
        return Jet(base, order, c)

    def copy(self) -> "Jet":
        return Jet(self.base, self.order, self.coef.copy())

    # --- bookkeeping -------------------------------------------------------

    @property
    def value(self) -> complex:
        return complex(self.coef[0])

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise OrderError(f"cannot raise jet order {self.order} to {order}")
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
        return complex(self.coef[_rank(self.order)[(i, j, k)]]) * fac

    def derive(self, var) -> "Jet":
        if isinstance(var, str):
            var = _VARS.index(var)
        if self.order == 0:
            raise OrderError("derivative of an order-0 jet")
        src, mult = _diff_table(self.order, var)
        return Jet(self.base, self.order - 1, self.coef[src] * mult)

    def _check(self, other: "Jet"):
        if self.base != other.base:
            raise ValueError(f"jet base mismatch: {self.base} vs {other.base}")

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

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.base, self.order, self.coef * other)
        a, b = self._pair(other)
        ia, ib, io = _mul_table(a.order)
        out = np.zeros_like(a.coef)
        np.add.at(out, io, a.coef[ia] * b.coef[ib])
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
        out = Jet.constant(1.0, self.base, self.order)
        for _ in range(n):
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

    def _series(self, derivs) -> "Jet":
        """Horner sum of derivs[k] * (self - value)^k."""
        nil = self.copy()
        nil.coef[0] = 0.0
        acc = Jet.constant(derivs[-1], self.base, self.order)
        for k in range(len(derivs) - 2, -1, -1):
            acc = acc * nil + derivs[k]
        return acc

    def reciprocal(self) -> "Jet":
        u0 = self.value
        if u0 == 0:
            raise DomainError("reciprocal of a jet with zero value")
        d = [(-1.0) ** k / u0 ** (k + 1) for k in range(self.order + 1)]
        return self._series(d)

    def exp(self) -> "Jet":
        e0 = cmath.exp(self.value)
        d = [e0 / math.factorial(k) for k in range(self.order + 1)]
        return self._series(d)

    def log(self) -> "Jet":
        u0 = self.value
        if u0 == 0 or (u0.imag == 0 and u0.real <= 0):
            raise DomainError(f"log of nonpositive value {u0}")
        d = [cmath.log(u0)]
        d += [(-1.0) ** (k - 1) / (k * u0 ** k) for k in range(1, self.order + 1)]
        return self._series(d)

    def sqrt(self) -> "Jet":
        u0 = self.value
        if u0 == 0 or (u0.imag == 0 and u0.real <= 0):
            raise DomainError(f"sqrt of nonpositive value {u0}")
        r0 = cmath.sqrt(u0)
        d, binom = [], 1.0
        for k in range(self.order + 1):
            d.append(binom * r0 / u0 ** k)
            binom *= (0.5 - k) / (k + 1)
        return self._series(d)

    def sin(self) -> "Jet":
        s0, c0 = cmath.sin(self.value), cmath.cos(self.value)
        cyc = (s0, c0, -s0, -c0)
        d = [cyc[k % 4] / math.factorial(k) for k in range(self.order + 1)]
        return self._series(d)

    def cos(self) -> "Jet":
        s0, c0 = cmath.sin(self.value), cmath.cos(self.value)
        cyc = (c0, -s0, -c0, s0)
        d = [cyc[k % 4] / math.factorial(k) for k in range(self.order + 1)]
        return self._series(d)

    def __repr__(self):
        return f"Jet(base={self.base}, order={self.order}, value={self.value})"


def jet_seed(p, order: int) -> tuple[Jet, Jet, Jet]:
    """Coordinate jets (x, y, t) at p, each of the given order."""
    return (Jet.coordinate(0, p, order),
            Jet.coordinate(1, p, order),
            Jet.coordinate(2, p, order))
