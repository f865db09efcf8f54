"""Left-invariant frame derivatives acting on jets, plus contact diagnostics.

The frame: X = d/dx + 2y d/dt, Y = d/dy - 2x d/dt, T = d/dt, and the complex
pair Z = (X - iY)/2, Zbar = (X + iY)/2. Each application consumes one jet
order. Contact assessment reports the horizontal differential, the Jacobian
through two independent routes, the three contact residuals, the Beltrami
quotient and the distortion.

One kernel, `frame`, applies each letter X, Y, T, Z and Zb; a word
(`word_jet`) is a loop over it, rightmost letter first, and the sublaplacian
`jlap` is the sum X^2 + Y^2. Writing x = x0 + (x - x0)
and y = y0 + (y - y0), each letter L on the coefficients c of an order-k
jet is a fixed linear map plus one base-point term:

    L j = A_L(k) c + kappa_L (Dt c)

    letter  A_L                                kappa_L
    X       Dx + 2 S_y Dt                      2 y0
    Y       Dy - 2 S_x Dt                      -2 x0
    Z       Dx/2 - i Dy/2 + (i S_x + S_y) Dt   y0 + i x0
    Zb      Dx/2 + i Dy/2 - (i S_x - S_y) Dt   y0 - i x0

with Dvar the derivative and S_var the product by (var - var0), a shift
by one grade. A_L(k) and Dt, stacked, are built once per (order, letter)
by index assignment, and one matrix product gives both on a single jet
(`(n,)`) or a batch (`(n, N)`). T is `Jet.derive(2)`.

The matrix product sums each output coefficient's (at most four) nonzero
terms in BLAS's order, not in the order of the composition Dx j + 2y Dt j
and (X j - i Y j) / 2, so results agree with that composition to rounding,
not bitwise; and a batch column (a matrix-matrix product) need not be
bitwise the single-point result (a matrix-vector product).

The contact assessment reads only the values of X, Y and T on order-1
jets, so it takes them from ranks 0-3 (value, x, y, t) of each single jet
in Python complex arithmetic, with the coefficients (c_x, s_x), (c_y, s_y)
of `_FRAME` (`_xyt_values`): X j is (0 + c_x j_x + c_y j_y) + kappa j_t,
with kappa = s_x x0 + s_y y0, and T j is j_t * 1, the products and sums
that `frame` and `derive` form, in their order (the matrix product's sum
starts at +0.0, hence the 0 +). Each product of X, Y and T is by a real
coefficient or a real kappa, so it is exact or one rounding of a real
product, which a fused and a plain multiply round alike: the values are
those of `frame` bit for bit, signed zeros included. Z and Zb stay with
`frame`: their kappa, y0 +- i x0, is complex, and numpy's array complex
multiply (its AVX-512 loop, on a 2-vCPU Xeon with numpy 2.4) rounds other
than Python's scalar one, in 46 415 of 100 000 products of uniform draws
from [-2, 2]^2 (and in none with a real factor).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OrderError
from .exact import parse_frame_word
from . import expr as ex
from .expr import Expr, jet_eval
from .group import HeisMap, Point
from .jets import Jet, _diff_table, _shift_table, coordinate_value, ncoef

# Each letter L is the sum over var in (x, y) of c d/dvar + s var d/dt:
# ((c, s) for x, (c, s) for y).
_FRAME = {"X": ((1.0, 0.0), (0.0, 2.0)), "Y": ((0.0, -2.0), (1.0, 0.0)),
          "Z": ((0.5, 1j), (-0.5j, 1.0)), "Zb": ((0.5, -1j), (0.5j, 1.0))}


@lru_cache(maxsize=None)
def _frame_op(order: int, letter: str) -> np.ndarray:
    """The letter's operator on the coefficients of an order-`order` jet, a
    (2m, n) array with m, n the coefficient counts of orders order-1 and
    order. Rows :m are A_L, the sum over var of c Dvar + s S_var Dt, with
    S_var the product by var - base_var; rows m: are Dt. Built by index
    assignment from the derivative and shift tables."""
    m, low = ncoef(order - 1), ncoef(order - 2)   # S_var moves Dt[:low] up a grade
    op = np.zeros((2 * m, ncoef(order)), dtype=np.complex128)
    tsrc, tmult = _diff_table(order, 2)
    op[np.arange(m, 2 * m), tsrc] = tmult
    for var, (c, s) in enumerate(_FRAME[letter]):
        src, mult = _diff_table(order, var)
        op[np.arange(m), src] += c * mult
        op[_shift_table(order - 1, var), tsrc[:low]] += s * tmult[:low]
    return op


def frame(j: Jet, letter: str) -> Jet:
    """L j for a letter L of X, Y, T, Z, Zb, on one jet or a batch. T is
    `j.derive(2)`; for the others one matrix product gives A_L c and Dt c
    for the coefficients c, and L j is A_L c + kappa Dt c, kappa the sum
    over var of s var0 at each base point."""
    if letter == "T":
        return j.derive(2)
    if j.order == 0:
        raise OrderError("derivative of an order-0 jet")
    (_, sx), (_, sy) = _FRAME[letter]
    r = _frame_op(j.order, letter) @ j.coef
    out = r[:len(r) // 2]
    out += (sx * coordinate_value(j.base, 0) + sy * coordinate_value(j.base, 1)) * r[len(out):]
    return Jet(j.base, j.order - 1, out)


def jlap(j: Jet) -> Jet:
    """The sublaplacian X^2 + Y^2; consumes two orders."""
    return frame(frame(j, "X"), "X") + frame(frame(j, "Y"), "Y")


def sym_x(e: Expr) -> Expr:
    """Symbolic left-invariant X on an expression tree."""
    return ex.add(ex.diff(e, 0), ex.mul(ex.mul(ex.const(2), ex.Y), ex.diff(e, 2)))


def sym_y(e: Expr) -> Expr:
    return ex.sub(ex.diff(e, 1), ex.mul(ex.mul(ex.const(2), ex.X), ex.diff(e, 2)))


def word_jet(word, j: Jet) -> Jet:
    """Apply a frame word to a jet, rightmost letter first."""
    letters = parse_frame_word(word)
    if len(letters) > j.order:
        raise OrderError(
            f"word {word!r} needs order {len(letters)}, jet has {j.order}")
    for letter in reversed(letters):
        j = frame(j, letter)
    return j


def apply_word(word, e: Expr, p) -> complex:
    """Value of a frame word applied to an expression at a point."""
    letters = parse_frame_word(word)
    return word_jet(letters, jet_eval(e, p, len(letters))).value


def lambda_jet(j1: Jet, j2: Jet, j3: Jet) -> Jet:
    """Horizontal Jacobian as det of the horizontal differential.

    No contact assumption; j3 is accepted (and ignored) so a map's three
    jets pass as they come. The vertical route is assess_contact's.
    """
    return frame(j1, "X") * frame(j2, "Y") - frame(j1, "Y") * frame(j2, "X")


def jacobian(f: HeisMap, p, order: int, form: str = "") -> Jet:
    """The Jacobian jet of f at the single point p to `order`, or with
    form "reciprocal" or "log" its reciprocal or log. Each is made once per
    reading of f at p, from its jets to order + 1, and truncated, so the
    diagnostics of one (map, point) share them."""
    r = f.reading(p, order + 1)
    lam = r.shared("lam", lambda: lambda_jet(*r.jets))
    if form:
        lam = r.shared(form, getattr(lam, form))
    return lam.truncate(order)


def zf(f: HeisMap, p, order: int, conj: bool = False) -> Jet:
    """The jet of Z F, F = f1 + i f2 the complex horizontal part of f, at
    the single point p to `order`, or with conj that of Z conj(F). Each is
    made once per reading of f at p, from its jets to order + 1, and
    truncated, like `jacobian`."""
    r = f.reading(p, order + 1)
    j1, j2, _ = r.jets
    z = r.shared("zfbar" if conj else "zf",
                 lambda: frame((j1 + 1j * j2).conj() if conj else j1 + 1j * j2, "Z"))
    return z.truncate(order)


@dataclass(frozen=True)
class ContactAssessment:
    point: Point
    d_hf: tuple              # ((Xf1, Yf1), (Xf2, Yf2))
    lam: float               # det route
    lam_contact_route: float
    r1: float
    r2: float
    r_z: complex
    z_f: complex             # ZF
    zbar_f: complex          # Zbar F
    mu: complex | None       # Beltrami quotient Zbar F / ZF
    distortion: float        # (|ZF|+|Zbar F|)/||ZF|-|Zbar F||; 1.0 if both vanish
    orientation: int         # sign of lam (0 when degenerate)

    def max_contact_residual(self) -> float:
        return max(abs(self.r1), abs(self.r2))

    def is_contact(self, tol: float = 1e-8) -> bool:
        return self.max_contact_residual() <= tol

    def to_dict(self) -> dict:
        return {
            "point": list(self.point),
            "d_hf": [list(row) for row in self.d_hf],
            "lambda_det": self.lam,
            "lambda_vertical": self.lam_contact_route,
            "residuals": [self.r1, self.r2, [self.r_z.real, self.r_z.imag]],
            "zf": [self.z_f.real, self.z_f.imag],
            "zbar_f": [self.zbar_f.real, self.zbar_f.imag],
            "mu": None if self.mu is None else [self.mu.real, self.mu.imag],
            "distortion": self.distortion,
            "orientation": self.orientation,
        }


def assess_contact(f: HeisMap, p) -> ContactAssessment:
    """The first-order reading of f at p: the horizontal differential and
    T f, from f's jets to order 1 (a truncation of its reading there), made
    once per reading and read by the gates of the Schwarzians too."""
    return f.reading(p, 1).shared("contact assessment", lambda: _assess(f, p))


def _xyt_values(jets) -> list:
    """(X j, Y j, T j, j) at the base point for each single jet j of one
    base, read from its ranks 0-3 (value, x, y, t) with the coefficients of
    `_FRAME`, in the products and the order of `frame`: equal to
    frame(j, L).value bit for bit (see the module docstring)."""
    x0, y0 = jets[0].base[0], jets[0].base[1]
    (xx, xsx), (xy, xsy) = _FRAME["X"]
    (yx, ysx), (yy, ysy) = _FRAME["Y"]
    kx, ky = xsx * x0 + xsy * y0, ysx * x0 + ysy * y0
    rows = []
    for j in jets:
        if j.order == 0:
            raise OrderError("derivative of an order-0 jet")
        v, cx, cy, ct = j.coef[:4].tolist()
        rows.append(((0.0 + xx * cx + xy * cy) + kx * ct,
                     (0.0 + yx * cx + yy * cy) + ky * ct, ct * 1.0, v))
    return rows


def _assess(f: HeisMap, p) -> ContactAssessment:
    """The assessment from the values of X, Y and T on f's jets to order 1
    at p, read from their coefficients (`_xyt_values`) with no matrix
    product and no Jet: the gates of both Schwarzians read it at every
    (map, point)."""
    (xf1, yf1, tf1, f1v), (xf2, yf2, tf2, f2v), (xf3, yf3, tf3, _) = _xyt_values(
        f.jets(p, 1))

    lam_det = (xf1 * yf2 - yf1 * xf2).real
    # the vertical route Tf3 - 2 f2 Tf1 + 2 f1 Tf2, equal to lam_det
    # exactly when the map is contact
    lam_vert = (tf3 - 2.0 * f2v * tf1 + 2.0 * f1v * tf2).real
    r1 = (xf3 - 2.0 * f2v * xf1 + 2.0 * f1v * xf2).real
    r2 = (yf3 - 2.0 * f2v * yf1 + 2.0 * f1v * yf2).real
    r_z = 0.5 * (r1 - 1j * r2)

    zf = 0.5 * ((xf1 - 1j * yf1) + 1j * (xf2 - 1j * yf2))
    zbf = 0.5 * ((xf1 + 1j * yf1) + 1j * (xf2 + 1j * yf2))

    azf, azbf = abs(zf), abs(zbf)
    mu = None if azf == 0.0 else zbf / zf
    if azf == azbf:
        distortion = 1.0 if azf == 0.0 else math.inf
    else:
        distortion = (azf + azbf) / abs(azf - azbf)

    tiny = 1e-13 * max(1.0, abs(xf1), abs(yf1), abs(xf2), abs(yf2)) ** 2
    orientation = 0 if abs(lam_det) < tiny else (1 if lam_det > 0 else -1)

    return ContactAssessment(
        point=Point(*p),
        d_hf=((xf1.real, yf1.real), (xf2.real, yf2.real)),
        lam=lam_det,
        lam_contact_route=lam_vert,
        r1=r1, r2=r2, r_z=r_z,
        z_f=zf, zbar_f=zbf, mu=mu,
        distortion=distortion,
        orientation=orientation)
