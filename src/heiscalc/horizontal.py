"""Left-invariant frame derivatives acting on jets, plus contact diagnostics.

The frame: X = d/dx + 2y d/dt, Y = d/dy - 2x d/dt, T = d/dt, and the complex
pair Z = (X - iY)/2, Zbar = (X + iY)/2. Each application consumes one jet
order. Contact assessment reports the horizontal differential, the Jacobian
through two independent routes, the three contact residuals, the Beltrami
quotient and the distortion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OrderError
from .exact import parse_frame_word
from . import expr as ex
from .expr import Expr, jet_eval
from .group import HeisMap, Point
from .jets import Jet


def jx(j: Jet) -> Jet:
    dx = j.derive(0)   # first, so an order-0 jet raises OrderError
    return dx + 2.0 * Jet.coordinate(1, j.base, dx.order) * j.derive(2)


def jy(j: Jet) -> Jet:
    dy = j.derive(1)
    return dy - 2.0 * Jet.coordinate(0, j.base, dy.order) * j.derive(2)


def jt(j: Jet) -> Jet:
    return j.derive(2)


def jz(j: Jet) -> Jet:
    return (jx(j) - 1j * jy(j)) * 0.5


def jzb(j: Jet) -> Jet:
    return (jx(j) + 1j * jy(j)) * 0.5


def jlap(j: Jet) -> Jet:
    """The sublaplacian X^2 + Y^2; consumes two orders."""
    return jx(jx(j)) + jy(jy(j))


FRAME_JET_OPS = {"X": jx, "Y": jy, "T": jt, "Z": jz, "Zb": jzb}


def sym_x(e: Expr) -> Expr:
    """Symbolic left-invariant X on an expression tree."""
    return ex.add(ex.diff(e, 0), ex.mul(ex.mul(ex.const(2), ex.Y), ex.diff(e, 2)))


def sym_y(e: Expr) -> Expr:
    return ex.sub(ex.diff(e, 1), ex.mul(ex.mul(ex.const(2), ex.X), ex.diff(e, 2)))


def sym_t(e: Expr) -> Expr:
    return ex.diff(e, 2)


def word_jet(word, j: Jet) -> Jet:
    """Apply a frame word to a jet, rightmost letter first."""
    letters = parse_frame_word(word)
    if len(letters) > j.order:
        raise OrderError(
            f"word {word!r} needs order {len(letters)}, jet has {j.order}")
    for letter in reversed(letters):
        j = FRAME_JET_OPS[letter](j)
    return j


def apply_word(word, e: Expr, p) -> complex:
    """Value of a frame word applied to an expression at a point."""
    letters = parse_frame_word(word)
    return word_jet(letters, jet_eval(e, p, len(letters))).value


def sublaplacian(e: Expr, p) -> complex:
    return jlap(jet_eval(e, p, 2)).value


def lambda_jet(j1: Jet, j2: Jet, j3: Jet) -> Jet:
    """Horizontal Jacobian as det of the horizontal differential.

    No contact assumption; j3 is accepted (and ignored) so a map's three
    jets pass as they come. The vertical route is assess_contact's.
    """
    return jx(j1) * jy(j2) - jy(j1) * jx(j2)


@dataclass
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
    return _assess(p, *f.jets(p, 1))   # the horizontal differential and T f


def _assess(p, j1: Jet, j2: Jet, j3: Jet) -> ContactAssessment:
    """The assessment at p from the map's jets there, of any order >= 1:
    the one reading of the first-order quantities, for assess_contact and
    the gates of the Schwarzians."""
    j1, j2, j3 = j1.truncate(1), j2.truncate(1), j3.truncate(1)
    xf1, yf1 = jx(j1).value, jy(j1).value
    xf2, yf2 = jx(j2).value, jy(j2).value
    xf3, yf3 = jx(j3).value, jy(j3).value
    f1v, f2v = j1.value, j2.value

    lam_det = (xf1 * yf2 - yf1 * xf2).real
    # the vertical route Tf3 - 2 f2 Tf1 + 2 f1 Tf2, equal to lam_det
    # exactly when the map is contact
    lam_vert = (jt(j3).value - 2.0 * f2v * jt(j1).value + 2.0 * f1v * jt(j2).value).real
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
