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
from .jets import Jet, coordinate_value


def _x(j: Jet, dt: Jet) -> Jet:
    """X j, given dt = d/dt j, which Y j shares."""
    return j.derive(0) + dt.times_coordinate(1, coordinate_value(j.base, 1), 2.0)


def _y(j: Jet, dt: Jet) -> Jet:
    return j.derive(1) - dt.times_coordinate(0, coordinate_value(j.base, 0), 2.0)


def _xy(j: Jet) -> tuple[Jet, Jet]:
    """X j and Y j, with one t-derivative."""
    dt = j.derive(2)
    return _x(j, dt), _y(j, dt)


def jx(j: Jet) -> Jet:
    return _x(j, j.derive(2))


def jy(j: Jet) -> Jet:
    return _y(j, j.derive(2))


def jt(j: Jet) -> Jet:
    return j.derive(2)


def jz(j: Jet) -> Jet:
    x, y = _xy(j)
    return (x - 1j * y) * 0.5


def jzb(j: Jet) -> Jet:
    x, y = _xy(j)
    return (x + 1j * y) * 0.5


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
    x1, y1 = _xy(j1)
    x2, y2 = _xy(j2)
    return x1 * y2 - y1 * x2


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
    """The first-order reading of f at p: the horizontal differential and
    T f, from f's jets to order 1 (a truncation of its reading there). The
    gates of the Schwarzians read it too."""
    rows = []
    for j in f.jets(p, 1):
        dt = j.derive(2)
        rows.append((_x(j, dt).value, _y(j, dt).value, dt.value, j.value))
    (xf1, yf1, tf1, f1v), (xf2, yf2, tf2, f2v), (xf3, yf3, tf3, _) = rows

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
