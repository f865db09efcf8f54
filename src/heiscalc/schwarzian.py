"""The two Schwarzian derivatives, the preschwarzian, composition laws, and
the ZH = 1 potential builder.

Each diagnostic takes from the map's reading at the base point (see
`group.HeisMap.reading`) the jets to the order its formula consumes (a frame
derivative uses one order, the Jacobian one more); a higher order changes
no value, only the work. The diagnostics of one (map, point) share one
evaluation, one Jacobian jet with its log and reciprocal, one Z F and
Z conj(F), and one contact assessment. A diagnostic whose gate reads a
lower order before its formula reads the full one first asks the reading
for the full order, so the gate does not evaluate the map on its own.
The scalar fields (Jacobian, conformal factor, quotients) are
jet-level compositions, so no symbolic differentiation of the map
expressions happens here.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from . import exact
from . import expr as ex
from .errors import (BadPotential, DomainError, NotContact, NotPositive,
                     SingularError)
from .exact import QQi, RatPoly, d_coord, ratpoly_from_expr, word_apply
from .group import HeisMap
from .horizontal import assess_contact, frame, jacobian, word_jet, zf
from .jets import Jet

_TINY = 1e-13
_CONTACT_TOL = 1e-7   # contact gate of s_cr and s_cl, relative to 1 + |D_H f|^2


def _contact_gate(f: HeisMap, p):
    a = assess_contact(f, p)
    scale = 1.0 + max(abs(d) for row in a.d_hf for d in row) ** 2
    worst = a.max_contact_residual()
    if worst > _CONTACT_TOL * scale:
        raise NotContact(f"{f!r} fails the contact equations at "
                         f"{tuple(map(float, p))}: residual {worst:.3e}")


def _positive_jacobian(f: HeisMap, p, order: int, form: str = "") -> Jet:
    """horizontal.jacobian(f, p, order, form), after checking that the
    Jacobian is positive at p; raises NotPositive otherwise."""
    f.reading(p, order + 1)   # one evaluation for the check and the jet
    lam = jacobian(f, p, 0).value.real
    if lam <= 0:
        raise NotPositive(f"Jacobian {lam:.3e} is not positive at {tuple(p)}")
    return jacobian(f, p, order, form)


def s_cr(f: HeisMap, p) -> complex:
    """CR Schwarzian Z^2 phi - 2 (Z phi)^2, phi the half-log Jacobian.

    This is the sign convention under which the Schwarzian tensor coefficient
    is 2 s_cr and the chain rule below holds; the reciprocal-form variant is
    its negative, see s_cr_reciprocal_form.
    """
    f.reading(p, 3)   # the contact gate reads order 1 of it
    _contact_gate(f, p)
    phi = _positive_jacobian(f, p, 2, "log") * 0.5   # Z^2 of log J
    zphi = frame(phi, "Z")
    return (frame(zphi, "Z") - 2.0 * zphi * zphi).value


def s_cr_reciprocal_form(f: HeisMap, p) -> complex:
    """Half the Jacobian times Z^2 of its reciprocal. Kept as an independent
    route; the suite fits the constant relating it to s_cr (it is -1)."""
    inv = _positive_jacobian(f, p, 2, "reciprocal")   # Z^2 of 1/J
    return word_jet("ZZ", inv).value * jacobian(f, p, 0).value * 0.5


def s_cr_tensor_coeff(f: HeisMap, p) -> complex:
    """Holomorphic coefficient of the Schwarzian tensor, 2(Z^2 phi - 2(Z phi)^2).

    Computed through the cleared polynomial route (lambda Z^2 lambda and
    (Z lambda)^2, no logs), so it is an independent check against 2 s_cr.
    """
    lam = _positive_jacobian(f, p, 2)   # Z^2 of J
    zlam = frame(lam, "Z")
    num = (lam * frame(zlam, "Z") - 2.0 * zlam * zlam).value
    den = lam.value * lam.value   # zero for a Jacobian below about 1e-162
    if not den or not cmath.isfinite(num / den):
        raise DomainError(f"the cleared route overflows at {tuple(p)}: "
                          f"Jacobian {lam.value.real:.3e}")
    return num / den


def s_cl(f: HeisMap, p) -> complex:
    """Classical-type Schwarzian Z^3F/ZF - (3/2)(Z^2F/ZF)^2."""
    f.reading(p, 3)   # the contact gate reads order 1 of it
    _contact_gate(f, p)
    z1 = zf(f, p, 2)   # Z^3 F
    if abs(z1.value) < _TINY:
        raise SingularError(f"ZF vanishes at {tuple(p)}")
    z2 = frame(z1, "Z")
    q = z2.value / z1.value
    return frame(z2, "Z").value / z1.value - 1.5 * q * q


def preschwarzian(f: HeisMap, p) -> complex:
    """Z of the log Jacobian. Needs a positive Jacobian, not contact."""
    return frame(_positive_jacobian(f, p, 1, "log"), "Z").value   # Z of log J


def preschwarzian_identity_residual(f: HeisMap, p) -> complex:
    """Z(Pf) - Pf^2 minus the tensor coefficient; zero whenever J_F > 0."""
    pf = frame(_positive_jacobian(f, p, 2, "log"), "Z")   # Z^2 of log J
    lhs = (frame(pf, "Z") - pf * pf).value
    return lhs - s_cr_tensor_coeff(f, p)


def pluriharmonic_residual(f: HeisMap, p) -> complex:
    """Z^2 Zbar of the half-log conformal factor; zero iff the factor is
    CR-pluriharmonic at p."""
    phi = _positive_jacobian(f, p, 3, "log") * 0.5   # Z^2 Zbar of log J
    return word_jet("ZZZb", phi).value


# --- composition laws ----------------------------------------------------------

def _conformal_gate(g: HeisMap, p, order: int) -> Jet:
    """The jet of ZG at p to order - 1, from g's jets to order >= 2, after
    checking that g is conformal around p: Zbar G = conj(Z conj(G)) and its
    horizontal derivatives Z Zbar G and Zbar Zbar G vanish there, relative
    to 1 + |ZG| + |Z^2 G|."""
    zg, zbg = zf(g, p, order - 1), zf(g, p, 1, conj=True).conj()
    worst = max(abs(zbg.value), abs(frame(zbg, "Z").value), abs(frame(zbg, "Zb").value))
    if worst > 1e-8 * (1.0 + abs(zg.value) + abs(frame(zg, "Z").value)):
        raise NotContact(f"{g!r} is not conformal at {tuple(map(float, p))}: "
                         f"Zbar G or a first derivative of it is {worst:.3e}")
    return zg


def cr_chain_residual(f: HeisMap, g: HeisMap, p) -> complex:
    """Residual of the full CR Schwarzian chain rule at p (lhs - rhs).

    Both maps only need to be contact. The six right-hand terms read f at
    g(p) and g at p, one evaluation of each, which s_cr(f) and s_cr(g)
    share.
    """
    q = g(p)
    lhs = s_cr(f.compose(g), p)

    g.reading(p, 3)   # S_CR(g); Z^2 G and Z J_G need only 2
    zg_jet, zgbar_jet = zf(g, p, 1), zf(g, p, 1, conj=True)
    zg, zgbar = zg_jet.value, zgbar_jet.value
    z2g, z2gbar = frame(zg_jet, "Z").value, frame(zgbar_jet, "Z").value
    lam_g = jacobian(g, p, 1)
    lg, zlam_g = lam_g.value, frame(lam_g, "Z").value

    scr_f = s_cr(f, q)
    lam_f = jacobian(f, q, 2)   # Zbar Z of J_F
    lf = lam_f.value
    zlam_f, zblam_f = frame(lam_f, "Z"), frame(lam_f, "Zb")
    zlam, zblam = zlam_f.value, zblam_f.value
    zbz_lam, zzb_lam = frame(zlam_f, "Zb").value, frame(zblam_f, "Z").value
    ln_f = jacobian(f, q, 1, "log")
    zln, zbln = frame(ln_f, "Z").value, frame(ln_f, "Zb").value

    rhs = (scr_f * zg * zg
           + scr_f.conjugate() * zgbar * zgbar
           + s_cr(g, p)
           + (lf * (zbz_lam + zzb_lam) - 4.0 * zlam * zblam) * zg * zgbar / (2.0 * lf * lf)
           + (z2g * lg - 2.0 * zg * zlam_g) * zln / (2.0 * lg)
           + (z2gbar * lg - 2.0 * zgbar * zlam_g) * zbln / (2.0 * lg))
    return lhs - rhs


def cocycle_residual_right(f: HeisMap, g: HeisMap, p) -> complex:
    """Residual of S_CL(f o g) = S_CL(f) o g (ZG)^2 + S_CL(g), conformal g."""
    g.reading(p, 3)   # S_CL(g); the conformal gate reads order 2
    zg = _conformal_gate(g, p, 2).value
    q = g(p)
    lhs = s_cl(f.compose(g), p)
    return lhs - (s_cl(f, q) * zg * zg + s_cl(g, p))


LEFT_MIDDLE_COEFF = -1   # the adopted middle coefficient of the left law below


def cocycle_residual_left(g: HeisMap, f: HeisMap, p,
                          middle_coeff: float = LEFT_MIDDLE_COEFF) -> complex:
    """Residual of the left composition law S_CL(g o f) for conformal g.

    g must be conformal where the law uses it, at f(p). The correction
    series in the mixed second derivative of G has three terms;
    middle_coeff is the coefficient of (Z^2 F)(Z Fbar)/(ZF) in the middle
    one, exposed so ledger.ledger_run can fit it from data.
    """
    q = f(p)
    zg = _conformal_gate(g, q, 3)   # Zbar Z^2 G reads order 3
    a_big = zg.value                           # ZG at f(p)
    if abs(a_big) < _TINY:
        raise SingularError(f"ZG vanishes at {q}")
    z2g = frame(zg, "Z")
    b_big = z2g.value                          # Z^2 G
    d_big = frame(zg, "Zb").value              # Zbar Z G
    e_big = frame(z2g, "Zb").value             # Zbar Z^2 G

    f.reading(p, 3)   # S_CL(f); Z^2 F needs only 2
    z1, z1bar = zf(f, p, 1), zf(f, p, 1, conj=True)
    a = z1.value                               # ZF
    if abs(a) < _TINY:
        raise SingularError(f"ZF vanishes at {tuple(p)}")
    b = frame(z1, "Z").value                   # Z^2 F
    abar = z1bar.value                         # Z Fbar
    bbar = frame(z1bar, "Z").value             # Z^2 Fbar

    lhs = s_cl(g.compose(f), p)
    rhs = (s_cl(f, p)
           + (1.5 * e_big - 3.0 * (b_big / a_big) * d_big) * (a * abar) / a_big
           + (d_big / a_big) * (bbar * a + middle_coeff * b * abar) / a
           - 1.5 * (d_big / a_big) ** 2 * abar * abar)
    return lhs - rhs


# --- the ZH = 1 potential builder ----------------------------------------------

def _int_poly(p: RatPoly, var: int) -> RatPoly:
    """Antiderivative in coordinate var with zero constant (base 0)."""
    terms = {}
    for m, (re, im) in p.num.items():
        m2 = list(m)
        m2[var] += 1
        d = p.den * m2[var]
        terms[tuple(m2)] = QQi(Fraction(re, d), Fraction(im, d))
    return RatPoly(terms)


def _at_y0(p: RatPoly) -> RatPoly:
    return RatPoly.from_num({(i, 0, k): c for (i, j, k), c in p.num.items() if j == 0}, p.den)


@dataclass
class FirstOrderPotential:
    """Complex potential H = h1 + i h2 with ZH = 1, built from a harmonic
    seed. Carries both exact polynomials and expression trees."""
    h1_poly: RatPoly
    h2_poly: RatPoly

    @property
    def h1(self) -> ex.Expr:
        return self.h1_poly.to_expr()

    @property
    def h2(self) -> ex.Expr:
        return self.h2_poly.to_expr()

    def as_expr(self) -> ex.Expr:
        return ex.add(self.h1, ex.mul(ex.const(1j), self.h2))

    def z_residual_poly(self) -> RatPoly:
        """Exact Z(H) - 1; the zero polynomial when the build is correct."""
        h = self.h1_poly + self.h2_poly * exact.QQI_I
        return word_apply("Z", h) - exact.RP_ONE


def zh_one_builder(q_seed, c1=0, c2=0, c3=0) -> FirstOrderPotential:
    """Build H = h1 + i h2 with ZH = 1 from a Euclidean-harmonic seed Q(x,y).

    h2 = psi + C3 with psi = Q - C1 (x^2+y^2); h1 = C1 (t + 2xy) + 2x + C2
    plus the y-antiderivative of psi_x, corrected by an x-integral so the
    cross terms cancel identically, not just up to functions of x.
    """
    if isinstance(q_seed, str):
        q_seed = ex.parse_expr(q_seed)
    if isinstance(q_seed, ex.Expr):
        q_seed = ratpoly_from_expr(q_seed)
    if not isinstance(q_seed, RatPoly):
        raise BadPotential(f"cannot use {type(q_seed).__name__} as a seed")
    if any(k != 0 for (_, _, k) in q_seed.num):
        raise BadPotential("seed must not depend on t")
    if any(im != 0 for _, im in q_seed.num.values()):
        raise BadPotential("seed must be real")
    lap = d_coord(d_coord(q_seed, 0), 0) + d_coord(d_coord(q_seed, 1), 1)
    if not lap.is_zero():
        raise BadPotential("seed is not harmonic in the plane")

    c1, c2, c3 = Fraction(c1), Fraction(c2), Fraction(c3)
    rho = RatPoly({(2, 0, 0): 1, (0, 2, 0): 1})
    psi = q_seed - rho * c1
    p_term = _int_poly(d_coord(psi, 0), 1)            # int_0^y psi_x dy
    x_fix = _int_poly(_at_y0(d_coord(psi, 1)), 0)     # int_0^x psi_y(.,0) dx
    h1 = (RatPoly({(0, 0, 1): c1, (1, 1, 0): 2 * c1, (1, 0, 0): 2})
          + RatPoly({(0, 0, 0): c2}) + p_term - x_fix)
    h2 = psi + RatPoly({(0, 0, 0): c3})
    return FirstOrderPotential(h1_poly=h1, h2_poly=h2)
