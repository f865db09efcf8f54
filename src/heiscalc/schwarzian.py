"""The two Schwarzian derivatives, the preschwarzian, composition laws, and
the ZH = 1 potential builder.

Each diagnostic evaluates the map's jets at the base point to the order its
formula consumes (a frame derivative uses one order, the Jacobian one more);
a higher order changes no value, only the work. The scalar fields (Jacobian,
conformal factor, quotients) are jet-level compositions, so no symbolic
differentiation of the map expressions happens here.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exact
from . import expr as ex
from .errors import BadPotential, NotContact, NotPositive, SingularError
from .exact import QQi, RatPoly, d_coord, frame_z, ratpoly_from_expr
from .group import HeisMap
from .horizontal import _assess, assess_contact, jz, jzb, lambda_jet, word_jet
from .jets import Jet

_TINY = 1e-13
_CONTACT_TOL = 1e-7   # contact gate of s_cr and s_cl, relative to 1 + |D_H f|^2


def _contact_gate(f: HeisMap, p, j1: Jet, j2: Jet, j3: Jet):
    a = _assess(p, j1, j2, j3)
    scale = 1.0 + max(abs(d) for row in a.d_hf for d in row) ** 2
    worst = a.max_contact_residual()
    if worst > _CONTACT_TOL * scale:
        raise NotContact(
            f"{f!r} fails the contact equations at {j1.base}: residual {worst:.3e}")


def _positive_jacobian(f: HeisMap, p, order: int, contact: bool = False) -> Jet:
    """The order-(order - 1) Jacobian jet of f at p, after the contact gate
    when contact is set; raises NotPositive unless the Jacobian is positive."""
    j1, j2, j3 = f.jets(p, order)
    if contact:
        _contact_gate(f, p, j1, j2, j3)
    lam = lambda_jet(j1, j2, j3)
    if lam.value.real <= 0:
        raise NotPositive(f"Jacobian {lam.value.real:.3e} is not positive at {tuple(p)}")
    return lam


def s_cr(f: HeisMap, p) -> complex:
    """CR Schwarzian Z^2 phi - 2 (Z phi)^2, phi the half-log Jacobian.

    This is the sign convention under which the Schwarzian tensor coefficient
    is 2 s_cr and the chain rule below holds; the reciprocal-form variant is
    its negative, see s_cr_reciprocal_form.
    """
    phi = _positive_jacobian(f, p, 3, contact=True).log() * 0.5   # Z^2 of log J
    zphi = jz(phi)
    return (word_jet("ZZ", phi) - 2.0 * zphi * zphi).value


def s_cr_reciprocal_form(f: HeisMap, p) -> complex:
    """Half the Jacobian times Z^2 of its reciprocal. Kept as an independent
    route; the suite fits the constant relating it to s_cr (it is -1)."""
    lam = _positive_jacobian(f, p, 3)   # Z^2 of 1/J
    return word_jet("ZZ", lam.reciprocal()).value * lam.value * 0.5


def s_cr_tensor_coeff(f: HeisMap, p) -> complex:
    """Holomorphic coefficient of the Schwarzian tensor, 2(Z^2 phi - 2(Z phi)^2).

    Computed through the cleared polynomial route (lambda Z^2 lambda and
    (Z lambda)^2, no logs), so it is an independent check against 2 s_cr.
    """
    lam = _positive_jacobian(f, p, 3)   # Z^2 of J
    zlam = jz(lam)
    num = (lam * word_jet("ZZ", lam) - 2.0 * zlam * zlam).value
    return num / (lam.value * lam.value)


def s_cl(f: HeisMap, p) -> complex:
    """Classical-type Schwarzian Z^3F/ZF - (3/2)(Z^2F/ZF)^2."""
    j1, j2, j3 = f.jets(p, 3)   # Z^3 F
    _contact_gate(f, p, j1, j2, j3)
    fjet = j1 + 1j * j2
    zf = jz(fjet)
    if abs(zf.value) < _TINY:
        raise SingularError(f"ZF vanishes at {tuple(p)}")
    q = word_jet("ZZ", fjet).value / zf.value
    return word_jet("ZZZ", fjet).value / zf.value - 1.5 * q * q


def preschwarzian(f: HeisMap, p) -> complex:
    """Z of the log Jacobian. Needs a positive Jacobian, not contact."""
    return jz(_positive_jacobian(f, p, 2).log()).value   # Z of log J


def preschwarzian_identity_residual(f: HeisMap, p) -> complex:
    """Z(Pf) - Pf^2 minus the tensor coefficient; zero whenever J_F > 0."""
    pf = jz(_positive_jacobian(f, p, 3).log())   # Z^2 of log J
    lhs = (jz(pf) - pf * pf).value
    return lhs - s_cr_tensor_coeff(f, p)


def pluriharmonic_residual(f: HeisMap, p) -> complex:
    """Z^2 Zbar of the half-log conformal factor; zero iff the factor is
    CR-pluriharmonic at p."""
    phi = _positive_jacobian(f, p, 4).log() * 0.5   # Z^2 Zbar of log J
    return word_jet("ZZZb", phi).value


# --- composition laws ----------------------------------------------------------

def _conformal_gate(g: HeisMap, p) -> complex:
    """ZG at p, after checking that Zbar G vanishes there."""
    a = assess_contact(g, p)
    if abs(a.zbar_f) > 1e-8 * (1.0 + abs(a.z_f)):
        raise NotContact(
            f"{g!r} is not conformal at {tuple(p)}: |Zbar G| = {abs(a.zbar_f):.3e}")
    return a.z_f


def cr_chain_residual(f: HeisMap, g: HeisMap, p) -> complex:
    """Residual of the full CR Schwarzian chain rule at p (lhs - rhs).

    Both maps only need to be contact; all six right-hand terms are built
    from independent jets of f at g(p) and of g at p.
    """
    q = g(p)
    lhs = s_cr(f.compose(g), p)

    jg1, jg2, jg3 = g.jets(p, 2)   # Z^2 G and Z J_G
    gjet = jg1 + 1j * jg2
    zg = jz(gjet).value
    zgbar = jz(gjet.conj()).value
    lam_g = lambda_jet(jg1, jg2, jg3)
    lg = lam_g.value
    z2g = word_jet("ZZ", gjet).value
    z2gbar = word_jet("ZZ", gjet.conj()).value
    zlam_g = jz(lam_g).value

    jf1, jf2, jf3 = f.jets(q, 3)   # Zbar Z of J_F
    lam_f = lambda_jet(jf1, jf2, jf3)
    lf = lam_f.value
    scr_f = s_cr(f, q)
    zbz_lam = word_jet("ZbZ", lam_f).value
    zzb_lam = word_jet("ZZb", lam_f).value
    zlam = jz(lam_f).value
    zblam = jzb(lam_f).value
    zln = jz(lam_f.log()).value
    zbln = jzb(lam_f.log()).value

    rhs = (scr_f * zg * zg
           + scr_f.conjugate() * zgbar * zgbar
           + s_cr(g, p)
           + (lf * (zbz_lam + zzb_lam) - 4.0 * zlam * zblam) * zg * zgbar / (2.0 * lf * lf)
           + (z2g * lg - 2.0 * zg * zlam_g) * zln / (2.0 * lg)
           + (z2gbar * lg - 2.0 * zgbar * zlam_g) * zbln / (2.0 * lg))
    return lhs - rhs


def cocycle_residual_right(f: HeisMap, g: HeisMap, p) -> complex:
    """Residual of S_CL(f o g) = S_CL(f) o g (ZG)^2 + S_CL(g), conformal g."""
    zg = _conformal_gate(g, p)
    q = g(p)
    lhs = s_cl(f.compose(g), p)
    return lhs - (s_cl(f, q) * zg * zg + s_cl(g, p))


def cocycle_residual_left(g: HeisMap, f: HeisMap, p,
                          middle_coeff: float = -1.0) -> complex:
    """Residual of the left composition law S_CL(g o f) for conformal g.

    The correction series in the mixed second derivative of G has three
    terms; middle_coeff is the coefficient of (Z^2 F)(Z Fbar)/(ZF) in the
    middle one, exposed so the suite can fit it from data.
    """
    _conformal_gate(g, p)
    q = f(p)
    jg1, jg2, jg3 = g.jets(q, 3)   # Zbar Z^2 G
    gjet = jg1 + 1j * jg2
    a_big = jz(gjet).value                     # ZG at f(p)
    if abs(a_big) < _TINY:
        raise SingularError(f"ZG vanishes at {q}")
    b_big = word_jet("ZZ", gjet).value         # Z^2 G
    d_big = word_jet("ZbZ", gjet).value        # Zbar Z G
    e_big = word_jet("ZbZZ", gjet).value       # Zbar Z^2 G

    jf1, jf2, jf3 = f.jets(p, 2)   # Z^2 F
    fjet = jf1 + 1j * jf2
    a = jz(fjet).value                         # ZF
    if abs(a) < _TINY:
        raise SingularError(f"ZF vanishes at {tuple(p)}")
    b = word_jet("ZZ", fjet).value             # Z^2 F
    abar = jz(fjet.conj()).value               # Z Fbar
    bbar = word_jet("ZZ", fjet.conj()).value   # Z^2 Fbar

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
        return frame_z(h) - exact.RP_ONE


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
