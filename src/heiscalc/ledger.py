"""Arbitration battery: every contested constant in the calculus recomputed
from two independent routes, with a verdict computed from the evidence.

Each entry carries the stated value the engine was handed, the value the
evidence fits, and the value the engine adopts; an adopted constant that an
engine formula uses is read from the module that owns it. ledger_run() is
cheap enough to sit inside the test suite and the CLI verify command.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import fields as fl
from . import harmonic as hm
from . import schwarzian as sw
from .exact import (RatPoly, fit_constant, harmonic_nullspace, laplacian_h,
                    monomials_wdeg, word_apply)
from .errors import NoConsistentConstant
from .group import Invert, LinearSL2, Point, Translate, word_to_map

# a float route fits a candidate whose worst residual over its probe points is
# within this bound; fits read below 1e-14 and rejected candidates above 1e-3
_FIT_BOUND = 1e-10
_NO_FIT = "no candidate fits"


def _fit(residuals: dict) -> str:
    """The first candidate whose worst residual is within _FIT_BOUND."""
    return next((c for c, r in residuals.items() if r <= _FIT_BOUND), _NO_FIT)


def _exact_fit(fit, arg) -> tuple[str, str]:
    """The repr of the constant fit(arg) finds exactly and an empty note,
    or _NO_FIT and the reason it found none, for the detail."""
    try:
        return repr(fit(arg)), ""
    except NoConsistentConstant as e:
        return _NO_FIT, f"; {e}"


@dataclass
class LedgerEntry:
    key: str
    stated: str          # the constant or identity as handed to the engine
    fitted: str          # what the evidence fits
    adopted: str         # what the engine uses
    detail: str = ""

    @property
    def agrees(self) -> bool:
        return self.fitted == self.stated

    @property
    def holds(self) -> bool:
        return self.fitted == self.adopted

    def line(self) -> str:
        flag = "agrees" if self.agrees else "MISMATCH"
        s = f"[{flag}] {self.key}: stated {self.stated}, fitted {self.fitted}"
        return s + (f" ({self.detail})" if self.detail else "")


def ledger_run() -> list[LedgerEntry]:
    entries = []
    # the gradient-map potentials of (a), (d) and (i), computed once
    basis = harmonic_nullspace(4)

    # (a) first-order system of the gradient map: lap f1 = c T f2
    c, why = _exact_fit(fit_constant,
                        ((laplacian_h(word_apply("X", u)), word_apply("TY", u))
                         for u in basis))
    entries.append(LedgerEntry(
        key="system-constant", stated="8", fitted=c, adopted=str(hm.SYSTEM_CONSTANT),
        detail="lap(Xu) = c T(Yu) over the harmonic basis, exact" + why))

    # (b) decoupled fourth-order equation: lap lap f1 = c T^2 f1; T^2 Xu only
    # shows up at weighted degree 5, so the basis needs dmax >= 5
    c, why = _exact_fit(fit_constant, (
        (laplacian_h(laplacian_h(word_apply("X", u))), word_apply("TTX", u))
        for u in harmonic_nullspace(6)))
    entries.append(LedgerEntry(
        key="bilaplace-constant", stated="-64", fitted=c,
        adopted=str(hm.BILAPLACE_CONSTANT), detail="lap^2(Xu) = c T^2(Xu), exact" + why))

    # (c) Bochner constant
    c, why = _exact_fit(hm.determine_kappa, 4)
    entries.append(LedgerEntry(
        key="bochner-kappa", stated="1/2", fitted=c, adopted=str(hm.BOCHNER_KAPPA),
        detail="(1/2) lap|grad u|^2 - ||Hess u||^2 = kappa (Xu YTu - Yu XTu); "
               "engine adopts the fitted value" + why))

    # (d) lap log J_F = c Re(Zb Pf), cleared of denominators
    def pair_d(u):
        j = (word_apply("XX", u) * word_apply("YY", u)
             - word_apply("YX", u) * word_apply("XY", u))
        return (j * laplacian_h(j) - word_apply("X", j) ** 2 - word_apply("Y", j) ** 2,
                (j * word_apply("ZbZ", j) - word_apply("Z", j) * word_apply("Zb", j)).re_part())

    c, why = _exact_fit(fit_constant, map(pair_d, basis))
    entries.append(LedgerEntry(
        key="lap-log-jacobian-constant", stated="8", fitted=c, adopted="4",
        detail="J lap J - |grad_H J|^2 = c Re(J ZbZJ - ZJ ZbJ) over gradient-map "
               "Jacobians; engine adopts the fitted value" + why))

    # (e) sublaplacian prefactor: lap = c (ZbZ + ZZb)
    c, why = _exact_fit(fit_constant, (
        (laplacian_h(q), word_apply("ZbZ", q) + word_apply("ZZb", q))
        for q in (RatPoly.monomial(*m) for m in monomials_wdeg(4))))
    entries.append(LedgerEntry(
        key="sublaplacian-prefactor", stated="4", fitted=c, adopted="2",
        detail="lap = c (ZbZ + ZZb) on monomials; engine normalises to X^2 + Y^2" + why))

    # (f) exponential-flow closed form: the two forms differ on a probe grid,
    # and s_cl of the time-1 flow map, from its jets, decides between them
    worst = 0.0
    osc = 0.0
    for i in range(5):
        for k in range(1, 5):
            x0, s = -1.0 + 0.5 * i, 0.5 * k
            worst = max(worst, abs(fl.scl_exp_flow(x0, s) - fl.scl_exp_flow_reference(x0, s)))
            osc = max(osc, abs(fl.scl_exp_flow(x0, s * 1e-6) / (s * 1e-6)
                               - fl.scl_exp_flow_reference(x0, s * 1e-6) / (s * 1e-6)))
    flow = fl.flow_closed_form("exp(x)", 1.0)
    jet_scl = [(x0, sw.s_cl(flow, Point(x0, 0.0, 0.0))) for x0 in (-1.0, 0.0, 1.0)]
    gaps = {name: max(abs(v - form(x0, 1.0)) for x0, v in jet_scl) for name, form in (
        ("reference display", fl.scl_exp_flow_reference), ("derived form", fl.scl_exp_flow))}
    entries.append(LedgerEntry(
        key="exp-flow-closed-form", stated="reference display", fitted=_fit(gaps),
        adopted="derived form",
        detail=f"max |difference| {worst:.3e} on the probe grid; first-order "
               f"coefficients agree to {osc:.1e}; s_cl of the time-1 flow map is "
               f"{gaps['derived form']:.1e} from the derived form, "
               f"{gaps['reference display']:.1e} from the reference display"))

    # (g) CR Schwarzian sign family
    fog = word_to_map([Invert(), LinearSL2(2.0, 0.0, 0.0, 0.5)])
    pts = [Point(1.0, 1.0, 0.0), Point(0.8, 0.6, 0.4), Point(1.2, 0.5, -0.3)]
    forms = [(sw.s_cr(fog, p), sw.s_cr_tensor_coeff(fog, p), sw.s_cr_reciprocal_form(fog, p))
             for p in pts]
    rt = max(abs(t - 2.0 * s) for s, t, _ in forms)
    rr = max(abs(r + s) for s, _, r in forms)
    rs = max(abs(r - s) for s, _, r in forms)
    entries.append(LedgerEntry(
        key="cr-sign-family", stated="tensor = 2 S, reciprocal = S",
        fitted=_fit({"tensor = 2 S, reciprocal = S": max(rt, rs),
                     "tensor = 2 S, reciprocal = -S": max(rt, rr)}),
        adopted="tensor = 2 S, reciprocal = -S",
        detail=f"|tensor - 2S| <= {rt:.1e}, |reciprocal + S| <= {rr:.1e}; the "
               "log form is the one every composition statement uses"))

    # (h) left-cocycle middle coefficient
    f_c = fog.compose(word_to_map([Translate(Point(0.2, 0.1, -0.4))]))
    g_conf = word_to_map([Invert()])
    p = Point(0.7, 0.9, 0.5)
    r1 = abs(sw.cocycle_residual_left(g_conf, f_c, p, middle_coeff=-1.0))
    r2 = abs(sw.cocycle_residual_left(g_conf, f_c, p, middle_coeff=-2.0))
    entries.append(LedgerEntry(
        key="left-cocycle-middle-coefficient", stated="-2", fitted=_fit({"-2": r2, "-1": r1}),
        adopted=str(sw.LEFT_MIDDLE_COEFF),
        detail=f"residual {r1:.1e} at -1 versus {r2:.1e} at -2"))

    # (i) |Pf| against the horizontal gradient of log J
    ok = all((word_apply("X", u) ** 2 + word_apply("Y", u) ** 2
              - word_apply("Z", u) * word_apply("Zb", u) * 4).is_zero()
             for u in basis)
    half = "|Pf| = (1/2) |grad_H ln J|"
    entries.append(LedgerEntry(
        key="pf-gradient-norm", stated="|Pf| = |grad_H ln J|",
        fitted=half if ok else _NO_FIT, adopted=half,
        detail="4 Zv Zbv = |grad_H v|^2 exactly for real v" if ok else "identity failed"))

    # (j) vertical-route Jacobian: det route = vertical route on contact maps,
    # and the gradient-map expansion carries +2, not -2
    def det_route(c1, c2, _c3):
        return (word_apply("X", c1) * word_apply("Y", c2)
                - word_apply("Y", c1) * word_apply("X", c2))

    def vert_route(c1, c2, c3):
        return (word_apply("T", c3) - c2 * word_apply("T", c1) * 2
                + c1 * word_apply("T", c2) * 2)

    x, y, t = RatPoly.variable("x"), RatPoly.variable("y"), RatPoly.variable("t")
    trans = (x + 1, y - 2, t + 3 + (x * (-2) - y) * 2)          # left translation by (1,-2,3)
    dil = (x * 3, y * 3, t * 9)
    sl2 = (x * 2 + y, x + y, t)                                  # det 1
    comp = _rp_compose(sl2, *_rp_compose(dil, *trans))
    contact_ok = all(
        (det_route(*m) - vert_route(*m)).is_zero()
        for m in (trans, dil, sl2, comp, _rp_compose(trans, *sl2)))
    noncontact = (x, y, t * 2)
    separates = not (det_route(*noncontact) - vert_route(*noncontact)).is_zero()

    probe = [x * x - y * y, x * y, t, x * t, (x * x + y * y) * y,
             t * t - (x ** 4 + y ** 4) * Fraction(2, 3)]
    plus_two = all(
        (vert_route(*(word_apply(letter, u) for letter in "XYT"))
         - word_apply("TT", u)
         - (word_apply("X", u) * word_apply("TY", u)
            - word_apply("Y", u) * word_apply("TX", u)) * 2
         ).is_zero() for u in probe)
    plus = "T^2 u + 2 (Xu TYu - Yu TXu)"
    entries.append(LedgerEntry(
        key="vertical-jacobian-sign", stated="T^2 u - 2 (Xu TYu - Yu TXu)",
        fitted=plus if contact_ok and separates and plus_two else _NO_FIT, adopted=plus,
        detail="det route = vertical route exactly on contact words"
               f" ({contact_ok}), routes differ off contact ({separates}), "
               f"gradient expansion carries +2 ({plus_two})"))

    return entries


def _rp_compose(g, f1: RatPoly, f2: RatPoly, f3: RatPoly):
    """Exact composition: substitute map components into each component of g."""
    return tuple(
        sum((RatPoly.from_num({(0, 0, 0): c}, comp.den) * f1 ** i * f2 ** j * f3 ** k
             for (i, j, k), c in comp.num.items()), RatPoly())
        for comp in g)
