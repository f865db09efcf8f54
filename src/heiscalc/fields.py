"""Conformal vector fields on the group, their flows, and Jacobian-weighted
pushforwards of the potential family.

A field is stored through its real potential v0: the horizontal components
are v1 = Y v0, v2 = -X v0, the vertical one -4 v0, and the field is conformal
exactly when Z^2 v0 = 0.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from . import expr as ex
from .errors import BadPotential, DomainError
from .exact import RatPoly, potential_expr
from .expr import Expr
from .group import HeisMap, Point, as_point
from .horizontal import apply_word, jacobian, sym_x, sym_y
from .jets import Jet

# Exact potential family spanning the conformal fields; entry k is
# pushforward case k+1.
V0_BASIS = (
    RatPoly({(4, 0, 0): 1, (2, 2, 0): 2, (0, 4, 0): 1, (0, 0, 2): 1}),
    RatPoly({(0, 1, 1): 1, (1, 2, 0): -1, (3, 0, 0): -1}),
    RatPoly({(1, 0, 1): 1, (2, 1, 0): 1, (0, 3, 0): 1}),
    RatPoly({(2, 0, 0): 1, (0, 2, 0): 1}),
    RatPoly({(1, 0, 0): 1}),
    RatPoly({(0, 1, 0): 1}),
    RatPoly({(0, 0, 1): 1}),
    RatPoly({(0, 0, 0): 1}),
)


def conformal_v0_poly(coeffs) -> RatPoly:
    coeffs = list(coeffs)
    if len(coeffs) != len(V0_BASIS):
        raise DomainError(f"need {len(V0_BASIS)} coefficients, got {len(coeffs)}")
    acc = RatPoly()
    for c, b in zip(coeffs, V0_BASIS):
        acc = acc + b * c
    return acc


def conformal_v0(coeffs) -> Expr:
    """Potential of the general conformal field with the given coefficients."""
    return conformal_v0_poly(coeffs).to_expr()


class ConformalResidual(NamedTuple):
    z2v0: complex
    re: float
    im: float


def conformal_residual(v0, p) -> ConformalResidual:
    """Z^2 v0 at p, with the two real equations split out."""
    val = apply_word("ZZ", potential_expr(v0), p)
    return ConformalResidual(val, val.real, val.imag)


def field_components(v0) -> tuple[Expr, Expr, Expr]:
    """(v1, v2, v0) with v1 = Y v0 and v2 = -X v0, as expression trees.

    A prebuilt component tuple passes through unchanged."""
    if isinstance(v0, tuple):
        return v0
    e = potential_expr(v0)
    return sym_y(e), ex.neg(sym_x(e)), e


def _stage(tape):
    """The field's coordinate velocity at (x, y, t), as one call that runs
    the tape's compiled function (`Tape.run`), checks the three outputs for
    finiteness as a guarded run of the tape does, and combines them into
    (v1, v2, 2y v1 - 2x v2 - 4 v0) in floats. The values, and the
    DomainErrors, are those of a guarded run of the tape."""
    run, isfinite = tape.run, cmath.isfinite

    def velocity(x, y, t):
        try:
            v1, v2, v0 = run(complex(x), complex(y), complex(t))
        except ex.STEP_ERRORS as e:
            raise ex.step_error(e) from None
        if not (isfinite(v1) and isfinite(v2) and isfinite(v0)):
            raise DomainError(f"evaluation gave a value that is not finite: {(v1, v2, v0)}")
        v1, v2 = v1.real, v2.real
        return v1, v2, 2.0 * y * v1 - 2.0 * x * v2 - 4.0 * v0.real
    return velocity


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _flow_start(p, s, steps) -> Point:
    """The start point of a flow as three floats (`group.as_point`), once
    steps is an int of at least 1 and p and the flow time s are finite;
    else a DomainError, so that no point outside H starts a flow."""
    if not (_is_int(steps) and steps >= 1):
        raise DomainError(f"steps must be an int of at least 1, got {steps!r}")
    try:
        finite = math.isfinite(s)
    except OverflowError:   # an int beyond the float range
        finite = False
    if not finite:
        raise DomainError(f"the flow time {s} is not finite")
    return as_point(p, "the start point")


def vector_field_at(v0, p) -> tuple[float, float, float]:
    """Coordinate velocity (dx, dy, dt) of the field at p: one RK4 stage of
    `flow_integrate`, so the flows and this value come from the one stage."""
    q = as_point(p, "the start point")
    return _stage(ex.tape(field_components(v0)))(*q)


def flow_integrate(v0, p, s: float, steps: int = 200) -> Point:
    """RK4 integration of the field's flow from p over time s, in `steps`
    steps (an int, at least 1); p and s must be finite.

    The field's tape is fetched once, and each stage is one call of
    `_stage`, which calls the tape's compiled function (`Tape.run`) under
    the stage's own guard and combines the velocity in floats. A loop over
    the tape's steps inside each stage took 1.22 times as long (200-step
    flows of the quadratic and exp(x) potentials, median of 40 interleaved
    rounds on a 2-vCPU Xeon). The endpoint and the DomainErrors are
    those of a guarded run of the tape per stage, bit for bit."""
    x, y, t = _flow_start(p, s, steps)
    vel = _stage(ex.tape(field_components(v0)))
    h = s / steps
    for _ in range(steps):
        a1, b1, c1 = vel(x, y, t)
        a2, b2, c2 = vel(x + 0.5 * h * a1, y + 0.5 * h * b1, t + 0.5 * h * c1)
        a3, b3, c3 = vel(x + 0.5 * h * a2, y + 0.5 * h * b2, t + 0.5 * h * c2)
        a4, b4, c4 = vel(x + h * a3, y + h * b3, t + h * c3)
        x += h * (a1 + 2 * a2 + 2 * a3 + a4) / 6.0
        y += h * (b1 + 2 * b2 + 2 * b3 + b4) / 6.0
        t += h * (c1 + 2 * c2 + 2 * c3 + c4) / 6.0
    # a coordinate that overflowed to inf or nan stays so to the end
    if not math.isfinite(x + y + t):
        raise DomainError(f"the flow from {tuple(p)} does not stay bounded up to s = {s:g}")
    return Point(x, y, t)


def _uses_only_x(e: Expr) -> bool:
    return all(n.op != "coord" or n.val == 0 for n in ex.postorder(e))


def flow_closed_form(h, s: float) -> HeisMap:
    """Exact time-s flow map of the field with potential v0 = h(x).

    The first coordinate is frozen, the second drifts by -s h'(x) and the
    vertical one by s (2x h'(x) - 4 h(x)).
    """
    he = potential_expr(h)
    if not _uses_only_x(he):
        raise BadPotential("flow potential must depend on x only")
    hp = ex.diff(he, 0)
    sc = ex.const(float(s))
    e1 = ex.X
    e2 = ex.sub(ex.Y, ex.mul(sc, hp))
    e3 = ex.add(ex.T, ex.mul(sc, ex.sub(ex.mul(ex.mul(ex.const(2), ex.X), hp),
                                        ex.mul(ex.const(4), he))))
    return HeisMap(e1, e2, e3, f"flow[s={s:g}]")


def scl_exp_flow(x: float, s: float) -> complex:
    """Classical-type Schwarzian of the exponential-potential flow, closed
    form derived from the map (w^2/32 - i w/8)/(1 - i w/2)^2 with w = s e^x."""
    w = s * math.exp(x)
    return (w * w / 32.0 - 1j * w / 8.0) / (1.0 - 0.5j * w) ** 2


def scl_exp_flow_reference(x: float, s: float) -> complex:
    """Independent reference closed form for the same quantity, kept verbatim
    for arbitration against scl_exp_flow; the suite records where they differ."""
    u = math.exp(x) * s
    u2 = u * u
    den = (16.0 + 8.0 * u2 + u2 * u2) ** 2
    re = 0.125 * u2 * (272.0 + 104.0 * u2 + 17.0 * u2 * u2) / den
    im = 0.125 * u * (-256.0 - 32.0 * u2 + 8.0 * u2 * u2 + 4.0 * u2 * u2 * u2) / den
    return complex(re, im)


def scl_flow_derivative(v0, p) -> complex:
    """d/ds at s=0 of the flow's classical-type Schwarzian: -2i Z^3 Zbar v0."""
    return -2j * apply_word("ZZZZb", potential_expr(v0), p)


# The basis potentials' tapes, compiled once and held here: `to_expr()` builds
# a new DAG on each call, so expr.tape's cache, keyed by the roots, would miss.
_V0_TAPES = tuple(ex.Tape((b.to_expr(),)) for b in V0_BASIS)


def pushforward_w0(f: HeisMap, case: int, p) -> Jet:
    """Jacobian-weighted pullback (V0_BASIS[case - 1] o f) / J_f of basis
    potential `case` (1..8) along f, as an order-2 jet at the single point
    p, enough for Z^2; .value gives the scalar. The potential's tape runs on
    f's jets, and the reciprocal Jacobian comes from f's reading at p."""
    if not (_is_int(case) and 1 <= case <= 8):
        raise DomainError(f"case must be an int from 1 to 8, got {case!r}")
    inv = jacobian(f, p, 2, "reciprocal")   # shared by the eight cases
    (num,) = _V0_TAPES[case - 1](*f.jets(p, 2))
    return num * inv


def flow_contact_residuals(v0, p, s: float, steps: int = 400) -> tuple[float, float]:
    """Contact residuals of the numerically integrated time-s flow map,
    by centred differences along the two frame directions.

    The step is h = 1e-4, so the error is O(h^2) plus the integrator's
    endpoint error; keep steps generous when s is large.
    """
    h = 1e-4
    x, y, t = _flow_start(p, s, steps)
    comps = field_components(v0)

    def at(q):
        return flow_integrate(comps, q, s, steps=steps)

    f = at((x, y, t))
    dx = [(a - b) / (2.0 * h)
          for a, b in zip(at((x + h, y, t + 2 * y * h)),
                          at((x - h, y, t - 2 * y * h)))]
    dy = [(a - b) / (2.0 * h)
          for a, b in zip(at((x, y + h, t - 2 * x * h)),
                          at((x, y - h, t + 2 * x * h)))]
    r1 = dx[2] - 2.0 * f[1] * dx[0] + 2.0 * f[0] * dx[1]
    r2 = dy[2] - 2.0 * f[1] * dy[0] + 2.0 * f[0] * dy[1]
    return r1, r2
