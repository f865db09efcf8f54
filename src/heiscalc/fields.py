"""Conformal vector fields on the group, their flows, and Jacobian-weighted
pushforwards of the potential family.

A field is stored through its real potential v0: the horizontal components
are v1 = Y v0, v2 = -X v0, the vertical one -4 v0, and the field is conformal
exactly when Z^2 v0 = 0.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from . import expr as ex
from .errors import BadPotential, DomainError
from .exact import RatPoly, potential_expr
from .expr import Expr
from .group import HeisMap, Point
from .horizontal import apply_word, lambda_jet, sym_x, sym_y
from .jets import Jet

# Exact potential family spanning the conformal fields; entry k matches
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


def _velocity(run, x, y, t) -> tuple[float, float, float]:
    """Coordinate velocity at (x, y, t) from a run of the field's tape."""
    v1, v2, v0v = run(complex(x), complex(y), complex(t))
    v1, v2 = v1.real, v2.real
    return v1, v2, 2.0 * y * v1 - 2.0 * x * v2 - 4.0 * v0v.real


def vector_field_at(v0, p) -> tuple[float, float, float]:
    """Coordinate velocity (dx, dy, dt) of the field at p."""
    return _velocity(ex.tape(field_components(v0)), *p)


def flow_integrate(v0, p, s: float, steps: int = 200) -> Point:
    """RK4 integration of the field's flow from p over time s, each stage
    one run of the field's tape."""
    if steps < 1:
        raise DomainError("steps must be positive")
    run = ex.tape(field_components(v0))
    h = s / steps
    x, y, t = float(p[0]), float(p[1]), float(p[2])
    for _ in range(steps):
        k1 = _velocity(run, x, y, t)
        k2 = _velocity(run, x + 0.5 * h * k1[0], y + 0.5 * h * k1[1], t + 0.5 * h * k1[2])
        k3 = _velocity(run, x + 0.5 * h * k2[0], y + 0.5 * h * k2[1], t + 0.5 * h * k2[2])
        k4 = _velocity(run, x + h * k3[0], y + h * k3[1], t + h * k3[2])
        x += h * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        y += h * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
        t += h * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0
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


def pushforward_w0(f: HeisMap, case: int, p) -> Jet:
    """Jacobian-weighted pullback of basis potential `case` (1..8) along f,
    as an order-2 jet at p, enough for Z^2; .value gives the scalar."""
    if not 1 <= case <= 8:
        raise DomainError(f"case must be 1..8, got {case}")
    j1, j2, j3 = f.jets(p, 3)   # the Jacobian consumes one order
    lam = lambda_jet(j1, j2, j3)
    rho = j1 * j1 + j2 * j2
    if case == 1:
        num = j3 * j3 + rho * rho
    elif case == 2:
        num = j3 * j2 - j1 * rho
    elif case == 3:
        num = j3 * j1 + j2 * rho
    elif case == 4:
        num = rho
    elif case == 5:
        num = j1
    elif case == 6:
        num = j2
    elif case == 7:
        num = j3
    else:
        num = Jet.constant(1.0, j1.base, j1.order)
    return num * lam.reciprocal()


def flow_contact_residuals(v0, p, s: float, steps: int = 400) -> tuple[float, float]:
    """Contact residuals of the numerically integrated time-s flow map,
    by centred differences along the two frame directions.

    The step is h = 1e-4, so the error is O(h^2) plus the integrator's
    endpoint error; keep steps generous when s is large.
    """
    h = 1e-4
    x, y, t = float(p[0]), float(p[1]), float(p[2])
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
