"""Harmonic and gradient-harmonic maps: the induced second-order system,
Hessian determinants, the Bochner-type identity, grid sign scans, and the
growth-estimate ingredients along radial curves.

Polynomial potentials are scanned through the exact kernel: the scanned
quantities are exact RatPolys, but RatPoly.eval evaluates them in floats, so
a sign within rounding of zero is still decided by rounding (ROADMAP item 5).
Everything else falls back to jets. Both routes share one grid walk, which
fills one column per quantity; each check is then counted from its column
and its gate, a mask over the columns.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import exact
from . import expr as ex
from .errors import DomainError, EvalError, NotHarmonic, NotPositive
from .exact import (RatPoly, QQi, fit_constant, harmonic_nullspace, laplacian_h,
                    potential_expr, ratpoly_from_expr, word_apply)
from .expr import jet_eval
from .group import HeisMap, koranyi_norm, radial_curve
from .horizontal import (assess_contact, frame, jlap, lambda_jet, sym_x, sym_y,
                         word_jet)
from .jets import Jet
from .schwarzian import preschwarzian

# the adopted constants of the gradient map's system and of the Bochner-type
# identity; ledger.ledger_run checks each one against its exact fit
SYSTEM_CONSTANT = 8        # lap f1 = c T f2, lap f2 = -c T f1
BILAPLACE_CONSTANT = -64   # lap lap fi = c T^2 fi, i = 1, 2
BOCHNER_KAPPA = 8
# the points where a non-polynomial potential's sublaplacian must vanish
_HARMONIC_SAMPLES = ((0.3, -0.7, 0.4), (1.1, 0.5, -0.8), (-0.6, 0.9, 1.3))


def _try_poly(u) -> RatPoly | None:
    if isinstance(u, RatPoly):
        return u
    try:
        return ratpoly_from_expr(potential_expr(u))
    except EvalError:
        return None


def _check_harmonic(u, poly: RatPoly | None):
    """poly is _try_poly(u), converted once by the caller."""
    if poly is not None:
        if not laplacian_h(poly).is_zero():
            raise NotHarmonic("sublaplacian of the potential is not the zero polynomial")
        return
    j = jet_eval(potential_expr(u), np.array(_HARMONIC_SAMPLES, dtype=float), 2)
    r = jlap(j).value
    bad = np.abs(r) > 1e-9 * (1.0 + np.abs(j.value))
    if bad.any():
        i = int(bad.argmax())
        raise NotHarmonic(f"sublaplacian is {complex(r[i]):.3e} at {_HARMONIC_SAMPLES[i]}")


def gradient_harmonic(u) -> HeisMap:
    """Map whose components are the frame derivatives (Xu, Yu, Tu) of a
    sublaplacian-harmonic potential."""
    _check_harmonic(u, _try_poly(u))
    return _gradient_map(potential_expr(u), "grad-harmonic")


def _gradient_map(e, name: str = "grad") -> HeisMap:
    """The map (Xu, Yu, Tu) of a potential expression, unchecked."""
    return HeisMap(sym_x(e), sym_y(e), ex.diff(e, 2), name)


def _geom(f1: Jet, f2: Jet, f3: Jet):
    """Xu YTu - Yu XTu from the jets f1 = Xu, f2 = Yu, f3 = Tu."""
    return (f1.value * frame(f3, "Y").value - f2.value * frame(f3, "X").value).real


class SystemResiduals(NamedTuple):
    r1: float          # lap f1 - SYSTEM_CONSTANT T f2
    r2: float          # lap f2 + SYSTEM_CONSTANT T f1
    r3: float          # lap f3
    rb1: float         # lap lap f1 - BILAPLACE_CONSTANT T^2 f1
    rb2: float         # lap lap f2 - BILAPLACE_CONSTANT T^2 f2


def harmonic_system_residuals(m: HeisMap, p) -> SystemResiduals:
    """Residuals of the coupled system a gradient-harmonic map satisfies."""
    j1, j2, j3 = m.jets(p, 4)   # the bi-sublaplacian
    r1 = (jlap(j1) - SYSTEM_CONSTANT * frame(j2, "T")).value
    r2 = (jlap(j2) + SYSTEM_CONSTANT * frame(j1, "T")).value
    r3 = jlap(j3).value
    rb1 = (jlap(jlap(j1)) - BILAPLACE_CONSTANT * word_jet("TT", j1)).value
    rb2 = (jlap(jlap(j2)) - BILAPLACE_CONSTANT * word_jet("TT", j2)).value
    return SystemResiduals(r1.real, r2.real, r3.real, rb1.real, rb2.real)


@dataclass
class HessianReport:
    point: tuple
    x2u: float
    xyu: float
    yxu: float
    y2u: float
    tu: float
    det_hess: float          # X2u Y2u - XYu YXu
    det_hess_sym: float      # X2u Y2u - ((XYu+YXu)/2)^2
    j_f: float               # Jacobian of the gradient map, det route
    gap: float               # det_hess - det_hess_sym; equals 4 (Tu)^2


def hessian_report(u, p) -> HessianReport:
    e = potential_expr(u)
    j = jet_eval(e, p, 2)   # the horizontal Hessian
    x2u, xyu, yxu, y2u = (word_jet(w, j).value.real for w in ("XX", "XY", "YX", "YY"))
    tu = frame(j, "T").value.real
    det_hess = x2u * y2u - xyu * yxu
    det_sym = x2u * y2u - 0.25 * (xyu + yxu) ** 2
    g1, g2, g3 = _gradient_map(e).jets(p, 1)   # the Jacobian of the gradient map
    j_f = lambda_jet(g1, g2, g3).value.real
    return HessianReport(point=tuple(p), x2u=x2u, xyu=xyu, yxu=yxu, y2u=y2u,
                         tu=tu, det_hess=det_hess, det_hess_sym=det_sym,
                         j_f=j_f, gap=det_hess - det_sym)


def bochner_residual(u, p, kappa: float = BOCHNER_KAPPA) -> float:
    """Residual of (1/2) lap |grad u|^2 = ||Hess u||^2 + kappa (Xu YTu - Yu XTu)."""
    j = jet_eval(potential_expr(u), p, 3)   # lap |grad u|^2
    gx, gy = frame(j, "X"), frame(j, "Y")
    lhs = 0.5 * jlap(gx * gx + gy * gy).value.real
    hess2 = (frame(gx, "X").value.real ** 2 + frame(gx, "Y").value.real ** 2
             + frame(gy, "X").value.real ** 2 + frame(gy, "Y").value.real ** 2)
    return lhs - hess2 - kappa * _geom(gx, gy, frame(j, "T"))


def geom_term(u, p) -> float:
    """Xu YTu - Yu XTu at p; the level-set quantity gating the sign results."""
    j = jet_eval(potential_expr(u), p, 2)   # Y T u
    return _geom(frame(j, "X"), frame(j, "Y"), frame(j, "T"))


def determine_kappa(dmax: int = 4) -> QQi:
    """Exact fit of the Bochner constant over the harmonic polynomial basis."""
    half = QQi(exact.Fraction(1, 2))
    pairs = []
    for u in harmonic_nullspace(dmax):
        gx, gy = word_apply("X", u), word_apply("Y", u)
        lhs = laplacian_h(gx * gx + gy * gy) * half
        hess2 = (word_apply("X", gx) ** 2 + word_apply("Y", gx) ** 2
                 + word_apply("X", gy) ** 2 + word_apply("Y", gy) ** 2)
        geom = gx * word_apply("YT", u) - gy * word_apply("XT", u)
        pairs.append((lhs - hess2, geom))
    return fit_constant(pairs)


# --- grid sign scans -------------------------------------------------------------


@dataclass(frozen=True)
class CheckStat:
    """One claim's count over a scan, made from its column and its gate."""
    name: str
    expect: str                       # "nonneg" or "nonpos"
    n_points: int
    n_gated: int                      # points where the gate held and the claim applies
    n_violations: int
    worst: float                      # most violating signed value, 0.0 if none
    examples: tuple                   # (point, value) of the first five violations

    def ok(self) -> bool:
        return self.n_violations == 0


@dataclass
class SignReport:
    label: str
    grid_shape: tuple
    checks: list
    singular_count: int = 0
    # the (n, 3) grid and the per-point columns the counts came from
    points: np.ndarray | None = field(default=None, repr=False, compare=False)
    columns: dict = field(default_factory=dict, repr=False, compare=False)

    def ok(self) -> bool:
        return all(c.ok() for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "grid_shape": list(self.grid_shape),
            "singular_count": self.singular_count,
            "ok": self.ok(),
            # each check's fields but its examples, in field order
            "checks": [{k: v for k, v in vars(c).items() if k != "examples"}
                       for c in self.checks],
        }


def _grid_array(region) -> np.ndarray:
    """The grid points as an (n, 3) array, x slowest and t fastest."""
    axes = []
    for lo, hi, n in region:
        if n < 1:
            raise DomainError("grid axis needs at least one sample")
        if n == 1:
            axes.append(np.array([0.5 * (lo + hi)]))
        else:
            axes.append(lo + np.arange(n) * ((hi - lo) / (n - 1)))
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


# Points per route call of a sign scan, one size per route. A larger chunk
# spreads each numpy call over more points but holds every intermediate of
# the chunk at once.
#
# The jet routes carry 35 complex coefficients per point at order 4, and a
# batched tape run holds only the jets it will still read (`expr.Tape`).
# The benchmark's scan_jet workload (10^3 scans of exp(x)cos(y) + u*,
# 2-vCPU host, no bytecode, 8 s runs, 7 per row on seeds 1, 2 and 90001):
#
#   tape            points   block_s median (range)     peak_rss_mib
#   one slot/node       64   0.0178 (0.0168-0.0183)     33.27-33.41
#   one slot/node      256   0.0114 (0.0107-0.0124)     35.12-35.32
#   slots reused       128   0.0110 (0.0105-0.0116)     33.52-33.68
#   slots reused       256   0.0091 (0.0088-0.0096)     34.35-34.48
#   slots reused       512   0.0090 (0.0087-0.0096)     35.48-35.63
#
# 256 takes about half the time of 64 for 1 MiB more; 512 costs 1.2 MiB more
# again for no time resolved.
_JET_CHUNK = 256
# The polynomial route holds about one number per point for each power and
# quantity, so at 64 points its scan is almost all numpy call overhead. On
# a 21^3 scan of u* (2-vCPU host, best of 100), 1024 points take 2.6-4.8 ms
# against 21-23 ms at 64, and raise the scan's tracemalloc peak from 617 to
# 868 KiB (a fresh benchmark process's peak RSS by 0.18-0.59 MiB, median
# 0.39); 512 points take 4.2-7.1 ms at 734 KiB, and the whole grid at once
# peaks at 1875 KiB and raises RSS by about 1.3 MiB.
_POLY_CHUNK = 1024
# The sign scans' default tolerance: how far a claim's value may miss its
# sign, and the threshold of the singular and gate tests.
SCAN_TOL = 1e-10


def _sign_scan(region, label, tol, claims, route, chunk) -> SignReport:
    """The one grid walk of every sign scan. route(p), on an (m, 3) chunk of
    at most chunk grid points, gives the per-point columns, "singular" and
    one per claim among them. claims is a (name, expect, gate) triple per
    check, gate(columns, tol) the mask where it applies. A value that is not
    finite is a DomainError at the lowest-index such point."""
    points = _grid_array(region)
    columns = {}
    # an overflow shows as the DomainError below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(points), chunk):
            for k, val in route(points[lo:lo + chunk]).items():
                if k not in columns:
                    columns[k] = np.empty(len(points), np.asarray(val).dtype)
                columns[k][lo:lo + chunk] = val
    bad = ~np.logical_and.reduce([np.isfinite(c) for c in columns.values() if c.dtype != bool])
    if bad.any():
        raise DomainError(f"the scan gave a value that is not finite at "
                          f"{tuple(points[bad.argmax()].tolist())}")
    checks = [_check_stat(name, expect, gate(columns, tol), columns[name], points, tol)
              for name, expect, gate in claims]
    return SignReport(label=label, grid_shape=tuple(n for _, _, n in region),
                      checks=checks,
                      singular_count=int(np.count_nonzero(columns["singular"])),
                      points=points, columns=columns)


def _check_stat(name, expect, gate, values, points, tol) -> CheckStat:
    """A claim's count from its column and its gate, a per-point mask or a
    bool for every point."""
    gated = np.broadcast_to(gate, values.shape)
    margins = values if expect == "nonneg" else -values
    bad = np.flatnonzero(gated & (margins < -tol))
    return CheckStat(name=name, expect=expect, n_points=len(values),
                     n_gated=int(np.count_nonzero(gated)), n_violations=len(bad),
                     worst=float(margins[bad].min()) if len(bad) else 0.0,
                     examples=tuple((tuple(map(float, points[i])), float(values[i]))
                                    for i in bad[:5]))


# the gates: where ZF vanishes the log claim is void; the others hold where
# the level-set term is nonnegative, or everywhere
_GRADIENT_CLAIMS = (
    ("lap_abs_zf2", "nonneg", lambda c, tol: True),
    ("cleared_log_abs_zf2", "nonpos", lambda c, tol: ~c["singular"]),
    ("lap_abs_f2", "nonneg", lambda c, tol: c["geom"] >= -tol),
    ("lap_grad_u2", "nonneg", lambda c, tol: c["geom"] >= -tol),
)


def _grad_quantities_poly(u: RatPoly) -> tuple:
    """The exact arguments of _gradient_columns for a polynomial potential:
    |ZF|^2, the claimed quantities and the level-set term.

    Log-claims are cleared: lap log g has the sign of g lap g - |grad_H g|^2
    on {g > 0}.
    """
    f1, f2, f3 = (word_apply(letter, u) for letter in "XYT")
    fc = f1 + f2 * exact.QQI_I
    zf = word_apply("Z", fc)
    g = (zf * zf.conj()).re_part()                     # |ZF|^2
    lap_g = laplacian_h(g)
    absf2 = (fc * fc.conj()).re_part()
    grad2 = f1 * f1 + f2 * f2                          # |grad_H u|^2
    geom = f1 * word_apply("Y", f3) - f2 * word_apply("X", f3)
    cleared_log = g * lap_g - word_apply("X", g) ** 2 - word_apply("Y", g) ** 2
    return g, lap_g, cleared_log, laplacian_h(absf2), laplacian_h(grad2), geom


def _gradient_columns(g, lap_g, cleared, lap_f2, lap_grad2, geom, tol) -> dict:
    """A gradient route's columns from its per-point values, g = |ZF|^2."""
    return {"singular": g <= tol, "lap_abs_zf2": lap_g, "cleared_log_abs_zf2": cleared,
            "lap_abs_f2": lap_f2, "lap_grad_u2": lap_grad2, "geom": geom}


def subharmonicity_scan(u, region, label: str | None = None,
                        tol: float = SCAN_TOL) -> SignReport:
    """Scan the gradient-map sign claims for a harmonic potential over a grid.

    region is three (lo, hi, n) triples for x, y, t. Points where ZF = 0 are
    counted as singular and excluded from the log claim, never from the rest.
    """
    poly = _try_poly(u)
    _check_harmonic(u, poly)
    if poly is None:
        return _scan_jets(u, region, label, tol)
    quantities = _grad_quantities_poly(poly)

    def route(p):
        return _gradient_columns(*(q.eval(p).real for q in quantities), tol)
    return _sign_scan(region, label or "gradient-scan", tol, _GRADIENT_CLAIMS, route,
                      _POLY_CHUNK)


def _scan_jets(u, region, label, tol) -> SignReport:
    e = potential_expr(u)

    def route(p):
        j = jet_eval(e, p, 4)   # lap |ZF|^2, with ZF a second derivative of u
        f1, f2, f3 = frame(j, "X"), frame(j, "Y"), frame(j, "T")
        fc = f1 + 1j * f2
        zf = frame(fc, "Z")
        g = (zf * zf.conj()).real()
        lap_g = jlap(g)
        gx, gy = frame(g, "X"), frame(g, "Y")
        cleared = (g * lap_g - gx * gx - gy * gy).value.real
        return _gradient_columns(g.value.real, lap_g.value.real, cleared,
                                 jlap((fc * fc.conj()).real()).value.real,
                                 jlap((f1 * f1 + f2 * f2).real()).value.real,
                                 _geom(f1, f2, f3), tol)
    return _sign_scan(region, label or "gradient-scan", tol, _GRADIENT_CLAIMS, route,
                      _JET_CHUNK)


# h1 is the mixed-gradient gate of superharmonicity; the log claim is void
# where the Jacobian vanishes too
_JACOBIAN_CLAIMS = (
    ("lap_jf", "nonpos", lambda c, tol: c["h1"] <= tol),
    ("cleared_log_jf", "nonpos", lambda c, tol: (c["h1"] <= tol) & ~c["singular"]),
)


def contact_jacobian_scan(m: HeisMap, region, tol: float = SCAN_TOL) -> SignReport:
    """Sign scan of lap J and the cleared lap log J for a contact harmonic map,
    gated on the mixed-gradient condition for superharmonicity."""

    def route(p):
        j1, j2, j3 = m.jets(p, 3)   # lap J
        jac = lambda_jet(j1, j2, j3).real()
        tf1, tf2 = frame(j1, "T"), frame(j2, "T")
        # h1 gate: grad f1 . grad T f2 <= grad f2 . grad T f1
        h1 = ((frame(j1, "X") * frame(tf2, "X") + frame(j1, "Y") * frame(tf2, "Y"))
              - (frame(j2, "X") * frame(tf1, "X")
                 + frame(j2, "Y") * frame(tf1, "Y"))).value.real
        lap_j = jlap(jac)
        xj, yj = frame(jac, "X"), frame(jac, "Y")
        cleared = (jac * lap_j - xj * xj - yj * yj).value.real
        return {"singular": jac.value.real <= tol, "lap_jf": lap_j.value.real,
                "cleared_log_jf": cleared, "h1": h1}
    return _sign_scan(region, "contact-jacobian-scan", tol, _JACOBIAN_CLAIMS, route,
                      _JET_CHUNK)


# --- growth ingredients ----------------------------------------------------------


@dataclass
class GrowthRow:
    r: float
    curve_point: tuple
    n_err: float            # |N(gamma(r,p)) - r N(p)|
    horiz_resid: float      # contact form on the curve velocity
    j_f: float
    t2u: float
    geom: float
    contact_ok: bool
    gate_ok: bool           # contact_ok and geom >= 0
    bound_gap: float        # j_f - t2u; claim is <= 0 where gate_ok

    @property
    def bound_ok(self) -> bool:
        return not self.gate_ok or self.bound_gap <= 1e-10


@dataclass
class GrowthReport:
    point: tuple
    alpha: float
    rows: list
    pf_norm: float | None           # sup |Pf| (1 - N^4)^alpha over the sample
    pf_skipped: int                 # sample points where the Jacobian was <= 0

    @property
    def max_n_err(self) -> float:
        return max((row.n_err for row in self.rows), default=0.0)

    @property
    def max_horiz_resid(self) -> float:
        return max((row.horiz_resid for row in self.rows), default=0.0)

    @property
    def gated_rows(self) -> int:
        return sum(1 for row in self.rows if row.gate_ok)

    @property
    def bound_violations(self) -> int:
        return sum(1 for row in self.rows if not row.bound_ok)

    def ok(self) -> bool:
        return (self.max_n_err <= 1e-9 and self.max_horiz_resid <= 1e-8
                and self.bound_violations == 0)


def _curve_velocity(r: float, p) -> tuple:
    """d/dr of the radial curve, exact: zeta' = (1 - i t/|z|^2) zeta / r."""
    q = radial_curve(r, p)
    x0, y0, t0 = p
    beta = t0 / (x0 * x0 + y0 * y0)
    zdot = (1.0 - 1j * beta) * complex(q[0], q[1]) / r
    return zdot.real, zdot.imag, 2.0 * r * t0


def growth_ingredients(u, p, alpha: float = 1.0, radii=None,
                       sample_points=None) -> GrowthReport:
    """Everything the radial-curve growth estimate consumes, measured.

    For each radius: the dilation consistency of the curve, horizontality of
    its velocity, and the Jacobian-versus-T^2 u comparison gated on the
    contact equations holding and the level-set term being nonnegative.
    """
    if alpha < 1.0:
        raise DomainError("the weight exponent must be at least 1")
    if radii is None:
        radii = [0.1 + 0.8 * i / 9.0 for i in range(10)]
    e = potential_expr(u)
    grad = _gradient_map(e)
    n_p = koranyi_norm(p)
    rows = []
    for r in radii:
        q = radial_curve(r, p)
        n_err = abs(koranyi_norm(q) - r * n_p)
        vx, vy, vt = _curve_velocity(r, p)
        horiz = abs(vt - 2.0 * q[1] * vx + 2.0 * q[0] * vy)
        a = assess_contact(grad, q)
        j = jet_eval(e, q, 2)   # T^2 u
        t2u = word_jet("TT", j).value.real
        geom = _geom(frame(j, "X"), frame(j, "Y"), frame(j, "T"))
        contact_ok = a.max_contact_residual() <= 1e-8 * (1.0 + abs(j.value))
        gate = contact_ok and geom >= -1e-12
        jac = a.lam.real
        rows.append(GrowthRow(r=r, curve_point=tuple(q), n_err=n_err,
                              horiz_resid=horiz, j_f=jac, t2u=t2u, geom=geom,
                              contact_ok=contact_ok, gate_ok=gate,
                              bound_gap=jac - t2u))
    pf_norm = None
    skipped = 0
    if sample_points:
        best = 0.0
        seen = False
        for sp in sample_points:
            n4 = koranyi_norm(sp) ** 4
            if n4 >= 1.0:
                raise DomainError(f"sample point {tuple(sp)} lies outside the unit ball")
            try:
                pf = preschwarzian(grad, sp)
            except NotPositive:
                skipped += 1
                continue
            best = max(best, abs(pf) * (1.0 - n4) ** alpha)
            seen = True
        pf_norm = best if seen else None
    return GrowthReport(point=tuple(p), alpha=alpha, rows=rows,
                        pf_norm=pf_norm, pf_skipped=skipped)
