"""Gradient maps of harmonic potentials: system identities, Hessian
determinants, Bochner constant, sign scans, growth ingredients."""
import random
from fractions import Fraction

import numpy as np
import pytest

from heiscalc import harmonic as hm
from heiscalc.errors import DomainError, NotHarmonic
from heiscalc.exact import QQi, RatPoly
from heiscalc.expr import jet_eval, parse_expr
from heiscalc.group import HeisMap, Point, make_type1, word_to_map
from heiscalc.horizontal import frame, jlap, lambda_jet

USTAR = "t^2 - 2/3*(x^4 + y^4)"
FIVE = ("x", "x*y", "x^2 - y^2", "t", USTAR)


def test_harmonic_poly_basis_dims():
    # the basis determine_kappa fits over: dim (d+1)(d+2)/2, each element accepted
    for d in range(1, 6):
        basis = hm.harmonic_nullspace(d)
        assert len(basis) == (d + 1) * (d + 2) // 2
        for u in basis:
            hm.gradient_harmonic(u)


def test_gradient_harmonic_rejects_nonharmonic():
    with pytest.raises(NotHarmonic):
        hm.gradient_harmonic("x^2")
    with pytest.raises(NotHarmonic):
        hm.gradient_harmonic("x^2 + y^2 + t")


def test_gradient_map_components():
    m = hm.gradient_harmonic("x*y")
    p = (0.7, -0.4, 0.3)
    # (Xu, Yu, Tu) = (y, x, 0)
    assert tuple(m(p)) == pytest.approx((-0.4, 0.7, 0.0))


def test_system_residuals_vanish():
    rng = random.Random(51)
    for u in FIVE:
        m = hm.gradient_harmonic(u)
        for _ in range(4):
            p = Point(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                      rng.uniform(-1.5, 1.5))
            res = hm.harmonic_system_residuals(m, p)
            assert max(map(abs, res)) < 1e-9, (u, tuple(p))


def test_system_residuals_catch_wrong_map():
    # the first residual picks up X(lap u), nonzero for the non-harmonic x^3
    from heiscalc import expr as ex
    from heiscalc.group import HeisMap
    from heiscalc.horizontal import sym_x, sym_y
    e = ex.parse_expr("x^3")
    m = HeisMap(sym_x(e), sym_y(e), ex.diff(e, 2), "grad-x3")
    res = hm.harmonic_system_residuals(m, (0.5, 0.3, 0.2))
    assert max(map(abs, res)) > 1e-6


def test_hessian_report_pinned():
    # u = xy: X^2u = 0, XYu = YXu = 1, Y^2u = 0, Tu = 0
    rep = hm.hessian_report("x*y", (0.7, -0.4, 0.3))
    assert rep.det_hess == pytest.approx(-1.0, rel=1e-12)
    assert rep.j_f == pytest.approx(rep.det_hess, rel=1e-12)
    assert rep.gap == pytest.approx(0.0, abs=1e-13)
    assert rep.det_hess_sym == pytest.approx(-1.0, rel=1e-12)


def test_hessian_gap_is_vertical_square():
    # gap = det_hess - det_hess_sym = 4 (Tu)^2; u* has Tu = 2t
    p = (0.5, -0.2, 0.7)
    rep = hm.hessian_report(USTAR, p)
    assert rep.gap == pytest.approx(4.0 * (2.0 * p[2]) ** 2, rel=1e-10)
    assert rep.j_f == pytest.approx(rep.det_hess, rel=1e-10)


def test_bochner_constant():
    assert hm.determine_kappa(4) == QQi(8)
    p = (0.6, 0.4, -0.3)
    assert abs(hm.bochner_residual(USTAR, p, kappa=8.0)) < 1e-10
    assert abs(hm.bochner_residual(USTAR, p, kappa=0.5)) > 1e-3


def test_geom_term_value():
    # u = t: grad = (2y, -2x, 1); geom = Xu YTu - Yu XTu with Tu = 1 is 0
    assert hm.geom_term("t", (0.4, 0.3, 0.2)) == pytest.approx(0.0, abs=1e-12)


def test_scan_five_functions_clean():
    region = ((-1.0, 1.0, 7), (-1.0, 1.0, 7), (-1.0, 1.0, 5))
    for u in FIVE:
        rep = hm.subharmonicity_scan(u, region)
        assert rep.ok(), u
        for c in rep.checks:
            assert c.n_points == 7 * 7 * 5


def test_scan_singular_accounting():
    # gradient of u* degenerates exactly on the t = 0 plane
    rep = hm.subharmonicity_scan(USTAR, ((-1, 1, 7), (-1, 1, 7), (-1, 1, 5)))
    assert rep.singular_count == 49
    # linear u has a constant horizontal gradient: singular everywhere
    rep2 = hm.subharmonicity_scan("x", ((-1, 1, 3), (-1, 1, 3), (-1, 1, 3)))
    assert rep2.singular_count == 27


def test_scan_transcendental_falls_back_to_jets():
    # exp(x) cos(y) is harmonic but not polynomial
    rep = hm.subharmonicity_scan("exp(x)*cos(y)", ((-0.5, 0.5, 3), (-0.5, 0.5, 3),
                                                   (-0.5, 0.5, 3)))
    assert rep.ok()


# --- the chunked jet-path scans against a per-point loop --------------------------

JET_U = "exp(x)*cos(y) + t^2 - 2/3*(x^4 + y^4)"
# 9 x 8 x 5 = 360 points: several chunks and a short last one; t = 0 is on the grid
CROSSING = ((-1.0, 1.0, 9), (-0.5, 1.25, 8), (-0.5, 0.5, 5))


def _per_point_stats(names, region, quantities, tol):
    """CheckStat fields and the report's columns from a plain loop over grid
    points: quantities(p) gives (singular, ((value, gate_ok), ...), extra)
    at one point, extra a dict of further columns."""
    stats = {n: dict(n_points=0, n_gated=0, n_violations=0, worst=0.0, examples=[])
             for n, _ in names}
    columns = {}
    for p in map(tuple, hm._grid_array(region).tolist()):
        sing, vals, extra = quantities(p)
        row = {"singular": sing, **{n: v for (n, _), (v, _) in zip(names, vals)}, **extra}
        for k, v in row.items():
            columns.setdefault(k, []).append(v)
        for (name, expect), (val, gate_ok) in zip(names, vals):
            st = stats[name]
            st["n_points"] += 1
            if not gate_ok:
                continue
            st["n_gated"] += 1
            margin = val if expect == "nonneg" else -val
            if margin < -tol:
                st["n_violations"] += 1
                st["worst"] = min(st["worst"], margin)
                if len(st["examples"]) < 5:
                    st["examples"].append((p, val))
    return stats, columns


def _assert_same(rep, stats, columns):
    assert rep.singular_count == sum(columns["singular"])
    for c in rep.checks:
        want = stats[c.name]
        assert (c.n_points, c.n_gated, c.n_violations) == (
            want["n_points"], want["n_gated"], want["n_violations"]), c.name
        assert c.worst == pytest.approx(want["worst"], rel=1e-12, abs=1e-12)
        assert [p for p, _ in c.examples] == [p for p, _ in want["examples"]]
        assert [v for _, v in c.examples] == pytest.approx(
            [v for _, v in want["examples"]], rel=1e-12, abs=1e-12)
    assert sorted(rep.columns) == sorted(columns)
    for name, col in rep.columns.items():
        if col.dtype == bool:
            assert col.tolist() == columns[name], name
        else:
            assert col.tolist() == pytest.approx(columns[name], rel=1e-12, abs=1e-12), name


def _gradient_quantities(e, tol):
    def at(p):
        j = jet_eval(e, p, 5)
        f1, f2, f3 = frame(j, "X"), frame(j, "Y"), frame(j, "T")
        fc = f1 + 1j * f2
        zf = frame(fc, "Z")
        g = (zf * zf.conj()).real()
        gval = g.value.real
        geomv = (f1.value * frame(f3, "Y").value - f2.value * frame(f3, "X").value).real
        cleared = (g * jlap(g) - frame(g, "X") * frame(g, "X")
                   - frame(g, "Y") * frame(g, "Y")).value.real
        return gval <= tol, (
            (jlap(g).value.real, True),
            (cleared, gval > tol),
            (jlap((fc * fc.conj()).real()).value.real, geomv >= -tol),
            (jlap((f1 * f1 + f2 * f2).real()).value.real, geomv >= -tol)), {"geom": geomv}
    return at


def _jacobian_quantities(m, tol):
    def at(p):
        j1, j2, j3 = m.jets(p, 5)
        jac = lambda_jet(j1, j2, j3).real()
        jval = jac.value.real
        tf1, tf2 = frame(j1, "T"), frame(j2, "T")
        h1 = ((frame(j1, "X") * frame(tf2, "X") + frame(j1, "Y") * frame(tf2, "Y"))
              - (frame(j2, "X") * frame(tf1, "X")
                 + frame(j2, "Y") * frame(tf1, "Y"))).value.real
        cleared = (jac * jlap(jac) - frame(jac, "X") * frame(jac, "X")
                   - frame(jac, "Y") * frame(jac, "Y")).value.real
        return jval <= tol, ((jlap(jac).value.real, h1 <= tol),
                             (cleared, h1 <= tol and jval > tol)), {"h1": h1}
    return at


# JET_U is harmonic and singular on t = 0; the other two fail the claims at
# many points, which gives worst and the examples real content
@pytest.mark.parametrize("u", [JET_U, "exp(x)*sin(y)*t + y^3"])
def test_jet_scan_matches_per_point_loop(u):
    names = (("lap_abs_zf2", "nonneg"), ("cleared_log_abs_zf2", "nonpos"),
             ("lap_abs_f2", "nonneg"), ("lap_grad_u2", "nonneg"))
    tol = 1e-10
    rep = hm._scan_jets(u, CROSSING, None, tol, None)
    stats, columns = _per_point_stats(
        names, CROSSING, _gradient_quantities(parse_expr(u), tol), tol)
    _assert_same(rep, stats, columns)
    assert rep.singular_count > 0
    assert rep.ok() == (u == JET_U)


@pytest.mark.parametrize("m", [
    hm.gradient_harmonic(JET_U),
    HeisMap(parse_expr("x + y^2*t"), parse_expr("y - x*t + exp(x)"), parse_expr("t + x^3*y")),
])
def test_contact_jacobian_scan_matches_per_point_loop(m):
    names = (("lap_jf", "nonpos"), ("cleared_log_jf", "nonpos"))
    tol = 1e-10
    rep = hm.contact_jacobian_scan(m, CROSSING, tol=tol)
    stats, columns = _per_point_stats(names, CROSSING, _jacobian_quantities(m, tol), tol)
    _assert_same(rep, stats, columns)
    assert rep.singular_count > 0


def test_polynomial_and_jet_routes_agree():
    # the exact-kernel route and the jet route, each on its own, over one grid
    poly = hm.subharmonicity_scan(USTAR, CROSSING)
    jets = hm._scan_jets(USTAR, CROSSING, None, 1e-10, None)
    assert poly.singular_count == jets.singular_count > 0
    for a, b in zip(poly.checks, jets.checks):
        assert (a.name, a.n_points, a.n_gated, a.n_violations) == (
            b.name, b.n_points, b.n_gated, b.n_violations)
    assert poly.points.tobytes() == jets.points.tobytes()
    assert sorted(poly.columns) == sorted(jets.columns)
    for name, col in poly.columns.items():
        if col.dtype == bool:
            assert np.array_equal(col, jets.columns[name]), name
        else:
            np.testing.assert_allclose(jets.columns[name], col, rtol=1e-12, atol=0, err_msg=name)


# 13 x 11 x 9 = 1287 points: more than one polynomial-route chunk, a multiple
# of neither chunk size, and t = 0 is on the grid
WIDE = ((-1.2, 1.2, 13), (-1.0, 0.9, 11), (-0.8, 0.8, 9))


# u* is clean and singular on t = 0; a harmonic polynomial with complex
# coefficients lies outside the claims and fails them at many points, which
# gives worst and the examples real content
@pytest.mark.parametrize("u, clean", [
    (USTAR, True),
    (RatPoly({(1, 0, 0): QQi(0, -1), (0, 2, 1): -1, (1, 3, 0): Fraction(-8, 3),
              (2, 0, 1): 1}), False),
])
def test_polynomial_scan_is_bitwise_a_per_point_loop(u, clean):
    tol = 1e-10
    rep = hm.subharmonicity_scan(u, WIDE, tol=tol)
    quantities = hm._grad_quantities_poly(hm._try_poly(u))
    points = hm._grid_array(WIDE)
    assert len(points) == 1287
    checks = [hm.CheckStat(name=n, expect=e) for n, e in hm._GRADIENT_CLAIMS]
    columns = {"singular": [], **{c.name: [] for c in checks}, "geom": []}
    for p in points:
        singular, pairs, extra = hm._gradient_claims(
            *(q.eval(tuple(p)).real for q in quantities), tol)
        for stat, (val, gate_ok) in zip(checks, pairs):
            stat.record(p[None], [val], gate_ok, tol)
        columns["singular"].append(singular)
        for stat, (val, _) in zip(checks, pairs):
            columns[stat.name].append(val)
        columns["geom"].append(extra["geom"])
    assert sorted(rep.columns) == sorted(columns)
    for name, col in columns.items():
        assert rep.columns[name].tobytes() == np.array(col).tobytes(), name
    assert rep.singular_count == sum(columns["singular"]) > 0
    # dataclass equality compares every field exactly, worst and examples included
    assert rep.checks == checks
    assert rep.ok() == clean


def test_contact_jacobian_scan_on_isometry():
    m = word_to_map(make_type1((0.2, -0.1, 0.3), 0.6, 1.2, (0.0, 0.1, 0.0)))
    rep = hm.contact_jacobian_scan(m, ((-0.8, 0.8, 4), (-0.8, 0.8, 4), (-0.8, 0.8, 3)))
    assert rep.ok()


def test_growth_affine_equality():
    # affine potential: J_F = T^2 u = 0, bound holds with equality at every radius
    rep = hm.growth_ingredients("x", (0.5, 0.4, 0.3))
    assert rep.max_n_err < 1e-9
    assert rep.max_horiz_resid < 1e-8
    assert rep.gated_rows == len(rep.rows) == 10
    assert rep.bound_violations == 0
    for row in rep.rows:
        assert row.bound_gap == pytest.approx(0.0, abs=1e-12)
    assert rep.ok()


def test_growth_quartic_gate_is_honest():
    # u*'s gradient map is not contact, so the bound is vacuous, not violated
    rep = hm.growth_ingredients(USTAR, (0.5, 0.4, 0.3))
    assert rep.max_n_err < 1e-9
    assert rep.max_horiz_resid < 1e-8
    assert rep.gated_rows == 0
    assert rep.bound_violations == 0
    assert rep.ok()


def test_growth_pf_norm_skips_nonpositive_jacobian():
    pts = [(0.2, 0.1, 0.05), (0.3, -0.2, 0.1), (0.05, 0.05, 0.0)]
    rep = hm.growth_ingredients(USTAR, (0.5, 0.4, 0.3), sample_points=pts)
    assert rep.pf_skipped >= 1  # the t = 0 sample degenerates
    if rep.pf_norm is not None:
        assert rep.pf_norm >= 0.0


def test_growth_domain_errors():
    with pytest.raises(DomainError):
        hm.growth_ingredients("x", (0.5, 0.4, 0.3), alpha=0.5)
    with pytest.raises(DomainError):
        hm.growth_ingredients("x", (0.5, 0.4, 0.3),
                              sample_points=[(2.0, 0.0, 0.0)])


def test_poly_inputs_accepted():
    u = RatPoly({(0, 0, 2): 1, (4, 0, 0): Fraction(-2, 3), (0, 4, 0): Fraction(-2, 3)})
    rep = hm.hessian_report(u, (0.4, 0.2, 0.6))
    assert rep.j_f == pytest.approx(rep.det_hess, rel=1e-10)
