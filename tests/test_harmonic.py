"""Gradient maps of harmonic potentials: system identities, Hessian
determinants, Bochner constant, sign scans, growth ingredients."""
import random
from fractions import Fraction

import pytest

from heiscalc import harmonic as hm
from heiscalc.errors import DomainError, NotHarmonic
from heiscalc.exact import QQi, RatPoly
from heiscalc.group import Point, make_type1, word_to_map

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
    from heiscalc.horizontal import sym_x, sym_y, sym_t
    e = ex.parse_expr("x^3")
    m = HeisMap(sym_x(e), sym_y(e), sym_t(e), "grad-x3")
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
