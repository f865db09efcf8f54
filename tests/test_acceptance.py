"""Acceptance battery: twelve gates, one test function per gate.

Sizes, seeds, and tolerances are frozen here. Run with -v; each function's
verdict line is the pass/fail record for its criterion, and the printed
summary carries the measured margins.
"""
import math
import random
import time
from fractions import Fraction

from heiscalc import exact, fields, harmonic
from heiscalc import expr as ex
from heiscalc import schwarzian as sw
from heiscalc.errors import HeisError
from heiscalc.exact import RatPoly, ratpoly_from_expr
from heiscalc.expr import jet_eval, parse_expr
from heiscalc.group import (Invert, LinearSL2, Point, Translate, dilate_point,
                            koranyi_norm, make_type1, make_type2, random_word,
                            word_to_map)
from heiscalc.horizontal import frame, word_jet
from heiscalc.ledger import ledger_run

STRETCH = word_to_map([Invert(), LinearSL2(2.0, 0.0, 0.0, 0.5)])
USTAR = "t^2 - 2/3*(x^4 + y^4)"


def _good_point(m, rng, lo=0.1, hi=3.0, img=40.0):
    """Sample a point in the Koranyi shell [lo, hi] where m is finite and
    its image stays away from the inversion pole."""
    for _ in range(300):
        p = Point(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                  rng.uniform(-3.0, 3.0))
        if not lo <= koranyi_norm(p) <= hi:
            continue
        try:
            q = m(p)
        except HeisError:
            continue
        if not 1e-3 <= koranyi_norm(q) <= img:
            continue
        return p
    raise AssertionError(f"point sampling starved for {m.name}")


def _rand_shift(rng):
    return (rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2),
            rng.uniform(-1.2, 1.2))


def _conformal_word(rng, i):
    if i % 3 == 0:
        return make_type1(_rand_shift(rng), rng.uniform(0.0, 2.0 * math.pi),
                          rng.uniform(0.4, 2.2), _rand_shift(rng))
    if i % 3 == 1:
        return make_type2(_rand_shift(rng), rng.uniform(0.0, 2.0 * math.pi),
                          rng.uniform(0.4, 2.2), _rand_shift(rng))
    return random_word(rng, length=rng.randint(2, 5))


def test_criterion_01_conformal_words_kill_both_schwarzians():
    rng = random.Random(101)
    worst_cr = worst_cl = 0.0
    for i in range(200):
        m = word_to_map(_conformal_word(rng, i))
        p = _good_point(m, rng)
        worst_cr = max(worst_cr, abs(sw.s_cr(m, p)))
        worst_cl = max(worst_cl, abs(sw.s_cl(m, p)))
    print(f"criterion 01: 200 conformal words, worst |S_CR| {worst_cr:.2e}, "
          f"worst |S_CL| {worst_cl:.2e} (tol 1e-8)")
    assert worst_cr <= 1e-8
    assert worst_cl <= 1e-8


def test_criterion_02_quadratic_flows_have_zero_classical_schwarzian():
    xs = [-1.5 + 3.0 * i / 9.0 for i in range(10)]
    ts = [-2.0 + k for k in range(5)]
    worst = 0.0
    for h_str, s in (("0.7*x^2 - 0.3*x + 0.2", 0.9), ("-0.4*x^2 + 1.1*x", -1.3)):
        m = fields.flow_closed_form(h_str, s)
        for x in xs:
            for y in xs:
                for t in ts:
                    worst = max(worst, abs(sw.s_cl(m, (x, y, t))))
    print(f"criterion 02: two quadratic flows on a 10x10x5 grid, "
          f"worst |S_CL| {worst:.2e} (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_03_exp_flow_derivative_and_form_arbitration():
    # required: the O(s) coefficient is -(i/8) e^x, by two independent routes
    worst_d = 0.0
    for i in range(20):
        x = -1.0 + 2.0 * i / 19.0
        want = -0.125j * math.exp(x)
        jet_route = fields.scl_flow_derivative("exp(x)", (x, 0.4, -0.7))
        eps = 1e-5
        fd = (fields.scl_exp_flow(x, eps) - fields.scl_exp_flow(x, -eps)) / (2.0 * eps)
        worst_d = max(worst_d, abs(jet_route - want), abs(fd - want))
    assert worst_d <= 1e-6

    # arbitration grid: derived closed form against the reference display
    max_diff = 0.0
    for i in range(21):
        x = -1.0 + 2.0 * i / 20.0
        for k in range(21):
            s = 2.0 * (k + 1) / 21.0
            max_diff = max(max_diff, abs(fields.scl_exp_flow(x, s)
                                         - fields.scl_exp_flow_reference(x, s)))
    small_s = max(abs(fields.scl_exp_flow(-1.0 + 2.0 * i / 20.0, 1e-3)
                      - fields.scl_exp_flow_reference(-1.0 + 2.0 * i / 20.0, 1e-3))
                  for i in range(21))
    # jets of the actual flow map decide which form is the map's Schwarzian
    jet_gap = 0.0
    for x, s in ((0.0, 1.0), (0.5, 0.8), (-0.4, 1.7)):
        m = fields.flow_closed_form("exp(x)", s)
        jet_gap = max(jet_gap, abs(sw.s_cl(m, (x, 0.3, 0.1))
                                   - fields.scl_exp_flow(x, s)))
    verdict = ("forms disagree beyond O(s), derived form kept"
               if max_diff > 1e-8 else "forms agree")
    print(f"criterion 03: O(s) worst {worst_d:.2e} (tol 1e-6); grid max "
          f"|derived - reference| {max_diff:.2e}, {small_s:.2e} at s=1e-3, "
          f"jets side with derived to {jet_gap:.2e}; verdict: {verdict}")
    assert jet_gap <= 1e-9
    # recorded verdict: the reference display is not the jets' Schwarzian
    assert max_diff > 1e-3
    assert small_s <= 1e-5


def test_criterion_04_chain_rule_collapse_laws_and_composite_value():
    rng = random.Random(404)
    worst_chain = worst_right = worst_inner = 0.0
    n = 0
    while n < 100:
        f = STRETCH.compose(word_to_map(random_word(rng, length=2,
                                                    allow_invert=False)))
        g = word_to_map(_conformal_word(rng, n))
        fg = f.compose(g)
        p = _good_point(fg, rng, lo=0.15)
        try:
            worst_chain = max(worst_chain, abs(sw.cr_chain_residual(f, g, p)))
            worst_right = max(worst_right, abs(sw.cocycle_residual_right(f, g, p)))
            jg = g.jets(p, 4)
            zg = frame(jg[0] + 1j * jg[1], "Z").value
            collapse = sw.s_cr(fg, p) - sw.s_cr(f, g(p)) * zg * zg
            worst_inner = max(worst_inner, abs(collapse))
        except HeisError:
            continue
        n += 1

    # isometry-and-dilation outer factors drop out of S_CR entirely
    worst_outer = 0.0
    n = 0
    while n < 20:
        w = word_to_map(make_type1(_rand_shift(rng), rng.uniform(0, 2 * math.pi),
                                   rng.uniform(0.5, 2.0), _rand_shift(rng)))
        f = STRETCH.compose(word_to_map(random_word(rng, length=2,
                                                    allow_invert=False)))
        p = _good_point(w.compose(f), rng, lo=0.15)
        try:
            worst_outer = max(worst_outer, abs(sw.s_cr(w.compose(f), p)
                                               - sw.s_cr(f, p)))
        except HeisError:
            continue
        n += 1

    # composite value: inversion after a linear stretch, first-order data only
    worst_cv = 0.0
    n = 0
    while n < 50:
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(-0.8, 0.8)
        c = rng.uniform(-0.8, 0.8)
        d = (1.0 + b * c) / a
        comp = word_to_map([Invert(), LinearSL2(a, b, c, d)])
        p = Point(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                  rng.uniform(-2.0, 2.0))
        gv = complex(a * p.x + b * p.y, c * p.x + d * p.y)
        n4 = abs(gv) ** 4 + p.t ** 2
        if abs(gv) < 0.3 or n4 < 0.05:
            continue
        zg = 0.5 * complex(a + d, c - b)
        zbg = 0.5 * complex(a - d, c + b)
        want = -6.0 * (abs(gv) ** 2 / n4) * zg * zbg.conjugate()
        worst_cv = max(worst_cv, abs(sw.s_cr(comp, p) - want))
        n += 1
    pinned = sw.s_cr(STRETCH, (1.0, 1.0, 0.0))
    assert abs(pinned - float(Fraction(-45, 34))) <= 1e-12

    print(f"criterion 04: 100 pairs, chain {worst_chain:.2e}, right cocycle "
          f"{worst_right:.2e}, inner collapse {worst_inner:.2e}, outer "
          f"invariance {worst_outer:.2e}; composite value at 50 points "
          f"{worst_cv:.2e} (tol 1e-8)")
    assert worst_chain <= 1e-8
    assert worst_right <= 1e-8
    assert worst_inner <= 1e-8
    assert worst_outer <= 1e-8
    assert worst_cv <= 1e-8


def test_criterion_05_left_composition_law():
    rng = random.Random(505)
    worst_t1 = 0.0
    n = 0
    while n < 20:
        g = word_to_map(make_type1(_rand_shift(rng), rng.uniform(0, 2 * math.pi),
                                   rng.uniform(0.5, 2.0), _rand_shift(rng)))
        f = STRETCH.compose(word_to_map([Translate(_rand_shift(rng))]))
        p = _good_point(g.compose(f), rng, lo=0.15)
        try:
            worst_t1 = max(worst_t1, abs(sw.cocycle_residual_left(g, f, p)))
        except HeisError:
            continue
        n += 1

    g_inv = word_to_map([Invert()])
    f0 = STRETCH.compose(word_to_map([Translate((0.2, 0.1, -0.4))]))
    p0 = Point(0.7, 0.9, 0.5)
    corrected = abs(sw.cocycle_residual_left(g_inv, f0, p0))
    plain = abs(sw.s_cl(g_inv.compose(f0), p0) - sw.s_cl(f0, p0))
    rejected = abs(sw.cocycle_residual_left(g_inv, f0, p0, middle_coeff=-2.0))
    print(f"criterion 05: type-1 outer worst {worst_t1:.2e} (tol 1e-8); "
          f"inversion outer corrected {corrected:.2e}, naive invariance gap "
          f"{plain:.2e}, coefficient -2 leaves {rejected:.2e}")
    assert worst_t1 <= 1e-8
    assert corrected <= 1e-8
    assert plain > 1e-3
    assert rejected > 1e-2


def test_criterion_06_kernel_dimensions_and_operator_identities():
    t0 = time.perf_counter()
    dims = {d: exact.vzerosol_nullspace(d)[0] for d in (4, 5, 6, 7)}
    ids = exact.appendix_identities(6)
    dt = time.perf_counter() - t0
    assert dims == {4: 8, 5: 8, 6: 8, 7: 8}
    assert len(ids) == 13
    assert all(ok for _, _, ok in ids)
    assert dt < 60.0
    print(f"criterion 06: kernel dimension 8 at weighted degree 4..7, "
          f"13/13 exact identities, {dt:.2f}s (limit 60s)")


def test_criterion_07_pushforward_potentials_stay_conformal():
    rng = random.Random(707)
    worst = 0.0
    n = 0
    while n < 50:
        m = word_to_map(random_word(rng, length=rng.randint(2, 4)))
        p = _good_point(m, rng, lo=0.3, hi=2.5, img=20.0)
        try:
            vals = [abs(word_jet("ZZ", fields.pushforward_w0(m, case, p)).value)
                    for case in (4, 5, 6, 8)]
        except HeisError:
            continue
        worst = max(worst, *vals)
        n += 1
    print(f"criterion 07: 50 words x cases (4,5,6,8), worst |Z^2 w0| "
          f"{worst:.2e} (tol 1e-8)")
    assert worst <= 1e-8


EXPECTED_LEDGER = {
    "system-constant": (True, "8"),
    "bilaplace-constant": (True, "-64"),
    "bochner-kappa": (False, "8"),
    "lap-log-jacobian-constant": (False, "4"),
    "sublaplacian-prefactor": (False, "2"),
    "exp-flow-closed-form": (False, "derived form"),
    "cr-sign-family": (False, "tensor = 2 S, reciprocal = -S"),
    "left-cocycle-middle-coefficient": (False, "-1"),
    "pf-gradient-norm": (False, "|Pf| = (1/2) |grad_H ln J|"),
    "vertical-jacobian-sign": (False, "T^2 u + 2 (Xu TYu - Yu TXu)"),
}


def test_criterion_08_arbitration_ledger_verdicts_reproduce():
    entries = {e.key: e for e in ledger_run()}
    assert set(entries) == set(EXPECTED_LEDGER)
    for key, (agrees, fitted) in EXPECTED_LEDGER.items():
        e = entries[key]
        assert e.agrees is agrees, e.line()
        assert e.fitted == fitted, e.line()
        assert e.holds is True, e.line()
    n_agree = sum(1 for a, _ in EXPECTED_LEDGER.values() if a)
    print(f"criterion 08: {len(EXPECTED_LEDGER)} ledger entries reproduce "
          f"their recorded verdicts ({n_agree} agree, "
          f"{len(EXPECTED_LEDGER) - n_agree} mismatches held)")


FIVE_POTENTIALS = ("x", "x*y", "x^2 - y^2", "t", USTAR)
# ZF vanishes identically for the first three, nowhere for t, on t = 0 for u*
EXPECTED_SINGULAR = {"x": 9261, "x*y": 9261, "x^2 - y^2": 9261, "t": 0,
                     USTAR: 441}


def test_criterion_09_sign_scans_clean_on_dense_grids():
    region = ((-2.0, 2.0, 21), (-2.0, 2.0, 21), (-2.0, 2.0, 21))
    t0 = time.perf_counter()
    for u in FIVE_POTENTIALS:
        rep = harmonic.subharmonicity_scan(u, region, label=u)
        assert rep.ok(), (u, rep.to_dict())
        assert all(c.n_violations == 0 for c in rep.checks), u
        assert rep.singular_count == EXPECTED_SINGULAR[u], u
    dt = time.perf_counter() - t0
    print(f"criterion 09: five potentials on 21^3 grids, zero sign "
          f"violations, singular structure as expected, {dt:.2f}s")


def test_criterion_10_radial_growth_and_gated_jacobian_bound():
    rng = random.Random(1010)
    pts = []
    while len(pts) < 20:
        p = Point(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        n = koranyi_norm(p)
        if n < 0.2 or math.hypot(p.x, p.y) < 0.2:
            continue
        pts.append(dilate_point(1.0 / n, p))
    assert all(abs(koranyi_norm(q) - 1.0) <= 1e-12 for q in pts)

    worst_n = worst_h = 0.0
    gated = {}
    for u in ("x", USTAR):
        gated[u] = 0
        for q in pts:
            rep = harmonic.growth_ingredients(u, q)
            worst_n = max(worst_n, rep.max_n_err)
            worst_h = max(worst_h, rep.max_horiz_resid)
            assert rep.bound_violations == 0, (u, tuple(q))
            gated[u] += rep.gated_rows
    print(f"criterion 10: 20 sphere points, curve norm error {worst_n:.2e} "
          f"(tol 1e-9), horizontality {worst_h:.2e} (tol 1e-8); gated rows "
          f"affine {gated['x']}, quartic {gated[USTAR]}, zero bound violations")
    assert worst_n <= 1e-9
    assert worst_h <= 1e-8
    assert gated["x"] > 0


def _fd_frame(fn, word, p, h=2e-3):
    """Centred differences along the frame directions, recursively."""
    if not word:
        return fn(p)
    letter, rest = word[0], word[1:]
    x, y, t = p
    if letter == "X":
        pa, pb = (x + h, y, t + 2 * y * h), (x - h, y, t - 2 * y * h)
    elif letter == "Y":
        pa, pb = (x, y + h, t - 2 * x * h), (x, y - h, t + 2 * x * h)
    else:
        pa, pb = (x, y, t + h), (x, y, t - h)
    return (_fd_frame(fn, rest, pa, h) - _fd_frame(fn, rest, pb, h)) / (2.0 * h)


def _fd_richardson(fn, word, p, h=2e-3):
    """One Richardson step on the centred differences; error drops to O(h^4)."""
    return (4.0 * _fd_frame(fn, word, p, 0.5 * h) - _fd_frame(fn, word, p, h)) / 3.0


def test_criterion_11_numerical_backbone_accuracy():
    pts = [(0.3, -0.2, 0.7), (1.1, 0.4, -0.6)]

    worst_fd = 0.0
    for src in ("exp(x)*sin(y) + t^2*x", "log(4 + x^2 + y^2) + t*y"):
        e = parse_expr(src)
        fn = lambda q, e=e: ex.eval_at(e, q).real
        for p in pts:
            for word in ("X", "Y", "T", "XX", "XY", "YY", "XT"):
                jet = word_jet(word, jet_eval(e, p, len(word) + 1)).value.real
                fd = _fd_richardson(fn, word, p)
                worst_fd = max(worst_fd, abs(jet - fd) / (1.0 + abs(jet)))
    assert worst_fd <= 1e-6

    poly_src = "t^2 + x^2*y - x*t + y^3"
    rp = ratpoly_from_expr(parse_expr(poly_src))
    pe = parse_expr(poly_src)
    worst_exact = 0.0
    for word in ("ZZ", "ZbZ", "ZZbZ", "XYT"):
        want_poly = exact.word_apply(word, rp)
        for p in pts:
            want = want_poly.eval(p)
            got = word_jet(word, jet_eval(pe, p, 5)).value
            worst_exact = max(worst_exact, abs(got - want) / (1.0 + abs(want)))
    assert worst_exact <= 1e-12

    worst_rk = 0.0
    for h_str, s in (("0.5*x^2 - 0.3*x", 1.1), ("x^4", 0.7)):
        m = fields.flow_closed_form(h_str, s)
        for p in ((0.4, -0.3, 0.2), (-0.8, 0.5, -0.6)):
            q_rk = fields.flow_integrate(h_str, p, s, steps=128)
            q_cf = m(p)
            worst_rk = max(worst_rk, max(abs(a - b) for a, b in zip(q_rk, q_cf)))
    assert worst_rk <= 1e-8

    worst_fc = 0.0
    for h_str in ("x^4", "0.5*x^2 - 0.3*x"):
        for p in ((0.4, -0.3, 0.2), (-0.6, 0.7, 0.5)):
            r1, r2 = fields.flow_contact_residuals(h_str, p, 0.6)
            worst_fc = max(worst_fc, abs(r1), abs(r2))
    assert worst_fc <= 1e-6

    print(f"criterion 11: jets vs differences {worst_fd:.2e} (tol 1e-6), "
          f"jets vs exact kernel {worst_exact:.2e} (tol 1e-12), RK4 vs closed "
          f"form {worst_rk:.2e} (tol 1e-8), integrated-flow contact "
          f"{worst_fc:.2e} (tol 1e-6)")


PLANE_SEEDS = ("x", "y", "x*y", "x^2 - y^2", "x^3 - 3*x*y^2", "3*x^2*y - y^3",
               "x^4 - 6*x^2*y^2 + y^4", "x^3*y - x*y^3")


def test_criterion_12_unit_z_derivative_potentials():
    rng = random.Random(1212)
    seeds = [ratpoly_from_expr(parse_expr(s)) for s in PLANE_SEEDS]
    worst = 0.0
    for _ in range(10):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in seeds]
        if all(c == 0 for c in coeffs):
            coeffs[0] = Fraction(1)
        q = RatPoly()
        for c, b in zip(coeffs, seeds):
            q = q + b * c
        pot = sw.zh_one_builder(q, c1=Fraction(rng.randint(-2, 2), 3),
                                c2=rng.randint(-2, 2),
                                c3=Fraction(rng.randint(-2, 2), 2))
        assert pot.z_residual_poly() == RatPoly()
        h = pot.as_expr()
        for _ in range(100):
            p = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
            worst = max(worst, abs(frame(jet_eval(h, p, 2), "Z").value - 1.0))
    print(f"criterion 12: 10 random seeds of degree <= 4, 100 points each, "
          f"worst |ZH - 1| {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10
