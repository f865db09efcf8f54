"""Schwarzian derivatives, composition laws, preschwarzian, ZH = 1 builder."""
import math
import random
from fractions import Fraction

import pytest

from heiscalc import expr as ex
from heiscalc import fields, schwarzian as sw
from heiscalc.errors import BadPotential, HeisError, NotContact, NotPositive
from heiscalc.exact import RatPoly
from heiscalc.expr import jet_eval, parse_expr
from heiscalc.group import (HeisMap, Invert, LinearSL2, Point, Reflect,
                            Translate, make_type1, make_type2, random_word,
                            word_to_map)
from heiscalc.horizontal import jx, jy, jz, jzb, lambda_jet, word_jet

# contact, non-conformal, with a genuinely non-constant conformal factor
STRETCH = word_to_map([Invert(), LinearSL2(2.0, 0.0, 0.0, 0.5)])
P0 = Point(1.0, 1.0, 0.0)

# independent first-order oracle: s_cr of Invert o (linear stretch) at P0
# equals -6 |G|^2/||g||^4 * ZG * ZbarG with G the stretch, all exact fractions
PINNED_SCR = Fraction(-6) * Fraction(17, 4) / Fraction(289, 16) \
    * Fraction(5, 4) * Fraction(3, 4)          # = -45/34


def _conformal_maps(n, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        kind = rng.choice(("t1", "t2", "word"))
        if kind == "t1":
            w = make_type1((rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)),
                           rng.uniform(0, 2 * math.pi), rng.uniform(0.5, 2.0),
                           (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)))
        elif kind == "t2":
            w = make_type2((rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)),
                           rng.uniform(0, 2 * math.pi), rng.uniform(0.5, 2.0),
                           (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)))
        else:
            w = random_word(rng, length=rng.randint(1, 4))
        out.append(word_to_map(w))
    return out


def _good_point(m, rng, lo=0.15, hi=3.0):
    from heiscalc.group import koranyi_norm
    for _ in range(100):
        p = Point(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(-2, 2))
        if lo <= koranyi_norm(p) <= hi and koranyi_norm(m(p)) < 40:
            return p
    raise AssertionError("no usable sample point")


def test_conformal_words_kill_both_schwarzians():
    rng = random.Random(21)
    for m in _conformal_maps(20, seed=5):
        p = _good_point(m, rng)
        assert abs(sw.s_cr(m, p)) < 1e-9, m.name
        assert abs(sw.s_cl(m, p)) < 1e-9, m.name


def test_pinned_composite_value():
    got = sw.s_cr(STRETCH, P0)
    assert got.real == pytest.approx(float(PINNED_SCR), rel=1e-12)
    assert abs(got.imag) < 1e-12
    assert PINNED_SCR == Fraction(-45, 34)


def test_three_routes_agree():
    # tensor coefficient is 2 s_cr, reciprocal form is -s_cr
    rng = random.Random(22)
    for shift in ((0.0, 0.0, 0.0), (0.3, -0.2, 0.4)):
        m = STRETCH.compose(word_to_map([Translate(shift)]))
        p = _good_point(m, rng)
        s = sw.s_cr(m, p)
        assert sw.s_cr_tensor_coeff(m, p) == pytest.approx(2.0 * s, rel=1e-9)
        assert sw.s_cr_reciprocal_form(m, p) == pytest.approx(-s, rel=1e-9)


def test_chain_rule_full():
    rng = random.Random(23)
    g_pool = _conformal_maps(6, seed=7) + [STRETCH,
                                           word_to_map([LinearSL2(1.5, 0.2, 0.1, 0.68)])]
    for g in g_pool:
        f = STRETCH.compose(word_to_map([Translate((0.2, 0.1, -0.3))]))
        p = _good_point(g, rng, lo=0.3, hi=1.5)
        try:
            r = sw.cr_chain_residual(f, g, p)
        except HeisError:
            continue  # sample landed on a pole of the composite
        assert abs(r) < 1e-8, g.name


def test_conformal_inner_collapses_chain():
    # conformal g: S(f o g) = S(f) o g * (ZG)^2
    rng = random.Random(24)
    f = STRETCH
    for g in _conformal_maps(6, seed=9):
        p = _good_point(g, rng, lo=0.3, hi=1.5)
        q = g(p)
        from heiscalc.group import koranyi_norm
        if koranyi_norm(q) > 3 or koranyi_norm(f(q)) > 40:
            continue
        jg = g.jets(p, 4)
        zg = jz(jg[0] + 1j * jg[1]).value
        lhs = sw.s_cr(f.compose(g), p)
        assert lhs == pytest.approx(sw.s_cr(f, q) * zg * zg, rel=1e-7, abs=1e-9)


def test_isometry_outer_preserves_s_cr():
    # type-1 outer map f: S(f o g) = S(g)
    rng = random.Random(25)
    f = word_to_map(make_type1((0.4, -0.3, 0.2), 0.7, 1.3, (0.1, 0.0, -0.2)))
    g = STRETCH
    for _ in range(5):
        p = _good_point(g, rng, lo=0.3, hi=1.8)
        assert sw.s_cr(f.compose(g), p) == pytest.approx(sw.s_cr(g, p),
                                                         rel=1e-8, abs=1e-10)


def test_right_cocycle():
    rng = random.Random(26)
    f = STRETCH.compose(word_to_map([Translate((0.1, 0.2, 0.1))]))
    for g in _conformal_maps(8, seed=11):
        p = _good_point(g, rng, lo=0.3, hi=1.5)
        try:
            r = sw.cocycle_residual_right(f, g, p)
        except HeisError:
            continue
        assert abs(r) < 1e-8, g.name


def test_left_cocycle_coefficient():
    # f needs a nonzero Z^2 F, otherwise the middle term is invisible
    g = word_to_map([Invert()])
    f = STRETCH.compose(word_to_map([Translate((0.2, 0.1, -0.4))]))
    p = Point(0.7, 0.9, 0.5)
    r_good = sw.cocycle_residual_left(g, f, p)
    r_bad = sw.cocycle_residual_left(g, f, p, middle_coeff=-2.0)
    assert abs(r_good) < 1e-10
    assert abs(r_bad) > 1e-2


def test_left_cocycle_across_maps():
    rng = random.Random(27)
    fs = [word_to_map([LinearSL2(1.4, 0.3, 0.2, 0.757142857142857)]),
          word_to_map([LinearSL2(2.0, 0.0, 0.0, 0.5), Translate((0.2, -0.1, 0.3))])]
    for g in _conformal_maps(5, seed=13):
        for f in fs:
            p = _good_point(f, rng, lo=0.3, hi=1.5)
            try:
                r = sw.cocycle_residual_left(g, f, p)
            except HeisError:
                continue
            assert abs(r) < 1e-8, (g.name, f.name)


def test_left_invariance_under_isometries():
    # type-1 outer g leaves S_CL unchanged
    g = word_to_map(make_type1((0.2, 0.3, -0.1), 0.9, 1.4, (0.0, 0.1, 0.2)))
    f = word_to_map([LinearSL2(2.0, 0.0, 0.0, 0.5)])
    for p in [P0, Point(0.5, -0.3, 0.2)]:
        assert sw.s_cl(g.compose(f), p) == pytest.approx(sw.s_cl(f, p),
                                                         rel=1e-9, abs=1e-11)


def test_inversion_outer_needs_correction():
    # plain invariance fails for g = Invert, the corrected law holds
    g = word_to_map([Invert()])
    f = word_to_map([LinearSL2(2.0, 0.0, 0.0, 0.5)])
    plain_gap = abs(sw.s_cl(g.compose(f), P0) - sw.s_cl(f, P0))
    assert plain_gap > 1e-3
    assert abs(sw.cocycle_residual_left(g, f, P0)) < 1e-10


def test_preschwarzian_identity():
    # Z(Pf) - Pf^2 equals the tensor coefficient, no contact assumption
    rng = random.Random(28)
    maps = [STRETCH, word_to_map([Invert()]),
            word_to_map([LinearSL2(1.2, 0.1, 0.3, 0.858333333333333), Invert()])]
    for m in maps:
        p = _good_point(m, rng, lo=0.3, hi=2.0)
        assert abs(sw.preschwarzian_identity_residual(m, p)) < 1e-9, m.name


def test_preschwarzian_composition_conformal_inner():
    # P(f o g) = (Pf) o g * ZG + Pg
    rng = random.Random(29)
    f = STRETCH
    for g in _conformal_maps(5, seed=15):
        p = _good_point(g, rng, lo=0.3, hi=1.5)
        q = g(p)
        from heiscalc.group import koranyi_norm
        if koranyi_norm(q) > 3 or koranyi_norm(f(q)) > 40:
            continue
        jg = g.jets(p, 3)
        zg = jz(jg[0] + 1j * jg[1]).value
        lhs = sw.preschwarzian(f.compose(g), p)
        rhs = sw.preschwarzian(f, q) * zg + sw.preschwarzian(g, p)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def test_preschwarzian_affine_outer_invariance():
    # constant-Jacobian outer map drops out of P
    a = word_to_map(make_type1((0.3, -0.2, 0.1), 0.5, 1.7, (0.0, 0.0, 0.0)))
    f = STRETCH
    for p in [Point(0.8, 0.5, 0.3), Point(1.2, -0.4, 0.6)]:
        assert sw.preschwarzian(a.compose(f), p) == pytest.approx(
            sw.preschwarzian(f, p), rel=1e-10)


def test_equal_preschwarzian_means_proportional_jacobians():
    a = word_to_map(make_type1((0.3, -0.2, 0.1), 0.5, 1.7, (0.0, 0.0, 0.0)))
    f = STRETCH
    g = a.compose(f)
    ratios = []
    for p in [Point(0.8, 0.5, 0.3), Point(1.2, -0.4, 0.6), Point(0.5, 0.9, -0.2)]:
        jf = lambda_jet(*f.jets(p, 1)).value.real
        jg = lambda_jet(*g.jets(p, 1)).value.real
        ratios.append(jg / jf)
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-10)


def test_preschwarzian_norm_and_trace_identities():
    # |Pf| = (1/2) |grad_H ln J| and lap ln J = 4 Re Zbar Pf
    m = STRETCH
    p = Point(0.9, 0.6, 0.4)
    jac = lambda_jet(*m.jets(p, 4))
    lj = jac.log()
    pf_jet = jz(lj)
    pf = pf_jet.value
    gx = jx(lj).value.real
    gy = jy(lj).value.real
    assert abs(pf) == pytest.approx(0.5 * math.hypot(gx, gy), rel=1e-10)
    lap = (jx(jx(lj)) + jy(jy(lj))).value.real
    assert lap == pytest.approx(4.0 * jzb(pf_jet).value.real, rel=1e-10)


def test_half_log_factor_pluriharmonic_on_conformal_maps():
    rng = random.Random(30)
    for m in [word_to_map([Invert()])] + _conformal_maps(4, seed=17):
        p = _good_point(m, rng, lo=0.4, hi=1.5)
        assert abs(sw.pluriharmonic_residual(m, p)) < 1e-7, m.name


def test_gates():
    bad = HeisMap(ex.X, ex.Y, ex.mul(ex.const(2.0), ex.T), name="stretch-t")
    with pytest.raises(NotContact):
        sw.s_cr(bad, Point(1.0, 1.0, 0.0))
    with pytest.raises(NotContact):
        sw.s_cl(bad, Point(1.0, 1.0, 0.0))
    with pytest.raises(NotPositive):
        sw.s_cr(word_to_map([Reflect()]), Point(0.5, 0.5, 0.5))
    with pytest.raises(NotContact):
        sw.cocycle_residual_right(STRETCH, STRETCH, P0)  # inner not conformal


def test_left_cocycle_gates_g_where_it_is_used():
    # G = the time-1/2 flow of h = x^3 is contact with Zbar G = -i s h''(x)/2,
    # so it is conformal exactly on x = 0; the law uses G at f(p), with f a
    # translation by 0.5 in x.
    g = fields.flow_closed_form("x^3", 0.5)
    f = word_to_map([Translate((0.5, -0.2, 0.1))])
    with pytest.raises(NotContact, match=r"at \(0\.5, "):
        sw.cocycle_residual_left(g, f, (0.0, 0.7, -0.4))   # f(p) has x = 0.5


def test_conformal_gate_reads_the_derivatives_of_zbar_g():
    # The same G at a point of x = 0. There Zbar G = -3i s x vanishes, but
    # Z Zbar G = Zbar Zbar G = -3i s / 2 does not (|.| = 0.75): G is
    # conformal at the point and not around it. A gate that read only
    # Zbar G let the left law through, with residual 0.84375.
    g = fields.flow_closed_form("x^3", 0.5)
    f = word_to_map([Translate((0.5, -0.2, 0.1))])
    with pytest.raises(NotContact, match=r"not conformal at \(0\.0, "):
        sw.cocycle_residual_left(g, f, (-0.5, 0.7, -0.4))   # f(p) has x = 0
    with pytest.raises(NotContact, match=r"not conformal at \(0\.0, "):
        sw.cocycle_residual_right(f, g, (0.0, 0.7, -0.4))


TINY_JACOBIAN_DIAGNOSTICS = {
    "preschwarzian_identity_residual": sw.preschwarzian_identity_residual,
    "pluriharmonic_residual": sw.pluriharmonic_residual,
    "s_cr_reciprocal_form": sw.s_cr_reciprocal_form,
    "s_cr_tensor_coeff": sw.s_cr_tensor_coeff,
    "preschwarzian": sw.preschwarzian,
    "pushforward_w0": lambda f, p: word_jet("ZZ", fields.pushforward_w0(f, 8, p)).value,
}


@pytest.mark.parametrize("eps", [1e-155, 1e-165, 1e-200])
@pytest.mark.parametrize("name", TINY_JACOBIAN_DIAGNOSTICS)
def test_a_tiny_jacobian_gives_a_finite_value_or_a_typed_error(name, eps):
    # J = eps + (x - 0.3) at x = 0.3: the coefficients of 1/J and log J
    # are powers of 1/eps, which overflow, or divide by eps^k, which
    # underflows to zero
    f = HeisMap(ex.X, ex.mul(ex.Y, ex.add(ex.const(eps), ex.sub(ex.X, ex.const(0.3)))), ex.T)
    try:
        value = TINY_JACOBIAN_DIAGNOSTICS[name](f, Point(0.3, 0.5, 0.1))
    except HeisError:
        return
    assert math.isfinite(abs(value))


# --- ZH = 1 builder ---------------------------------------------------------

@pytest.mark.parametrize("seed_text", ["3*x^2*y - y^3", "x^4 - 6*x^2*y^2 + y^4",
                                       "x", "x^2 - y^2", "x*y"])
def test_zh_builder_exact(seed_text):
    pot = sw.zh_one_builder(seed_text, c1=Fraction(1, 3), c2=2, c3=Fraction(-1, 2))
    assert pot.z_residual_poly() == RatPoly()


def test_zh_builder_jet_crosscheck():
    pot = sw.zh_one_builder("3*x^2*y - y^3", c1=1)
    h = pot.as_expr()
    for p in [(0.7, -0.4, 0.3), (1.5, 0.8, -2.0), (-0.3, 0.2, 0.9)]:
        zh = jz(jet_eval(h, p, 2)).value
        assert zh == pytest.approx(1.0, rel=1e-12)


def test_zh_builder_constants_do_not_break_it():
    rng = random.Random(31)
    for _ in range(5):
        c1 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        c2 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        c3 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        pot = sw.zh_one_builder("x^3 - 3*x*y^2", c1=c1, c2=c2, c3=c3)
        assert pot.z_residual_poly() == RatPoly()


@pytest.mark.parametrize("bad_seed", ["x^2", "t", "x^2 + y^2"])
def test_zh_builder_rejects(bad_seed):
    with pytest.raises(BadPotential):
        sw.zh_one_builder(bad_seed)
