"""Exact rational polynomial kernel: field ops, frame fields, nullspaces."""
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heiscalc import exact
from heiscalc.errors import NoConsistentConstant
from heiscalc.exact import (QQi, RatPoly, RP_ONE, RP_T, RP_X, RP_Y,
                            appendix_identities, fit_constant, frame_t,
                            frame_x, frame_y, frame_z, frame_zbar,
                            harmonic_nullspace, laplacian_h, monomials_wdeg,
                            real_nullspace, vzerosol_nullspace, word_apply)
from heiscalc.expr import jet_eval
from heiscalc.horizontal import jx, jy, jz, jzb

RP_Z = RP_X + RP_Y * QQi(0, 1)
RP_ZBAR = RP_X - RP_Y * QQi(0, 1)


def test_qqi_field_ops():
    a = QQi(Fraction(1, 2), Fraction(-3, 4))
    b = QQi(2, 1)
    assert a + b == QQi(Fraction(5, 2), Fraction(1, 4))
    assert a * b == QQi(Fraction(7, 4), Fraction(-1))
    assert (a / b) * b == a
    assert a.conj() == QQi(Fraction(1, 2), Fraction(3, 4))
    with pytest.raises(ZeroDivisionError):
        a / QQi(0, 0)


def test_ratpoly_arithmetic_and_eval():
    p = RP_X * RP_X + RP_Y * 2 - RP_T * Fraction(1, 3)
    q = RP_X - RP_ONE
    prod = p * q
    for pt in [(0.7, -0.4, 0.3), (2.0, 1.0, -1.0)]:
        want = complex(p.eval(pt)) * complex(q.eval(pt))
        assert complex(prod.eval(pt)) == pytest.approx(want, rel=1e-14)
    assert p - p == RatPoly()


def test_ratpoly_eval_on_point_array_matches_each_point():
    # 1029 rows: past numpy's unrolled and SIMD loops into their tails
    pts = np.random.default_rng(4).uniform(-1.7, 1.7, (1029, 3))
    u = (RP_X * Fraction(2, 3) - RP_T * QQi(0, 1)) ** 3 + RP_Y ** 4 * RP_T ** 2 - RP_ONE
    for poly in (u, frame_z(u), RatPoly(), RP_ONE * QQi(Fraction(1, 3), 2)):
        got = poly.eval(pts)
        assert got.shape == (len(pts),) and got.dtype == complex
        want = np.array([poly.eval(tuple(p)) for p in pts])
        assert got.tobytes() == want.tobytes()
    assert RatPoly().eval((0.5, 0.5, 0.5)) == 0j


def test_ratpoly_powers():
    p = RP_X * 2 - RP_T * QQi(0, 1) + RP_ONE
    assert p ** 0 == RP_ONE
    assert p ** 1 == p
    assert p ** 4 == p * p * p * p
    with pytest.raises(ValueError):
        p ** -1


def test_frame_field_basics():
    # Z z = 1, Zbar z = 0, Z t = i zbar, Zbar t = -i z
    assert frame_z(RP_Z) == RP_ONE
    assert frame_zbar(RP_Z) == RatPoly()
    assert frame_z(RP_T) == RP_ZBAR * QQi(0, 1)
    assert frame_zbar(RP_T) == RP_Z * QQi(0, -1)
    # X t = 2y, Y t = -2x, T t = 1
    assert frame_x(RP_T) == RP_Y * 2
    assert frame_y(RP_T) == RP_X * (-2)
    assert frame_t(RP_T) == RP_ONE


def test_sublaplacian_of_t_squared():
    got = laplacian_h(RP_T * RP_T)
    assert got == (RP_X * RP_X + RP_Y * RP_Y) * 8


def test_commutators_on_probe():
    # [X, Y] = -4T and [Zbar, Z] = 2iT on a probe that sees the vertical
    probe = RP_T * RP_X + RP_Y * RP_T * RP_T
    assert (frame_x(frame_y(probe)) - frame_y(frame_x(probe))
            == frame_t(probe) * (-4))
    assert (frame_zbar(frame_z(probe)) - frame_z(frame_zbar(probe))
            == frame_t(probe) * QQi(0, 2))


def test_word_apply_matches_nested_application():
    probe = RP_T * RP_T + RP_X * RP_X * RP_Y
    assert word_apply("ZZb", probe) == frame_z(frame_zbar(probe))
    assert word_apply("XY", probe) == frame_x(frame_y(probe))


def _tmax(monos, tmax):
    """The monomials (i, j, k) of t-degree k <= tmax."""
    return [m for m in monos if m[2] <= tmax]


def test_monomial_counts():
    # weighted degree i + j + 2k <= d: sum of triangle numbers
    def tri(m):
        return (m + 1) * (m + 2) // 2

    for d in range(1, 8):
        want = sum(tri(d - 2 * k) for k in range(d // 2 + 1))
        assert len(monomials_wdeg(d)) == want
    # t-degree restriction drops the high-k layers
    assert len(_tmax(monomials_wdeg(4), 1)) == len(monomials_wdeg(4)) - 1


def test_harmonic_nullspace_dims():
    # harmonic polynomials of weighted degree <= d form a space of dim (d+1)(d+2)/2
    for d in range(1, 6):
        basis = harmonic_nullspace(d)
        assert len(basis) == (d + 1) * (d + 2) // 2
        for u in basis:
            assert laplacian_h(u) == RatPoly()


def test_vzerosol_dims():
    dim3, _ = vzerosol_nullspace(3)
    assert dim3 == 7
    for d in range(4, 11):
        dim, basis = vzerosol_nullspace(d)
        assert dim == 8
        for v in basis:
            assert frame_z(frame_z(v)) == RatPoly()
    # restricting the vertical degree (here dropping the t^3 layer) does not
    # lose solutions
    assert len(real_nullspace(lambda p: frame_z(frame_z(p)), _tmax(monomials_wdeg(7), 2))) == 8


def test_real_nullspace_small_operator():
    # kernel of X on monomials of weighted degree <= 2 is spanned by 1, y
    # (t has Xt = 2y, x-bearing monomials survive)
    basis = real_nullspace(frame_x, _tmax(monomials_wdeg(2), 0))
    assert len(basis) == 3  # 1, y, y^2
    for v in basis:
        assert frame_x(v) == RatPoly()


def _sympy_nullspace(op, monos):
    """sympy's nullspace basis of the real matrix of op on the monomials (a
    real and an imaginary row per image monomial), one coefficient list per
    vector."""
    sympy = pytest.importorskip("sympy")
    images = [op(RatPoly.monomial(*m)) for m in monos]
    rows = []
    for m in sorted({m for img in images for m in img.num}):
        coefs = [img.coef(m) for img in images]
        rows += [[sympy.Rational(c.re.numerator, c.re.denominator) for c in coefs],
                 [sympy.Rational(c.im.numerator, c.im.denominator) for c in coefs]]
    return [list(v) for v in sympy.Matrix(rows).nullspace()], len(exact._blocks(images))


def _z2(p):
    return frame_z(frame_z(p))


def _z2_plus_x_t(p):
    return _z2(p) + RP_X * frame_t(p)


@pytest.mark.parametrize("op,monos,blocks", [
    # Z^2 lowers the weighted degree by 2 and kills 1, x, y and t: a block
    # for each weighted degree from 2 to 7, and one for each of those four
    (_z2, monomials_wdeg(7), 10),
    # x T mixes degrees; without the x^i y^j of degree <= 2, which it sends to
    # constants or zero, every column lies in one block
    (_z2_plus_x_t, [m for m in monomials_wdeg(6) if m[2] or m[0] + m[1] > 2], 1),
    (_z2, _tmax(monomials_wdeg(7), 2), 10),
    # the degree blocks interleave: the basis still follows the free columns
    (_z2, random.Random(5).sample(monomials_wdeg(7), 70), 10),
], ids=["z2-many-blocks", "one-block", "tmax", "interleaved"])
def test_real_nullspace_matches_sympy(op, monos, blocks):
    want, got_blocks = _sympy_nullspace(op, monos)
    assert got_blocks == blocks
    basis = real_nullspace(op, monos)
    got = [[p.coef(m) for m in monos] for p in basis]
    assert got == [[QQi(Fraction(int(v.p), int(v.q))) for v in vec] for vec in want]
    assert want   # each operator has a kernel to compare


def test_fit_constant():
    pairs = [(RP_X * 3, RP_X), (RP_Y * RP_X * 3, RP_Y * RP_X)]
    assert fit_constant(pairs) == QQi(3)
    with pytest.raises(NoConsistentConstant):
        fit_constant([(RP_X, RP_X), (RP_Y * 2, RP_Y)])
    # all-zero right sides cannot pin a constant
    with pytest.raises(NoConsistentConstant):
        fit_constant([(RP_X, RatPoly())])


def test_appendix_identities_all_hold():
    results = appendix_identities(6)
    assert len(results) == 13
    for name, scope, ok in results:
        assert ok, name
    scopes = {scope for _, scope, _ in results}
    assert scopes == {"all polynomials", "Z^2 kernel"}


def test_appendix_identities_fail_with_a_wrong_zbar(monkeypatch):
    # Zb with the sign of its y d/dt term flipped: [Zb, Z] becomes iT, not 2iT.
    # The first polynomial of each scope has zero images under every word (the
    # constant, and the constant in the Z^2 kernel), so a table of word images
    # carried on from it would make every identity hold.
    monkeypatch.setitem(exact._FRAME_OPS, "Zb",
                        lambda p: frame_zbar(p) - RP_Y * frame_t(p) * 2)
    failed = {name for name, _, ok in appendix_identities(6) if not ok}
    assert failed == {"commutator [Zb,Z] = 2iT",
                      "8 T^2 = -ZZZbZb + ZZbZbZ + ZbZZZb - ZbZbZZ",
                      "4 T^2 v = ZZbZbZ v", "4 T^2 v = ZbZZZb v",
                      "ZbZbZ v = 2 ZbZZb v", "(ZbZ)^2 v = (ZZb)^2 v"}


# --- the exact route against the jet route, on random polynomials ---------------

_small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_coefs = st.builds(QQi, _small_fractions, st.one_of(st.just(0), _small_fractions))
_polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _coefs, max_size=5).map(RatPoly)
_points = st.tuples(*[st.floats(-1.5, 1.5)] * 3)


def _assert_reduced(p: RatPoly):
    assert p.den > 0
    assert all(re or im for re, im in p.num.values())
    assert gcd(p.den, *(v for c in p.num.values() for v in c)) == 1


@settings(max_examples=80, deadline=None)
@given(_polys, _polys, _points)
def test_frame_operators_match_the_jet_route(p, q, point):
    j = jet_eval(p.to_expr(), point, 2)
    for op, jop in ((frame_x, jx), (frame_y, jy), (frame_z, jz), (frame_zbar, jzb)):
        exact_value, jet_value = op(p).eval(point), jop(j).value
        assert abs(exact_value - jet_value) <= 1e-12 * max(1.0, abs(jet_value))
        _assert_reduced(op(p))
    for r in (p, p + q, p - q, p * q, p.conj(), p.re_part(), p.im_part(), frame_t(p)):
        _assert_reduced(r)
