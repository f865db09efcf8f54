"""Exact rational polynomial kernel: field ops, frame fields, nullspaces."""
import random
from fractions import Fraction
from functools import partial
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heiscalc import exact
from heiscalc.errors import EvalError, NoConsistentConstant
from heiscalc.exact import (QQi, RatPoly, RP_ONE, RP_T, RP_X, RP_Y,
                            appendix_identities, fit_constant,
                            harmonic_nullspace, laplacian_h, monomials_wdeg,
                            real_nullspace, vzerosol_nullspace, word_apply)
from heiscalc.expr import jet_eval
from heiscalc.horizontal import frame

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


def test_a_constant_written_first_defers_to_the_polynomial():
    # a RatPoly is no QQi, so QQi's operators leave it to the RatPoly's own
    c, p = QQi(1, 2), RP_X * 3 + RP_T * QQi(0, 1)
    assert c * p == p * c
    assert c + p == p + c
    assert c - p == -(p - c)
    assert (c == RatPoly({(0, 0, 0): c})) and (RatPoly({(0, 0, 0): c}) == c)
    assert not c == p
    with pytest.raises(TypeError, match="unsupported operand"):
        c / p


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
    for poly in (u, word_apply("Z", u), RatPoly(), RP_ONE * QQi(Fraction(1, 3), 2)):
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
    assert word_apply("Z", RP_Z) == RP_ONE
    assert word_apply("Zb", RP_Z) == RatPoly()
    assert word_apply("Z", RP_T) == RP_ZBAR * QQi(0, 1)
    assert word_apply("Zb", RP_T) == RP_Z * QQi(0, -1)
    # X t = 2y, Y t = -2x, T t = 1
    assert word_apply("X", RP_T) == RP_Y * 2
    assert word_apply("Y", RP_T) == RP_X * (-2)
    assert word_apply("T", RP_T) == RP_ONE


def test_sublaplacian_of_t_squared():
    got = laplacian_h(RP_T * RP_T)
    assert got == (RP_X * RP_X + RP_Y * RP_Y) * 8


def test_commutators_on_probe():
    # [X, Y] = -4T and [Zbar, Z] = 2iT on a probe that sees the vertical
    probe = RP_T * RP_X + RP_Y * RP_T * RP_T
    assert (word_apply("XY", probe) - word_apply("YX", probe)
            == word_apply("T", probe) * (-4))
    assert (word_apply("ZbZ", probe) - word_apply("ZZb", probe)
            == word_apply("T", probe) * QQi(0, 2))


def test_word_apply_matches_nested_application():
    probe = RP_T * RP_T + RP_X * RP_X * RP_Y
    assert word_apply("ZZb", probe) == word_apply("Z", word_apply("Zb", probe))
    assert word_apply("XY", probe) == word_apply("X", word_apply("Y", probe))
    assert word_apply("", probe) == probe


@pytest.mark.parametrize("word", ["Q", "z", "XQ", "Zc"])
def test_word_apply_refuses_a_bad_letter(word):
    # a one-letter word calls its operator directly; a bad one is still refused
    with pytest.raises(EvalError, match="bad frame letter"):
        word_apply(word, RP_T)


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
            assert word_apply("ZZ", v) == RatPoly()
    # restricting the vertical degree (here dropping the t^3 layer) does not
    # lose solutions
    assert len(real_nullspace(_z2, _tmax(monomials_wdeg(7), 2))) == 8


def test_real_nullspace_small_operator():
    # kernel of X on monomials of weighted degree <= 2 is spanned by 1, y
    # (t has Xt = 2y, x-bearing monomials survive)
    basis = real_nullspace(partial(word_apply, "X"), _tmax(monomials_wdeg(2), 0))
    assert len(basis) == 3  # 1, y, y^2
    for v in basis:
        assert word_apply("X", v) == RatPoly()


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
    return word_apply("ZZ", p)


def _z2_plus_x_t(p):
    return _z2(p) + RP_X * word_apply("T", p)


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
    zbar, t = exact._FRAME_OPS["Zb"], exact._FRAME_OPS["T"]
    monkeypatch.setitem(exact._FRAME_OPS, "Zb", lambda p: zbar(p) - RP_Y * t(p) * 2)
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
    for letter in ("X", "Y", "Z", "Zb"):
        exact_value, jet_value = word_apply(letter, p).eval(point), frame(j, letter).value
        assert abs(exact_value - jet_value) <= 1e-12 * max(1.0, abs(jet_value))
        _assert_reduced(word_apply(letter, p))
    for r in (p, p + q, p - q, p * q, p.conj(), p.re_part(), p.im_part(),
              word_apply("T", p)):
        _assert_reduced(r)


# --- the kernels against the constructions they replaced ------------------------
#
# `_frame` and the basis vectors of `real_nullspace` must give the very
# RatPolys of the constructions below (the earlier kernel, kept verbatim as
# references): equal numerators in the same key order over the same
# denominator. The key order is part of the float bits, because
# `RatPoly.eval` sums the terms in the order of `num`.

def _frame_reference(p: RatPoly, ax: tuple, ay: tuple, scale: int = 1) -> RatPoly:
    """(ax X + ay Y)/scale applied to p, for Gaussian integers ax, ay, in one
    pass: X = d/dx + 2y d/dt and Y = d/dy - 2x d/dt."""
    (xr, xi), (yr, yi) = ax, ay
    out = {}
    get = out.get
    for (i, j, k), (re, im) in p.num.items():
        cx = (xr * re - xi * im, xr * im + xi * re)      # ax * coefficient
        cy = (yr * re - yi * im, yr * im + yi * re)      # ay * coefficient
        for n, m, (cr, ci) in ((i, (i - 1, j, k), cx), (2 * k, (i, j + 1, k - 1), cx),
                               (j, (i, j - 1, k), cy), (-2 * k, (i + 1, j, k - 1), cy)):
            if n and (cr or ci):
                r0, i0 = get(m, (0, 0))
                out[m] = (r0 + n * cr, i0 + n * ci)
    return RatPoly.from_num(out, p.den * scale)


def _real_nullspace_reference(op, monos: list) -> list[RatPoly]:
    """`real_nullspace` with each basis vector built from one Fraction per
    entry through `RatPoly.__init__`."""
    images = [op(RatPoly.monomial(*m)) for m in monos]
    basis = []
    for block in exact._blocks(images):
        n = len(block)
        rows: dict = {}
        for i, col in enumerate(block):
            for m, (re, im) in images[col].num.items():
                if m not in rows:
                    rows[m] = ([0] * n, [0] * n)
                rows[m][0][i], rows[m][1][i] = re, im
        mat = [row for pair in rows.values() for row in pair if any(row)]
        pivots = exact._rref(mat)
        dens = [images[col].den for col in block]
        for fc in sorted(set(range(n)) - set(pivots)):
            vec = {fc: 1}
            for r, pc in enumerate(pivots):
                vec[pc] = Fraction(-mat[r][fc] * dens[pc], mat[r][pc] * dens[fc])
            basis.append((block[fc], RatPoly({monos[block[c]]: v
                                              for c, v in sorted(vec.items()) if v})))
    return [poly for _, poly in sorted(basis)]


def _same_polys(got: list, want: list):
    assert [(list(p.num.items()), p.den) for p in got] == \
        [(list(p.num.items()), p.den) for p in want]


# the letters' weights (ax, ay, scale): Z = (X - iY)/2 and Zb = (X + iY)/2
_LETTER_WEIGHTS = {"X": ((1, 0), (0, 0), 1), "Y": ((0, 0), (1, 0), 1),
                   "Z": ((1, 0), (0, -1), 2), "Zb": ((1, 0), (0, 1), 2)}
# more terms and higher powers than `_polys`, so that the shifted monomials
# of different terms meet and cancel
_wide_polys = st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), _coefs,
                              max_size=10).map(RatPoly)
_gaussian_ints = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=150, deadline=None)
@given(_wide_polys, _gaussian_ints, _gaussian_ints, st.integers(1, 4))
def test_frame_gives_the_reference_polynomials(p, ax, ay, scale):
    for letter, weights in _LETTER_WEIGHTS.items():
        want = _frame_reference(p, *weights)
        _same_polys([exact._frame(p, *weights), word_apply(letter, p)], [want, want])
    # any Gaussian-integer weights, zero ones included
    _same_polys([exact._frame(p, ax, ay, scale)], [_frame_reference(p, ax, ay, scale)])


@settings(max_examples=80, deadline=None)
@given(_wide_polys, st.one_of(st.integers(-6, 6), _small_fractions, _coefs,
                              st.floats(-4, 4), st.complex_numbers(max_magnitude=4)))
def test_scaling_by_a_constant_is_the_product_with_its_polynomial(p, c):
    # the general product, with the constant as a one-term RatPoly
    _same_polys([p * c], [p * RatPoly({(0, 0, 0): c})])


def _z2t(p):
    return word_apply("ZZT", p)


def _z3zb(p):
    return word_apply("ZZZZb", p)


@pytest.mark.parametrize("op,monos", [
    (_z2, monomials_wdeg(7)),
    (_z2_plus_x_t, [m for m in monomials_wdeg(6) if m[2] or m[0] + m[1] > 2]),
    (_z2, _tmax(monomials_wdeg(7), 2)),
    (_z2, random.Random(5).sample(monomials_wdeg(7), 70)),
] + [(op, monomials_wdeg(d)) for op in (_z2, _z2t, _z3zb, laplacian_h) for d in range(2, 11)],
    ids=["z2-many-blocks", "one-block", "tmax", "interleaved"]
    + [f"{name}-d{d}" for name in ("z2", "z2t", "z3zb", "lap") for d in range(2, 11)])
def test_real_nullspace_gives_the_reference_basis(op, monos):
    _same_polys(real_nullspace(op, monos), _real_nullspace_reference(op, monos))


# dim ker of Z^2, of Z^2 T (the CR Schwarzian's linearisation) and of Z^3 Zb
# (the classical-type one) on real polynomial potentials of weighted degree <= d
_KERNEL_DIMENSIONS = {2: (5, 7, 7), 3: (7, 13, 13), 4: (8, 20, 20), 5: (8, 28, 28),
                      6: (8, 36, 36), 7: (8, 44, 44), 8: (8, 53, 54), 9: (8, 63, 64),
                      10: (8, 74, 76)}


@pytest.mark.parametrize("d", list(_KERNEL_DIMENSIONS))
def test_kernel_dimensions_of_the_linearised_schwarzians(d):
    got = tuple(len(real_nullspace(partial(word_apply, w), monomials_wdeg(d)))
                for w in ("ZZ", "ZZT", "ZZZZb"))
    assert got == _KERNEL_DIMENSIONS[d]
