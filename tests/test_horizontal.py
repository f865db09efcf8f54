"""Frame differentiation through jets, cross-checked against the exact kernel
and finite differences."""
import itertools
import math
import random
from dataclasses import fields

import pytest

from heiscalc import expr as ex
from heiscalc import horizontal
from heiscalc.exact import ratpoly_from_expr, word_apply
from heiscalc.expr import fd_oracle, jet_eval, parse_expr
from heiscalc.errors import HeisError
from heiscalc.group import Invert, LinearSL2, Point, Reflect, Rotate, word_to_map
from heiscalc.horizontal import (assess_contact, apply_word, frame, jlap, sym_x,
                                 sym_y, word_jet)

P = (0.7, -0.4, 0.3)


def _jet(text, order=6, p=P):
    return jet_eval(parse_expr(text), p, order)


def test_frame_on_coordinates():
    # Z z = 1, Zbar z = 0, Z t = i zbar, Z exp(x) = exp(x)/2
    zj = _jet("x", 3) + 1j * _jet("y", 3)
    assert frame(zj, "Z").value == pytest.approx(1.0)
    assert frame(zj, "Zb").value == pytest.approx(0.0, abs=1e-15)
    tj = _jet("t", 3)
    assert frame(tj, "Z").value == pytest.approx(complex(P[1], P[0]))  # i zbar = y + ix
    assert frame(_jet("exp(x)", 3), "Z").value == pytest.approx(0.5 * math.exp(P[0]))


def test_sublaplacian_pinned():
    # lap t^2 = 8(x^2 + y^2)
    got = jlap(_jet("t^2", 2)).value
    assert got == pytest.approx(8.0 * (P[0] ** 2 + P[1] ** 2), rel=1e-12)
    # harmonic: lap(xy) = 0
    assert jlap(_jet("x*y", 2)).value == pytest.approx(0.0, abs=1e-12)


def test_commutator_via_jets():
    j = _jet("t*x + y*t^2")
    lhs = word_jet("ZbZ", j) - word_jet("ZZb", j)
    rhs = 2j * frame(j, "T")
    assert lhs.value == pytest.approx(rhs.value, rel=1e-12)
    lhs2 = word_jet("XY", j) - word_jet("YX", j)
    assert lhs2.value == pytest.approx(-4.0 * frame(j, "T").value, rel=1e-12)


def test_word_jet_matches_exact_kernel():
    # all 155 words of one to three letters over X, Y, T, Z and Zb
    text = "t^2 + x^2*y - x*t"
    poly = ratpoly_from_expr(parse_expr(text))
    j = _jet(text)
    words = ["".join(w) for n in (1, 2, 3)
             for w in itertools.product(("X", "Y", "T", "Z", "Zb"), repeat=n)]
    assert len(words) == 155
    for word in words:
        got = word_jet(word, j).value
        want = complex(word_apply(word, poly).eval(P))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13), word


def test_apply_word_shortcut():
    text = "exp(x)*y + t^2"
    e = parse_expr(text)
    assert apply_word("XZ", e, P) == pytest.approx(
        word_jet("XZ", _jet(text)).value, rel=1e-13)


def test_sym_fields_match_jet_route():
    e = parse_expr("exp(x)*sin(y) + t^2*x")
    for sym, letter in ((sym_x, "X"), (sym_y, "Y"), (lambda e: ex.diff(e, 2), "T")):
        got = ex.eval_at(sym(e), P)
        want = frame(jet_eval(e, P, 2), letter).value
        assert got == pytest.approx(want, rel=1e-13)


# finite-difference corpus: every frame word up to length 2 on two test
# functions, centred stencils
@pytest.mark.parametrize("text", ["exp(x)*sin(y) + t^2",
                                  "log(2 + x^2 + y^2 + t^2)"])
@pytest.mark.parametrize("word", ["X", "Y", "T", "XX", "XY", "YX", "YY"])
def test_frame_words_against_fd(text, word):
    e = parse_expr(text)
    got = word_jet(word, _jet(text)).value

    def fd_frame(w, p):
        # X = d/dx + 2y d/dt, Y = d/dy - 2x d/dt, evaluated with fd_oracle
        if not w:
            return ex.eval_at(e, p)
        head, rest = w[0], w[1:]
        h = 2e-3

        def f(q):
            return fd_frame(rest, q) if rest else ex.eval_at(e, q)

        x, y, t = p
        if head == "X":
            return (f((x + h, y, t + 2 * y * h)) - f((x - h, y, t - 2 * y * h))) / (2 * h)
        if head == "Y":
            return (f((x, y + h, t - 2 * x * h)) - f((x, y - h, t + 2 * x * h))) / (2 * h)
        return (f((x, y, t + h)) - f((x, y, t - h))) / (2 * h)

    assert got == pytest.approx(fd_frame(word, P), rel=2e-5, abs=1e-6), (text, word)


def test_fd_oracle_is_independent_of_jets():
    e = parse_expr("exp(x)*cos(t)")
    want = -math.exp(P[0]) * math.sin(P[2])
    assert fd_oracle(e, P, (0, 0, 1)) == pytest.approx(want, rel=1e-7)


def test_assess_contact_inversion():
    a = assess_contact(word_to_map([Invert()]), Point(1.0, 0.5, 0.25))
    assert a.max_contact_residual() < 1e-12
    assert a.is_contact()
    assert a.lam == pytest.approx(a.lam_contact_route, rel=1e-12)
    assert abs(a.mu) < 1e-12
    assert a.distortion == pytest.approx(1.0, rel=1e-12)
    assert a.orientation == 1


def test_assess_contact_linear_stretch():
    # diag(2, 1/2): ZF = 5/4, ZbF = 3/4, so distortion (1 + 3/5)/(1 - 3/5) = 4
    a = assess_contact(word_to_map([LinearSL2(2.0, 0.0, 0.0, 0.5)]),
                       Point(0.3, -0.2, 0.1))
    assert a.z_f == pytest.approx(1.25)
    assert a.zbar_f == pytest.approx(0.75)
    assert a.distortion == pytest.approx(4.0, rel=1e-12)
    assert a.lam == pytest.approx(1.0, rel=1e-12)


def test_assess_contact_distortion_of_reversed_orientation():
    # refl o diag(2, 1/2): ZF = 3/4, ZbF = 5/4, so |mu| = 5/3 and the
    # distortion is (5/4 + 3/4)/(5/4 - 3/4) = 4, not (1+|mu|)/(1-|mu|) = -4
    a = assess_contact(word_to_map([Reflect(), LinearSL2(2.0, 0.0, 0.0, 0.5)]),
                       Point(0.3, 0.4, 0.5))
    assert abs(a.mu) == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert a.distortion == pytest.approx(4.0, rel=1e-12)
    # plain reflection: ZF = 0, ZbF = 1, an anti-conformal map of distortion 1
    a = assess_contact(word_to_map([Reflect()]), Point(0.3, 0.4, 0.5))
    assert a.mu is None
    assert a.distortion == pytest.approx(1.0, rel=1e-12)


def test_assess_contact_flags_noncontact():
    from heiscalc.group import HeisMap
    m = HeisMap(ex.X, ex.Y, ex.mul(ex.const(2.0), ex.T), name="stretch-t")
    a = assess_contact(m, Point(1.0, 1.0, 0.0))
    assert abs(a.r1) > 0.1  # 2y at this point
    assert not a.is_contact()


def test_rotation_is_isometry_of_frame():
    # conformal rotation: mu = 0 and lambda = 1
    a = assess_contact(word_to_map([Rotate(0.8)]), Point(0.5, 0.2, -0.3))
    assert abs(a.mu) < 1e-14
    assert a.lam == pytest.approx(1.0, rel=1e-14)


def test_random_words_contact_residuals_vanish():
    rng = random.Random(11)
    from heiscalc.group import random_word
    for _ in range(10):
        m = word_to_map(random_word(rng, length=3))
        a = assess_contact(m, Point(0.4, 0.3, 0.2))
        assert a.max_contact_residual() < 1e-9


@pytest.mark.parametrize("letter", ["X", "Y", "T", "Z", "Zb"])
def test_frame_derivative_of_an_order_zero_jet_raises_order_error(letter):
    from heiscalc.errors import OrderError
    with pytest.raises(OrderError):
        frame(_jet("x*y + t", 0), letter)


# --- the contact assessment reads its first order from the coefficients ------

def _frame_values(jets):
    """What `horizontal._xyt_values` reads, by the matrix route of `frame`."""
    return [(frame(j, "X").value, frame(j, "Y").value, frame(j, "T").value, j.value)
            for j in jets]


# signed zeros first: the sign of a zero is what the two routes could give
# differently, and no other value shows it
_DRAWS = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -2.5)


def _draw(rng):
    return rng.choice(_DRAWS) if rng.random() < 0.8 else rng.uniform(-3.0, 3.0)


def test_first_order_values_are_the_frames_bit_for_bit():
    from heiscalc.jets import Jet, ncoef
    import numpy as np
    rng = random.Random(26)
    for _ in range(4000):
        base = (_draw(rng), _draw(rng), _draw(rng))
        order = rng.choice((1, 1, 2, 3))
        jets = [Jet(base, order, np.array([complex(_draw(rng), _draw(rng))
                                           for _ in range(ncoef(order))]))
                for _ in range(3)]
        assert repr(horizontal._xyt_values(jets)) == repr(_frame_values(jets)), (base, jets)


def _signed_zero_words(rng):
    from heiscalc.group import Dilate, Translate, random_word
    zero = lambda: rng.choice((0.0, -0.0))
    yield [Translate((zero(), zero(), zero()))]
    yield [Dilate(1.5), Reflect()]
    yield [LinearSL2(2.0, 0.0, 0.0, 0.5)]
    for n in range(1, 5):
        yield random_word(rng, length=n)


def test_the_assessment_is_the_frame_routes_bit_for_bit(monkeypatch):
    # each field by repr, which tells -0.0 from 0.0, at points whose
    # coordinates may be signed zeros, on words whose jets have signed zero
    # first-order coefficients
    rng = random.Random(7)
    signed_zeros = 0
    for _ in range(40):
        for word in _signed_zero_words(rng):
            p = tuple(rng.choice((0.0, -0.0, rng.uniform(-1.5, 1.5))) for _ in range(3))
            try:
                got = horizontal._assess(word_to_map(word), p)
            except HeisError:
                with pytest.raises(HeisError), monkeypatch.context() as mp:
                    mp.setattr(horizontal, "_xyt_values", _frame_values)
                    horizontal._assess(word_to_map(word), p)
                continue
            with monkeypatch.context() as mp:
                mp.setattr(horizontal, "_xyt_values", _frame_values)
                want = horizontal._assess(word_to_map(word), p)
            assert [repr(getattr(got, f.name)) for f in fields(got)] == \
                [repr(getattr(want, f.name)) for f in fields(want)], (word, p)
            signed_zeros += "-0.0" in repr(got)
    assert signed_zeros > 40
