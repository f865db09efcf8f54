"""Group structure, generator maps, word grammar."""
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from heiscalc.errors import DomainError, HeisError, ParseError
from heiscalc.group import (Dilate, HeisMap, Invert, LinearSL2, Point, Reflect, Rotate,
                            Translate, dilate_point, group_inv, group_mul,
                            is_conformal_word, koranyi_dist, koranyi_norm,
                            make_type1, make_type2, parse_word, radial_curve,
                            random_word, word_orientation, word_to_map)


def test_group_law_pinned():
    # t' = t1 + t2 + 2(y1 x2 - x1 y2)
    assert group_mul((1, 2, 3), (4, 5, 6)) == Point(5, 7, 15)
    assert group_mul((0, 0, 0), (4, 5, 6)) == Point(4, 5, 6)


# coordinates in [-2, 2], kept off the tiny magnitudes whose squares lose
# their precision to underflow in the norm
_coords = st.floats(-2.0, 2.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)
_points = st.builds(Point, _coords, _coords, _coords)


@settings(max_examples=60, deadline=None)
@given(_points, _points, _points)
def test_group_inverse_and_associativity(p, q, r):
    pi = group_inv(p)
    assert max(map(abs, group_mul(p, pi))) < 1e-14
    lhs = group_mul(group_mul(p, q), r)
    rhs = group_mul(p, group_mul(q, r))
    assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(_points, _points, _points)
# three points of one horizontal line, where the inequality is an equality
@example(Point(0.25, -0.5, 1.0), group_mul((0.25, -0.5, 1.0), (0.5, 1.5, 0.0)),
         group_mul((0.25, -0.5, 1.0), (1.0, 3.0, 0.0)))
def test_koranyi_triangle_inequality(p, q, r):
    bound = koranyi_dist(p, q) + koranyi_dist(q, r)
    assert koranyi_dist(p, r) <= bound * (1.0 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(_points, st.floats(0.01, 100.0))
def test_koranyi_norm_homogeneous_under_dilation(p, r):
    assert koranyi_norm(dilate_point(r, p)) == pytest.approx(r * koranyi_norm(p), rel=1e-12)


def test_koranyi_norm_homogeneity():
    p = Point(0.7, -0.4, 0.3)
    assert koranyi_norm(dilate_point(2.0, p)) == pytest.approx(2.0 * koranyi_norm(p))
    assert koranyi_norm((1, 0, 0)) == 1.0
    assert koranyi_norm((0, 0, 1)) == 1.0


def test_koranyi_dist_left_invariant():
    rng = random.Random(3)
    for _ in range(10):
        p, q, g = (Point(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(3))
        d0 = koranyi_dist(p, q)
        d1 = koranyi_dist(group_mul(g, p), group_mul(g, q))
        assert d1 == pytest.approx(d0, rel=1e-12)


def test_inversion_pinned_points():
    inv = word_to_map([Invert()])
    assert tuple(inv(Point(1, 0, 0))) == pytest.approx((-1, 0, 0))
    assert tuple(inv(Point(0, 0, 1))) == pytest.approx((0, 0, -1))


def test_inversion_norm_reciprocal_and_involution():
    inv = word_to_map([Invert()])
    rng = random.Random(4)
    for _ in range(10):
        p = Point(rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5), rng.uniform(-2, 2))
        q = inv(p)
        assert koranyi_norm(q) == pytest.approx(1.0 / koranyi_norm(p), rel=1e-12)
        back = inv(q)
        assert max(abs(a - b) for a, b in zip(back, p)) < 1e-10


def test_dilation_rotation_translation_act_as_stated():
    p = Point(0.7, -0.4, 0.3)
    assert tuple(word_to_map([Dilate(3.0)])(p)) == pytest.approx((2.1, -1.2, 2.7))
    rot = word_to_map([Rotate(math.pi / 2)])(p)
    assert tuple(rot) == pytest.approx((0.4, 0.7, 0.3))
    tr = word_to_map([Translate((1.0, 2.0, 0.5))])(p)
    assert tuple(tr) == pytest.approx(tuple(group_mul((1.0, 2.0, 0.5), p)))


def test_reflect_orientation():
    assert word_orientation([Reflect()]) == -1
    assert word_orientation([Reflect(), Reflect()]) == 1
    assert word_orientation([Invert(), Dilate(2.0)]) == 1
    p = Point(0.7, -0.4, 0.3)
    assert tuple(word_to_map([Reflect()])(p)) == pytest.approx((0.7, 0.4, -0.3))


def test_word_to_map_matches_pointwise_composition():
    word = [Translate((0.5, -0.2, 0.1)), Invert(), Dilate(0.8), Rotate(0.7)]
    m = word_to_map(word)
    p = Point(0.6, 0.3, -0.4)
    q = p
    for gen in reversed(word):
        q = word_to_map([gen])(q)
    assert max(abs(a - b) for a, b in zip(m(p), q)) < 1e-12


def test_type_words():
    w1 = make_type1((0.1, 0.2, 0.3), 0.5, 1.5, (-0.2, 0.0, 0.1))
    w2 = make_type2((0.1, 0.2, 0.3), 0.5, 1.5, (-0.2, 0.0, 0.1))
    assert len(w1) == 4 and len(w2) == 5
    assert is_conformal_word(w1) and is_conformal_word(w2)
    assert not is_conformal_word([Reflect()])
    assert not is_conformal_word([LinearSL2(2.0, 0.0, 0.0, 0.5)])
    assert is_conformal_word([LinearSL2(math.cos(0.3), math.sin(0.3),
                                        -math.sin(0.3), math.cos(0.3))])


def test_radial_curve_scaling():
    p = Point(0.7, -0.4, 0.3)
    n0 = koranyi_norm(p)
    for r in (0.3, 0.9, 1.7):
        assert koranyi_norm(radial_curve(r, p)) == pytest.approx(r * n0, rel=1e-12)
    assert tuple(radial_curve(1.0, p)) == pytest.approx(tuple(p))


def test_parse_word_round_trip():
    m1 = word_to_map(parse_word("trans(1,0,2) o inv o dil(0.5)"))
    m2 = word_to_map([Translate((1, 0, 2)), Invert(), Dilate(0.5)])
    p = Point(0.6, 0.3, -0.4)
    assert max(abs(a - b) for a, b in zip(m1(p), m2(p))) < 1e-14
    assert parse_word("id") == []
    assert len(parse_word("rot(0.5) o sl2(2,0,0,0.5) o refl")) == 3
    # '*' separates any two letters, with or without arguments
    assert parse_word("inv*refl") == parse_word("inv o refl") == [Invert(), Reflect()]
    assert parse_word("dil(2) * inv") == [Dilate(2.0), Invert()]


# each rejected word and what its message must say; a known letter with the
# wrong number of arguments is named with its arity
_REJECTED_WORDS = {
    "trans(1,2)": "trans takes 3 arguments, got 2",
    "dil(1,2)": "dil takes 1 argument, got 2",
    "rot(1,2)": "rot takes 1 argument, got 2",
    "sl2(2,0,0.5)": "sl2 takes 4 arguments, got 3",
    "inv(3)": "inv takes 0 arguments, got 1",
    "refl(1,2)": "refl takes 0 arguments, got 2",
    "foo(1)": r"unknown word letter 'foo\(1\)'",
    "dil()": r"bad arguments in 'dil\(\)'",
    "trans(a,b,c)": "bad arguments",
    "trans": "bad word letter 'trans'",
    "o o": "bad word letter 'o o'",
    "inv*": "empty word letter",
    "rot(nan)": "not a finite number",
    "dil(nan)": "not a finite number",
    "trans(inf,0,0)": "not a finite number",
    "dil(1e309)": "not a finite number",
    "sl2(nan,0,0,1)": "not a finite number",
}


@pytest.mark.parametrize("bad", list(_REJECTED_WORDS))
def test_parse_word_rejects(bad):
    with pytest.raises(ParseError, match=_REJECTED_WORDS[bad]):
        parse_word(bad)


def test_generator_checks_refuse_nan():
    # nan <= 0 and abs(nan - 1) > 1e-12 are both False
    with pytest.raises(HeisError):
        Dilate(float("nan"))
    with pytest.raises(HeisError):
        LinearSL2(float("nan"), 0.0, 0.0, 1.0)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("cls, args", [
    (Rotate, (_NAN,)), (Rotate, (_INF,)), (Translate, ((_INF, 0.0, 0.0),)),
    (Translate, ((0.0, 0.0, _NAN),)), (Dilate, (_INF,)), (Dilate, (_NAN,)),
    (LinearSL2, (_INF, 0.0, 0.0, 1.0)),
], ids=["rot-nan", "rot-inf", "trans-inf", "trans-nan", "dil-inf", "dil-nan", "sl2-inf"])
def test_generators_refuse_non_finite_parameters_at_construction(cls, args):
    # refused when built, not at the map's first evaluation
    with pytest.raises(DomainError):
        cls(*args)


def test_random_word_deterministic():
    w1 = random_word(random.Random(9), length=4)
    w2 = random_word(random.Random(9), length=4)
    m1, m2 = word_to_map(w1), word_to_map(w2)
    p = Point(0.4, 0.1, -0.2)
    assert tuple(m1(p)) == tuple(m2(p))


def _reachable(m) -> int:
    seen, stack = set(), list(m.exprs)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node.args)
    return len(seen)


def test_word_to_map_shares_nodes_like_compose():
    # the inversion's rho and den are built once for all three components
    word = [Invert(), Translate((0.2, 0.1, -0.4))]
    folded = HeisMap(*word[0].exprs()).compose(HeisMap(*word[1].exprs()))
    m = word_to_map(word)
    assert _reachable(m) == _reachable(folded)
    assert m.name == "inv∘trans(0.2,0.1,-0.4)"
    p = (0.3, -0.5, 0.7)
    assert tuple(m(p)) == tuple(folded(p))


def test_empty_word_is_a_fresh_identity():
    from heiscalc.group import IDENTITY
    m = word_to_map([])
    assert m is not IDENTITY
    assert m.name == "id"
    m.name = "renamed"
    assert IDENTITY.name == "id"
    assert word_to_map([]).name == "id"
    assert tuple(m((0.3, -0.5, 0.7))) == (0.3, -0.5, 0.7)


# --- the reading: one evaluation per (map, point) ------------------------------

def _bits(jets) -> list:
    return [j.coef.tobytes() for j in jets]


def test_a_reading_serves_lower_orders_and_reevaluates_higher():
    from heiscalc import expr
    m = word_to_map([Invert(), Rotate(0.3), Translate((0.2, -0.1, 0.4))])
    p = (0.3, -0.5, 0.7)
    r3 = m.reading(p, 3)
    assert m.reading(p, 1) is r3 and m.reading(p, 3) is r3
    for k in range(4):   # a truncation has the bits of a direct evaluation
        assert _bits(m.jets(p, k)) == _bits(expr.jet_eval(m.exprs, p, k))
    assert m.reading(p, 4) is not r3 and m.reading(p, 4).jets[0].order == 4
    # a new point is read to the order both Schwarzians read, at least
    assert m.reading((0.3, -0.5, 0.8), 1).jets[0].order == 3
    assert m.reading((0.3, -0.5, 0.9), 5).jets[0].order == 5


def test_signed_zero_points_are_two_readings():
    from heiscalc import schwarzian as sw
    word = [Dilate(1.5)]   # x -> 1.5 x keeps the sign of a zero x
    m = word_to_map(word)
    plus, minus = (0.0, 0.6, -0.3), (-0.0, 0.6, -0.3)
    got = [repr(sw.s_cr(m, plus)), _bits(m.jets(plus, 3)),
           repr(sw.s_cr(m, minus)), _bits(m.jets(minus, 3))]
    fresh = [repr(sw.s_cr(word_to_map(word), plus)), _bits(word_to_map(word).jets(plus, 3)),
             repr(sw.s_cr(word_to_map(word), minus)), _bits(word_to_map(word).jets(minus, 3))]
    assert got == fresh
    assert got[1] != got[3]


def test_handed_out_jets_are_read_only():
    from heiscalc import schwarzian as sw
    from heiscalc.horizontal import jacobian, zf
    m = word_to_map([Invert(), LinearSL2(2.0, 0.0, 0.0, 0.5)])
    p = (1.0, 1.0, 0.0)
    want = sw.s_cr(m, p)
    for j in (*m.jets(p, 3), jacobian(m, p, 2), jacobian(m, p, 2, "log"),
              jacobian(m, p, 2, "reciprocal"), zf(m, p, 2), zf(m, p, 2, conj=True)):
        with pytest.raises(ValueError):
            j.coef[0] = 1.0
        with pytest.raises(ValueError):
            j.coef *= 2.0
    assert repr(sw.s_cr(m, p)) == repr(want)
    low = m.jets(p, 2)[0]   # a truncation is a copy, free to change
    low.coef[0] = 1.0
    assert repr(sw.s_cr(m, p)) == repr(want)


def test_the_shared_contact_assessment_is_immutable():
    import dataclasses
    from heiscalc import schwarzian as sw
    from heiscalc.horizontal import assess_contact
    m = word_to_map([Invert(), LinearSL2(2.0, 0.0, 0.0, 0.5)])
    p = (1.0, 1.0, 0.0)
    want = sw.s_cl(m, p)
    a = assess_contact(m, p)
    assert assess_contact(m, p) is a   # the one the gate of s_cl read
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.r1 = 1.0
    assert repr(sw.s_cl(m, p)) == repr(want)


def test_a_batch_bypasses_the_reading():
    import numpy as np
    m = word_to_map([Invert(), Translate((0.2, -0.1, 0.4))])
    p = (0.3, -0.5, 0.7)
    r = m.reading(p, 2)
    batch = m.jets(np.array([p, (0.1, 0.2, 0.3)]), 3)
    assert batch[0].coef.shape[1] == 2 and batch[0].coef.flags.writeable
    assert m.reading(p, 2) is r


_WRONG_SHAPES = [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4), (0.1, 0.2, 0.3, float("nan")), ()]


@pytest.mark.parametrize("p", _WRONG_SHAPES)
def test_a_point_of_the_wrong_shape_is_a_domain_error(p):
    # the reading's key raised a bare struct.error, and a map dropped a
    # fourth coordinate
    from heiscalc import schwarzian as sw
    from heiscalc.horizontal import assess_contact
    m = word_to_map([Invert()])
    for call in (lambda: sw.s_cr(m, p), lambda: sw.s_cl(m, p),
                 lambda: assess_contact(m, p), lambda: m.jets(p, 2), lambda: m(p)):
        with pytest.raises(DomainError, match="three real coordinates"):
            call()
    assert m((0.1, 0.2, 0.3)) == m([0.1, 0.2, 0.3])


@pytest.mark.parametrize("p", [*_WRONG_SHAPES, (0.1, 0.2, 1j), ("a", 0.0, 0.0),
                               (10 ** 400, 0.0, 0.0)])
def test_as_point_takes_three_real_coordinates(p):
    from heiscalc.group import as_point
    with pytest.raises(DomainError):
        as_point(p)


def test_as_point_gives_three_finite_floats():
    import numpy as np
    from heiscalc.group import as_point
    for p in ((1, -2, 0.5), [1, -2, 0.5], np.array([1.0, -2.0, 0.5]), Point(1, -2, 0.5)):
        q = as_point(p)
        assert q == Point(1.0, -2.0, 0.5) and all(type(c) is float for c in q)
    with pytest.raises(DomainError, match=r"the start point \(0.0, inf, 0.0\) is not finite"):
        as_point((0, float("inf"), 0), "the start point")
