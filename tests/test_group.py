"""Group structure, generator maps, word grammar."""
import math
import random

import pytest

from heiscalc.errors import ParseError
from heiscalc.group import (Dilate, HeisMap, Invert, LinearSL2, Point, Reflect, Rotate,
                            Translate, dilate_point, group_inv, group_mul,
                            is_conformal_word, koranyi_dist, koranyi_norm,
                            make_type1, make_type2, parse_word, radial_curve,
                            random_word, word_orientation, word_to_map)


def test_group_law_pinned():
    # t' = t1 + t2 + 2(y1 x2 - x1 y2)
    assert group_mul((1, 2, 3), (4, 5, 6)) == Point(5, 7, 15)
    assert group_mul((0, 0, 0), (4, 5, 6)) == Point(4, 5, 6)


def test_group_inverse_and_associativity():
    rng = random.Random(2)
    for _ in range(20):
        p, q, r = (Point(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
                   for _ in range(3))
        pi = group_inv(p)
        assert max(map(abs, group_mul(p, pi))) < 1e-14
        lhs = group_mul(group_mul(p, q), r)
        rhs = group_mul(p, group_mul(q, r))
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-12


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


@pytest.mark.parametrize("bad", [
    "trans(1,2)", "foo(1)", "dil()", "inv(3)", "trans(a,b,c)", "o o",
])
def test_parse_word_rejects(bad):
    with pytest.raises(ParseError):
        parse_word(bad)


def test_random_word_deterministic():
    w1 = random_word(random.Random(9), length=4)
    w2 = random_word(random.Random(9), length=4)
    m1, m2 = word_to_map(w1), word_to_map(w2)
    p = Point(0.4, 0.1, -0.2)
    assert tuple(m1(p)) == tuple(m2(p))


def _reachable(m) -> int:
    seen, stack = set(), [m.e1, m.e2, m.e3]
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
