"""Composition by the chain rule on jets against the substituted DAG.

A word's map and a composite f o g evaluate by running the outer map's
function on the inner map's values: a generator's `apply`, an expression
map's tape, or a composite's chain, and at a single point a composite reads
its inner map's reading. The reference route builds the substituted
expressions (`HeisMap.exprs`) and evaluates them with `expr.eval_at` and
`expr.jet_eval`. Both routes run the same operations on the same values,
so every value and every jet coefficient agrees bit for bit, and where one
route raises, the other raises the same error type. The one exception is
the sign of a zero: the smart constructors fold a product by the constant
1 or 0 and a sum with 0 (`Dilate(1.0)`, a translation by 0, the zero
entries of `sl2(2,0,0,0.5)`), which the arithmetic on values runs, and
complex (a + bi)(1 + 0i) rounds -0.0 + 0i to 0.0. So the bits are compared
after adding 0.0, which only turns -0.0 into 0.0.

Since each generator's expressions are its `apply` run on the coordinates,
the two routes share each letter's formula, so each letter is also checked
against a closed form of its own (`group_mul` for a translation, complex
arithmetic for the rotation and the inversion).
"""
import cmath
import gc
import math
import weakref

import numpy as np
from hypothesis import example, given, settings, strategies as st

from heiscalc import expr as ex
from heiscalc.errors import HeisError
from heiscalc.group import (Dilate, HeisMap, Invert, LinearSL2, Point, Reflect, Rotate,
                            Translate, dilate_point, group_mul, word_to_map)

# coordinates kept off the tiny magnitudes whose inversions leave the float
# range in a few letters; 0.0 stays, so the inversion's pole is drawn
_coords = st.floats(-2.0, 2.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)
_points = st.tuples(_coords, _coords, _coords)
_params = st.floats(-1.5, 1.5)


@st.composite
def _sl2(draw):
    a = draw(st.floats(0.5, 2.0))
    b, c = draw(_params), draw(_params)
    return LinearSL2(a, b, c, (1.0 + b * c) / a)


_letters = st.one_of(
    st.builds(Translate, st.tuples(_params, _params, _params)),
    st.builds(Dilate, st.floats(0.5, 2.0)),
    st.builds(Rotate, st.floats(0.0, 2.0 * math.pi)),
    st.just(Invert()), st.just(Reflect()), _sl2())
_words = st.lists(_letters, min_size=1, max_size=6)


def _outcome(fn):
    """The bytes of every value or coefficient fn gives, with -0.0 read as
    0.0, or the type of the HeisError it raises."""
    try:
        out = fn()
    except HeisError as e:
        return type(e).__name__
    return [(np.asarray(v.coef if hasattr(v, "coef") else v) + 0.0).tobytes() for v in out]


def _assert_routes_agree(m, p, batch):
    exprs = m.exprs
    assert _outcome(lambda: m(p)) == _outcome(
        lambda: [v.real for v in ex.eval_at(exprs, p)])
    for k in range(5):
        read = max(k, 3)   # a reading evaluates to order 3 at least
        assert _outcome(lambda: m.jets(p, k)) == _outcome(
            lambda: [j.truncate(k) for j in ex.jet_eval(exprs, p, read)]), k
        assert _outcome(lambda: m.jets(batch, k)) == _outcome(
            lambda: ex.jet_eval(exprs, batch, k)), k


def _closed_form(gen, q):
    """The letter's image of the point q, by a formula of its own."""
    x, y, t = q
    if isinstance(gen, Translate):
        return group_mul(gen.p, q)
    if isinstance(gen, Dilate):
        return dilate_point(gen.r, q)
    if isinstance(gen, Rotate):
        z = cmath.exp(1j * gen.phi) * complex(x, y)
        return z.real, z.imag, t
    if isinstance(gen, Invert):   # -i z / (t + i|z|^2), -t / |t + i|z|^2|^2
        rho = x * x + y * y
        z = -1j * complex(x, y) / complex(t, rho)
        return z.real, z.imag, -t / (t * t + rho * rho)
    if isinstance(gen, Reflect):
        return x, -y, -t
    return gen.a * x + gen.b * y, gen.c * x + gen.d * y, t


@settings(max_examples=150, deadline=None)
@given(_words, _points)
@example([Translate((0.5, -0.25, 1.0)), Invert()], (0.3, 0.7, -0.2))
def test_each_letter_maps_a_point_as_its_closed_form(word, p):
    # letter by letter along the word, rightmost first, each from the closed
    # form's point; the word's map is the fold of the letters
    q = p
    for gen in reversed(word):
        try:
            want = _closed_form(gen, q)
        except ZeroDivisionError:   # the inversion's pole
            assert _outcome(lambda: word_to_map(word)(p)) == "DomainError"
            return
        got = [v.real for v in gen.apply(*map(complex, q))]
        tol = 1e-12 * (1.0 + max(map(abs, q)) + max(map(abs, want))) ** 2
        assert all(abs(a - b) <= tol for a, b in zip(got, want)), (gen, q)
        q = want
    m = word_to_map(word)
    chained = tuple(map(complex, p))
    for gen in reversed(word):
        chained = gen.apply(*chained)
    assert _outcome(lambda: m(p)) == _outcome(lambda: [v.real for v in chained])


@settings(max_examples=150, deadline=None)
@given(_words, _points, st.lists(_points, min_size=1, max_size=4))
@example([Invert(), Translate((0.5, -0.25, 1.0))], (0.0, 0.0, 0.0), [(0.0, 0.0, 0.0)])
@example([Invert()], (0.0, 0.0, 0.0), [(0.5, 0.5, 0.5), (0.0, 0.0, 0.0)])
def test_a_word_evaluates_as_its_substituted_dag(word, p, points):
    _assert_routes_agree(word_to_map(word), p, np.array(points))


@settings(max_examples=100, deadline=None)
@given(_words, _words, _words, st.booleans(), st.booleans(), _points,
       st.lists(_points, min_size=1, max_size=4))
@example([Invert()], [Translate((0.5, -0.25, 1.0))], [Reflect()], False, False,
         (-0.5, 0.25, -1.0), [(-0.5, 0.25, -1.0)])
def test_a_composite_evaluates_as_its_substituted_dag(fw, gw, hw, outer_exprs, read_first,
                                                      p, points):
    # the outer map held as a word's function or as its expressions (its
    # tape on values, `subs` on expressions); the inner map's reading made
    # by the composite, or before it at order 4; and a composite as the
    # outer map of another
    f, g, h = word_to_map(fw), word_to_map(gw), word_to_map(hw)
    if outer_exprs:
        f = HeisMap(*f.exprs)
    if read_first:
        try:
            g.reading(p, 4)
        except HeisError:
            pass
    fg = f.compose(g)
    _assert_routes_agree(fg, p, np.array(points))
    _assert_routes_agree(fg.compose(h), p, np.array(points))


def test_composites_leave_no_reference_cycle():
    # A map keeps its last composite, which holds the map's function and
    # not the map, so dropping the last names frees every map, composite and
    # letter at once, with the collector off, their readings made: the
    # word maps, the composite that f keeps, the stretch and its composite
    # with a word (as `verify` builds f), and that composite's own.
    from heiscalc import schwarzian as sw
    word = [Invert(), LinearSL2(2.0, 0.0, 0.0, 0.5), Translate((0.2, 0.1, -0.4))]
    stretch = word_to_map(word[:2])
    f = stretch.compose(word_to_map(word[2:]))
    g = word_to_map([Rotate(0.3), Dilate(1.5)])
    fg = f.compose(g)
    p = Point(0.3, -0.5, 0.7)
    sw.cr_chain_residual(f, g, p)
    sw.cocycle_residual_right(f, g, p)
    refs = [weakref.ref(o) for o in (stretch, f, g, fg, *word)]
    gc.disable()
    try:
        del stretch, f, g, fg, word
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
