"""Products with a coordinate take the shift kernel, with the bits of the
full product.

The oracle is the full truncated product as Jet.__mul__ ran it before the
shift kernel existed, copied here; `_full_products` swaps it in. Bits are
compared with `tobytes`, so the sign of a zero counts.
"""
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heiscalc.horizontal import jx, jy
from heiscalc.jets import Jet, _mul_rows, _mul_table, jet_seed, ncoef


def _full_product(self, other):
    """Jet.__mul__ with the full product for every pair of jets."""
    if not isinstance(other, Jet):
        return Jet(self.base, self.order, self.coef * other)
    a, b = self._pair(other)
    A, B = a.coef, b.coef
    if A.ndim == 1:
        ia, ib, io = _mul_table(a.order)
        out = np.zeros_like(A)
        np.add.at(out, io, A[ia] * B[ib])
        return Jet(a.base, a.order, out)
    out = A[0] * B
    out += 0.0
    for ra, m, tgt in _mul_rows(a.order):
        out[tgt] += A[ra] * B[:m]
    top = max(ncoef(a.order - 1), 1)
    out[top:] += A[top:] * B[0]
    return Jet(a.base, a.order, out)


@contextmanager
def _full_products():
    kernel = Jet.__mul__
    Jet.__mul__ = Jet.__rmul__ = _full_product
    try:
        yield
    finally:
        Jet.__mul__ = Jet.__rmul__ = kernel


def _refuse(*args):
    raise AssertionError("no coordinate jet and no jet product here")


@contextmanager
def _no_coordinates_or_products():
    saved = Jet.__dict__["coordinate"], Jet.__mul__
    Jet.coordinate, Jet.__mul__ = _refuse, _refuse
    try:
        yield
    finally:
        Jet.coordinate, Jet.__mul__ = saved


def _bits(j):
    return j.order, j.coef.shape, j.coef.tobytes()


# Coordinates of the base: signed zeros, both signs, and values whose
# products round.
_COORD = st.sampled_from([0.0, -0.0, 0.3, -0.7, 1.0 / 3.0, -2.5, 1e-3, 7.25])
_POINT = st.tuples(_COORD, _COORD, _COORD)


@st.composite
def _setup(draw, min_order=0, positive=False):
    """(seeds, a jet at the same base): one point or a batch of three, with
    coefficients that include signed zeros."""
    order = draw(st.integers(min_order, 5))
    batch = draw(st.booleans())
    pts = draw(st.lists(_POINT, min_size=3, max_size=3) if batch else _POINT)
    if positive:
        pts = [[abs(c) + 0.25 for c in p] for p in pts] if batch else [abs(c) + 0.25 for c in pts]
    seeds = jet_seed(np.array(pts) if batch else pts, order)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = seeds[0].coef.shape
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for sign in (1.0, -1.0):
        coef.real[rng.random(shape) < 0.2] = sign * 0.0
        coef.imag[rng.random(shape) < 0.2] = sign * 0.0
    jet_order = draw(st.integers(min_order, order))
    return seeds, Jet(seeds[0].base, jet_order, coef[:ncoef(jet_order)].copy())


_VAR = st.integers(0, 2)


@settings(max_examples=300, deadline=None)
@given(_setup(), _VAR)
def test_coordinate_times_jet_either_side_is_the_full_product(setup, var):
    seeds, j = setup
    x = seeds[var]
    with _full_products():
        want = (x * j, j * x)
    assert _bits(x * j) == _bits(want[0])
    assert _bits(j * x) == _bits(want[1])


@settings(max_examples=100, deadline=None)
@given(_setup(), _VAR, st.integers(2, 6))
def test_powers_of_a_coordinate_are_the_full_products(setup, var, n):
    x = setup[0][var]
    with _full_products():
        want = x ** n
    assert _bits(x ** n) == _bits(want)


@settings(max_examples=100, deadline=None)
@given(_setup(positive=True), _VAR,
       st.sampled_from(["exp", "sin", "cos", "reciprocal", "log", "sqrt"]))
def test_series_of_a_coordinate_are_the_full_products(setup, var, name):
    x = setup[0][var]
    with _full_products():
        want = getattr(x, name)()
    assert _bits(getattr(x, name)()) == _bits(want)


def _parent_jx(j):
    dx = j.derive(0)
    return dx + 2.0 * Jet.coordinate(1, j.base, dx.order) * j.derive(2)


def _parent_jy(j):
    dy = j.derive(1)
    return dy - 2.0 * Jet.coordinate(0, j.base, dy.order) * j.derive(2)


@settings(max_examples=200, deadline=None)
@given(_setup(min_order=1))
def test_frame_operators_are_the_formula_with_full_products(setup):
    j = setup[1]
    with _full_products():
        want = (_parent_jx(j), _parent_jy(j))
    with _no_coordinates_or_products():
        got = (jx(j), jy(j))
    assert _bits(got[0]) == _bits(want[0])
    assert _bits(got[1]) == _bits(want[1])


def test_operations_on_a_coordinate_give_plain_jets():
    x, y, t = jet_seed((0.3, 0.6, -0.2), 4)
    j = (y - t).exp()
    ops = {
        "x + j": lambda: x + j, "j + x": lambda: j + x, "x + 2": lambda: x + 2.0,
        "x - j": lambda: x - j, "2 - x": lambda: 2.0 - x, "-x": lambda: -x,
        "x * j": lambda: x * j, "j * x": lambda: j * x, "x * y": lambda: x * y,
        "2 * x": lambda: 2.0 * x, "x / j": lambda: x / j, "j / x": lambda: j / x,
        "1 / x": lambda: 1.0 / x, "x / 2": lambda: x / 2.0,
        "x ** 0": lambda: x ** 0, "x ** 3": lambda: x ** 3, "x ** -2": lambda: x ** -2,
        "conj": x.conj, "real": x.real, "imag": x.imag, "copy": x.copy,
        "derive": lambda: x.derive(0), "truncate 2": lambda: x.truncate(2),
        "exp": x.exp, "log": x.log, "sqrt": x.sqrt, "sin": x.sin, "cos": x.cos,
        "reciprocal": x.reciprocal,
    }
    for name, op in ops.items():
        got = op()
        with _full_products():
            want = op()
        assert type(got) is Jet, name
        assert got.coef.tobytes() == want.coef.tobytes(), name
    assert x.truncate(4) is x and x ** 1 is x
