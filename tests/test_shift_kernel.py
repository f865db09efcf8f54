"""Products with a coordinate take the shift kernel, with the bits of the
full product; the frame kernel agrees with the frame operators composed
from derivatives and full coordinate products.

The oracle is the full truncated product as Jet.__mul__ ran it before the
shift kernel existed, copied here; `_full_products` swaps it in. Bits are
compared with `tobytes`, so the sign of a zero counts.
"""
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heiscalc.horizontal import frame
from heiscalc.jets import Jet, _mul_rows, _mul_table, indices, jet_seed, ncoef


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


def _bits(j):
    return j.order, j.coef.shape, j.coef.tobytes()


# Coordinates of the base: signed zeros, both signs, and values whose
# products round.
_COORD = st.sampled_from([0.0, -0.0, 0.3, -0.7, 1.0 / 3.0, -2.5, 1e-3, 7.25])
_POINT = st.tuples(_COORD, _COORD, _COORD)


@st.composite
def _setup(draw, positive=False):
    """(seeds, a jet at the same base): one point or a batch of three, with
    coefficients that include signed zeros."""
    order = draw(st.integers(0, 5))
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
    jet_order = draw(st.integers(0, order))
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


def _derive(j, var):
    """d/dvar of a single jet, read off its multi-indices."""
    rank = {m: r for r, m in enumerate(indices(j.order))}
    coef = []
    for b in indices(j.order - 1):
        up = list(b)
        up[var] += 1
        coef.append(j.coef[rank[tuple(up)]] * (b[var] + 1))
    return Jet(j.base, j.order - 1, np.array(coef))


def _parent_frame(j, letter):
    """The frame operators as they were composed before the frame kernel,
    X = Dx + 2y Dt and Y = Dy - 2x Dt, then Z and Zb from X and Y. The
    derivatives and the coordinate products (full products here) read
    neither the derivative nor the shift table."""
    dt = _derive(j, 2)
    with _full_products():
        x = _derive(j, 0) + 2.0 * Jet.coordinate(1, j.base, dt.order) * dt
        y = _derive(j, 1) - 2.0 * Jet.coordinate(0, j.base, dt.order) * dt
        return {"X": x, "Y": y, "Z": (x - 1j * y) * 0.5, "Zb": (x + 1j * y) * 0.5}[letter]


# Signed zeros, both signs, and values whose products round.
_FRAME_POINTS = np.array([[0.3, -0.7, 1.0 / 3.0], [-2.5, 1e-3, 7.25],
                          [0.0, -0.0, 0.3], [1.0 / 3.0, 7.25, -0.7]])


def test_frame_kernel_is_the_parent_composition():
    """frame(j, L) against the parent's composition, for every letter and
    orders 1-5, on single jets and on a batch of the same coefficients.

    The kernel sums each coefficient as one matrix product, so it rounds
    differently from the composition: each result must agree to 1e-14 of
    the largest coefficient of the oracle's result. A batch column is not
    bitwise the single-point result (a matrix-matrix product against a
    matrix-vector one, which BLAS may sum in another order), so it is held
    to the same bound."""
    rng = np.random.default_rng(12)
    n = len(_FRAME_POINTS)
    for order in range(1, 6):
        coef = (rng.standard_normal((ncoef(order), n))
                + 1j * rng.standard_normal((ncoef(order), n)))
        coef.real[rng.random(coef.shape) < 0.2] = -0.0
        for letter in ("X", "Y", "Z", "Zb"):
            batch = frame(Jet(_FRAME_POINTS, order, coef), letter)
            assert batch.order == order - 1
            for i, p in enumerate(_FRAME_POINTS):
                single = Jet(tuple(map(float, p)), order, coef[:, i].copy())
                want = _parent_frame(single, letter).coef
                got = frame(single, letter)
                assert got.order == order - 1 and got.coef.shape == want.shape
                bound = 1e-14 * np.abs(want).max()
                assert np.abs(got.coef - want).max() <= bound, (letter, order, i)
                assert np.abs(batch.coef[:, i] - want).max() <= bound, (letter, order, i)


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
