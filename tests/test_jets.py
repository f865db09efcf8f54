"""Jet arithmetic against closed-form partial derivatives."""
import cmath
import math

import numpy as np
import pytest

from heiscalc.errors import DomainError, OrderError
from heiscalc.horizontal import frame
from heiscalc.jets import Jet, indices, is_batch, jet_seed, ncoef

P = (0.3, -0.2, 0.7)


def test_indices_grading_prefix():
    # grade-major layout: lower order is a prefix of higher order
    for k in range(5):
        assert indices(k) == indices(k + 1)[:ncoef(k)]
        assert len(indices(k)) == ncoef(k)
    assert indices(1) == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_coordinate_and_constant():
    x, y, t = jet_seed(P, 3)
    assert x.value == pytest.approx(0.3)
    assert x.partial((1, 0, 0)) == 1.0
    assert x.partial((0, 1, 0)) == 0.0
    c = Jet.constant(2.5, P, 3)
    assert c.value == 2.5
    assert c.partial((0, 0, 1)) == 0.0


def _sample_jet(order=6):
    # f = exp(x) * sin(y) + t^2, assembled through jet arithmetic
    x, y, t = jet_seed(P, order)
    return x.exp() * y.sin() + t * t


def test_partials_match_closed_form():
    j = _sample_jet()
    e, s, c = math.exp(P[0]), math.sin(P[1]), math.cos(P[1])
    # d^(i+j)/dx^i dy^j of exp(x) sin(y) cycles through sin/cos with signs
    assert j.partial((0, 0, 0)) == pytest.approx(e * s + P[2] ** 2, rel=1e-14)
    assert j.partial((1, 0, 0)) == pytest.approx(e * s, rel=1e-13)
    assert j.partial((0, 1, 0)) == pytest.approx(e * c, rel=1e-13)
    assert j.partial((2, 1, 0)) == pytest.approx(e * c, rel=1e-12)
    assert j.partial((1, 2, 0)) == pytest.approx(-e * s, rel=1e-12)
    assert j.partial((0, 0, 2)) == pytest.approx(2.0, abs=1e-13)
    assert j.partial((1, 0, 1)) == pytest.approx(0.0, abs=1e-13)


def test_derive_shifts_partials():
    j = _sample_jet()
    dx = j.derive("x")
    assert dx.order == j.order - 1
    assert dx.partial((1, 1, 0)) == pytest.approx(j.partial((2, 1, 0)), rel=1e-12)


def test_reciprocal_log_sqrt_roundtrips():
    j = _sample_jet(5) + 3.0  # keep the value away from 0
    one = j * j.reciprocal()
    assert np.allclose(one.coef[0], 1.0)
    assert np.max(np.abs(one.coef[1:])) < 1e-13
    back = j.log().exp()
    assert np.max(np.abs(back.coef - j.coef)) < 1e-12
    sq = j.sqrt()
    assert np.max(np.abs((sq * sq).coef - j.coef)) < 1e-12


@pytest.mark.parametrize("u0", [1e-200, -1e-200j, 3e-300, 1e200])
def test_reciprocal_and_log_of_a_tiny_or_huge_value(u0):
    # u = u0 (1 + x + y t) at the origin: 1/u = (1/u0) / (1 + w) and
    # log u = log u0 + log(1 + w) with w = x + y t, whose coefficients are
    # those at u0 = 1, scaled; no power of u0 is formed, so none underflows
    x, y, t = jet_seed((0.0, 0.0, 0.0), 4)
    w = x + y * t
    u = (w + 1.0) * u0
    unit_recip, unit_log = (w + 1.0).reciprocal(), (w + 1.0).log()
    np.testing.assert_allclose(u.reciprocal().coef, unit_recip.coef / u0, rtol=1e-15, atol=0)
    got = u.log().coef
    assert got[0] == pytest.approx(cmath.log(u0), rel=1e-15)
    np.testing.assert_allclose(got[1:], unit_log.coef[1:], rtol=1e-15, atol=0)


@pytest.mark.parametrize("u0", [1e-200, -1e-200j, 3e-300, 1e200])
def test_sqrt_of_a_tiny_or_huge_value(u0):
    # sqrt u = sqrt(u0) sqrt(1 + w), w = x + y t: the coefficients at u0 = 1
    # scaled by sqrt(u0), with no power of u0 formed
    x, y, t = jet_seed((0.0, 0.0, 0.0), 4)
    w = x + y * t
    unit = (w + 1.0).sqrt()
    np.testing.assert_allclose(((w + 1.0) * u0).sqrt().coef, unit.coef * cmath.sqrt(u0),
                               rtol=1e-15, atol=0)


def test_sqrt_of_a_tiny_value_at_a_point():
    from heiscalc.expr import jet_eval, parse_expr
    x = jet_seed((0.0, 0.0, 0.0), 2)[0]
    got = ((x + 1.0) * 1e-200).sqrt()
    assert got.value == pytest.approx(1e-100, rel=1e-15)
    assert got.partial((1, 0, 0)) == pytest.approx(0.5e-100, rel=1e-15)
    j = jet_eval(parse_expr("sqrt(1e-200*(x+2))"), (0, 0, 0), 2)
    assert j.value == pytest.approx(math.sqrt(2.0) * 1e-100, rel=1e-15)
    assert j.partial((2, 0, 0)) == pytest.approx(-0.25 * 2.0 ** -1.5 * 1e-100, rel=1e-14)


def test_truncate_and_order_errors():
    j = _sample_jet(3)
    assert j.truncate(2).order == 2
    with pytest.raises(OrderError):
        j.truncate(4)
    with pytest.raises(OrderError):
        j.partial((2, 2, 0))
    with pytest.raises(OrderError):
        Jet.constant(1.0, P, 0).derive("x")


def test_mixed_order_arithmetic_truncates():
    a = _sample_jet(4)
    b = _sample_jet(2)
    assert (a + b).order == 2
    assert (a * b).order == 2


def test_base_mismatch_rejected():
    a = Jet.coordinate(0, (0, 0, 0), 2)
    b = Jet.coordinate(0, (1, 0, 0), 2)
    with pytest.raises(ValueError):
        a + b


def test_domain_errors():
    zero = Jet.coordinate(0, (0.0, 0.0, 0.0), 3)  # value 0 at the origin
    with pytest.raises(DomainError):
        zero.reciprocal()
    with pytest.raises(DomainError):
        (zero - 1.0).log()
    with pytest.raises(DomainError):
        (zero - 1.0).sqrt()
    with pytest.raises(DomainError):
        zero / 0


def test_power_matches_repeated_product():
    j = _sample_jet(4)
    assert np.allclose((j ** 3).coef, (j * j * j).coef)
    inv2 = j + 3.0
    assert np.allclose((inv2 ** -2).coef, (inv2.reciprocal() * inv2.reciprocal()).coef)


def test_power_starts_from_the_base(monkeypatch):
    # j ** n is the left product j * j * ... * j: n - 1 products, bitwise
    singles = [_sample_jet(4), _sample_jet(5)]
    batch = jet_seed(np.random.default_rng(3).uniform(0.1, 0.9, (16, 3)), 5)[0].exp()
    products = []
    orig = Jet.__mul__

    def counting(a, b):
        products.append(1)
        return orig(a, b)
    for j in singles + [batch]:
        want = j
        for n in range(2, 6):
            want = want * j
            monkeypatch.setattr(Jet, "__mul__", counting)
            products.clear()
            got = j ** n
            monkeypatch.setattr(Jet, "__mul__", orig)
            assert len(products) == n - 1
            assert got.coef.tobytes() == want.coef.tobytes()
        assert np.array_equal((j ** 0).coef, Jet.constant(1.0, j.base, j.order).coef)


def test_jets_of_one_seed_share_its_base():
    # jet_seed normalises the base point once; every operation passes it on
    x, y, t = jet_seed((1, -2, 0.5), 3)
    base = x.base
    assert base == (1.0, -2.0, 0.5) and all(type(c) is float for c in base)
    derived = (y, t, x * y, 2.0 * t - 1.0, x / 3.0, -y, x ** 2, (x - t).exp(),
               (y + 3.0).reciprocal(), frame(x * t, "X"), (x * t).derive(2), (x * y).truncate(1))
    assert all(j.base is base for j in derived)


def test_conj_real_imag_split():
    x, y, _ = jet_seed(P, 3)
    w = x + 1j * y
    assert np.allclose((w.real()).coef, x.coef)
    assert np.allclose((w.imag()).coef, y.coef)
    assert np.allclose(w.conj().coef, (x - 1j * y).coef)


# --- batches: one jet with a trailing point axis ----------------------------------

def _points(n=64, seed=11):
    return np.random.default_rng(seed).uniform(0.1, 0.9, (n, 3))


def _inputs(p, order=5):
    # a complex jet with value away from 0 and the negative reals, and a real one
    x, y, t = jet_seed(p, order)
    u = x.exp() * y.sin() + t * t + 2.0 + 0.5j * (x * t)
    v = x * y - t + 3.0
    return u, v


def _stack(jets):
    pts = np.array([j.base for j in jets])
    return Jet(pts, jets[0].order, np.stack([j.coef for j in jets], axis=1))


BATCH_OPS = {
    "*": lambda u, v: u * v,
    "+": lambda u, v: u + v,
    "-": lambda u, v: u - v,
    "/": lambda u, v: u / v,
    "**": lambda u, v: u ** 3,
    "**-2": lambda u, v: v ** -2,
    "derive": lambda u, v: u.derive("t"),
    "exp": lambda u, v: u.exp(),
    "log": lambda u, v: u.log(),
    "sqrt": lambda u, v: u.sqrt(),
    "sin": lambda u, v: u.sin(),
    "cos": lambda u, v: v.cos(),
    "reciprocal": lambda u, v: u.reciprocal(),
    "conj": lambda u, v: u.conj(),
    "real": lambda u, v: u.real(),
    "imag": lambda u, v: u.imag(),
    "scalar": lambda u, v: 2.5 - (u * 0.5j) / 4.0,
}


@pytest.mark.parametrize("name", sorted(BATCH_OPS))
def test_batched_op_matches_per_point(name):
    op = BATCH_OPS[name]
    singles = [_inputs(tuple(p)) for p in _points()]
    U, V = _stack([s[0] for s in singles]), _stack([s[1] for s in singles])
    got = op(U, V)
    assert got.coef.shape[1] == len(singles)
    for i, (u, v) in enumerate(singles):
        want = op(u, v).coef
        if name in ("*", "derive"):
            assert got.coef[:, i].tobytes() == want.tobytes(), i
        else:
            assert np.max(np.abs(got.coef[:, i] - want)) <= 1e-14 * np.max(np.abs(want)), i


def test_batch_seed_value_and_partial():
    pts = _points(8)
    x, y, t = jet_seed(pts, 3)
    assert x.coef.shape == (ncoef(3), 8)
    assert np.array_equal(y.value, pts[:, 1])
    f = x * y * t
    for i, p in enumerate(pts):
        g = jet_seed(tuple(p), 3)
        g = g[0] * g[1] * g[2]
        assert f.partial((1, 1, 0))[i] == g.partial((1, 1, 0))
        assert f.value[i] == g.value


def test_batch_rejects_other_bases():
    a = jet_seed(_points(8), 2)[0]
    with pytest.raises(ValueError):
        a + jet_seed(_points(8, seed=12), 2)[0]
    with pytest.raises(ValueError):
        a + jet_seed(tuple(_points(1)[0]), 2)[0]
    assert np.array_equal((a + jet_seed(_points(8), 2)[1]).value, _points(8)[:, :2].sum(1))


def test_batch_domain_error_is_the_failing_points():
    pts = _points()
    pts[17, 0] = 0.0                       # x = 0: reciprocal fails here only
    x = jet_seed(pts, 3)[0]
    with pytest.raises(DomainError) as batch:
        x.reciprocal()
    with pytest.raises(DomainError) as single:
        jet_seed(tuple(pts[17]), 3)[0].reciprocal()
    assert str(batch.value) == str(single.value)
    pts[[23, 40], 0] = (-0.25, -0.5)       # log fails at 17, 23 and 40: 17 is reported
    x = jet_seed(pts, 3)[0]
    for fn in ("log", "sqrt"):
        with pytest.raises(DomainError) as batch:
            getattr(x, fn)()
        with pytest.raises(DomainError) as single:
            getattr(jet_seed(tuple(pts[17]), 3)[0], fn)()
        assert str(batch.value) == str(single.value)
    pts[17, 0] = 0.5
    with pytest.raises(DomainError, match=r"-0\.25"):
        jet_seed(pts, 3)[0].log()


def test_jet_eval_over_a_batch_matches_per_point():
    from heiscalc.expr import jet_eval, parse_expr
    from heiscalc.group import Invert, Translate, word_to_map
    e = parse_expr("exp(x)*cos(y) + t^2 - 2/3*(x^4 + y^4) + sqrt(x+1)/(y+2) + log(3+t)")
    pts = _points(16)
    got = jet_eval(e, pts, 4)
    m = word_to_map([Invert(), Translate((0.2, 0.1, -0.4))])
    got_m = m.jets(pts, 3)
    for i, p in enumerate(pts):
        want = jet_eval(e, tuple(p), 4).coef
        assert np.max(np.abs(got.coef[:, i] - want)) <= 1e-14 * np.max(np.abs(want))
        for g, w in zip(got_m, m.jets(tuple(p), 3)):
            assert np.max(np.abs(g.coef[:, i] - w.coef)) <= 1e-14 * np.max(np.abs(w.coef))
    const = jet_eval(parse_expr("2/3"), pts, 2)
    assert const.coef.shape == (ncoef(2), 16)
    assert np.allclose(const.value, 2 / 3)


def _batches():
    pts = [(0.1, 0.2, 0.3), (-0.4, 0.5, 0.6)]
    return [np.array(pts), [list(q) for q in pts], tuple(pts), [np.array(q) for q in pts],
            np.array(pts[:1])]


def _single_points():
    from heiscalc.group import Point
    return [Point(0.1, 0.2, 0.3), (0.1, 0.2, 0.3), [0.1, 0.2, 0.3], (1, -2, 0),
            np.array([0.1, 0.2, 0.3]), (np.float64(0.1), 0.2, 0.3), (np.int64(1), 2, 3)]


def test_batches_and_single_points_are_told_apart():
    # as np.ndim(p) == 2 told them apart, without making an array of a point
    from heiscalc.group import Invert, word_to_map
    m = word_to_map([Invert()])
    for p in _batches():
        assert np.ndim(p) == 2 and is_batch(p)
        assert jet_seed(p, 2)[0].coef.shape == (ncoef(2), len(p))
        assert m.jets(p, 2)[0].coef.shape == (ncoef(2), len(p))
    for p in _single_points():
        assert np.ndim(p) == 1 and not is_batch(p)
        x = jet_seed(p, 2)[0]
        assert x.coef.shape == (ncoef(2),) and x.base == tuple(map(float, p))
        assert m.jets(p, 2)[0].coef.shape == (ncoef(2),)


def test_the_single_point_product_is_a_fresh_writable_array():
    # the operands of a reading are read-only; the product is not theirs
    from heiscalc.group import Invert, word_to_map
    j1, j2, _ = word_to_map([Invert()]).reading(P, 3).jets
    assert not j1.coef.flags.writeable and type(j1) is Jet is type(j2)
    prod = j1 * j2
    assert prod.coef.dtype == np.complex128 and prod.coef.shape == j1.coef.shape
    assert prod.coef.flags.writeable and prod.coef.flags.owndata
    assert not np.shares_memory(prod.coef, j1.coef) and not np.shares_memory(prod.coef, j2.coef)
    want = [sum(j1.coef[a] * j2.coef[b] for a, ia in enumerate(indices(3))
                for b, ib in enumerate(indices(3)) if tuple(map(sum, zip(ia, ib))) == m)
            for m in indices(3)]
    assert np.allclose(prod.coef, want, rtol=1e-14, atol=0)
    prod.coef[0] = 1.0
    assert (j1 * j2).coef[0] != 1.0
