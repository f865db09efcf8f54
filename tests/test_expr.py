"""Expression trees: parsing, evaluation, differentiation, jet lowering."""
import gc
import math

import numpy as np
import pytest

from heiscalc import expr as ex
from heiscalc.errors import DomainError, EvalError, ParseError
from heiscalc.exact import ratpoly_from_expr

P = (0.7, -0.4, 0.3)


@pytest.mark.parametrize("text,fn", [
    ("x^2 + 2*y*t - 1/3", lambda x, y, t: x * x + 2 * y * t - 1 / 3),
    ("exp(x)*sin(y) + t^2", lambda x, y, t: math.exp(x) * math.sin(y) + t * t),
    ("(x + y)^3 / (1 + t^2)", lambda x, y, t: (x + y) ** 3 / (1 + t * t)),
    ("-x + 2*(y - t)", lambda x, y, t: -x + 2 * (y - t)),
    ("sqrt(1 + x^2)", lambda x, y, t: math.sqrt(1 + x * x)),
    ("log(2 + x)", lambda x, y, t: math.log(2 + x)),
    ("cos(x*y)", lambda x, y, t: math.cos(x * y)),
])
def test_parse_eval(text, fn):
    e = ex.parse_expr(text)
    assert ex.eval_at(e, P).real == pytest.approx(fn(*P), rel=1e-14)
    assert ex.eval_at(e, P).imag == 0.0


def test_a_parse_leaves_no_reference_cycle():
    # only the cyclic collector would free a cycle, so with it off the
    # parse's garbage must all go by reference counting
    text = "x^2 + sin(t)*exp(-y)"
    ex.parse_expr(text)
    gc.collect()
    gc.disable()
    try:
        ex.parse_expr(text)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("bad", [
    "x +", "(x", "x ** y", "unknownfn(x)", "x^y", "1..2", "x @ y", "",
])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        ex.parse_expr(bad)


def test_to_str_reparses():
    e = ex.parse_expr("exp(x)*sin(y) + t^2/(1 + x^2)")
    back = ex.parse_expr(ex.to_str(e))
    for p in [P, (0.1, 0.2, -0.5), (-1.0, 0.4, 2.0)]:
        assert ex.eval_at(back, p) == pytest.approx(ex.eval_at(e, p), rel=1e-14)


def test_diff_against_fd():
    e = ex.parse_expr("exp(x)*sin(y) + t^2*x")
    for var, alpha in ((0, (1, 0, 0)), (1, (0, 1, 0)), (2, (0, 0, 1))):
        d = ex.diff(e, var)
        got = ex.eval_at(d, P)
        want = ex.fd_oracle(e, P, alpha)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-9)


def test_jet_eval_partials_against_fd():
    e = ex.parse_expr("log(2 + x + y^2) * cos(t)")
    j = ex.jet_eval(e, P, 3)
    assert j.value == pytest.approx(ex.eval_at(e, P), rel=1e-14)
    for alpha in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0),
                  (0, 1, 2), (3, 0, 0)]:
        want = ex.fd_oracle(e, P, alpha)
        assert j.partial(alpha) == pytest.approx(want, rel=2e-5, abs=2e-6), alpha


def test_subs_composes():
    # e(x, y, t) with x -> x + t, y -> x*y, t -> 0 matches direct evaluation
    e = ex.parse_expr("x^2 + y + t")
    inner = (ex.parse_expr("x + t"), ex.parse_expr("x*y"), ex.ZERO)
    composed = ex.subs(e, *inner)
    x, y, t = P
    want = (x + t) ** 2 + x * y + 0.0
    assert ex.eval_at(composed, P).real == pytest.approx(want, rel=1e-14)


def test_ratpoly_from_expr_exact():
    e = ex.parse_expr("x^2*y - 2/3*t + 1/2")
    p = ratpoly_from_expr(e)
    for q in [P, (1.0, 2.0, 3.0), (-0.5, 0.25, 4.0)]:
        assert complex(p.eval(q)) == pytest.approx(ex.eval_at(e, q), rel=1e-14)


def test_ratpoly_from_expr_rejects_transcendental():
    with pytest.raises(EvalError):
        ratpoly_from_expr(ex.parse_expr("exp(x)"))


def test_eval_domain_failure():
    e = ex.parse_expr("log(x)")
    with pytest.raises(DomainError):
        ex.eval_at(e, (-1.0, 0.0, 0.0))


def test_complex_helpers():
    z = ex.add(ex.X, ex.mul(ex._I, ex.Y))
    assert ex.eval_at(ex.conj_(z), P) == pytest.approx(complex(P[0], -P[1]))
    assert ex.eval_at(ex.re_(z), P) == pytest.approx(P[0])
    assert ex.eval_at(ex.im_(z), P) == pytest.approx(P[1])


def test_jet_eval_of_exact_constants_is_complex128():
    # the tape lowers Fraction constants to complex, so no object arrays
    j = ex.jet_eval(ex.parse_expr("2/3*x^2"), (0.1, 0.2, 0.3), 3)
    assert j.coef.dtype == np.complex128
    assert j.value == pytest.approx(2 / 3 * 0.01, rel=1e-14)


def test_evaluate_tuple_of_independent_roots():
    # each root gets its own nodes; the slots of one run cannot leak into another
    roots = (ex.parse_expr("x+1"), ex.parse_expr("y*5"))
    assert ex.evaluate(roots, 1, 2, 0) == (2, 10)
    assert ex.evaluate(roots[1], 1, 2, 0) == 10


def test_constant_root_becomes_a_constant_jet():
    j0, j1 = ex.jet_eval((ex.const(3), ex.X), P, 2)
    assert j0.coef.dtype == np.complex128
    assert (j0.value, j0.order, j0.base) == (3, 2, P)
    assert j1.partial((1, 0, 0)) == 1


@pytest.mark.parametrize("text", ["1e300*1e300*x*y", "1e400*x", "x - 1e308*10.0",
                                  "-(1e200*1e200)", "(1e300)^2*x", "10^400*x",
                                  "1/1e-308*10*x"])
def test_parse_rejects_a_constant_beyond_the_float_range(text):
    with pytest.raises(ParseError, match="not a finite float"):
        ex.parse_expr(text)


@pytest.mark.parametrize("text", ["x*y + 1/0", "x*y + 0^-1", "x/(2 - 2)"])
def test_parse_turns_a_constant_domain_error_into_a_parse_error(text):
    with pytest.raises(ParseError, match="x"):
        ex.parse_expr(text)


def test_scalar_evaluation_overflow_is_a_domain_error():
    # complex ** int raises OverflowError where float products give inf
    with pytest.raises(DomainError, match="overflow"):
        ex.eval_at(ex.parse_expr("(x*y)^4"), (1e100, 1.0, 0.0))
