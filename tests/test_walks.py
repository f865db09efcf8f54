"""The one post-order walk under every Expr walker: deep DAGs, the visit
order, non-finite scalar values, deep nesting in the parser and the
`to_str` round trip."""
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from heiscalc import expr as ex
from heiscalc.errors import DomainError, HeisError, ParseError
from heiscalc.exact import RatPoly, ratpoly_from_expr
from heiscalc.group import HeisMap


def _stack_depth() -> int:
    f, n = sys._getframe(), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


def test_walkers_do_not_recurse_on_a_deep_sum():
    e = ex.parse_expr("+".join(["x"] * 3000))   # a chain of 2999 'add' nodes
    p = (0.5, -1.0, 2.0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        assert ex.eval_at(e, p) == 1500
        assert ex.jet_eval(e, p, 2).partial((1, 0, 0)) == 3000
        batch = ex.jet_eval(e, np.array([p, (1.0, 0.0, 0.0)]), 1)
        assert batch.value.tolist() == [1500, 3000]
        assert ex.eval_at(ex.subs(e, ex.Y, ex.X, ex.T), p) == -3000
        assert ex.eval_at(ex.diff(e, 0), p) == 3000
        assert ex.to_str(e).count("x") == 3000
        assert ratpoly_from_expr(e) == RatPoly({(1, 0, 0): 3000})
    finally:
        sys.setrecursionlimit(limit)


def _recursive_order(roots) -> list:
    """The order a memoized recursion finishes the nodes in, for reference."""
    order, seen = [], set()

    def visit(node):
        if node not in seen:
            seen.add(node)
            for a in node.args:
                visit(a)
            order.append(node)
    for r in roots:
        visit(r)
    return order


def test_postorder_is_the_memoized_recursion_order():
    shared = ex.parse_expr("sin(x*y)")
    a = ex.add(ex.mul(shared, ex.T), ex.div(shared, ex.exp_(ex.Y)))
    b = ex.sub(ex.pow_(shared, 3), a)
    got = ex.postorder((a, b, a))
    assert got == _recursive_order((a, b, a))
    assert len(got) == len(set(got)) == 11
    assert ex.postorder(b) == _recursive_order((b,))


def test_scalar_evaluation_of_a_non_finite_value_is_a_domain_error():
    # complex products overflow to nan or inf without an OverflowError
    with pytest.raises(DomainError, match="not finite"):
        ex.eval_at(ex.parse_expr("(x*y)^4"), (1e100, 1e100, 0.0))
    with pytest.raises(DomainError, match="not finite"):
        HeisMap(ex.parse_expr("x*x*x*x"), ex.Y, ex.T)((1e100, 0.0, 0.0))
    # the base squares to 0.0 inside complex power: a ZeroDivisionError before
    with pytest.raises(DomainError, match="overflow"):
        ex.eval_at(ex.parse_expr("x^-2"), (7e-199, 0.0, 0.0))


@pytest.mark.parametrize("text", ["(" * 250 + "x" + ")" * 250, "-" * 2000 + "x",
                                  "exp(" * 300 + "x" + ")" * 300],
                         ids=["parentheses", "signs", "calls"])
def test_parse_turns_deep_nesting_into_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        ex.parse_expr(text)


# --- random expressions from the parser's grammar ------------------------------

_ATOMS = st.sampled_from(["x", "y", "t", "pi", "0", "1", "2", "7", "(2/7)", "0.5",
                          "2.5e-1", "3E2", "12.75"])


def _compound(kids):
    return st.one_of(
        st.tuples(kids, st.sampled_from("+-*/"), kids).map(lambda k: f"({k[0]}{k[1]}{k[2]})"),
        kids.map(lambda k: f"-{k}"),
        st.tuples(kids, st.integers(-3, 3)).map(lambda k: f"({k[0]})^{k[1]}"),
        st.tuples(st.sampled_from(ex._FUNCS), kids).map(lambda k: f"{k[0]}({k[1]})"),
    )


_TEXTS = st.recursive(_ATOMS, _compound, max_leaves=10)
_POINTS = st.tuples(*[st.floats(-2.0, 2.0)] * 3)


def _parsed(text: str) -> ex.Expr:
    # '0^-1' and '1/0' fail while parsing; such inputs are not drawn
    try:
        return ex.parse_expr(text)
    except HeisError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(_TEXTS, _POINTS)
@example("(x^2)^3", (0.3, 0.7, -0.4))          # once written x^2^3
@example("x/(1/7)", (0.3, 0.7, -0.4))          # once written x/1/7
@example("x^-2", (7e-199, 0.0, 0.0))           # once a ZeroDivisionError
def test_to_str_round_trips_through_the_parser(text, p):
    e = _parsed(text)
    back = ex.parse_expr(ex.to_str(e))
    try:
        want = ex.eval_at(e, p)
    except DomainError:
        with pytest.raises(DomainError):
            ex.eval_at(back, p)
        return
    assert abs(ex.eval_at(back, p) - want) <= 1e-12 * abs(want)


@settings(max_examples=100, deadline=None)
@given(_TEXTS, _TEXTS)
def test_postorder_of_parsed_roots(t1, t2):
    roots = (_parsed(t1), _parsed(t2))
    order = ex.postorder(roots)
    assert order == _recursive_order(roots)
    place = {node: i for i, node in enumerate(order)}
    assert len(place) == len(order)
    assert all(place[a] < i for i, node in enumerate(order) for a in node.args)
