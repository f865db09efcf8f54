"""The evaluation tape: the same values as a walk over the nodes, jets that
agree with finite differences, non-finite jets as domain errors, and one
tape per flow."""
import cmath
import gc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from heiscalc import expr as ex
from heiscalc import fields, schwarzian as sw
from heiscalc.errors import DomainError, EvalError
from heiscalc.group import HeisMap, Invert, Translate, parse_word, word_to_map
from heiscalc.jets import Jet, jet_seed

from test_walks import _POINTS, _TEXTS, _parsed


# --- the oracle: a memo-dict walk over the post-order, one branch per op ------

def _scalar_unary(op, v):
    if op == "exp":
        return cmath.exp(v)
    if op == "log":
        if v == 0 or (v.imag == 0 and v.real <= 0):
            raise DomainError(f"log of nonpositive value {v}")
        return cmath.log(v)
    if op == "sqrt":
        if v == 0 or (v.imag == 0 and v.real <= 0):
            raise DomainError(f"sqrt of nonpositive value {v}")
        return cmath.sqrt(v)
    if op == "sin":
        return cmath.sin(v)
    if op == "cos":
        return cmath.cos(v)
    if op == "conj":
        return v.conjugate()
    if op == "re":
        return complex(v.real)
    if op == "im":
        return complex(v.imag)
    raise EvalError(f"unknown unary node '{op}'")


_JET_METHODS = {"exp": "exp", "log": "log", "sin": "sin", "cos": "cos",
                "sqrt": "sqrt", "conj": "conj", "re": "real", "im": "imag"}


def _walk(roots, vx, vy, vt):
    """The values of a tuple of roots by a walk with a memo dict."""
    seeds = (vx, vy, vt)
    memo = {}
    ev = memo.__getitem__
    try:
        for node in ex.postorder(roots):
            op = node.op
            if op == "coord":
                r = seeds[node.val]
            elif op == "const":
                r = complex(node.val)
            elif op == "add":
                r = ev(node.args[0]) + ev(node.args[1])
            elif op == "sub":
                r = ev(node.args[0]) - ev(node.args[1])
            elif op == "mul":
                r = ev(node.args[0]) * ev(node.args[1])
            elif op == "div":
                den = ev(node.args[1])
                if not isinstance(den, Jet) and den == 0:
                    raise DomainError("division by zero at a 'div' node")
                r = ev(node.args[0]) / den
            elif op == "neg":
                r = -ev(node.args[0])
            elif op == "pow":
                b = ev(node.args[0])
                if not isinstance(b, Jet) and b == 0 and node.val < 0:
                    raise DomainError("zero base at a negative 'pow' node")
                r = b ** node.val
            elif op in ex._FUNCS:
                a = ev(node.args[0])
                if isinstance(a, Jet):
                    r = getattr(a, _JET_METHODS[op])()
                else:
                    r = _scalar_unary(op, a)
            else:
                raise EvalError(f"unknown node '{op}'")
            memo[node] = r
    except (OverflowError, ZeroDivisionError) as e:
        raise DomainError(f"evaluation overflowed: {e}") from None
    except ValueError as e:
        raise DomainError(f"evaluation left the domain: {e}") from None
    out = tuple(map(ev, roots))
    if not isinstance(vx, Jet) and not all(map(cmath.isfinite, out)):
        raise DomainError(f"evaluation gave a value that is not finite: {out}")
    return out


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except DomainError as e:
        return f"DomainError: {e}"


_EXTREME = st.sampled_from([0.0, -0.0, 1e-170, 7e-199, 1e160, -1e160])


@settings(max_examples=400, deadline=None)
@given(_TEXTS, _TEXTS, st.one_of(_POINTS, st.tuples(_EXTREME, _EXTREME, _EXTREME)))
@example("1/(x - x) + log(y)", "sqrt(t)", (1.0, -1.0, -1.0))   # the first error wins
@example("x^-2", "x", (7e-199, 0.0, 0.0))
@example("(x*y)^4", "t", (1e160, 1e160, 0.0))
@example("x", "-sin((x*x))", (1e160, 0.0, 0.0))   # cmath.sin(inf) raises ValueError
def test_tape_gives_the_walks_values_bit_for_bit(t1, t2, p):
    roots = (_parsed(t1), _parsed(t2))
    seeds = tuple(map(complex, p))
    assert _outcome(ex.tape(roots), *seeds) == _outcome(_walk, roots, *seeds)


def _jet_outcome(fn, roots, p):
    """The coefficient bytes of each root's order-2 jet at p, or the
    DomainError that a coefficient that is not finite raises on the tape."""
    seeds = jet_seed(p, 2)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = fn(roots, *seeds)
    except DomainError:
        return "DomainError"
    out = [r if isinstance(r, Jet) else Jet.constant(r, seeds[0].base, 2) for r in out]
    if not all(np.isfinite(j.coef).all() for j in out):
        return "DomainError"
    return [j.coef.tobytes() for j in out]


@settings(max_examples=300, deadline=None)
@given(_TEXTS, _TEXTS, _POINTS)
@example("x/(x*x + y)", "y/(x*x + y) - 1/(x*x + y)", (0.5, 0.25, 0.0))
@example("2/x", "x/2", (0.75, -0.5, 0.25))   # a scalar divisor keeps its division
def test_jets_multiply_by_one_reciprocal_per_divisor_bit_for_bit(t1, t2, p):
    roots = (_parsed(t1), _parsed(t2))
    assert (_jet_outcome(lambda r, *s: ex.tape(r)(*s), roots, p)
            == _jet_outcome(_walk, roots, p))


# --- DAGs with shared subtrees, built through the smart constructors -----------

_LEAVES = (ex.X, ex.Y, ex.T, ex.const(2), ex.const(Fraction(1, 3)), ex.const(0.5 - 1j))
_BINARY = {"add": ex.add, "sub": ex.sub, "mul": ex.mul, "div": ex.div}
_UNARY = {"neg": ex.neg, "exp": ex.exp_, "log": ex.log_, "sin": ex.sin_, "cos": ex.cos_,
          "sqrt": ex.sqrt_, "conj": ex.conj_, "re": ex.re_, "im": ex.im_,
          "cube": lambda a: ex.pow_(a, 3), "inv2": lambda a: ex.pow_(a, -2)}


@st.composite
def _shared_dags(draw):
    """A tuple of roots over a pool of nodes that later nodes draw their
    operands from, so subtrees are shared: 'square' reads one node as both
    operands, 'divs' divides two nodes by one divisor, and roots may read
    one another or a node in common."""
    pool = list(_LEAVES)

    def node():   # one of the last three nodes half the time, so chains form
        back = st.integers(0, 2) | st.integers(0, len(pool) - 1)
        return pool[-1 - draw(back)]
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from((*_BINARY, *_UNARY)) | st.sampled_from(("square", "divs")))
        a, b = node(), node()
        try:
            if kind in _BINARY:
                pool.append(_BINARY[kind](a, b))
            elif kind in _UNARY:
                pool.append(_UNARY[kind](a))
            elif kind == "square":
                pool.append(ex.mul(a, a))
            else:
                pool += [ex.div(a, b), ex.div(node(), b)]
        except DomainError:   # a constant fold to a division by zero
            pass
    recent = st.integers(0, min(6, len(pool) - 1))
    return tuple(pool[-1 - draw(recent)] for _ in range(draw(st.integers(1, 3))))


def _assert_tape_is_the_walk(roots, p):
    seeds = tuple(map(complex, p))
    assert _outcome(ex.tape(roots), *seeds) == _outcome(_walk, roots, *seeds)
    assert (_jet_outcome(lambda r, *s: ex.tape(r)(*s), roots, p)
            == _jet_outcome(_walk, roots, p))


_S = ex.add(ex.X, ex.Y)
_SQUARE = ex.mul(_S, _S)   # s*s with s = x + y one node
_DEN = ex.add(ex.mul(ex.T, ex.T), ex.const(1))
_EXY = ex.exp_(ex.mul(ex.X, ex.Y))
_COMPOSITE = HeisMap(*Invert().exprs()).compose(HeisMap(*Translate((0.5, -0.25, 1.0)).exprs()))
_WORD = word_to_map(parse_word("inv o rot(0.5) o trans(1,0.5,-0.25) o inv"))
_SHARED_CASES = {
    # freed once: a second free would hand s's slot to exp(x) while s*s is live
    "both operands": (ex.add(_SQUARE, ex.exp_(ex.X)),),
    "both operands, read again": (ex.mul(ex.sub(_SQUARE, ex.sin_(ex.Y)), _SQUARE),),
    "two roots": (ex.mul(_S, ex.T), ex.exp_(_S), _S),
    "a root read by a root": (_SQUARE, ex.add(_SQUARE, ex.cos_(ex.X))),
    "one divisor": (ex.div(ex.X, _DEN), ex.div(ex.exp_(ex.Y), _DEN),
                    ex.add(ex.div(ex.T, _DEN), ex.exp_(_DEN))),
    # t*t + 1 dies first at the outer sum, and exp(y) + 2 then takes its slot:
    # a reciprocal looked up by slot would divide by the wrong denominator
    "a divisor's slot reused": (ex.add(ex.add(_DEN, ex.div(ex.X, _DEN)),
                                       ex.div(ex.X, ex.add(ex.exp_(ex.Y), ex.const(2)))),),
    "inversion": Invert().exprs(),
    "composite": _COMPOSITE.exprs,
    "word": _WORD.exprs,
    # exp(x*y) takes the slot of x*y, and then sin(t) + 2 that of sin(t),
    # on scalars as on jets; the root exp(x*y) keeps its slot to the end
    "a freed slot reused, a root read by a later root": (
        _EXY, ex.mul(ex.add(ex.sin_(ex.T), ex.const(2)), _EXY)),
}


@pytest.mark.parametrize("case", sorted(_SHARED_CASES))
@pytest.mark.parametrize("p", [(0.5, -0.25, 0.75), (-1.5, 0.5, 0.0), (0.0, 0.0, 0.0)])
def test_shared_subtrees_give_the_walks_values_bit_for_bit(case, p):
    _assert_tape_is_the_walk(_SHARED_CASES[case], p)


@settings(max_examples=300, deadline=None)
@given(_shared_dags(), _POINTS)
def test_random_shared_dags_give_the_walks_values_bit_for_bit(roots, p):
    _assert_tape_is_the_walk(roots, p)


def test_the_inversion_takes_one_reciprocal_for_three_divisions(monkeypatch):
    # the jet of the denominator makes its reciprocal once and keeps it, so
    # the three divisions run one Horner series, on the tape and in the
    # generator's apply alike
    t = ex.Tape(Invert().exprs())
    assert [fn.__name__ for fn, *_ in t.steps].count("_div") == 3
    series, calls = Jet._series, []
    monkeypatch.setattr(Jet, "_series", lambda j, *a: calls.append(j) or series(j, *a))
    seeds = jet_seed((0.5, -0.25, 0.75), 3)
    assert _bits(t(*seeds)) == _bits(Invert().apply(*seeds))
    assert len(calls) == 2


def _bits(jets) -> list:
    return [j.coef.tobytes() for j in jets]


@pytest.mark.parametrize("roots, most", [
    ((ex.parse_expr("exp(x)*cos(y) + t^2 - 2/3*(x^4+y^4)"),), 3),   # 10 steps
    (Invert().exprs(), 4),                                           # 17 steps
])
def test_the_steps_write_only_a_few_slots(roots, most):
    # a step writes into the slot of a value no later step reads, so the
    # template holds the seeds, the constants and exponents, and the few
    # slots the steps write, nothing else
    t = ex.Tape(roots)
    work = {k for *_, k in t.steps}
    assert len(work) <= most < len(t.steps)
    assert t.template[:3] == (None, None, None) and not work & {0, 1, 2}
    assert [s for s, v in enumerate(t.template) if v is None] == [0, 1, 2, *sorted(work)]
    assert all(isinstance(v, (complex, int)) for v in t.template if v is not None)


# --- the compiled run ------------------------------------------------------------

def test_tapes_of_one_shape_share_one_code_and_keep_their_constants():
    # the source names slots, never values: the constants and the exponent
    # are the function's defaults, so x^2 and x^3 share a code too
    t1 = ex.Tape((ex.parse_expr("0.3*x^2 + 0.4*x - 0.2"),))
    t2 = ex.Tape((ex.parse_expr("0.7*x^3 + 0.1*x - 5"),))
    assert t1.run.__code__ is t2.run.__code__
    consts = {0.3, 0.4, 0.2, 0.7, 0.1, 5, 2, 3}
    consts |= {complex(c) for c in consts} | {-c for c in consts}
    assert not any(c in consts for c in t1.run.__code__.co_consts if c is not None)
    x = 0.5 - 0.25j
    assert t1.run(x, 0j, 0j) == (0.3 * x ** 2 + 0.4 * x - 0.2,)
    assert t2.run(x, 0j, 0j) == (0.7 * x ** 3 + 0.1 * x - 5,)


def test_a_dropped_tape_frees_its_function_without_the_cycle_collector():
    t = ex.Tape((ex.parse_expr("exp(x)*y - 2/t"),))
    ref = weakref.ref(t.run)
    gc.disable()
    try:
        del t
        assert ref() is None
    finally:
        gc.enable()


def test_a_potential_parsed_again_compiles_no_new_code():
    text = "0.3*x^2 + 0.4*x - 0.17*x - 0.9"
    fields.flow_integrate(ex.parse_expr(text), (0.1, 0.2, 0.3), 0.5, steps=4)
    misses = ex._compiled.cache_info().misses
    fields.flow_integrate(ex.parse_expr(text), (0.1, 0.2, 0.3), 0.5, steps=4)
    assert ex._compiled.cache_info().misses == misses


def test_a_tape_with_no_steps_runs():
    t = ex.Tape((ex.X, ex.const(2)))
    assert t.steps == ()
    assert t.run(1 + 2j, 0j, 0j) == (1 + 2j, 2 + 0j)
    assert t(0.5 + 0j, 0j, 0j) == (0.5 + 0j, 2 + 0j)
    x, two = t(*jet_seed((0.5, 0.0, 0.0), 1))
    assert x.value == 0.5 and two.coef.tolist() == [2, 0, 0, 0]


def test_a_tape_with_no_steps_still_guards_its_seeds():
    # the seeds of a NaN point reach the roots unchanged, so the guard of a
    # tape with no steps is the only check on them: skipping it would hand
    # out a NaN jet
    with pytest.raises(DomainError, match="not finite"):
        ex.jet_eval(ex.parse_expr("x"), (float("nan"), 0.0, 0.0), 2)


_ORDER1 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# Odd multiples of 1/16 in (-2, 2): no coordinate is within 1/16 of zero,
# where a jet of t/t, say, cancels terms of size 1/t^2 and keeps their
# rounding (2e121 at t = 7e-138), which no finite difference can match.
_GRID = st.integers(-16, 15).map(lambda k: (2 * k + 1) / 16)


@settings(max_examples=200, deadline=None)
@given(_TEXTS, st.tuples(_GRID, _GRID, _GRID))
@example("x^3*sin(y) + exp(t)/(2 + x^2)", (0.3125, -0.6875, 0.4375))
@example("(x)^-1", (0.0625, 0.0625, 0.0625))
def test_first_partials_of_the_jet_route_match_finite_differences(text, p):
    # Where the Richardson estimates at steps 1e-3 and 2e-3 agree to 1e-8 of
    # 1 + |estimate|, a first partial of the jet is within 1e-6 of it; where
    # they do not (a pole or a branch cut near the stencil, or rounding that
    # swamps the difference quotient) nothing is asserted.
    e = _parsed(text)
    try:
        j = ex.jet_eval(e, p, 1)
        fd = [(ex.fd_oracle(e, p, a), ex.fd_oracle(e, p, a, h=2e-3)) for a in _ORDER1]
    except DomainError:
        assume(False)
    for alpha, (fine, coarse) in zip(_ORDER1, fd):
        scale = 1.0 + abs(fine)
        assume(abs(fine - coarse) <= 1e-8 * scale)
        assert abs(j.partial(alpha) - fine) <= 1e-6 * scale, alpha


# --- non-finite jets ------------------------------------------------------------

def test_a_jet_that_is_not_finite_is_a_domain_error():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="not finite"):
            sw.s_cr(HeisMap(ex.parse_expr("x*x*x*x"), ex.Y, ex.T), (1e100, 0.0, 0.0))
        # a finite value does not hide a coefficient that is not: d/dy is x^2 here
        with pytest.raises(DomainError, match="not finite"):
            ex.jet_eval(ex.parse_expr("x*(x*y)"), (1e160, 1e-300, 0.0), 1)
        # a batch names its lowest-index failing point
        pts = np.array([(1.0, 0.0, 0.0), (1e100, 0.0, 0.0), (1e200, 0.0, 0.0)])
        with pytest.raises(DomainError, match=r"at \(1e\+100, 0\.0, 0\.0\)"):
            ex.jet_eval(ex.parse_expr("x*x*x*x"), pts, 1)
        # over all roots: the second root fails at a lower index than the first
        pts2 = np.array([(1.0, 1e100, 0.0), (1e100, 1.0, 0.0)])
        with pytest.raises(DomainError, match=r"at \(1\.0, 1e\+100, 0\.0\)"):
            ex.jet_eval((ex.parse_expr("x*x*x*x"), ex.parse_expr("y*y*y*y")), pts2, 1)
    # finite jets at the same points pass
    assert ex.jet_eval(ex.X, pts, 1).value.tolist() == [1.0, 1e100, 1e200]


@pytest.mark.parametrize("text", ["sin(x*x)", "cos(x*x)"])
def test_sin_and_cos_of_an_infinite_value_are_domain_errors(text):
    # cmath raises ValueError on inf, in scalar and in single-jet mode;
    # numpy gives nan, which the finiteness check names
    e, p = ex.parse_expr(text), (1e160, 0.0, 0.0)
    with pytest.raises(DomainError):
        ex.eval_at(e, p)
    with pytest.raises(DomainError):
        ex.jet_eval(e, p, 2)
    with pytest.raises(DomainError):
        ex.jet_eval(e, np.array([p]), 2)


def test_finite_coefficients_whose_sum_overflows_pass_without_a_warning():
    # the check looks at each coefficient, so no sum of them overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = ex.jet_eval(ex.parse_expr("1e308*x + 1e308*y"), (0.5, 0.5, 0.0), 1)
        jb = ex.jet_eval(ex.parse_expr("1e308*x + 1e308*y"),
                         np.array([(0.5, 0.5, 0.0), (0.25, 0.75, 0.0)]), 1)
    assert j.coef.tolist() == [1e308, 1e308, 1e308, 0.0]
    assert jb.coef[:, 0].tolist() == [1e308, 1e308, 1e308, 0.0]


# --- one tape per flow --------------------------------------------------------------

def test_a_flow_builds_one_tape_and_fetches_it_once():
    ex.tape.cache_clear()
    fields.flow_integrate("exp(x)", (0.1, 0.2, 0.3), 0.5, steps=200)
    info = ex.tape.cache_info()
    assert (info.misses, info.hits) == (1, 0)


def test_contact_residuals_build_one_tape_for_five_trajectories():
    ex.tape.cache_clear()
    fields.flow_contact_residuals("0.3*x^2 + 0.4*x - 0.2", (0.1, 0.2, 0.3), 0.5, steps=200)
    info = ex.tape.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_vector_field_at_runs_the_flows_tape():
    comps = fields.field_components("t + x^2 + y^2")
    ex.tape.cache_clear()
    fields.flow_integrate(comps, (0.7, -0.4, 0.3), 0.5, steps=10)
    fields.vector_field_at(comps, (0.1, 0.2, 0.3))
    info = ex.tape.cache_info()
    assert (info.misses, info.hits) == (1, 1)
