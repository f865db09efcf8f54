"""Conformal vector fields, flows, and Jacobian-weighted pushforwards."""
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from heiscalc import fields
from heiscalc import schwarzian as sw
from heiscalc.errors import BadPotential, DomainError
from heiscalc.exact import RatPoly, word_apply
from heiscalc.expr import eval_at, jet_eval, parse_expr, tape
from heiscalc.group import Point, Rotate, koranyi_norm, random_word, word_to_map
from heiscalc.horizontal import jacobian, word_jet
from heiscalc.jets import Jet


def test_basis_potentials_are_conformal_exactly():
    for v in fields.V0_BASIS:
        assert word_apply("ZZ", v) == RatPoly()
    combo = fields.conformal_v0_poly([1, -2, 0.5, 3, 0, 1, -1, 2])
    assert word_apply("ZZ", combo) == RatPoly()


def test_conformal_v0_length_check():
    with pytest.raises(DomainError):
        fields.conformal_v0([1, 2, 3])


def test_conformal_residual_detects_nonconformal():
    r = fields.conformal_residual("x^2", (0.3, 0.2, 0.1))
    assert abs(r.z2v0) == pytest.approx(0.5, rel=1e-12)  # Z^2 x^2 = 1/2
    r2 = fields.conformal_residual(fields.conformal_v0([0, 1, 0, 0, 0, 0, 1, 0]),
                                   (0.7, -0.4, 0.3))
    assert abs(r2.z2v0) < 1e-13


def test_field_components_and_contact_pairing():
    # theta(V) = -4 v0: the vertical velocity satisfies dt - 2y dx + 2x dy = -4 v0
    v0 = "t + x^2 + y^2"
    p = (0.7, -0.4, 0.3)
    v1, v2, v3 = fields.vector_field_at(v0, p)
    v0_val = eval_at(parse_expr(v0), p).real
    assert v3 - 2.0 * p[1] * v1 + 2.0 * p[0] * v2 == pytest.approx(-4.0 * v0_val,
                                                                   rel=1e-12)


def test_dilation_semigroup():
    # v0 = t generates (x, y, t) -> (x e^{-2s}, y e^{-2s}, t e^{-4s})
    p = Point(0.8, -0.5, 0.9)
    for s in (0.25, 1.0):
        got = fields.flow_integrate("t", p, s, steps=400)
        want = (p[0] * math.exp(-2 * s), p[1] * math.exp(-2 * s),
                p[2] * math.exp(-4 * s))
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10


def test_rk4_convergence_order():
    # quartic potential: halving the step shrinks the error ~16x
    v0 = fields.conformal_v0([0.4, 0.1, -0.2, 0.0, 0.0, 0.0, 0.0, 0.0])
    p = Point(0.5, 0.4, -0.3)
    ref = fields.flow_integrate(v0, p, 0.8, steps=4096)
    e1 = max(abs(a - b) for a, b in zip(fields.flow_integrate(v0, p, 0.8, steps=16), ref))
    e2 = max(abs(a - b) for a, b in zip(fields.flow_integrate(v0, p, 0.8, steps=32), ref))
    assert 8.0 < e1 / e2 < 32.0


def test_flow_integrate_rejects_bad_steps():
    with pytest.raises(DomainError):
        fields.flow_integrate("t", (0, 0, 0), 1.0, steps=0)


@pytest.mark.parametrize("steps", [2.5, 2.0, True, False, -3, "4", None])
def test_flows_take_an_int_number_of_steps(steps):
    # a float or a bool is no step count: range() raised a bare TypeError
    # on 2.5, and True ran one step
    with pytest.raises(DomainError, match="steps must be an int"):
        fields.flow_integrate("t", (0, 0, 0), 1.0, steps=steps)
    with pytest.raises(DomainError, match="steps must be an int"):
        fields.flow_contact_residuals("t", (0, 0, 0), 1.0, steps=steps)


_NOT_FINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("bad", _NOT_FINITE)
@pytest.mark.parametrize("at", [0, 1, 2])
def test_a_start_point_that_is_not_finite_is_refused(bad, at):
    # such a point is not in H: the flow reported that it did not stay
    # bounded, and the field's velocity came out as numbers
    p = [0.1, 0.2, 0.3]
    p[at] = bad
    for call in (lambda: fields.flow_integrate("exp(x)", p, 0.5, 4),
                 lambda: fields.vector_field_at("exp(x)", p),
                 lambda: fields.flow_contact_residuals("exp(x)", p, 0.5, 4)):
        with pytest.raises(DomainError, match=r"start point .* is not finite"):
            call()


@pytest.mark.parametrize("bad", _NOT_FINITE)
def test_a_flow_time_that_is_not_finite_is_refused(bad):
    with pytest.raises(DomainError, match="flow time .* is not finite"):
        fields.flow_integrate("exp(x)", (0.1, 0.2, 0.3), bad, 4)
    with pytest.raises(DomainError, match="flow time .* is not finite"):
        fields.flow_contact_residuals("exp(x)", (0.1, 0.2, 0.3), bad, 4)


@pytest.mark.parametrize("p", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4),
                               (0.1, 0.2, 0.3, float("nan")), (0.1, 0.2, 1j), ()])
def test_a_start_point_of_the_wrong_shape_is_refused(p):
    # two coordinates raised a bare IndexError, and a fourth was dropped
    for call in (lambda: fields.flow_integrate("t", p, 1.0, 4),
                 lambda: fields.vector_field_at("t", p),
                 lambda: fields.flow_contact_residuals("t", p, 1.0, 4)):
        with pytest.raises(DomainError, match="three real coordinates"):
            call()


def test_a_flow_time_beyond_the_float_range_is_refused():
    # math.isfinite of such an int raised a bare OverflowError
    for s in (10 ** 400, -10 ** 400):
        with pytest.raises(DomainError, match="flow time .* is not finite"):
            fields.flow_integrate("t", (0.0, 0.0, 0.0), s, 4)
        with pytest.raises(DomainError, match="flow time .* is not finite"):
            fields.flow_contact_residuals("t", (0.0, 0.0, 0.0), s, 4)
    assert fields.flow_integrate("t", (0.0, 0.0, 0.0), 10 ** 3, 4) == (0.0, 0.0, 0.0)


def test_closed_form_flow_is_contact_with_unit_factor():
    from heiscalc.horizontal import assess_contact
    m = fields.flow_closed_form("0.3*x^2 + 0.4*x - 0.2", 1.3)
    for p in [Point(0.5, -0.3, 0.2), Point(-0.8, 0.6, -0.4)]:
        a = assess_contact(m, p)
        assert a.max_contact_residual() < 1e-12
        assert a.lam == pytest.approx(1.0, rel=1e-12)
        assert abs(sw.s_cr(m, p)) < 1e-12


def test_closed_form_matches_rk4():
    h = "0.3*x^2 + 0.4*x - 0.2"
    m = fields.flow_closed_form(h, 0.9)
    for p in [Point(0.5, -0.3, 0.2), Point(1.1, 0.7, -0.5)]:
        q1, q2 = m(p), fields.flow_integrate(h, p, 0.9, steps=256)
        assert max(abs(a - b) for a, b in zip(q1, q2)) < 1e-9


def test_quadratic_flows_kill_s_cl():
    m = fields.flow_closed_form("0.7*x^2 - 0.2*x + 1.0", 1.7)
    for p in [Point(0.4, 0.3, 0.2), Point(-0.6, 0.9, -0.3)]:
        assert abs(sw.s_cl(m, p)) < 1e-11


def test_quartic_flow_does_not_kill_s_cl():
    # d/ds S_CL at s=0 for h = x^4 is -2i Z^3 Zbar x^4 = -3i
    d = fields.scl_flow_derivative("x^4", (0.0, 0.0, 0.0))
    assert d == pytest.approx(-3j, rel=1e-12)
    m = fields.flow_closed_form("x^4", 0.01)
    assert abs(sw.s_cl(m, (0.0, 0.0, 0.0))) == pytest.approx(0.03, rel=1e-3)


def test_flow_closed_form_rejects_other_coordinates():
    for bad in ("x*y", "t", "x + t^2"):
        with pytest.raises(BadPotential):
            fields.flow_closed_form(bad, 1.0)


def test_exp_flow_derivative_formula():
    # -(i/8) e^x, checked against the jet route and a finite difference in s
    for x in (-0.5, 0.0, 0.7):
        d = fields.scl_flow_derivative("exp(x)", (x, 0.0, 0.0))
        assert d == pytest.approx(-0.125j * math.exp(x), rel=1e-11)
        eps = 1e-6
        fd = sw.s_cl(fields.flow_closed_form("exp(x)", eps), (x, 0.0, 0.0)) / eps
        assert fd == pytest.approx(d, rel=1e-4, abs=1e-8)


def test_exp_flow_closed_form_pinned():
    # w = 1 at x = 0, s = 1: (1/32 - i/8)/(1 - i/2)^2 = 0.095 - 0.04i exactly
    assert fields.scl_exp_flow(0.0, 1.0) == pytest.approx(complex(0.095, -0.04),
                                                          rel=1e-14)


def test_exp_flow_closed_form_matches_jets():
    for x, s in [(0.0, 1.0), (-0.5, 0.4), (0.3, 1.7)]:
        m = fields.flow_closed_form("exp(x)", s)
        got = sw.s_cl(m, (x, 0.2, -0.3))  # y, t do not enter
        assert got == pytest.approx(fields.scl_exp_flow(x, s), rel=1e-10)


def test_exp_flow_reference_form_disagrees_beyond_first_order():
    # shared O(s) coefficient, visible gap at s = 1
    mine = fields.scl_exp_flow(0.0, 1.0)
    ref = fields.scl_exp_flow_reference(0.0, 1.0)
    assert abs(mine - ref) > 5e-3
    s = 1e-3
    assert abs(fields.scl_exp_flow(0.0, s) - fields.scl_exp_flow_reference(0.0, s)) < 1e-5


def test_pushforward_conformal_invariance_all_cases():
    rng = random.Random(41)
    for _ in range(6):
        m = word_to_map(random_word(rng, length=2))
        for _try in range(50):
            p = Point(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            if 0.3 <= koranyi_norm(p) and koranyi_norm(m(p)) < 20:
                break
        for case in range(1, 9):
            w = fields.pushforward_w0(m, case, p)
            assert abs(word_jet("ZZ", w).value) < 1e-8, (m.name, case)


def test_pushforward_cases_are_the_basis_potentials():
    # case k is V0_BASIS[k - 1] at m(p), over the Jacobian of m at p
    rng = random.Random(43)
    for _ in range(4):
        m = word_to_map(random_word(rng, length=2))
        for _try in range(50):
            p = Point(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            if 0.3 <= koranyi_norm(p) and koranyi_norm(m(p)) < 20:
                break
        lam = jacobian(m, p, 0).value
        for case in range(1, 9):
            want = fields.V0_BASIS[case - 1].eval(m(p)) / lam
            got = fields.pushforward_w0(m, case, p).value
            assert got == pytest.approx(want, rel=1e-12), (m.name, case)


def _pushforward_by_hand(m, case, p):
    """The pullback of basis potential `case` as jet formulas, each
    polynomial written out and factored through rho = x^2 + y^2."""
    j1, j2, j3 = m.jets(p, 2)
    rho = j1 * j1 + j2 * j2
    num = {1: lambda: j3 * j3 + rho * rho, 2: lambda: j3 * j2 - j1 * rho,
           3: lambda: j3 * j1 + j2 * rho, 4: lambda: rho, 5: lambda: j1, 6: lambda: j2,
           7: lambda: j3, 8: lambda: Jet.constant(1.0, j1.base, j1.order)}[case]()
    return num * jacobian(m, p, 2, "reciprocal")


def test_pushforward_runs_the_basis_potentials_tapes():
    # the monomials of V0_BASIS, summed in their tape's order, give the
    # formulas' bits where nothing is factored (cases 4-8), and agree to
    # rounding where the formulas factor through rho (cases 1-3)
    rng = random.Random(47)
    for k in range(300):
        m = word_to_map(random_word(rng, length=1 + k % 4))
        p = Point(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        for case in range(1, 9):
            got = fields.pushforward_w0(m, case, p).coef
            want = _pushforward_by_hand(m, case, p).coef
            if case >= 4:
                assert got.tobytes() == want.tobytes(), (m.name, p, case)
            else:
                assert abs(got - want).max() <= 1e-12 * abs(want).max(), (m.name, p, case)


def test_pushforward_detects_nonconformal_map():
    from heiscalc.group import LinearSL2
    m = word_to_map([LinearSL2(2.0, 0.0, 0.0, 0.5)])
    worst = max(abs(word_jet("ZZ", fields.pushforward_w0(m, c, (0.5, 0.3, 0.2))).value)
                for c in range(1, 9))
    assert worst > 1e-3


def test_pushforward_case_bounds():
    m = word_to_map([Rotate(0.3)])
    with pytest.raises(DomainError):
        fields.pushforward_w0(m, 0, (0.5, 0.3, 0.2))
    with pytest.raises(DomainError):
        fields.pushforward_w0(m, 9, (0.5, 0.3, 0.2))


@pytest.mark.parametrize("case", [2.0, True, "3", None])
def test_pushforward_cases_are_ints(case):
    # 2.0 indexed the basis tuple, a bare TypeError; True read case 1
    with pytest.raises(DomainError, match="case must be an int from 1 to 8"):
        fields.pushforward_w0(word_to_map([Rotate(0.3)]), case, (0.5, 0.3, 0.2))


def test_integrated_flow_stays_contact():
    v0 = fields.conformal_v0([0.3, 0.0, 0.2, 0.0, 0.1, 0.0, 0.4, 0.0])
    for p in [(0.5, -0.3, 0.2), (1.0, 0.2, -0.5)]:
        r1, r2 = fields.flow_contact_residuals(v0, p, 0.5, steps=400)
        assert abs(r1) < 1e-6 and abs(r2) < 1e-6


def test_bad_potential_type():
    with pytest.raises(BadPotential):
        fields.field_components(3.14)


def test_scl_exp_flow_only_depends_on_x():
    # the closed form uses w = s e^x; same value along y and t
    m = fields.flow_closed_form("exp(x)", 0.8)
    a = sw.s_cl(m, (0.2, 0.0, 0.0))
    b = sw.s_cl(m, (0.2, 1.5, -2.0))
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("h", ["t^2 - 2/3*(x^4+y^4) + x*y*t",
                               "t*t - 2/3*(x*x*x*x + y*y*y*y) + x*y*t"])
def test_flow_that_escapes_raises_domain_error(h):
    # the first overflows inside a complex power, the second only to an
    # infinite coordinate; neither may end in OverflowError or inf/nan
    with pytest.raises(DomainError):
        fields.flow_integrate(parse_expr(h), (0.3, 0.7, -0.4), 0.3, steps=32)


# --- the fused RK4 stage against a run of the tape per stage ---------------------

def _reference_velocity(run, x, y, t):
    """One run of the field's tape, then the coordinate velocity in floats."""
    v1, v2, v0v = run(complex(x), complex(y), complex(t))
    v1, v2 = v1.real, v2.real
    return v1, v2, 2.0 * y * v1 - 2.0 * x * v2 - 4.0 * v0v.real


def _reference_flow(v0, p, s, steps):
    run = tape(fields.field_components(v0))
    h = s / steps
    x, y, t = float(p[0]), float(p[1]), float(p[2])
    for _ in range(steps):
        k1 = _reference_velocity(run, x, y, t)
        k2 = _reference_velocity(run, x + 0.5 * h * k1[0], y + 0.5 * h * k1[1],
                                 t + 0.5 * h * k1[2])
        k3 = _reference_velocity(run, x + 0.5 * h * k2[0], y + 0.5 * h * k2[1],
                                 t + 0.5 * h * k2[2])
        k4 = _reference_velocity(run, x + h * k3[0], y + h * k3[1], t + h * k3[2])
        x += h * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        y += h * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
        t += h * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0
    if not math.isfinite(x + y + t):
        raise DomainError(f"the flow from {tuple(p)} does not stay bounded up to s = {s:g}")
    return Point(x, y, t)


def _reference_contact_residuals(v0, p, s, steps):
    h = 1e-4
    x, y, t = float(p[0]), float(p[1]), float(p[2])

    def at(q):
        return _reference_flow(v0, q, s, steps)

    f = at((x, y, t))
    dx = [(a - b) / (2.0 * h)
          for a, b in zip(at((x + h, y, t + 2 * y * h)), at((x - h, y, t - 2 * y * h)))]
    dy = [(a - b) / (2.0 * h)
          for a, b in zip(at((x, y + h, t - 2 * x * h)), at((x, y - h, t + 2 * x * h)))]
    return (dx[2] - 2.0 * f[1] * dx[0] + 2.0 * f[0] * dx[1],
            dy[2] - 2.0 * f[1] * dy[0] + 2.0 * f[0] * dy[1])


def _result(fn, *args):
    try:
        return tuple(fn(*args))
    except DomainError as e:
        return f"DomainError: {e}"


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["0.3*x^2 + 0.4*x - 0.2", "exp(x)", "x*t + x^2*y",
                        "sin(x)*y - t^2"]),
       st.tuples(_UNIT, _UNIT, _UNIT), st.floats(0.2, 1.5), st.integers(1, 300))
# three ways to escape: a complex power overflows, a stage's outputs are not
# finite, the endpoint is not finite
@example("sin(x)*y - t^2", (0.48, 0.59, 0.88), 1.16, 34)
@example("sin(x)*y - t^2", (-0.68, -0.9, 0.97), 0.89, 26)
@example("sin(x)*y - t^2", (0.58, -0.83, 0.97), 0.41, 5)
def test_the_fused_stage_gives_a_tape_run_per_stage_bit_for_bit(text, p, s, steps):
    v0 = parse_expr(text)
    assert (_result(fields.flow_integrate, v0, p, s, steps)
            == _result(_reference_flow, v0, p, s, steps))
    assert (_result(fields.vector_field_at, v0, p)
            == _result(_reference_velocity, tape(fields.field_components(v0)), *p))
    assert (_result(fields.flow_contact_residuals, v0, p, s, steps)
            == _result(_reference_contact_residuals, v0, p, s, steps))
