"""Each scalar diagnostic seeds exactly the jet order its formula consumes.

Every jet evaluation (HeisMap.jets and each module's jet_eval) is
intercepted and its order shifted. One order more, at every evaluation,
must leave the result equal, so the chosen orders lose nothing; one order
less, at any single evaluation, must raise OrderError, so each chosen order
is the minimum.
"""
import pytest

from heiscalc import fields, harmonic, horizontal, schwarzian as sw
from heiscalc.errors import OrderError
from heiscalc.group import (HeisMap, Invert, LinearSL2, Rotate, Translate,
                            word_to_map)

P = (0.4, 0.7, -0.3)
# contact, not conformal, with a non-constant Jacobian, so S_CR is not zero
STRETCH = word_to_map([Invert(), LinearSL2(2.0, 0.0, 0.0, 0.5), Translate((0.2, -0.1, 0.3))])
CONFORMAL = word_to_map([Translate((0.3, -0.2, 0.5)), Invert(), Rotate(0.4)])
U = "exp(x)*cos(y) + t^2 - 2/3*(x^4 + y^4)"
GRAD = harmonic.gradient_harmonic(U)
V0 = fields.conformal_v0([0.3, -0.2, 0.5, 0.1, -0.4, 0.6, 0.2, -0.7])
REGION = ((-0.5, 0.5, 3), (-0.5, 0.5, 2), (0.25, 0.75, 2))

DIAGNOSTICS = {
    "s_cr": lambda: sw.s_cr(STRETCH, P),
    "s_cr_reciprocal_form": lambda: sw.s_cr_reciprocal_form(STRETCH, P),
    "s_cr_tensor_coeff": lambda: sw.s_cr_tensor_coeff(STRETCH, P),
    "s_cl": lambda: sw.s_cl(STRETCH, P),
    "preschwarzian": lambda: sw.preschwarzian(STRETCH, P),
    "preschwarzian_identity_residual": lambda: sw.preschwarzian_identity_residual(STRETCH, P),
    "pluriharmonic_residual": lambda: sw.pluriharmonic_residual(STRETCH, P),
    "cr_chain_residual": lambda: sw.cr_chain_residual(STRETCH, CONFORMAL, P),
    "cocycle_residual_right": lambda: sw.cocycle_residual_right(STRETCH, CONFORMAL, P),
    "cocycle_residual_left": lambda: sw.cocycle_residual_left(CONFORMAL, STRETCH, P),
    "harmonic_system_residuals": lambda: harmonic.harmonic_system_residuals(GRAD, P),
    "bochner_residual": lambda: harmonic.bochner_residual(U, P),
    "hessian_report": lambda: harmonic.hessian_report(U, P),
    "geom_term": lambda: harmonic.geom_term(U, P),
    "growth_ingredients": lambda: harmonic.growth_ingredients(
        U, P, radii=[0.4, 0.8], sample_points=[(-0.4, -0.3, -0.5), (0.3, -0.3, -0.5)]),
    "assess_contact": lambda: horizontal.assess_contact(STRETCH, P),
    "conformal_residual": lambda: fields.conformal_residual(V0, P),
    "pushforward_w0": lambda: tuple(
        horizontal.word_jet("ZZ", fields.pushforward_w0(STRETCH, c, P)).value
        for c in range(1, 9)),
    "scl_flow_derivative": lambda: fields.scl_flow_derivative(V0, P),
    "jet_scan": lambda: harmonic.subharmonicity_scan(U, REGION),
    "contact_jacobian_scan": lambda: harmonic.contact_jacobian_scan(GRAD, REGION),
}


class _Shift:
    """Adds delta to the order of jet evaluation number `at`, or of every
    one when at is None, and counts the evaluations."""

    def __init__(self, delta, at=None):
        self.delta, self.at, self.calls = delta, at, 0

    def __call__(self, order):
        k, self.calls = self.calls, self.calls + 1
        return order + self.delta if self.at in (None, k) else order


def _run(monkeypatch, name, shift):
    jets = HeisMap.jets
    with monkeypatch.context() as mp:
        mp.setattr(HeisMap, "jets", lambda self, p, order: jets(self, p, shift(order)))
        for mod in (horizontal, harmonic):
            mp.setattr(mod, "jet_eval",
                       lambda roots, p, order, f=mod.jet_eval: f(roots, p, shift(order)))
        out = DIAGNOSTICS[name]()
    if isinstance(out, harmonic.SignReport):
        return out, {k: v.tolist() for k, v in out.columns.items()}
    return out


@pytest.mark.parametrize("name", DIAGNOSTICS)
def test_one_order_more_changes_nothing(monkeypatch, name):
    assert _run(monkeypatch, name, _Shift(1)) == _run(monkeypatch, name, _Shift(0))


@pytest.mark.parametrize("name", DIAGNOSTICS)
def test_one_order_less_at_any_evaluation_raises(monkeypatch, name):
    count = _Shift(0)
    _run(monkeypatch, name, count)
    assert count.calls > 0
    for k in range(count.calls):
        with pytest.raises(OrderError):
            _run(monkeypatch, name, _Shift(-1, at=k))
