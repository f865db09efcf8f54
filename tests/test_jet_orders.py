"""Each scalar diagnostic reads exactly the jet order its formula consumes,
and each (map, point) is evaluated once.

A map's jets come from its reading (HeisMap.reading), which evaluates at
the highest order asked so far and hands each consumer a truncation. So the
test intercepts two things: the order each consumer asks for (HeisMap.jets,
horizontal.jacobian, horizontal.zf, and each module's jet_eval, which
evaluates at once), and the order of each map evaluation
(HeisMap._evaluate, the one place a map's jets are made: seeded, or for a
composite read from its inner map's reading). One order more, at every
consumer and every evaluation, must leave the result equal, so the chosen
orders lose nothing; one order less, at any single consumer, must raise
OrderError, so each chosen order is the minimum. Every run builds its maps
afresh, so no reading carries over from an earlier run.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from heiscalc import expr, fields, harmonic, horizontal, schwarzian as sw
from heiscalc.errors import OrderError
from heiscalc.group import (HeisMap, Invert, LinearSL2, Rotate, Translate,
                            word_to_map)
from heiscalc.jets import Jet

P = (0.4, 0.7, -0.3)


def stretch():
    """Contact, not conformal, with a non-constant Jacobian, so S_CR is not zero."""
    return word_to_map([Invert(), LinearSL2(2.0, 0.0, 0.0, 0.5), Translate((0.2, -0.1, 0.3))])


def conformal():
    return word_to_map([Translate((0.3, -0.2, 0.5)), Invert(), Rotate(0.4)])


U = "exp(x)*cos(y) + t^2 - 2/3*(x^4 + y^4)"
V0 = fields.conformal_v0([0.3, -0.2, 0.5, 0.1, -0.4, 0.6, 0.2, -0.7])
REGION = ((-0.5, 0.5, 3), (-0.5, 0.5, 2), (0.25, 0.75, 2))

DIAGNOSTICS = {
    "s_cr": lambda: sw.s_cr(stretch(), P),
    "s_cr_reciprocal_form": lambda: sw.s_cr_reciprocal_form(stretch(), P),
    "s_cr_tensor_coeff": lambda: sw.s_cr_tensor_coeff(stretch(), P),
    "s_cl": lambda: sw.s_cl(stretch(), P),
    "preschwarzian": lambda: sw.preschwarzian(stretch(), P),
    "preschwarzian_identity_residual": lambda: sw.preschwarzian_identity_residual(stretch(), P),
    "pluriharmonic_residual": lambda: sw.pluriharmonic_residual(stretch(), P),
    "cr_chain_residual": lambda: sw.cr_chain_residual(stretch(), conformal(), P),
    "cocycle_residual_right": lambda: sw.cocycle_residual_right(stretch(), conformal(), P),
    "cocycle_residual_left": lambda: sw.cocycle_residual_left(conformal(), stretch(), P),
    "harmonic_system_residuals": lambda: harmonic.harmonic_system_residuals(
        harmonic.gradient_harmonic(U), P),
    "bochner_residual": lambda: harmonic.bochner_residual(U, P),
    "hessian_report": lambda: harmonic.hessian_report(U, P),
    "geom_term": lambda: harmonic.geom_term(U, P),
    "growth_ingredients": lambda: harmonic.growth_ingredients(
        U, P, radii=[0.4, 0.8], sample_points=[(-0.4, -0.3, -0.5), (0.3, -0.3, -0.5)]),
    "assess_contact": lambda: horizontal.assess_contact(stretch(), P),
    "conformal_residual": lambda: fields.conformal_residual(V0, P),
    "pushforward_w0": lambda: tuple(
        horizontal.word_jet("ZZ", fields.pushforward_w0(m, c, P)).value
        for m in [stretch()] for c in range(1, 9)),
    "scl_flow_derivative": lambda: fields.scl_flow_derivative(V0, P),
    "jet_scan": lambda: harmonic.subharmonicity_scan(U, REGION),
    "contact_jacobian_scan": lambda: harmonic.contact_jacobian_scan(
        harmonic.gradient_harmonic(U), REGION),
}


class _Shift:
    """Adds delta to the order of intercepted call number `at`, or of
    every one when at is None, and counts the calls."""

    def __init__(self, delta, at=None):
        self.delta, self.at, self.calls = delta, at, 0

    def __call__(self, order):
        k, self.calls = self.calls, self.calls + 1
        return order + self.delta if self.at in (None, k) else order


def _run(monkeypatch, name, shift, evals=None):
    """The diagnostic's result with each consumer's order passed through
    shift and each map evaluation's through evals."""
    evals = evals or _Shift(0)
    jets, jacobian, zf = HeisMap.jets, horizontal.jacobian, horizontal.zf
    evaluate = HeisMap._evaluate
    with monkeypatch.context() as mp:
        mp.setattr(HeisMap, "jets", lambda self, p, order: jets(self, p, shift(order)))
        for mod in (horizontal, sw, fields):
            mp.setattr(mod, "jacobian", lambda f, p, order, form="":
                       jacobian(f, p, shift(order), form))
        mp.setattr(sw, "zf", lambda f, p, order, conj=False: zf(f, p, shift(order), conj))
        for mod in (horizontal, harmonic):
            mp.setattr(mod, "jet_eval",
                       lambda roots, p, order, f=mod.jet_eval: f(roots, p, shift(order)))
        mp.setattr(HeisMap, "_evaluate", lambda self, p, order: evaluate(self, p, evals(order)))
        out = DIAGNOSTICS[name]()
    if isinstance(out, harmonic.SignReport):
        return out, {k: v.tolist() for k, v in out.columns.items()}
    return out


@pytest.mark.parametrize("name", DIAGNOSTICS)
def test_one_order_more_changes_nothing(monkeypatch, name):
    more = _run(monkeypatch, name, _Shift(1), _Shift(1))
    assert more == _run(monkeypatch, name, _Shift(0))


@pytest.mark.parametrize("name", DIAGNOSTICS)
def test_one_order_less_at_any_evaluation_raises(monkeypatch, name):
    count = _Shift(0)
    _run(monkeypatch, name, count)
    assert count.calls > 0
    for k in range(count.calls):
        with pytest.raises(OrderError):
            _run(monkeypatch, name, _Shift(-1, at=k))


def _count_jet_evaluations(monkeypatch) -> list:
    """Record each evaluation on jets as (order, what by identity, base
    points by bits): each map's (HeisMap._evaluate) and each expression's
    (expr.evaluate, which no map calls); what was evaluated is kept, so no
    id is reused while counting."""
    runs, alive = [], []
    evaluate, evaluate_map = expr.evaluate, HeisMap._evaluate

    def record(what, order, p):
        alive.append(what)
        ids = tuple(map(id, what)) if isinstance(what, tuple) else id(what)
        runs.append((order, ids, np.asarray(p, dtype=float).tobytes()))

    def counted(roots, vx, vy, vt):
        if isinstance(vx, Jet):
            record(roots, vx.order, vx.base)
        return evaluate(roots, vx, vy, vt)

    def counted_map(m, p, order):
        record(m, order, p)
        return evaluate_map(m, p, order)
    monkeypatch.setattr(expr, "evaluate", counted)
    monkeypatch.setattr(HeisMap, "_evaluate", counted_map)
    return runs


# Each residual evaluates each map it reads, at each point, once: the
# composite at p (from the inner map's reading there) and the two maps at p
# and at their image (3, 4 and 4 before the readings, when the right
# cocycle's gate evaluated g at p again).
JETS_CALLS = {"cr_chain_residual": 3, "cocycle_residual_right": 3,
              "cocycle_residual_left": 3}


@pytest.mark.parametrize("name", JETS_CALLS)
def test_composition_residuals_evaluate_shared_jets_once(monkeypatch, name):
    runs = _count_jet_evaluations(monkeypatch)
    DIAGNOSTICS[name]()
    assert [order for order, *_ in runs] == [3] * JETS_CALLS[name]


def _words_block_0(monkeypatch):
    """A function that checks block 0 of seed 1 of the benchmark's words
    workload, all of whose cases pass."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # for its dataclasses
    spec.loader.exec_module(workloads)
    words = workloads.Words(workloads.Words.default_refs(None))
    cases = words.block(1, 0)
    return lambda: all(words.check(case, workloads.Stats()) for case in cases)


def test_a_words_block_evaluates_each_map_and_point_once(monkeypatch):
    # 16 single maps, one evaluation each for s_cr, s_cl, the preschwarzian,
    # the contact assessment and four pushforwards; 4 pairs, 4 + 0 + 4 for
    # the three residuals: the chain rule's f o g at p, g at p, and f at
    # g(p), whose reading reads that of f's own inner word there, the
    # stretch's w1; the right law reads the chain rule's composite, kept by
    # f.compose, and f and g where the chain rule did; the left law g at
    # f(p), f and w1 at p, and g o f at p. The pinned map, 1. Each is a
    # distinct (map, point). Building the composite afresh for each law made
    # 45 evaluations; a composite evaluated from the seeds, with no reading
    # of w1, 41.
    check = _words_block_0(monkeypatch)
    runs = _count_jet_evaluations(monkeypatch)
    assert check()
    assert len(runs) == 16 + 4 * 8 + 1 == 49
    assert len({(ids, base) for _, ids, base in runs}) == len(runs)


def test_a_words_block_assesses_contact_once_per_reading(monkeypatch):
    # One assessment per reading that a contact gate or the plain case reads:
    # each single map, 1 for s_cr, s_cl and is_contact; each pair, 3 for the
    # chain rule's three S_CR, 0 for the right law (it reads the chain
    # rule's composite, and f and g where the chain rule did), 2 for the
    # left law's composite and f at p; the pinned map, 1. A gate that built
    # its own made 81, and a composite built afresh for each law 41.
    check = _words_block_0(monkeypatch)
    builds = []
    assess = horizontal._assess
    monkeypatch.setattr(horizontal, "_assess", lambda f, p: builds.append(p) or assess(f, p))
    assert check()
    assert len(builds) == 16 + 4 * (3 + 0 + 2) + 1 == 37


@pytest.mark.parametrize("name", [n for n in DIAGNOSTICS if not n.endswith("scan")])
def test_each_map_and_point_is_evaluated_once(monkeypatch, name):
    # a gate that reads a lower order before the formula reads its own must
    # not cost a second evaluation, as the pluriharmonic residual's positive
    # Jacobian check would at order 3 before its jet at order 4
    runs = _count_jet_evaluations(monkeypatch)
    DIAGNOSTICS[name]()
    maps_and_points = [(ids, base) for _, ids, base in runs]
    assert runs and len(set(maps_and_points)) == len(runs)


def test_the_contact_assessment_makes_no_frame_call(monkeypatch):
    # its nine first-order values are read from the coefficients; the
    # Jacobian, read the same way through frame, shows the count sees a call
    letters = []
    frame = horizontal.frame
    monkeypatch.setattr(horizontal, "frame",
                        lambda j, letter: letters.append(letter) or frame(j, letter))
    a = DIAGNOSTICS["assess_contact"]()
    assert isinstance(a, horizontal.ContactAssessment) and letters == []
    horizontal.jacobian(stretch(), P, 1)
    assert letters == ["X", "Y", "Y", "X"]
