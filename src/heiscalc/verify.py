"""The suites of `heiscalc verify`.

Every sampled quantity is a Check: its worst value over the evaluated draws
against its bound, and its draws made, evaluated and skipped by error type.
sample() draws them all; a draw that raises a HeisError records nothing. The
appendix, the ledger and the sign scan keep their own verdicts and reports.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict
from typing import NamedTuple

from . import exact, fields, harmonic, ledger, schwarzian
from .errors import HeisError
from .expr import parse_expr
from .group import (Invert, LinearSL2, Point, koranyi_norm, random_word,
                    word_to_map)
from .horizontal import word_jet

# the bound of the sampled checks when --tol is not given
TOL = 1e-8


class Check(NamedTuple):
    name: str
    worst: float
    bound: float
    drawn: int
    evaluated: int
    skipped: dict   # error type name -> draws it skipped

    @property
    def ok(self) -> bool:
        return self.evaluated > 0 and self.worst <= self.bound

    @property
    def headroom(self) -> float | None:
        """The factor bound / worst, None when worst is 0."""
        return self.bound / self.worst if self.worst else None

    def lines(self) -> list[str]:
        room = f"{self.headroom:.1e}x" if self.worst else "unbounded"
        return [f"{self.name}: evaluated {self.evaluated} of {self.drawn} draws, "
                f"skipped by error {self.skipped}",
                f"{self.name}: worst {self.worst:.3e} (bound {self.bound:g}, "
                f"headroom {room})"]

    def to_dict(self) -> dict:
        return {**self._asdict(), "headroom": self.headroom, "ok": self.ok}


def sample(n, draw, bounds) -> list[Check]:
    """One Check per (name, bound) pair of bounds over n calls of draw(),
    which draws a case and returns its values in the order of bounds."""
    worst, evaluated, skipped = [0.0] * len(bounds), 0, Counter()
    for _ in range(n):
        try:
            values = draw()
        except HeisError as e:
            skipped[type(e).__name__] += 1
            continue
        worst = [max(w, v) for w, v in zip(worst, values)]
        evaluated += 1
    return [Check(name, w, bound, n, evaluated, dict(skipped))
            for (name, bound), w in zip(bounds, worst)]


def _rand_point(rng, lo=0.1, hi=3.0):
    # Koranyi shell sampling, away from the group origin and inversion pole
    while True:
        p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 3))
        if lo <= koranyi_norm(p) <= hi:
            return p


# Each suite takes the shared RNG and --tol and returns its checks, its own
# verdict beside them, its own report lines and its own payload.

def _suite_conformal(rng, tol):
    def word():   # both points are drawn before either is measured
        m = word_to_map(random_word(rng, length=rng.randint(1, 4), allow_invert=True))
        return max(max(abs(schwarzian.s_cr(m, p)), abs(schwarzian.s_cl(m, p)))
                   for p in (_rand_point(rng), _rand_point(rng))),

    return sample(40, word, [("conformal words |S_CR|,|S_CL|", tol)]), True, [], {}


def _suite_cocycles(rng, tol):
    base = word_to_map([Invert(), LinearSL2(2.0, 0.0, 0.0, 0.5)])

    def pair():
        f = base.compose(word_to_map(random_word(rng, length=2, allow_invert=False)))
        g = word_to_map(random_word(rng, length=3, allow_invert=True))
        p = _rand_point(rng, 0.3, 1.5)
        return (abs(schwarzian.cr_chain_residual(f, g, p)),
                abs(schwarzian.cocycle_residual_right(f, g, p)),
                abs(schwarzian.cocycle_residual_left(g, f, p)))

    def pinned():   # S_CR of inv o sl2(2,0,0,0.5) at (1,1,0), -45/34
        want = -6.0 * (4.25 / 18.0625) * (5.0 / 4.0) * (3.0 / 4.0)
        return abs(schwarzian.s_cr(base, Point(1.0, 1.0, 0.0)) - want),

    checks = sample(25, pair, [("chain rule residual", tol), ("right cocycle residual", tol),
                               ("left cocycle residual", tol)])
    return checks + sample(1, pinned, [("pinned composite value error", tol)]), True, [], {}


def _suite_vfields(rng, tol):
    def potential():
        v0 = fields.conformal_v0([rng.uniform(-1, 1) for _ in range(8)])
        p = _rand_point(rng, 0.1, 2.0)
        return abs(fields.conformal_residual(v0, p).z2v0),

    def pushforward():
        m = word_to_map(random_word(rng, length=2, allow_invert=True))
        p = _rand_point(rng, 0.3, 1.5)
        return max(abs(word_jet("ZZ", fields.pushforward_w0(m, case, p)).value)
                   for case in (4, 5, 6, 8)),

    h = parse_expr("0.3*x^2 + 0.4*x - 0.2")

    def flow():
        p = _rand_point(rng, 0.1, 1.5)
        s = rng.uniform(0.2, 1.5)
        q1 = fields.flow_closed_form(h, s)(p)
        q2 = fields.flow_integrate(h, p, s, steps=64)
        return max(abs(a - b) for a, b in zip(q1, q2)),

    # fixed bounds beside --tol for the pushforwards: |Z^2 v0| is 0 in exact
    # arithmetic, and the flow bound allows for the step error of 64 RK4 steps
    return (sample(10, potential, [("conformal potentials |Z^2 v0|", 1e-10)])
            + sample(10, pushforward, [("pushforward cases 4,5,6,8 |Z^2 w0|", tol)])
            + sample(5, flow, [("quadratic flow closed vs integrated", 1e-8)])), True, [], {}


def _suite_appendix(_rng, _tol):
    ids = exact.appendix_identities(8)
    bad = [name for name, _, okk in ids if not okk]
    lines = [f"[{'ok' if okk else 'FAIL'}] {name} ({scope})" for name, scope, okk in ids]
    dims = {d: exact.vzerosol_nullspace(d)[0] for d in range(4, 11)}
    lines.append(f"Z^2 kernel dimensions {dims}")
    ok = not bad and all(v == 8 for v in dims.values())
    return [], ok, lines, {"identities_failed": bad,
                           "dims": {str(k): v for k, v in dims.items()}}


def _suite_harmonic(rng, tol):
    ustar = exact.RatPoly({(0, 0, 2): 1, (4, 0, 0): exact.Fraction(-2, 3),
                           (0, 4, 0): exact.Fraction(-2, 3)})
    m = harmonic.gradient_harmonic(ustar)

    def system():
        p = _rand_point(rng, 0.1, 2.0)
        return max(map(abs, harmonic.harmonic_system_residuals(m, p))),

    def bochner():
        p = _rand_point(rng, 0.1, 2.0)
        return abs(harmonic.bochner_residual(ustar, p, kappa=float(kap.re))),

    checks = sample(6, system, [("gradient system residual", tol)])
    kap = harmonic.determine_kappa(4)
    checks += sample(6, bochner, [("bochner residual", tol)])
    rep = harmonic.subharmonicity_scan(ustar, ((-1, 1, 7), (-1, 1, 7), (-1, 1, 5)))
    lines = [f"fitted bochner constant {kap!r}",
             f"sign scan: {'clean' if rep.ok() else 'violations'} "
             f"({rep.singular_count} singular points)"]
    return checks, rep.ok(), lines, {"kappa": str(kap), "scan": rep.to_dict()}


def _suite_ledger(_rng, _tol):
    entries, lines = ledger.ledger_run(), []
    for e in entries:
        lines.append(e.line())
        if not e.holds:
            lines.append(f"  unexpected fit for {e.key}: {e.fitted} (adopted {e.adopted})")
    return [], all(e.holds for e in entries), lines, {"entries": [
        {**asdict(e), "agrees": e.agrees, "holds": e.holds} for e in entries]}


SUITES = {"conformal": _suite_conformal, "cocycles": _suite_cocycles,
          "vfields": _suite_vfields, "appendix": _suite_appendix,
          "harmonic": _suite_harmonic, "ledger": _suite_ledger}


def run(name, rng, tol):
    """Run one suite: whether it passed, its report lines and its payload,
    which carries the suite's wall time in `seconds`."""
    start = time.perf_counter()
    checks, ok, lines, payload = SUITES[name](rng, tol)
    seconds = time.perf_counter() - start
    ok = ok and all(c.ok for c in checks)
    return ok, [ln for c in checks for ln in c.lines()] + lines, \
        {"ok": ok, "seconds": seconds, "checks": [c.to_dict() for c in checks], **payload}
