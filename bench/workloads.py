"""Seeded workloads of the heiscalc benchmark.

Each workload is a sequence of blocks of cases. Block k of seed s is drawn
from its own generator, so the inputs depend only on (workload, seed, k) and
a run may stop after any whole block. Only generated inputs reach heiscalc:
generator words, points, flow times and grids. A case calls the library's
public functions and checks the outputs against an independent reference;
a raised HeisError is a failed case, never a skip.

Every library call goes through the module attribute (``schwarzian.s_cr``,
not a name imported here) so that the tracer in spans.py sees it.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from heiscalc import exact, expr, fields, group, harmonic, horizontal, ledger, schwarzian
from heiscalc.errors import HeisError

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Residual tolerance for the words workload, as in `heiscalc verify`.
WORDS_TOL = 1e-8
# RK4 on these potentials is exact up to rounding (the fields are constant
# along the flow), measured about 1e-14.
FLOW_ENDPOINT_TOL = 1e-12
# Centred differences with step 1e-4 over 200-step trajectories; measured up
# to about 4e-9.
FLOW_CONTACT_TOL = 1e-7
FLOW_SCL_TOL = 1e-12
FLOW_STEPS = 200
# A seed that development runs never use; a later claim must also hold on it.
# For the scan workloads it selects the held-out grids of reference.json.
HELDOUT_SEED = 90001

POLY_POTENTIAL = "t^2 - 2/3*(x^4 + y^4)"
JET_POTENTIAL = "exp(x)*cos(y) + t^2 - 2/3*(x^4+y^4)"
FLOW_POTENTIALS = ("0.3*x^2 + 0.4*x - 0.2", "exp(x)")
# The scans' warm-up case: a 3^3 grid off the singular plane t = 0. It fills
# the same jet tables as a full grid at a small share of its cost.
WARMUP_REGION = ((0.25, 0.75, 3), (0.25, 0.75, 3), (0.25, 0.75, 3))
SCAN_CHECKS = ("lap_abs_zf2", "cleared_log_abs_zf2", "lap_abs_f2", "lap_grad_u2")


def load_reference() -> dict:
    """Values recorded by make_reference.py when the benchmark was introduced."""
    return json.loads(REFERENCE_FILE.read_text())


@dataclass
class Stats:
    """Outcome counts of the cases run, for the report and the trace."""
    drawn: int = 0
    evaluated: int = 0
    failed: int = 0
    scan_points: int = 0
    scan_singular: int = 0
    scan_gated: dict = field(default_factory=lambda: dict.fromkeys(SCAN_CHECKS, 0))


@dataclass
class Case:
    kind: str
    args: tuple


class Workload:
    """A named case generator with its references.

    refs holds the values the outputs are checked against; the self-test
    builds a workload with one of them perturbed.
    """
    name = ""
    why = ""
    cases_per_block = 0

    def __init__(self, refs):
        self.refs = refs

    @classmethod
    def default_refs(cls, reference: dict):
        raise NotImplementedError

    def block(self, seed: int, k) -> list[Case]:
        raise NotImplementedError

    def check(self, case: Case, stats: Stats) -> bool:
        raise NotImplementedError

    def run(self, case: Case, stats: Stats):
        """Run one case and count its outcome; HeisError is a failure."""
        stats.drawn += 1
        try:
            ok = self.check(case, stats)
        except HeisError:
            ok = False
        else:
            stats.evaluated += 1
        stats.failed += not ok

    def _rng(self, seed: int, k) -> random.Random:
        return random.Random(f"{self.name}/{seed}/{k}")


def _shell_point(rng, lo: float, hi: float) -> group.Point:
    """A point with Koranyi norm in [lo, hi]."""
    while True:
        p = group.Point(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 3))
        if lo <= group.koranyi_norm(p) <= hi:
            return p


# --- words -------------------------------------------------------------------

@dataclass
class WordsRefs:
    pinned_point: tuple
    pinned_s_cr: float


class Words(Workload):
    """Many maps, one point each: no work is shared between cases."""
    name = "words"
    why = ("many seeded generator words at one point each, so no work is shared "
           "between cases: the per-point jets, expr, group and Schwarzian path")
    plain, pairs = 16, 4
    cases_per_block = plain + pairs + 1

    @classmethod
    def default_refs(cls, reference):
        return WordsRefs(pinned_point=(1.0, 1.0, 0.0), pinned_s_cr=-45 / 34)

    def block(self, seed, k):
        rng = self._rng(seed, k)
        out = []
        # word lengths 1-4 in equal shares, so that blocks cost alike
        for i in range(self.plain):
            w = group.random_word(rng, length=1 + i % 4, allow_invert=True)
            out.append(Case("plain", (w, _shell_point(rng, 0.1, 3.0))))
        for _ in range(self.pairs):
            w1 = group.random_word(rng, length=2, allow_invert=False)
            w2 = group.random_word(rng, length=3, allow_invert=True)
            out.append(Case("pair", (w1, w2, _shell_point(rng, 0.3, 1.5))))
        out.append(Case("pinned", ()))
        return out

    def check(self, case, stats):
        sw, tol, refs = schwarzian, WORDS_TOL, self.refs
        if case.kind == "plain":
            w, p = case.args
            m = group.word_to_map(w)
            ok = abs(sw.s_cr(m, p)) <= tol and abs(sw.s_cl(m, p)) <= tol
            ok &= math.isfinite(abs(sw.preschwarzian(m, p)))
            ok &= horizontal.assess_contact(m, p).is_contact(tol)
            for c in (4, 5, 6, 8):
                w0 = fields.pushforward_w0(m, c, p)
                ok &= abs(horizontal.word_jet("ZZ", w0).value) <= tol
            return ok
        stretch = group.word_to_map([group.Invert(), group.LinearSL2(2.0, 0.0, 0.0, 0.5)])
        if case.kind == "pinned":
            return abs(sw.s_cr(stretch, refs.pinned_point) - refs.pinned_s_cr) <= 1e-12
        w1, w2, p = case.args
        f = stretch.compose(group.word_to_map(w1))
        g = group.word_to_map(w2)
        return (abs(sw.cr_chain_residual(f, g, p)) <= tol
                and abs(sw.cocycle_residual_right(f, g, p)) <= tol
                and abs(sw.cocycle_residual_left(g, f, p)) <= tol)


# --- scans -------------------------------------------------------------------

class Scan(Workload):
    """One potential over many grid points: the sharing that batching over
    points exploits. Grids come from the table in reference.json, with the
    singular and gated counts recorded when the benchmark was introduced;
    the held-out seed draws from a separate table of held-out grids."""
    potential = ""
    cases_per_block = 1

    @classmethod
    def default_refs(cls, reference):
        return reference["scan"][cls.name]

    def block(self, seed, k):
        if k == "warmup":
            return [Case("warmup", (WARMUP_REGION,))]
        rng = self._rng(seed, k)
        grids = self.refs["heldout_grids" if seed == HELDOUT_SEED else "grids"]
        return [Case("grid", (rng.choice(grids),)) for _ in range(self.cases_per_block)]

    def check(self, case, stats):
        if case.kind == "warmup":
            return harmonic.subharmonicity_scan(self.refs["potential"], case.args[0]).ok()
        want = case.args[0]
        region = tuple(tuple(axis) for axis in want["region"])
        rep = harmonic.subharmonicity_scan(self.refs["potential"], region)
        npts = math.prod(n for _, _, n in region)
        stats.scan_points += npts
        stats.scan_singular += rep.singular_count
        for c in rep.checks:
            stats.scan_gated[c.name] += c.n_gated
        return (rep.ok()
                and rep.singular_count == want["singular"]
                and [c.name for c in rep.checks] == list(SCAN_CHECKS)
                and [c.n_gated for c in rep.checks] == want["gated"]
                and all(c.n_points == npts for c in rep.checks))


class ScanPoly(Scan):
    name = "scan_poly"
    why = ("subharmonicity scans of the polynomial u*, which takes the exact "
           "RatPoly evaluation path, over seeded 21^3 grids")
    potential = POLY_POTENTIAL
    shape = (21, 21, 21)


class ScanJet(Scan):
    name = "scan_jet"
    why = ("subharmonicity scans of a non-polynomial potential, which takes the "
           "jet path at every grid point, over seeded 10^3 grids")
    potential = JET_POTENTIAL
    # 21^3 takes about 15 s on this path, a whole run for one sample
    shape = (10, 10, 10)


def grid_region(rng, shape) -> list:
    """Dyadic grid: steps and bounds are exact binary fractions, so grid
    points reproduce exactly. About two grids in three cross the singular
    plane t = 0 of both potentials."""
    out = []
    for n in shape:
        h = rng.choice((0.125, 0.25, 0.5))
        lo = h * rng.randint(-(n - 1), n // 2)
        out.append([lo, lo + h * (n - 1), n])
    return out


# --- exact -------------------------------------------------------------------

class Exact(Workload):
    """The fixed exact battery, one task per case; the seed only orders the
    tasks of a block. The warm-up case is the first task unshuffled."""
    name = "exact"
    why = ("one pass of the exact battery: Fraction arithmetic and row reduction "
           "in the RatPoly kernel, with almost no jet work")
    TASKS = (("kappa", 4), ("appendix", 6), ("vzerosol", 4), ("vzerosol", 5),
             ("vzerosol", 6), ("vzerosol", 7), ("harmonic", 6), ("ledger", None))
    cases_per_block = len(TASKS)

    @classmethod
    def default_refs(cls, reference):
        return reference["exact"]

    def block(self, seed, k):
        tasks = list(self.TASKS)
        if k != "warmup":
            self._rng(seed, k).shuffle(tasks)
        return [Case(task, (d,)) for task, d in tasks]

    def check(self, case, stats):
        refs, (d,) = self.refs, case.args
        if case.kind == "appendix":
            return all(holds for _, _, holds in exact.appendix_identities(d))
        if case.kind == "vzerosol":
            return exact.vzerosol_nullspace(d)[0] == refs["z2_kernel_dim"]
        if case.kind == "harmonic":
            return len(exact.harmonic_nullspace(d)) == refs["harmonic_dim"][str(d)]
        if case.kind == "kappa":
            return harmonic.determine_kappa(d) == Fraction(refs["kappa"])
        got = {e.key: [e.fitted, e.agrees] for e in ledger.ledger_run()}
        return got == refs["ledger"]


# --- flow --------------------------------------------------------------------

@dataclass
class FlowRefs:
    scl_exp: object             # closed form of S_CL along the exp(x) flow


class Flow(Workload):
    """RK4 flows of x-only potentials against their closed forms."""
    name = "flow"
    why = ("seeded RK4 flows checked against closed forms: scalar expression "
           "evaluation and the fields integrator dominate")
    cases_per_block = 2

    @classmethod
    def default_refs(cls, reference):
        return FlowRefs(scl_exp=fields.scl_exp_flow)

    def block(self, seed, k):
        rng = self._rng(seed, k)
        out = []
        for i in range(self.cases_per_block):
            p = group.Point(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            s = rng.uniform(0.2, 1.5)
            out.append(Case(FLOW_POTENTIALS[i % 2], (p, s)))
        return out

    def check(self, case, stats):
        p, s = case.args
        h = expr.parse_expr(case.kind)
        q_rk = fields.flow_integrate(h, p, s, steps=FLOW_STEPS)
        flow_map = fields.flow_closed_form(h, s)
        q_cf = flow_map(p)
        ok = max(abs(a - b) for a, b in zip(q_rk, q_cf)) <= FLOW_ENDPOINT_TOL
        r1, r2 = fields.flow_contact_residuals(h, p, s, steps=FLOW_STEPS)
        ok &= max(abs(r1), abs(r2)) <= FLOW_CONTACT_TOL
        if case.kind == "exp(x)":
            scl = schwarzian.s_cl(flow_map, p)
            ok &= abs(scl - self.refs.scl_exp(p[0], s)) <= FLOW_SCL_TOL
        return ok


WORKLOADS = {w.name: w for w in (Words, ScanPoly, ScanJet, Exact, Flow)}


def make(name: str, reference: dict) -> Workload:
    cls = WORKLOADS[name]
    return cls(cls.default_refs(reference))
