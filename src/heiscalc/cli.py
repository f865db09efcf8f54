"""Command line front end: eval, verify, scan, flow.

Exit codes: 0 success, 1 verification failure, 2 usage or parse problem,
3 domain problem (singular point, wrong orientation, bad potential).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import tempfile
from collections import Counter

from . import exact, fields, harmonic, ledger, schwarzian
from .errors import HeisError, ParseError
from .expr import parse_expr
from .group import (Point, koranyi_norm, parse_word, random_word, word_to_map)
from .horizontal import assess_contact, word_jet

_SUITES = ("conformal", "cocycles", "vfields", "appendix", "harmonic", "ledger")


def _write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".heiscalc-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(doc: dict, out: str | None):
    doc = {"schema": 1, **doc}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _parse_number(s: str) -> float:
    try:
        v = float(s)
    except ValueError as e:
        raise ParseError(str(e)) from None
    if not math.isfinite(v):
        raise ParseError(f"{s.strip()!r} is not a finite number")
    return v


def _parse_point(s: str) -> Point:
    parts = s.split(",")
    if len(parts) != 3:
        raise ParseError(f"point needs three comma-separated numbers, got {s!r}")
    return Point(*(_parse_number(v) for v in parts))


def _parse_grid(s: str):
    axes = []
    for part in s.split(","):
        bits = part.split(":")
        if len(bits) != 3:
            raise ParseError(f"grid axis must be lo:hi:n, got {part!r}")
        try:
            n = int(bits[2])
        except ValueError as e:
            raise ParseError(str(e)) from None
        axes.append((_parse_number(bits[0]), _parse_number(bits[1]), n))
    if len(axes) != 3:
        raise ParseError("grid needs three axes")
    return tuple(axes)


_CONFIG_KEYS = {"seed": int, "tol": float, "out": str}


def _load_config(path: str) -> dict:
    """A config file's key=value lines, converted; a ParseError on a bad line."""
    cfg = {}
    try:
        with open(path) as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParseError(f"{path}:{ln}: expected key=value")
                k, v = (s.strip() for s in line.split("=", 1))
                if k not in _CONFIG_KEYS:
                    raise ParseError(f"{path}:{ln}: unknown key {k!r} "
                                     f"(known: {', '.join(_CONFIG_KEYS)})")
                try:
                    cfg[k] = _CONFIG_KEYS[k](v)
                except ValueError:
                    raise ParseError(f"{path}:{ln}: bad value {v!r} for {k}") from None
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e}") from None
    return cfg


# --- eval ------------------------------------------------------------------------

def cmd_eval(args) -> int:
    m = word_to_map(parse_word(args.map))
    p = _parse_point(args.point)
    doc = {"op": args.which, "map": m.name, "point": list(p)}
    scalars = {"s_cr": schwarzian.s_cr, "s_cl": schwarzian.s_cl,
               "pf": schwarzian.preschwarzian}
    if args.which == "contact":
        doc["value"] = assess_contact(m, p).to_dict()
    else:   # the parser allows no other --which
        v = scalars[args.which](m, p)
        doc["value"] = {"re": v.real, "im": v.imag}
    _emit(doc, args.out)
    return 0


# --- verify ----------------------------------------------------------------------

def _rand_point(rng, lo=0.1, hi=3.0):
    # Koranyi shell sampling, away from the group origin and inversion pole
    while True:
        p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 3))
        if lo <= koranyi_norm(p) <= hi:
            return p


# the conformal suite skips a drawn point whose image under the word lies
# beyond this Koranyi norm, and counts the skip
_CONFORMAL_IMAGE_NORM_MAX = 50


def _suite_conformal(rng, tol):
    lines = []
    worst = 0.0
    n_words, drawn, evaluated, skipped = 40, 0, 0, Counter()
    for i in range(n_words):
        w = random_word(rng, length=rng.randint(1, 4), allow_invert=True)
        m = word_to_map(w)
        for _ in range(2):
            p = _rand_point(rng)
            drawn += 1
            if koranyi_norm(m(p)) > _CONFORMAL_IMAGE_NORM_MAX:
                skipped[f"image Koranyi norm above {_CONFORMAL_IMAGE_NORM_MAX}"] += 1
                continue
            a = abs(schwarzian.s_cr(m, p))
            b = abs(schwarzian.s_cl(m, p))
            worst = max(worst, a, b)
            evaluated += 1
    ok = evaluated > 0 and worst <= tol
    lines.append(f"evaluated {evaluated} of {drawn} points on {n_words} words, "
                 f"skipped {dict(skipped)}")
    lines.append(f"conformal words: worst |S_CR|,|S_CL| = {worst:.3e} (tol {tol:g})")
    return ok, lines, {"worst": worst, "n_words": n_words, "drawn": drawn,
                       "evaluated": evaluated, "skipped": dict(skipped)}


def _suite_cocycles(rng, tol):
    from .group import Invert, LinearSL2
    lines = []
    worst_chain = worst_right = worst_left = 0.0
    base = word_to_map([Invert(), LinearSL2(2.0, 0.0, 0.0, 0.5)])
    drawn, evaluated, skipped = 25, 0, Counter()
    for _ in range(drawn):
        f = base.compose(word_to_map(random_word(rng, length=2, allow_invert=False)))
        g = word_to_map(random_word(rng, length=3, allow_invert=True))
        p = _rand_point(rng, 0.3, 1.5)
        try:
            worst_chain = max(worst_chain, abs(schwarzian.cr_chain_residual(f, g, p)))
            worst_right = max(worst_right, abs(schwarzian.cocycle_residual_right(f, g, p)))
            worst_left = max(worst_left, abs(schwarzian.cocycle_residual_left(g, f, p)))
            evaluated += 1
        except HeisError as e:   # a draw that any of the three laws rejects
            skipped[type(e).__name__] += 1
    lines.append(f"evaluated {evaluated} of {drawn} draws, skipped by error {dict(skipped)}")
    lines.append(f"chain rule worst residual {worst_chain:.3e}")
    lines.append(f"right cocycle worst residual {worst_right:.3e}")
    lines.append(f"left cocycle worst residual {worst_left:.3e}")
    pinned = schwarzian.s_cr(base, Point(1.0, 1.0, 0.0))
    want = -6.0 * (4.25 / 18.0625) * (5.0 / 4.0) * (3.0 / 4.0)
    c3 = abs(pinned - want)
    lines.append(f"pinned composite value error {c3:.3e}")
    ok = evaluated > 0 and max(worst_chain, worst_right, worst_left, c3) <= tol
    return ok, lines, {"chain": worst_chain, "right": worst_right,
                       "left": worst_left, "pinned": c3, "drawn": drawn,
                       "evaluated": evaluated, "skipped": dict(skipped)}


# fixed bounds of the vfields suite, beside --tol for the pushforwards:
# |Z^2 v0| is 0 in exact arithmetic, and the flow bound also allows for the
# step error of 64 RK4 steps against the closed form
_VFIELDS_V0_BOUND = 1e-10
_VFIELDS_FLOW_BOUND = 1e-8


def _against_bound(text, worst, bound):
    """The report line of a worst value and its bound, and its headroom, the
    factor bound / worst (None when worst is 0)."""
    headroom = bound / worst if worst else None
    room = f"{headroom:.1e}x" if headroom is not None else "unbounded"
    return f"{text} = {worst:.3e} (bound {bound:g}, headroom {room})", headroom


def _sampled(n, draw):
    """The worst of n values of draw(), which draws a case and measures it,
    and the counts: a draw that raises a HeisError is skipped and counted
    by error type."""
    worst, evaluated, skipped = 0.0, 0, Counter()
    for _ in range(n):
        try:
            worst = max(worst, draw())
            evaluated += 1
        except HeisError as e:
            skipped[type(e).__name__] += 1
    return worst, {"drawn": n, "evaluated": evaluated, "skipped": dict(skipped)}


def _suite_vfields(rng, tol):
    def potential():
        v0 = fields.conformal_v0([rng.uniform(-1, 1) for _ in range(8)])
        p = _rand_point(rng, 0.1, 2.0)
        return abs(fields.conformal_residual(v0, p).z2v0)

    def pushforward():
        m = word_to_map(random_word(rng, length=2, allow_invert=True))
        p = _rand_point(rng, 0.3, 1.5)
        return max(abs(word_jet("ZZ", fields.pushforward_w0(m, case, p)).value)
                   for case in (4, 5, 6, 8))

    h = parse_expr("0.3*x^2 + 0.4*x - 0.2")

    def flow():
        p = _rand_point(rng, 0.1, 1.5)
        s = rng.uniform(0.2, 1.5)
        q1 = fields.flow_closed_form(h, s)(p)
        q2 = fields.flow_integrate(h, p, s, steps=64)
        return max(abs(a - b) for a, b in zip(q1, q2))

    lines, payload = [], {"bounds": {}, "headroom": {}, "counts": {}}
    for key, name, n, draw, worst_of, bound in (
            ("v0", "conformal potentials", 10, potential, "worst |Z^2 v0|",
             _VFIELDS_V0_BOUND),
            ("push", "pushforward cases 4,5,6,8", 10, pushforward, "worst |Z^2 w0|", tol),
            ("flow", "quadratic flow closed vs integrated", 5, flow, "worst",
             _VFIELDS_FLOW_BOUND)):
        worst, counts = _sampled(n, draw)
        lines.append(f"{name}: evaluated {counts['evaluated']} of {n} draws, "
                     f"skipped by error {counts['skipped']}")
        line, headroom = _against_bound(f"{name}: {worst_of}", worst, bound)
        lines.append(line)
        payload[key] = worst
        payload["bounds"][key] = bound
        payload["headroom"][key] = headroom
        payload["counts"][key] = counts
    ok = all(payload[k] <= b and payload["counts"][k]["evaluated"] > 0
             for k, b in payload["bounds"].items())
    return ok, lines, payload


def _suite_appendix(_rng, _tol):
    lines = []
    ids = exact.appendix_identities(8)
    bad = [name for name, _, okk in ids if not okk]
    for name, scope, okk in ids:
        lines.append(f"[{'ok' if okk else 'FAIL'}] {name} ({scope})")
    dims = {d: exact.vzerosol_nullspace(d)[0] for d in range(4, 11)}
    lines.append(f"Z^2 kernel dimensions {dims}")
    ok = not bad and all(v == 8 for v in dims.values())
    return ok, lines, {"identities_failed": bad, "dims": {str(k): v for k, v in dims.items()}}


def _suite_harmonic(rng, tol):
    lines = []
    ustar = exact.RatPoly({(0, 0, 2): 1, (4, 0, 0): exact.Fraction(-2, 3),
                           (0, 4, 0): exact.Fraction(-2, 3)})
    m = harmonic.gradient_harmonic(ustar)
    worst_sys = 0.0
    for _ in range(6):
        p = _rand_point(rng, 0.1, 2.0)
        worst_sys = max(worst_sys, *map(abs, harmonic.harmonic_system_residuals(m, p)))
    kap = harmonic.determine_kappa(4)
    worst_boch = 0.0
    for _ in range(6):
        p = _rand_point(rng, 0.1, 2.0)
        worst_boch = max(worst_boch, abs(harmonic.bochner_residual(ustar, p, kappa=float(kap.re))))
    rep = harmonic.subharmonicity_scan(ustar, ((-1, 1, 7), (-1, 1, 7), (-1, 1, 5)))
    lines.append(f"gradient system worst residual {worst_sys:.3e}")
    lines.append(f"fitted bochner constant {kap!r}, worst residual {worst_boch:.3e}")
    lines.append(f"sign scan: {'clean' if rep.ok() else 'violations'} "
                 f"({rep.singular_count} singular points)")
    ok = worst_sys <= tol and worst_boch <= tol and rep.ok()
    return ok, lines, {"system": worst_sys, "kappa": str(kap), "bochner": worst_boch,
                       "scan": rep.to_dict()}


def _suite_ledger(_rng, _tol):
    lines, ok = [], True
    payload = []
    for e in ledger.ledger_run():
        lines.append(e.line())
        payload.append({"key": e.key, "stated": e.stated, "fitted": e.fitted,
                        "adopted": e.adopted, "agrees": e.agrees, "holds": e.holds,
                        "detail": e.detail})
        if not e.holds:
            ok = False
            lines.append(f"  unexpected fit for {e.key}: {e.fitted} (adopted {e.adopted})")
    return ok, lines, {"entries": payload}


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    tol = args.tol if args.tol is not None else 1e-8
    suites = _SUITES if args.suite == "all" else (args.suite,)
    runners = {"conformal": _suite_conformal, "cocycles": _suite_cocycles,
               "vfields": _suite_vfields, "appendix": _suite_appendix,
               "harmonic": _suite_harmonic, "ledger": _suite_ledger}
    all_ok = True
    results = {}
    for name in suites:
        ok, lines, payload = runners[name](rng, tol)
        all_ok &= ok
        print(f"suite {name}: {'pass' if ok else 'FAIL'}")
        for line in lines:
            print("  " + line)
        results[name] = {"ok": ok, **payload}
    if args.out:
        _emit({"results": results, "seed": args.seed, "tol": tol}, args.out)
    return 0 if all_ok else 1


# --- scan ------------------------------------------------------------------------

def cmd_scan(args) -> int:
    region = _parse_grid(args.grid)
    as_csv = bool(args.out and args.out.endswith(".csv"))
    u = args.u
    if as_csv:
        u = harmonic._try_poly(u)
        if u is None:
            raise ParseError("scan output needs a polynomial potential")
    tol = args.tol if args.tol is not None else harmonic.SCAN_TOL
    rep = harmonic.subharmonicity_scan(u, region, tol=tol)
    if as_csv:
        names = [c.name for c in rep.checks] + ["geom"]
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["x", "y", "t", *names, "flag"])
        for *vals, singular in zip(*rep.points.T.tolist(),
                                   *(rep.columns[n].tolist() for n in names),
                                   rep.columns["singular"].tolist()):
            w.writerow([f"{v:.17g}" for v in vals] + ["singular" if singular else ""])
        _write_atomic(args.out, buf.getvalue())
    elif args.out:
        _emit({"scan": rep.to_dict()}, args.out)
    for c in rep.checks:
        print(f"{c.name}: {c.n_gated} gated, {c.n_violations} violations"
              + (f", worst {c.worst:.3e}" if c.n_violations else ""))
    print(f"singular points: {rep.singular_count}")
    return 0 if rep.ok() else 1


# --- flow ------------------------------------------------------------------------

# RK4 takes 64 steps per unit of flow time; a flow that needs more steps than
# this is refused rather than left running for hours.
_MAX_FLOW_STEPS = 10 ** 6


def cmd_flow(args) -> int:
    p = _parse_point(args.point)
    s = _parse_number(args.s)
    if 64 * abs(s) > _MAX_FLOW_STEPS:
        raise ParseError(f"flow time {s:g} needs more than the cap of {_MAX_FLOW_STEPS} "
                         f"RK4 steps (64 per unit time, so |s| <= {_MAX_FLOW_STEPS / 64:g})")
    h = parse_expr(args.h)
    steps = max(32, int(64 * abs(s)))
    q_rk = fields.flow_integrate(h, p, s, steps=steps)
    doc = {"potential": args.h, "s": s, "point": list(p),
           "endpoint_rk4": list(q_rk), "steps": steps}
    try:
        m = fields.flow_closed_form(h, s)
        q_cf = m(p)
        doc["endpoint_closed"] = list(q_cf)
        doc["max_coordinate_gap"] = max(abs(a - b) for a, b in zip(q_rk, q_cf))
        v = schwarzian.s_cl(m, p)
        doc["s_cl"] = {"re": v.real, "im": v.imag}
    except HeisError:
        pass
    _emit(doc, args.out)
    return 0


# --- entry point -----------------------------------------------------------------

_FLAGS = {"config": {"help": "key=value defaults file; flags given on the command line win"},
          "seed": {"type": int}, "tol": {"type": float, "help": "verification tolerance"},
          "out": {"help": "write JSON (or CSV for scan) to this path"}}


def _add_flags(p: argparse.ArgumentParser, names=tuple(_FLAGS)):
    """The shared flags a command reads; an absent one is filled in later."""
    for name in names:
        p.add_argument(f"--{name}", default=argparse.SUPPRESS, **_FLAGS[name])


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="heiscalc",
                                 description="Contact-map and Schwarzian diagnostics "
                                             "on the first Heisenberg group")
    _add_flags(ap)
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a diagnostic at a point")
    _add_flags(pe, ("config", "out"))
    pe.add_argument("--map", required=True, help="map word, e.g. 'trans(1,0,2) o inv o dil(0.5)'")
    pe.add_argument("--point", required=True, help="x,y,t")
    pe.add_argument("--which", default="s_cr",
                    choices=("s_cr", "s_cl", "pf", "contact"))

    pv = sub.add_parser("verify", help="run a verification suite")
    _add_flags(pv)
    pv.add_argument("--suite", default="all", choices=_SUITES + ("all",))

    ps = sub.add_parser("scan", help="sign scan of a harmonic potential over a grid")
    _add_flags(ps, ("config", "tol", "out"))
    ps.add_argument("--u", required=True, help="potential, e.g. 't^2 - 2/3*(x^4+y^4)'")
    ps.add_argument("--grid", required=True, help="lo:hi:n,lo:hi:n,lo:hi:n")

    pf = sub.add_parser("flow", help="integrate a potential flow; adds the closed "
                                     "form when the potential depends on x alone")
    _add_flags(pf, ("config", "out"))
    pf.add_argument("--h", required=True, help="potential in x, e.g. 'exp(x)'")
    pf.add_argument("--s", required=True, help="flow time")
    pf.add_argument("--point", required=True, help="x,y,t")
    return ap


_DEFAULTS = {"config": None, "seed": 0, "tol": None, "out": None}


def _settle_args(args):
    """Fill each flag not given (an absent attribute) from the config file or
    the defaults, then check the inputs every command shares."""
    if getattr(args, "config", None):
        for k, v in _load_config(args.config).items():
            if not hasattr(args, k):
                setattr(args, k, v)
    for k, v in _DEFAULTS.items():
        if not hasattr(args, k):
            setattr(args, k, v)
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise ParseError(f"tolerance must be a finite number >= 0, got {args.tol}")


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    handlers = {"eval": cmd_eval, "verify": cmd_verify,
                "scan": cmd_scan, "flow": cmd_flow}
    try:
        _settle_args(args)
        return handlers[args.command](args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except HeisError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
