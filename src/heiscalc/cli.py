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
from typing import NamedTuple

from . import fields, harmonic, schwarzian, verify
from .errors import HeisError, ParseError
from .expr import parse_expr
from .group import Point, parse_word, word_to_map
from .horizontal import assess_contact


def _temp_beside(path: str) -> tuple[int, str]:
    """An open temp file in path's directory, as (fd, name)."""
    try:
        return tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".",
                                prefix=".heiscalc-tmp-")
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e}") from None


def _check_writable(path: str):
    """Refuse an output path that _write_atomic would refuse, before a long
    run rather than after it; leaves no file behind."""
    if os.path.isdir(path):
        raise ParseError(f"cannot write {path}: it is a directory")
    fd, tmp = _temp_beside(path)
    os.close(fd)
    os.unlink(tmp)


def _write_atomic(path: str, text: str):
    fd, tmp = _temp_beside(path)
    try:
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e}") from None


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


# a scan keeps about 70 bytes per grid point, CSV output peaks at about 530
# bytes (measured on 41^3 grids): 70 MB at the cap, 0.5 GB with CSV output
_MAX_GRID_POINTS = 10 ** 6


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
        if n < 1:
            raise ParseError(f"grid axis needs at least one sample, got {part!r}")
        axes.append((_parse_number(bits[0]), _parse_number(bits[1]), n))
    if len(axes) != 3:
        raise ParseError("grid needs three axes")
    if math.prod(n for *_, n in axes) > _MAX_GRID_POINTS:
        raise ParseError(f"grid has more than the cap of {_MAX_GRID_POINTS} points")
    return tuple(axes)


class _Flag(NamedTuple):
    type: type        # converts the flag's text, from the command line or a config file
    default: object   # when neither the command line nor a config file gives the flag
    help: str | None = None


# the flags the commands share; a config file sets any of them but config
_FLAGS = {"config": _Flag(str, None, "key=value defaults file; flags given on the "
                                      "command line win"),
          "seed": _Flag(int, 0),
          "tol": _Flag(float, None, "verification tolerance"),
          "out": _Flag(str, None, "write JSON (or CSV for scan) to this path")}
_CONFIG_KEYS = tuple(k for k in _FLAGS if k != "config")


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
                    cfg[k] = _FLAGS[k].type(v)
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

def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    tol = args.tol if args.tol is not None else verify.TOL
    if args.out:
        _check_writable(args.out)
    all_ok, results = True, {}
    for name in verify.SUITES if args.suite == "all" else (args.suite,):
        ok, lines, results[name] = verify.run(name, rng, tol)
        all_ok &= ok
        print(f"suite {name}: {'pass' if ok else 'FAIL'}")
        for line in lines:
            print("  " + line)
    if args.out:
        _emit({"results": results, "seed": args.seed, "tol": tol}, args.out)
    return 0 if all_ok else 1


# --- scan ------------------------------------------------------------------------

def cmd_scan(args) -> int:
    region = _parse_grid(args.grid)
    if args.out:
        _check_writable(args.out)
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

def _add_flags(p: argparse.ArgumentParser, names=tuple(_FLAGS)):
    """The shared flags a command reads; an absent one is filled in later."""
    for name in names:
        p.add_argument(f"--{name}", type=_FLAGS[name].type, default=argparse.SUPPRESS,
                       help=_FLAGS[name].help)


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
    pv.add_argument("--suite", default="all", choices=(*verify.SUITES, "all"))

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


def _settle_args(args):
    """Fill each flag not given (an absent attribute) from the config file or
    the defaults, then check the inputs every command shares."""
    if getattr(args, "config", None):
        for k, v in _load_config(args.config).items():
            if not hasattr(args, k):
                setattr(args, k, v)
    for k, flag in _FLAGS.items():
        if not hasattr(args, k):
            setattr(args, k, flag.default)
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
