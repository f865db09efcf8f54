"""Spans around calls into heiscalc's public functions, for the traced run.

The tracer replaces each traced function with a wrapper wherever callers
look it up: the attribute of its own module or class, and every heiscalc
module that imported it by name. Spans live in flat in-memory arrays (name,
start, end, parent span, case id) and are written out once, at the end.
Self time is a span's duration minus the time its child spans cover; the
program is single-threaded, so children nest inside their parent.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager

from heiscalc import exact, expr, fields, group, harmonic, horizontal, jets, ledger, schwarzian

_J, _G, _R = jets.Jet, group.HeisMap, exact.RatPoly

# (span name, owner, attribute). Several attributes may share a span name.
TARGETS = (
    ("jets.mul", _J, "__mul__"), ("jets.mul", _J, "__rmul__"),
    ("jets.derive", _J, "derive"),
    ("jets.series", _J, "_series"),    # reciprocal, exp, log, sqrt, sin, cos
    ("expr.parse", expr, "parse_expr"),
    ("expr.subs", expr, "subs"),
    ("expr.eval", expr, "evaluate"),  # split into eval_jet and eval_scalar
    ("group.word_to_map", group, "word_to_map"),
    ("group.compose", _G, "compose"),
    ("group.jets", _G, "jets"),
    ("group.call", _G, "__call__"),
    ("horizontal.assess_contact", horizontal, "assess_contact"),
    ("horizontal.word_jet", horizontal, "word_jet"),
    ("horizontal.lambda_jet", horizontal, "lambda_jet"),
    ("schwarzian.s_cr", schwarzian, "s_cr"),
    ("schwarzian.s_cl", schwarzian, "s_cl"),
    ("schwarzian.preschwarzian", schwarzian, "preschwarzian"),
    ("schwarzian.cr_chain_residual", schwarzian, "cr_chain_residual"),
    ("schwarzian.cocycle_residual_right", schwarzian, "cocycle_residual_right"),
    ("schwarzian.cocycle_residual_left", schwarzian, "cocycle_residual_left"),
    ("fields.pushforward_w0", fields, "pushforward_w0"),
    ("fields.flow_integrate", fields, "flow_integrate"),
    ("fields.vector_field_at", fields, "vector_field_at"),
    ("fields.flow_contact_residuals", fields, "flow_contact_residuals"),
    ("fields.flow_closed_form", fields, "flow_closed_form"),
    # subharmonicity_scan opens as scan_poly and is renamed when it reaches
    # the jet path
    ("harmonic.scan_poly", harmonic, "subharmonicity_scan"),
    ("harmonic.scan_jet", harmonic, "_scan_jets"),
    ("exact.mul", _R, "__mul__"), ("exact.mul", _R, "__rmul__"),
    ("exact.add", _R, "__add__"), ("exact.add", _R, "__radd__"),
    ("exact.eval", _R, "eval"),
    ("exact.real_nullspace", exact, "real_nullspace"),
    ("exact.fit_constant", exact, "fit_constant"),
    ("exact.appendix_identities", exact, "appendix_identities"),
    ("exact.vzerosol_nullspace", exact, "vzerosol_nullspace"),
    ("ledger.ledger_run", ledger, "ledger_run"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    m for n, _, _ in TARGETS
    for m in (("expr.eval_jet", "expr.eval_scalar") if n == "expr.eval" else (n,))))


class Tracer:
    """Records spans while installed; aggregates calls and self time."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._id = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.case = array("i")
        self.case_id = -1
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self._stack: list[int] = []
        self._covered: list[int] = []      # child time of each open span
        self._patches = self._build_patches()

    # --- span bookkeeping ---------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.case.append(self.case_id)
        self.end.append(0)
        self._stack.append(idx)
        self._covered.append(0)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int):
        t = time.perf_counter_ns()
        self.end[idx] = t
        dur = t - self.start[idx]
        nid = self.name_id[idx]
        self._stack.pop()
        self.self_ns[nid] += dur - self._covered.pop()
        self.calls[nid] += 1
        if self._covered:
            self._covered[-1] += dur

    def _wrap(self, nid: int, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _wrap_evaluate(self, fn):
        jet_id, scalar_id = self._id["expr.eval_jet"], self._id["expr.eval_scalar"]

        @functools.wraps(fn)
        def wrapper(vroot, vx, *args, **kwargs):
            idx = self._open(jet_id if isinstance(vx, jets.Jet) else scalar_id)
            try:
                return fn(vroot, vx, *args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _wrap_scan_jets(self, fn):
        jet_id = self._id["harmonic.scan_jet"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                self.name_id[self._stack[-1]] = jet_id
            return fn(*args, **kwargs)
        return wrapper

    # --- installing -----------------------------------------------------------

    def _build_patches(self):
        """(owner, attribute, original, wrapper) for every lookup site."""
        special = {"expr.eval": self._wrap_evaluate, "harmonic.scan_jet": self._wrap_scan_jets}
        modules = [m for name, m in sys.modules.items()
                   if name == "heiscalc" or name.startswith("heiscalc.")]
        patches = []
        for name, owner, attr in TARGETS:
            orig = getattr(owner, attr)
            if name in special:
                wrapper = special[name](orig)
            else:
                wrapper = self._wrap(self._id[name], orig)
            if isinstance(owner, type):
                sites = [owner]
            else:
                sites = [m for m in modules if getattr(m, attr, None) is orig]
            patches += [(site, attr, orig, wrapper) for site in sites]
        return patches

    @contextmanager
    def installed(self):
        for site, attr, _, wrapper in self._patches:
            setattr(site, attr, wrapper)
        try:
            yield self
        finally:
            for site, attr, orig, _ in self._patches:
                setattr(site, attr, orig)

    # --- output ---------------------------------------------------------------

    def write(self, path):
        """Spans as gzipped JSON lines: a header, then one list per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "case"],
                                 "names": self.names}) + "\n")
            for i in range(len(self.name_id)):
                fh.write(f"[{self.name_id[i]},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.case[i]}]\n")
