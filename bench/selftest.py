"""Self-test of the benchmark's checks: each workload's checks can fail.

    python3 bench/selftest.py

For every workload, runs one block against the recorded references and
expects no failed case, then runs the same block with one reference
perturbed and expects failed_frac > 0. A case that raises HeisError must
count as failed, not as skipped. Exits 1 if any expectation is not met.
"""
from __future__ import annotations

import copy
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from heiscalc import fields, group  # noqa: E402

import workloads as wl  # noqa: E402


def perturbed_refs(name: str, refs):
    """The workload's references with one value off by a little."""
    if name == "words":
        return wl.WordsRefs(refs.pinned_point, refs.pinned_s_cr + 1e-9)
    if name in ("scan_poly", "scan_jet"):
        refs = copy.deepcopy(refs)
        for grid in refs["grids"]:
            if name == "scan_poly":
                grid["singular"] += 1
            else:
                grid["gated"][1] -= 1
        return refs
    if name == "exact":
        refs = copy.deepcopy(refs)
        # a hard-coded fitted string whose float check only sets `agrees`
        entry = refs["ledger"]["exp-flow-closed-form"]
        entry[1] = not entry[1]
        return refs
    if name == "flow":
        return wl.FlowRefs(scl_exp=lambda x, s: fields.scl_exp_flow(x, s) * (1 + 1e-9))
    raise KeyError(name)


def failed_frac(workload) -> float:
    stats = wl.Stats()
    for case in workload.block(0, 0):
        workload.run(case, stats)
    return stats.failed / stats.drawn


def main() -> int:
    reference = wl.load_reference()
    bad = []
    for name, cls in wl.WORKLOADS.items():
        refs = cls.default_refs(reference)
        clean = failed_frac(cls(refs))
        perturbed = failed_frac(cls(perturbed_refs(name, refs)))
        print(f"{name:10s} failed_frac recorded refs {clean:.3f}, one ref perturbed {perturbed:.3f}")
        if clean != 0 or perturbed <= 0:
            bad.append(name)

    words = wl.make("words", reference)
    stats = wl.Stats()
    words.run(wl.Case("plain", ([group.Invert()], group.Point(0.0, 0.0, 0.0))), stats)
    print(f"HeisError case: drawn {stats.drawn}, evaluated {stats.evaluated}, failed {stats.failed}")
    if (stats.drawn, stats.evaluated, stats.failed) != (1, 0, 1):
        bad.append("HeisError counting")

    print("selftest " + ("FAILED: " + ", ".join(bad) if bad else "passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
