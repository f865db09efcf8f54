"""Record the benchmark's reference values from the current program.

    python3 bench/make_reference.py

Writes bench/reference.json: the scan grids with their singular and gated
counts (plus held-out grids, which only the held-out seed draws), the
harmonic kernel dimension and each ledger entry's fitted value and
agreement flag. These
were recorded once at the commit that introduced the benchmark; later
changes must reproduce them, so rerun this only to add grids, never to make
a failing check pass. The Z^2 kernel dimension and kappa are stated facts,
not recordings: this script refuses to write if the program disagrees.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from heiscalc import exact, harmonic, ledger  # noqa: E402

import workloads as wl  # noqa: E402

GRIDS_PER_SCAN = 64
HELDOUT_GRIDS = 8
Z2_KERNEL_DIM = 8
KAPPA = 8


def grids(cls, prefix: str, count: int) -> list:
    out = []
    for v in range(count):
        region = wl.grid_region(random.Random(f"{prefix}/{cls.name}/{v}"), cls.shape)
        rep = harmonic.subharmonicity_scan(cls.potential, tuple(map(tuple, region)))
        if not rep.ok():
            raise SystemExit(f"{cls.name} grid {v} has sign violations: {rep.to_dict()}")
        out.append({"region": region, "singular": rep.singular_count,
                    "gated": [c.n_gated for c in rep.checks]})
    return out


def scan_table(cls) -> dict:
    return {"potential": cls.potential, "grids": grids(cls, "grid", GRIDS_PER_SCAN),
            "heldout_grids": grids(cls, "heldout-grid", HELDOUT_GRIDS)}


def main() -> int:
    for d in (4, 5, 6, 7):
        if exact.vzerosol_nullspace(d)[0] != Z2_KERNEL_DIM:
            raise SystemExit(f"Z^2 kernel dimension at d={d} is not {Z2_KERNEL_DIM}")
    if harmonic.determine_kappa(4) != KAPPA:
        raise SystemExit(f"kappa is not {KAPPA}")
    ref = {
        "scan": {cls.name: scan_table(cls) for cls in (wl.ScanPoly, wl.ScanJet)},
        "exact": {
            "z2_kernel_dim": Z2_KERNEL_DIM,
            "kappa": str(KAPPA),
            "harmonic_dim": {"6": len(exact.harmonic_nullspace(6))},
            "ledger": {e.key: [e.fitted, e.agrees] for e in ledger.ledger_run()},
        },
    }
    wl.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
