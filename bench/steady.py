"""Run-to-run steadiness of the end-to-end metrics.

    python3 bench/steady.py --workloads words,flow --first-seed 1 --runs 10

Runs bench/run.py once per seed and workload, one run at a time, and reports
for every end-to-end metric the median, the quartiles and their distance as
a share of the median, next to a third of the metric's bound in
BENCHMARK.json. All values go to bench/out/steady.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values: dict = {}
    ok = True
    for w in args.workloads.split(","):
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(w, {}).setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    print(f"\n{'workload':10s} {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s}"
          f" {'spread':>7s} {'bound/3':>7s}")
    report = {}
    for w, metrics in values.items():
        for name, vals in metrics.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            s = (q3 - q1) / q2
            third = bounds[name]["bound"] / 3
            flag = "" if s < third else "  WIDE"
            print(f"{w:10s} {name:14s} {q2:10.4g} {q1:10.4g} {q3:10.4g} {s:7.3f} {third:7.3f}{flag}")
            report.setdefault(w, {})[name] = {"values": vals, "median": q2, "q1": q1,
                                              "q3": q3, "spread": s}
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steady.json").write_text(json.dumps(report, indent=1) + "\n")
    print("all runs correct" if ok else "SOME RUNS FAILED THEIR CHECKS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
