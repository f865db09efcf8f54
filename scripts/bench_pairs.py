"""Alternating parent/change pairs of the benchmark, summarised as a BENCH file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_8.json

DIR is the root of a checkout (each holds its own bench/run.py and src/).
For each workload, pair i runs `bench/run.py --workload W --seed S
--seconds 15 --trace 0` once in each checkout, with S the i-th of SEEDS
(cycled) and the parent first on even i, the change first on odd i, so a
drift of the host's speed falls on both sides alike. The output records how
it was made (the command, each side's name from `describe`: its commit and
a dirty flag, or the sha256 of its src/ tree when it is not a git checkout;
the host, and whether each side's runs write bytecode), then gives, for each
workload and end-to-end metric, the median and interquartile range of each
side, the ratio of the medians (change / parent), the pairs in which the
change is lower, the verdicts of `verdicts` under the metric's bound and
better direction in the change's BENCHMARK.json, and each pair's values;
then, from one `--trace 1` run per side on the first seed, the call count
and self-time fraction of every span that was called.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

WORKLOADS = ("words", "scan_poly", "scan_jet", "exact", "flow")
METRICS = ("setup_s", "block_s", "peak_rss_mib")
PAIRS = 10
SEEDS = (1, 2, 3, 90001)
SECONDS = 15.0


def bench(root: Path, workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(SECONDS),
                          "--trace", str(trace)],
                         cwd=root, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_once(root: Path, workload: str, seed: int) -> dict:
    result = bench(root, workload, seed, 0)
    values = {m: result["metrics"][m]["value"] for m in METRICS}
    values["failed_frac"] = result["failed"] / result["attempted"]
    return values


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdicts(parent: list, change: list, bound: float, better: str) -> list:
    """The verdicts that hold on paired runs of one metric, each side's
    values in pair order, with `better` "lower" or "higher":

    - "gain": the change is better in at least 9 of 10 pairs (a tie counts
      for neither side), and its median is better than the parent's by
      more than the parent's interquartile range;
    - "regression": the change's median is worse than the parent's by more
      than `bound` times the parent's median;
    - "unresolved": the parent's interquartile range exceeds `bound` times
      its median, and not every change run is better than every parent run.
    """
    sign = 1 if better == "lower" else -1

    def beats(b, a):
        return sign * (b - a) < 0

    p, c = summary(parent), summary(change)
    gap = sign * (p["median"] - c["median"])   # > 0 where the change is better
    out = []
    if 10 * sum(map(beats, change, parent)) >= 9 * len(parent) and gap > p["iqr"]:
        out.append("gain")
    if -gap > bound * abs(p["median"]):
        out.append("regression")
    if (p["iqr"] > bound * abs(p["median"])
            and not all(beats(b, a) for a in parent for b in change)):
        out.append("unresolved")
    return out


def end_to_end(root: Path) -> dict:
    """{metric: (bound, better)} for the end-to-end metrics of root's
    BENCHMARK.json."""
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in doc["end_to_end"]}


def bytecode_mode(root: Path) -> dict:
    """Whether the runs in root write bytecode: PYTHONDONTWRITEBYTECODE as
    they inherit it, and sys.flags.dont_write_bytecode as an interpreter
    started there the way they are reads it."""
    flag = subprocess.run([sys.executable, "-c",
                           "import sys; print(sys.flags.dont_write_bytecode)"],
                          cwd=root, capture_output=True, text=True, check=True).stdout
    return {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "dont_write_bytecode": bool(int(flag))}


def describe(root: Path) -> dict:
    """The name of the code a side runs: the commit of a git checkout
    (`git rev-parse HEAD`) and whether its tracked files differ from it, or,
    for a directory that is not the top of a git checkout, the sha256 of its
    src/ tree (the path and the bytes of each .py file, in path order)."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    top = git("rev-parse", "--show-toplevel", "HEAD")
    if top.returncode == 0 and Path(top.stdout.split()[0]).resolve() == root.resolve():
        return {"commit": top.stdout.split()[1],
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no").stdout)}
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return {"src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bounds = end_to_end(args.change)
    doc = {"command": ["scripts/bench_pairs.py", *sys.argv[1:]],
           "parent": describe(args.parent), "change": describe(args.change),
           "host": {"platform": platform.platform(), "nproc": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__,
                    "bytecode": {side: bytecode_mode(getattr(args, side))
                                 for side in ("parent", "change")}},
           "pairs": PAIRS, "seconds": SECONDS, "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for i in range(PAIRS):
            seed = SEEDS[i % len(SEEDS)]
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: run_once(getattr(args, side), workload, seed) for side in sides}
            runs.append({"seed": seed, "first": sides[0], **pair})
            print(f"{workload} pair {i} seed {seed}: block_s parent "
                  f"{pair['parent']['block_s']:.4f} change {pair['change']['block_s']:.4f}",
                  file=sys.stderr)
        metrics = {}
        for m in METRICS + ("failed_frac",):
            parent = [r["parent"][m] for r in runs]
            change = [r["change"][m] for r in runs]
            p, c = summary(parent), summary(change)
            metrics[m] = {"parent": p, "change": c,
                          "ratio": c["median"] / p["median"] if p["median"] else None,
                          "change_lower_in": sum(b < a for a, b in zip(parent, change))}
            if m in bounds:
                metrics[m]["verdicts"] = verdicts(parent, change, *bounds[m])
        spans = {}
        for side in ("parent", "change"):
            traced = bench(getattr(args, side), workload, SEEDS[0], 1)["metrics"]
            spans[side] = {name[:-6]: {"calls": row["value"],
                                       "self_frac": traced[name[:-6] + ".self_frac"]["value"]}
                           for name, row in traced.items()
                           if name.endswith(".calls") and row["value"]}
        doc["workloads"][workload] = {"metrics": metrics, "trace_seed": SEEDS[0],
                                      "spans": spans, "runs": runs}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
