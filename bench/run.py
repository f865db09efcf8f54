"""Benchmark of heiscalc: one workload, one seed, one run.

    python3 bench/run.py --workload words --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; heiscalc is imported from src/. With
--trace 0 the run times whole blocks of cases for --seconds seconds and
reports the end-to-end metrics; with --trace 1 it runs a fixed number of
blocks twice each, plain and traced, and reports per-module metrics. Human
readable lines go first, a record of the run is written to bench/out/, and
the last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 9
# The host probe's time on the host where the benchmark was written, in its
# fast state; timings are scaled to the host speed at which the probe takes
# this long. The speed of that 2-vCPU host switched, on each CPU and on
# scales from a fraction of a second to minutes, between this and about 1.6
# times slower.
PROBE_REF_S = 2.5e-3
# Probe between cases once a stretch of cases has run this long.
PROBE_EVERY_S = 0.1
# Blocks in a traced run. Fixed, so that its call counts repeat exactly.
TRACE_BLOCKS = {"words": 12, "scan_poly": 3, "scan_jet": 2, "exact": 2, "flow": 16}
MIN_BLOCKS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, make inputs, run one warm-up case and exit "
                         "(the unit that setup_s times)")
    return ap.parse_args(argv)


def quantile(values, q: float) -> float:
    """Percentile q (0..100) by statistics.quantiles' inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "platform": platform.platform(), "git_sha": git_sha()}


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop. One run, not the best of
    several: the best would dodge the short stalls that the cases meet."""
    t = time.perf_counter()
    sum(i * i % 7 for i in range(40_000))
    return time.perf_counter() - t


def speed_probe() -> dict:
    """The host probe and fixed numpy work, timed before and after the timed
    phase to tell host drift from regressions. Recorded, not a metric."""
    import numpy as np
    # the shape of an order-5 jet product: 56 coefficients, 462 index pairs
    idx = np.arange(3 * 462).reshape(3, 462) * 7919 % 56
    a = np.linspace(0.1, 1.0, 56) + 0.5j
    t = time.perf_counter()
    for _ in range(500):
        np.add.at(np.zeros(56, complex), idx[2], a[idx[0]] * a[idx[1]])
    numpy_ms = (time.perf_counter() - t) * 1e3
    return {"python_ms": host_probe() * 1e3, "numpy_ms": numpy_ms}


def run_block(workload, seed, k, stats, case_times, tracer=None) -> tuple[float, float]:
    """Run one block; return its wall time and that time scaled to the
    reference host speed. The host probe runs before the first case, after
    the last, and between cases once PROBE_EVERY_S has passed since the last
    probe; each stretch of cases between two probes is scaled by
    PROBE_REF_S over the mean of those two probes."""
    cases = workload.block(seed, k)
    wall = scaled = stretch = 0.0
    before = host_probe()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case_id = stats.drawn
        t = time.perf_counter()
        workload.run(case, stats)
        dt = time.perf_counter() - t
        case_times.append(dt)
        stretch += dt
        if stretch >= PROBE_EVERY_S or i == len(cases) - 1:
            after = host_probe()
            wall += stretch
            scaled += stretch * PROBE_REF_S / ((before + after) / 2)
            before, stretch = after, 0.0
    return wall, scaled


def measure_setup(args) -> float:
    """Wall time of a fresh interpreter that imports heiscalc, makes inputs
    and runs one warm-up case."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"setup run failed:\n{proc.stderr}")
    return elapsed


def timed_run(workload, args, stats) -> tuple[dict, dict]:
    """End-to-end metrics: the median of scaled block times (see run_block)
    and the median of set-up times. The set-up samples are spread over the
    timed phase, between blocks, so that they meet the same mix of host
    states as the blocks; their time does not count towards --seconds."""
    probe = {"before": speed_probe()}
    setup, walls, scaled, case_times = [], [], [], []
    k = 0
    while k < MIN_BLOCKS or sum(walls) < args.seconds or len(setup) < SETUP_REPEATS:
        if len(setup) < SETUP_REPEATS and sum(walls) >= len(setup) * args.seconds / SETUP_REPEATS:
            setup.append(measure_setup(args))
            continue
        wall, block_scaled = run_block(workload, args.seed, k, stats, case_times)
        walls.append(wall)
        scaled.append(block_scaled)
        k += 1
    probe["after"] = speed_probe()
    metrics = {
        "setup_s": (statistics.median(setup), "s", SETUP_REPEATS),
        "block_s": (statistics.median(scaled), "s", len(scaled)),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1),
    }
    n = len(case_times)
    informational = {
        "block_wall_p50_s": quantile(walls, 50),
        "block_wall_p90_s": quantile(walls, 90),
        "cases_per_s": n / sum(walls),
        "case_p50_ms": quantile(case_times, 50) * 1e3,
        "case_p90_ms": quantile(case_times, 90) * 1e3,
        "cases": n,
    }
    extra = {"probe": probe, "setup_runs_s": setup, "informational": informational,
             "spread": {"block_scaled": spread(scaled), "block_wall": spread(walls),
                        "case_time": spread(case_times)},
             "blocks": len(walls), "cases_per_block": workload.cases_per_block,
             "block_walls_s": walls, "block_scaled_s": scaled}
    return metrics, extra


def traced_run(workload, args, stats, import_s) -> tuple[dict, dict]:
    import spans
    import workloads as wl
    tracer = spans.Tracer()
    traced_stats = wl.Stats()
    plain, traced = [], []
    for k in range(TRACE_BLOCKS[workload.name]):
        plain.append(run_block(workload, args.seed, k, stats, [])[0])
        with tracer.installed():
            traced.append(run_block(workload, args.seed, k, traced_stats, [], tracer)[0])
    total_ns = sum(traced) * 1e9
    metrics = {}
    for name, calls, self_ns in zip(tracer.names, tracer.calls, tracer.self_ns):
        metrics[f"{name}.calls"] = (calls, "count", 1)
        metrics[f"{name}.self_frac"] = (self_ns / total_ns, "ratio", calls)
    pts = traced_stats.scan_points
    for check, gated in traced_stats.scan_gated.items():
        metrics[f"harmonic.scan.gated_frac.{check}"] = (gated / pts if pts else 0.0, "ratio", pts)
    metrics["harmonic.scan.singular"] = (traced_stats.scan_singular, "count", pts)
    both = (stats.drawn + traced_stats.drawn)
    metrics["cases.evaluated_frac"] = ((stats.evaluated + traced_stats.evaluated) / both,
                                       "ratio", both)
    metrics["cli.import_s"] = (import_s, "s", 1)
    metrics["trace.wall_s"] = (statistics.median(traced), "s", len(traced))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain),
                                   "s", len(traced))
    path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
    tracer.write(path)
    stats.drawn += traced_stats.drawn
    stats.evaluated += traced_stats.evaluated
    stats.failed += traced_stats.failed
    table = {name: {"calls": c, "self_s": ns / 1e9}
             for name, c, ns in zip(tracer.names, tracer.calls, tracer.self_ns)}
    return metrics, {"spans_file": str(path.relative_to(ROOT)), "spans": len(tracer.name_id),
                     "functions": table, "blocks": len(traced)}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "heiscalc" / "__init__.py").is_file():
        print(f"bench: no heiscalc source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    cli = importlib.import_module("heiscalc.cli")
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: heiscalc was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.make(args.workload, wl.load_reference())
    stats = wl.Stats()
    workload.run(workload.block(args.seed, "warmup")[0], stats)
    if args.setup_only:
        return 0

    if args.trace:
        metrics, extra = traced_run(workload, args, stats, import_s)
    else:
        metrics, extra = timed_run(workload, args, stats)

    record = {"workload": args.workload, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": environment(),
              "drawn": stats.drawn, "evaluated": stats.evaluated, "failed": stats.failed,
              "failed_frac": stats.failed / stats.drawn,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()}, **extra}
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    env = record["env"]
    print(f"# heiscalc bench  workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# python {env['python']} numpy {env['numpy']} nproc {env['nproc']} "
          f"{env['machine']} sha {env['git_sha']}")
    if "probe" in extra:
        print("# speed probe (ms, not a metric): "
              + "  ".join(f"{when} " + " ".join(f"{k}={v:.2f}" for k, v in p.items())
                          for when, p in extra["probe"].items()))
        print("# within-run spread (IQR/median): "
              + ", ".join(f"{k} {v:.3f}" for k, v in extra["spread"].items()))
        print("# not metrics: " + "  ".join(f"{k}={v:.6g}" for k, v in extra["informational"].items()))
    if "functions" in extra:
        print(f"# {extra['spans']} spans written to {extra['spans_file']}")
        for name, row in extra["functions"].items():
            if row["calls"]:
                print(f"#   {name:36s} calls {row['calls']:8d}  self_s {row['self_s']:.4f}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit} (n={n})")
    print(f"{'failed_frac':44s} {record['failed_frac']:.6g} "
          f"({stats.failed} of {stats.drawn} cases)")
    print(json.dumps({"correct": stats.failed == 0, "attempted": stats.drawn,
                      "failed": stats.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
