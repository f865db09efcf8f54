"""Guards for the tools around the package: the benchmark's traced run wraps
heiscalc functions by name, and its exact workload checks the ledger against
a recorded table, so a rename or a changed verdict must fail here first; the
pair runner records whether its runs write bytecode."""
import importlib.util
import json
from pathlib import Path

from heiscalc.ledger import ledger_run

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"
PAIRS = BENCH.parent / "scripts" / "bench_pairs.py"


def test_bench_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, owner, attr in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), (name, attr)


def test_ledger_matches_the_benchmark_reference():
    # the exact workload fails every case on any difference from this table
    table = json.loads((BENCH / "reference.json").read_text())["exact"]["ledger"]
    assert {e.key: [e.fitted, e.agrees] for e in ledger_run()} == table


def test_bench_pairs_records_the_bytecode_mode(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert pairs.bytecode_mode(tmp_path) == {"PYTHONDONTWRITEBYTECODE": "1",
                                             "dont_write_bytecode": True}
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert pairs.bytecode_mode(tmp_path) == {"PYTHONDONTWRITEBYTECODE": None,
                                             "dont_write_bytecode": False}
