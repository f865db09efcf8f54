"""Guards for the tools around the package: the benchmark's traced run wraps
heiscalc functions by name, so a rename must fail here first."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_bench_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, owner, attr in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), (name, attr)
