"""Guards for the tools around the package: the benchmark's workloads call
heiscalc by module attribute, its traced run wraps heiscalc functions by
name, and its exact workload checks the ledger against a recorded table, so
a rename or a changed verdict must fail here first; the pair runner records
whether its runs write bytecode, and names the code each side runs."""
import ast
import importlib
import importlib.util
import json
import subprocess
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


def test_bench_library_references_resolve():
    # a workload that names a deleted attribute fails every one of its cases
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: importlib.import_module(f"heiscalc.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "heiscalc"
               for alias in node.names}
    refs = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {"group", "horizontal", "exact"} <= modules.keys() and len(refs) > 10
    for name, attr in sorted(refs):
        assert hasattr(modules[name], attr), f"{name}.{attr}"


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


def _pairs_module():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]


def test_bench_pairs_verdicts_on_synthetic_runs():
    verdicts = _pairs_module().verdicts
    faster = [0.6 * v for v in PARENT]
    assert verdicts(PARENT, faster, 0.25, "lower") == ["gain"]
    assert verdicts(PARENT, PARENT, 0.25, "lower") == []
    # better in 8 of 10 pairs is no gain, however large the gap
    assert verdicts(PARENT, faster[:8] + [1.5, 1.5], 0.25, "lower") == []
    # ties count for neither side: 9 better and 1 tied is a gain, 8 and 2 not
    assert verdicts(PARENT, faster[:9] + PARENT[9:], 0.25, "lower") == ["gain"]
    assert verdicts(PARENT, faster[:8] + PARENT[8:], 0.25, "lower") == []
    # better in every pair by less than the parent's IQR (0.0175) is no gain
    assert verdicts(PARENT, [v - 0.01 for v in PARENT], 0.25, "lower") == []
    # worse by more than the bound, lower-is-better and higher-is-better
    assert verdicts(PARENT, [1.3 * v for v in PARENT], 0.25, "lower") == ["regression"]
    assert verdicts(PARENT, [1.2 * v for v in PARENT], 0.25, "lower") == []
    assert verdicts(PARENT, faster, 0.25, "higher") == ["regression"]
    assert verdicts(PARENT, [1.6 * v for v in PARENT], 0.25, "higher") == ["gain"]


def test_bench_pairs_calls_a_wide_parent_unresolved():
    verdicts = _pairs_module().verdicts
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]   # IQR 1, median 1.5
    assert verdicts(wide, wide, 0.25, "lower") == ["unresolved"]
    # unless every change run beats every parent run; a gain still needs a
    # gap of more than the IQR
    assert verdicts(wide, [0.99] * 10, 0.25, "lower") == []
    assert verdicts(wide, [0.4] * 10, 0.25, "lower") == ["gain"]
    assert verdicts(wide, [1.01] * 10, 0.25, "lower") == ["unresolved"]
    assert verdicts(wide, [2.6] * 10, 0.25, "higher") == ["gain"]


def test_bench_pairs_reads_the_bounds_of_the_benchmark():
    bounds = _pairs_module().end_to_end(BENCH.parent)
    assert bounds == {m["name"]: (m["bound"], m["better"]) for m in json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(_pairs_module().METRICS) <= set(bounds)


def _src_tree(root, text):
    (root / "src" / "heiscalc").mkdir(parents=True)
    (root / "src" / "heiscalc" / "a.py").write_text(text)
    return root


def test_bench_pairs_names_each_side_by_its_code(tmp_path):
    describe = _pairs_module().describe
    a = _src_tree(tmp_path / "a", "x = 1\n")
    b = _src_tree(tmp_path / "b", "x = 1\n")
    c = _src_tree(tmp_path / "c", "x = 2\n")
    assert describe(a) == describe(b) != describe(c)
    assert set(describe(a)) == {"src_sha256"}
    # bytecode beside the sources does not change the name
    (a / "src" / "heiscalc" / "__pycache__").mkdir()
    (a / "src" / "heiscalc" / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0")
    assert describe(a) == describe(b)
    # a git checkout is named by its commit, and an edit of a tracked file
    # marks it dirty
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["init", "-q"], cwd=c, check=True)
    subprocess.run(git + ["add", "-A"], cwd=c, check=True)
    subprocess.run(git + ["commit", "-qm", "c"], cwd=c, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=c, capture_output=True,
                          text=True, check=True).stdout.strip()
    assert describe(c) == {"commit": head, "dirty": False}
    (c / "src" / "heiscalc" / "a.py").write_text("x = 3\n")
    assert describe(c) == {"commit": head, "dirty": True}
    # a plain directory inside a checkout is named by its own tree
    inner = _src_tree(c / "inner", "x = 1\n")
    assert describe(inner) == describe(a)
