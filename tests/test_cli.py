"""Command line behaviour: output schema, exit codes, determinism."""
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from heiscalc import exact, verify
from heiscalc.cli import main
from heiscalc.errors import SingularError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_json_schema(capsys):
    code, out, _ = run(capsys, "eval", "--map", "inv o sl2(2,0,0,0.5)",
                       "--point", "1,1,0", "--which", "s_cr")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert list(doc) == sorted(doc)
    assert doc["value"]["re"] == pytest.approx(-45.0 / 34.0, rel=1e-10)
    assert doc["value"]["im"] == pytest.approx(0.0, abs=1e-12)


def test_eval_contact_document(capsys):
    code, out, _ = run(capsys, "eval", "--map", "inv", "--point", "1,0.5,0.25",
                       "--which", "contact")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"]["orientation"] == 1
    assert doc["value"]["distortion"] == pytest.approx(1.0, rel=1e-9)


def test_eval_writes_out_file(tmp_path, capsys):
    out_file = tmp_path / "result.json"
    code, out, _ = run(capsys, "eval", "--map", "dil(2)", "--point", "0.5,0.5,0.5",
                       "--which", "pf", "--out", str(out_file))
    assert code == 0
    assert out == ""  # written to the file, not stdout
    doc = json.loads(out_file.read_text())
    assert doc["schema"] == 1
    assert doc["value"]["re"] == pytest.approx(0.0, abs=1e-12)


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "conformal", "--seed", "7")
    assert code == 0
    assert "suite conformal: pass" in out


def test_verify_ledger_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "ledger")
    assert code == 0
    assert "MISMATCH" in out  # the recorded disagreements stay visible


def test_verify_out_payload(tmp_path, capsys):
    out_file = tmp_path / "verify.json"
    code, _, _ = run(capsys, "verify", "--suite", "appendix", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["schema"] == 1
    assert doc["results"]["appendix"]["ok"] is True
    assert doc["results"]["appendix"]["dims"] == {str(d): 8 for d in range(4, 11)}


def test_verify_out_carries_each_suites_wall_time(tmp_path, capsys):
    out_file = tmp_path / "verify.json"
    code, out, _ = run(capsys, "verify", "--suite", "all", "--out", str(out_file))
    results = json.loads(out_file.read_text())["results"]
    assert code == 0 and sorted(results) == sorted(verify.SUITES)
    for res in results.values():
        assert isinstance(res["seconds"], float) and res["seconds"] > 0
    assert "seconds" not in out   # the report lines stay as they were


# every sampled check of verify: its suite, name and draws, and a library
# function each of its draws calls
_CHECKS = [
    ("conformal", "conformal words |S_CR|,|S_CL|", 40, "schwarzian.s_cl"),
    ("cocycles", "chain rule residual", 25, "schwarzian.cr_chain_residual"),
    ("cocycles", "right cocycle residual", 25, "schwarzian.cocycle_residual_right"),
    ("cocycles", "left cocycle residual", 25, "schwarzian.cocycle_residual_left"),
    ("cocycles", "pinned composite value error", 1, "schwarzian.s_cr"),
    ("vfields", "conformal potentials |Z^2 v0|", 10, "fields.conformal_residual"),
    ("vfields", "pushforward cases 4,5,6,8 |Z^2 w0|", 10, "fields.pushforward_w0"),
    ("vfields", "quadratic flow closed vs integrated", 5, "fields.flow_integrate"),
    ("harmonic", "gradient system residual", 6, "harmonic.harmonic_system_residuals"),
    ("harmonic", "bochner residual", 6, "harmonic.bochner_residual"),
]
# the fixed bounds of vfields; every other check is bounded by --tol
_FIXED_BOUNDS = {"conformal potentials |Z^2 v0|": 1e-10,
                 "quadratic flow closed vs integrated": 1e-8}


def _verify_checks(capsys, tmp_path, suite, *argv):
    out_file = tmp_path / "verify.json"
    code, out, _ = run(capsys, "verify", "--suite", suite, "--out", str(out_file), *argv)
    res = json.loads(out_file.read_text())["results"][suite]
    return code, out, res, {c["name"]: c for c in res["checks"]}


@pytest.mark.parametrize("suite", ["conformal", "cocycles", "vfields", "harmonic"])
def test_verify_out_carries_every_sampled_check(tmp_path, capsys, suite):
    code, out, res, checks = _verify_checks(capsys, tmp_path, suite, "--tol", "1e-9")
    assert code == 0 and res["ok"] is True
    want = [(name, n) for s, name, n, _ in _CHECKS if s == suite]
    assert list(checks) == [name for name, _ in want]
    for name, n in want:
        c = checks[name]
        assert set(c) == {"name", "worst", "bound", "headroom", "drawn", "evaluated",
                          "skipped", "ok"}
        assert c["bound"] == _FIXED_BOUNDS.get(name, 1e-9)
        assert (c["drawn"], c["evaluated"], c["skipped"], c["ok"]) == (n, n, {}, True)
        assert 0 <= c["worst"] <= c["bound"]
        room = c["bound"] / c["worst"] if c["worst"] else None
        assert c["headroom"] == room
        assert f"{name}: evaluated {n} of {n} draws, skipped by error {{}}" in out
        assert (f"{name}: worst {c['worst']:.3e} (bound {c['bound']:g}, headroom "
                f"{f'{room:.1e}x' if room else 'unbounded'})") in out


@pytest.mark.parametrize("suite, name, n, patched", _CHECKS, ids=[c[1] for c in _CHECKS])
def test_verify_check_fails_when_every_draw_raises(tmp_path, capsys, monkeypatch,
                                                   suite, name, n, patched):
    def singular(*args, **kwargs):
        raise SingularError("ZF vanishes")

    # a check that evaluates none of its draws fails its suite, whatever its
    # worst value and the other checks
    monkeypatch.setattr(f"heiscalc.{patched}", singular)
    code, out, res, checks = _verify_checks(capsys, tmp_path, suite)
    c = checks[name]
    assert code == 1 and res["ok"] is False and f"suite {suite}: FAIL" in out
    assert (c["drawn"], c["evaluated"], c["skipped"], c["ok"]) == \
        (n, 0, {"SingularError": n}, False)
    assert f"{name}: evaluated 0 of {n} draws, skipped by error {{'SingularError': {n}}}" in out


def test_verify_skipped_draw_records_nothing(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise SingularError("ZF vanishes")

    # the chain rule is measured before the right cocycle law rejects the
    # draw; the skipped draw must not reach the chain rule's worst value
    monkeypatch.setattr("heiscalc.schwarzian.cr_chain_residual", lambda f, g, p: 1.0)
    monkeypatch.setattr("heiscalc.schwarzian.cocycle_residual_right", singular)
    out_file = tmp_path / "verify.json"
    code, out, _ = run(capsys, "verify", "--suite", "cocycles", "--out", str(out_file))
    assert "evaluated 0 of 25 draws" in out and "1.000e+00" not in out
    assert code == 1
    chain, = (c for c in json.loads(out_file.read_text())["results"]["cocycles"]["checks"]
              if c["name"] == "chain rule residual")
    assert (chain["worst"], chain["evaluated"]) == (0.0, 0)


def test_verify_one_typed_error_skips_one_draw(capsys, monkeypatch):
    from heiscalc import schwarzian
    s_cl, calls = schwarzian.s_cl, itertools.count(1)

    def third_singular(f, p):
        if next(calls) == 3:
            raise SingularError("ZF vanishes")
        return s_cl(f, p)

    # the third call is the first point of the second conformal word: that
    # word is skipped, and every suite still runs and passes
    monkeypatch.setattr(schwarzian, "s_cl", third_singular)
    code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "7")
    assert code == 0
    assert [ln for ln in out.splitlines() if ln.startswith("suite ")] == \
        [f"suite {s}: pass" for s in
         ("conformal", "cocycles", "vfields", "appendix", "harmonic", "ledger")]
    assert ("conformal words |S_CR|,|S_CL|: evaluated 39 of 40 draws, "
            "skipped by error {'SingularError': 1}") in out


def test_scan_csv_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "scan", "--u", "t^2 - 2/3*(x^4+y^4)",
                         "--grid=-1:1:5,-1:1:5,-1:1:3", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().splitlines()
    assert rows[0].startswith("x,y,t,")
    assert len(rows) == 1 + 5 * 5 * 3
    assert sum(1 for r in rows if r.endswith(",singular")) == 25  # t = 0 plane


def test_scan_csv_rows_are_the_reports_columns(tmp_path, capsys):
    from heiscalc import harmonic
    u, region = "t^2 - 2/3*(x^4+y^4)", ((0.3, 1.7, 5), (-0.9, 2.2, 4), (-1.0, 1.0, 3))
    path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--u", u, "--grid=0.3:1.7:5,-0.9:2.2:4,-1:1:3",
                     "--out", str(path))
    assert code == 0
    rep = harmonic.subharmonicity_scan(u, region)
    header, *rows = [r.split(",") for r in path.read_text().splitlines()]
    assert header[3:-1] == [c.name for c in rep.checks] + ["geom"]
    assert len(rows) == len(rep.points) == 60
    for i, row in enumerate(rows):
        assert [float(v) for v in row[:3]] == list(rep.points[i])
        assert [float(v) for v in row[3:-1]] == [rep.columns[n][i] for n in header[3:-1]]
        assert row[-1] == ("singular" if rep.columns["singular"][i] else "")
    assert sum(r[-1] == "singular" for r in rows) == rep.singular_count == 20


def test_scan_stdout_summary(capsys):
    code, out, _ = run(capsys, "scan", "--u", "x*y", "--grid=-1:1:3,-1:1:3,-1:1:3")
    assert code == 0
    assert "violations" in out
    assert "singular points: 27" in out


def test_scan_passes_tol_on(capsys):
    # |ZF|^2 of u* is 0 or 16 on this grid, so a tol of 100 makes every point singular
    grid = "--grid=-1:1:3,-1:1:3,-1:1:3"
    _, out, _ = run(capsys, "scan", "--u", "t^2 - 2/3*(x^4+y^4)", grid)
    assert "singular points: 9" in out
    _, out, _ = run(capsys, "scan", "--u", "t^2 - 2/3*(x^4+y^4)", grid, "--tol", "100")
    assert "singular points: 27" in out


@pytest.mark.parametrize("u,out", [("t^2 - 2/3*(x^4+y^4)", None),
                                   ("t^2 - 2/3*(x^4+y^4)", "scan.csv"),
                                   ("exp(x)*cos(y)", None)])
def test_scan_converts_the_potential_once(tmp_path, capsys, monkeypatch, u, out):
    from heiscalc import harmonic
    calls = []

    def counted(e):
        calls.append(e)
        return exact.ratpoly_from_expr(e)
    monkeypatch.setattr(harmonic, "ratpoly_from_expr", counted)
    extra = ("--out", str(tmp_path / out)) if out else ()
    code, _, _ = run(capsys, "scan", "--u", u, "--grid=-1:1:3,-1:1:3,-1:1:3", *extra)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("out", [None, "scan.json"])
def test_scan_non_polynomial_potential(tmp_path, capsys, out):
    extra = ("--out", str(tmp_path / out)) if out else ()
    code, stdout, _ = run(capsys, "scan", "--u", "exp(x)*cos(y)",
                          "--grid=-1:1:3,-1:1:3,-1:1:3", *extra)
    assert code == 0
    assert "singular points: 27" in stdout
    if out:
        assert json.loads((tmp_path / out).read_text())["scan"]["ok"] is True


def test_scan_csv_needs_polynomial_potential(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    code, _, err = run(capsys, "scan", "--u", "exp(x)*cos(y)",
                       "--grid=-1:1:3,-1:1:3,-1:1:3", "--out", str(path))
    assert code == 2
    assert "polynomial" in err
    assert not path.exists()


def test_scan_csv_rejects_non_polynomial_before_scanning(tmp_path, capsys, monkeypatch):
    from heiscalc import harmonic

    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before the CSV check")
    monkeypatch.setattr(harmonic, "subharmonicity_scan", no_scan)
    path = tmp_path / "scan.csv"
    code, _, err = run(capsys, "scan", "--u", "exp(x)*cos(y)",
                       "--grid=-1:1:3,-1:1:3,-1:1:3", "--out", str(path))
    assert code == 2
    assert "scan output needs a polynomial potential" in err
    assert not path.exists()


def test_flow_closed_form_agreement(capsys):
    code, out, _ = run(capsys, "flow", "--h", "exp(x)", "--s", "1", "--point", "0,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_coordinate_gap"] < 1e-8
    assert doc["s_cl"]["re"] == pytest.approx(0.095, rel=1e-9)
    assert doc["s_cl"]["im"] == pytest.approx(-0.04, rel=1e-9)


def test_flow_general_potential_has_no_closed_form(capsys):
    code, out, _ = run(capsys, "flow", "--h", "x*y", "--s", "0.5", "--point", "1,0,0")
    assert code == 0
    doc = json.loads(out)
    assert "endpoint_rk4" in doc and "endpoint_closed" not in doc


@pytest.mark.parametrize("argv,code", [
    (("eval", "--map", "inv", "--point", "1,1", "--which", "s_cr"), 2),
    (("eval", "--map", "bogus(1)", "--point", "1,1,0"), 2),
    (("scan", "--u", "x*y", "--grid", "bad"), 2),
    (("eval", "--map", "refl", "--point", "1,1,0", "--which", "s_cr"), 3),
    (("eval", "--map", "inv", "--point", "0,0,0", "--which", "s_cl"), 3),
    (("nonsense",), 2),
    (("scan", "--u", "x*y", "--grid=nan:1:3,-1:1:3,-1:1:3"), 2),
    (("scan", "--u", "x*y", "--grid=-1:inf:3,-1:1:3,-1:1:3"), 2),
    (("eval", "--map", "inv", "--point", "nan,1,1"), 2),
    (("eval", "--map", "inv", "--point", "1,-inf,1"), 2),
    (("flow", "--h", "exp(x)", "--s", "nan", "--point", "0,0,0"), 2),
    (("flow", "--h", "exp(x)", "--s", "inf", "--point", "0,0,0"), 2),
    (("flow", "--h", "exp(x)", "--s", "1", "--point", "0,nan,0"), 2),
    (("scan", "--u", "x*y", "--grid=-1:1:3,-1:1:3,-1:1:3", "--tol", "nan"), 2),
    (("scan", "--u", "x*y", "--grid=-1:1:3,-1:1:3,-1:1:3", "--tol", "inf"), 2),
    (("scan", "--u", "x*y", "--grid=-1:1:3,-1:1:3,-1:1:3", "--tol=-1"), 2),
    (("flow", "--h", "exp(x)", "--s", "1e308", "--point", "0,0,0"), 2),
    (("flow", "--h", "exp(x)", "--s", "1e9", "--point", "0,0,0"), 2),
    (("verify", "--suite", "conformal", "--tol", "nan"), 2),
    (("verify", "--suite", "conformal", "--tol=-1"), 2),
    (("--tol", "inf", "verify", "--suite", "conformal"), 2),
    (("--order", "5", "eval", "--map", "inv", "--point", "1,1,0"), 2),
    (("eval", "--map", "inv", "--point", "1,1,0", "--which", "s_cr", "--order", "1"), 2),
    (("scan", "--u", "1e300*1e300*x*y", "--grid=-1:1:3,-1:1:3,-1:1:3"), 2),
    (("flow", "--h", "t^2 - 2/3*(x^4+y^4) + x*y*t", "--s", "0.3",
      "--point", "0.3,0.7,-0.4"), 3),
    (("scan", "--u", "(" * 250 + "x" + ")" * 250, "--grid=-1:1:3,-1:1:3,-1:1:3"), 2),
    (("eval", "--map", "inv", "--point", "1,1,0", "--seed", "3"), 2),
    (("scan", "--u", "x*y", "--grid=-1:1:3,-1:1:3,-1:1:3", "--seed", "1"), 2),
    (("flow", "--h", "exp(x)", "--s", "1", "--point", "0,0,0", "--tol", "1"), 2),
    (("flow", "--h", "+".join(["x"] * 1000), "--s", "0.1", "--point", "0,0,0"), 0),
    (("scan", "--u", "x*y + 1/0", "--grid=-1:1:3,-1:1:3,-1:1:3"), 2),
    (("scan", "--u", "x*y + 0^-1", "--grid=-1:1:3,-1:1:3,-1:1:3"), 2),
    (("flow", "--h", "sin(x*x)", "--point", "1e160,0,0", "--s", "0.1"), 3),
    (("scan", "--u", "1e+x", "--grid=-1:1:3,-1:1:3,-1:1:3"), 2),
    (("flow", "--h", "1e-", "--s", "1", "--point", "0,0,0"), 2),
    (("flow", "--h", "x*\u00b2", "--s", "1", "--point", "0,0,0"), 2),
    (("flow", "--h", "1" * 5000 + "*x", "--s", "1", "--point", "0,0,0"), 2),
    (("eval", "--map", "dil(1e-100)", "--point", "1,1,1", "--which", "s_cr"), 0),
    (("scan", "--u", "t^2 - 2/3*(x^4 + y^4)",
      "--grid=1e80:1e80:1,1e80:1e80:1,1e160:1e160:1"), 3),
    (("scan", "--u", "x*y", "--grid=0:1:1000000,0:1:1000000,0:1:1000000"), 2),
    (("scan", "--u", "x*y", "--grid=0:1:101,0:1:100,0:1:100"), 2),
    (("scan", "--u", "x*y", "--grid=0:1:0,0:1:3,0:1:3"), 2),
    (("scan", "--u", "x*y", "--grid=0:1:-1000,0:1:-1000,0:1:3"), 2),
    (("eval", "--map", "inv*refl", "--point", "1,1,0", "--which", "contact"), 0),
    (("eval", "--map", "rot(nan)", "--point", "1,1,0"), 2),
    (("eval", "--map", "dil(nan)", "--point", "1,1,0"), 2),
    (("eval", "--map", "trans(inf,0,0)", "--point", "1,1,0"), 2),
    (("eval", "--map", "dil(1e309)", "--point", "1,1,0"), 2),
])
def test_exit_codes(capsys, argv, code):
    got = main(list(argv))
    capsys.readouterr()
    assert got == code


@pytest.mark.parametrize("letter, message", [
    ("trans(1,2)", "trans takes 3 arguments, got 2"),
    ("dil(1,2)", "dil takes 1 argument, got 2"),
    ("inv(3)", "inv takes 0 arguments, got 1"),
    ("foo(1)", "unknown word letter 'foo(1)'"),
])
def test_a_letter_with_the_wrong_arguments_is_named_with_its_arity(capsys, letter, message):
    code, out, err = run(capsys, "eval", "--map", letter, "--point", "1,1,1")
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_a_tiny_constant_jacobian_has_a_zero_schwarzian(capsys):
    # dil(1e-100) has the constant Jacobian 1e-200, whose log the series in
    # the relative increment takes without forming a power of 1e-200
    code, out, _ = run(capsys, "eval", "--map", "dil(1e-100)", "--point", "1,1,1",
                       "--which", "s_cr")
    assert code == 0
    assert json.loads(out)["value"] == {"re": 0.0, "im": 0.0}


def test_eval_of_a_jet_that_overflows_is_a_domain_error(capsys):
    # the jets of inv overflow at this point; once printed as NaN, exit 0
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, "eval", "--map", "inv", "--point", "1e200,1e200,0",
                             "--which", "s_cl")
    assert code == 3
    assert "NaN" not in out + err
    assert "not finite" in err


def test_eval_of_a_jet_that_overflows_warns_nothing(capsys):
    # the DomainError alone reports the overflow: a numpy warning before it
    # would raise through main where warnings are errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "eval", "--map", "inv", "--point", "1e200,1e200,0",
                             "--which", "s_cl")
    assert code == 3
    assert err.startswith("error: DomainError:") and err.count("\n") == 1


def test_flow_step_cap_is_named(capsys, monkeypatch):
    from heiscalc import cli

    def no_flow(*args, **kwargs):
        raise AssertionError("the flow ran past the step cap")
    monkeypatch.setattr(cli.fields, "flow_integrate", no_flow)
    code, _, err = run(capsys, "flow", "--h", "exp(x)", "--s=-1e9", "--point", "0,0,0")
    assert code == 2
    assert str(cli._MAX_FLOW_STEPS) in err


def test_scan_grid_cap_is_named(capsys, monkeypatch):
    from heiscalc import cli

    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran past the grid cap")
    monkeypatch.setattr(cli.harmonic, "subharmonicity_scan", no_scan)
    code, _, err = run(capsys, "scan", "--u", "x*y", "--grid=0:1:101,0:1:100,0:1:100")
    assert code == 2
    assert str(cli._MAX_GRID_POINTS) in err


@pytest.mark.parametrize("grid", ["0:1:0,0:1:3,0:1:3", "0:1:-1000,0:1:-1000,0:1:3"],
                         ids=["zero", "two-negative"])
def test_scan_grid_axis_count_must_be_positive(capsys, monkeypatch, grid):
    # two negative counts multiply to a positive point count, so the count of
    # each axis is checked before the cap
    from heiscalc import cli

    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran with a non-positive axis count")
    monkeypatch.setattr(cli.harmonic, "subharmonicity_scan", no_scan)
    code, _, err = run(capsys, "scan", "--u", "x*y", f"--grid={grid}")
    assert code == 2
    assert "at least one sample" in err and str(cli._MAX_GRID_POINTS) not in err


@pytest.mark.parametrize("target", ["missing/x.json", "sub"], ids=["missing-dir", "a-dir"])
def test_verify_checks_out_before_any_suite(tmp_path, capsys, target):
    (tmp_path / "sub").mkdir()
    path = tmp_path / target
    code, out, err = run(capsys, "verify", "--suite", "appendix", "--out", str(path))
    assert code == 2 and err.startswith(f"error: cannot write {path}")
    assert "suite" not in out
    assert list(tmp_path.glob("**/.heiscalc-tmp-*")) == []


def test_scan_checks_out_before_scanning(tmp_path, capsys, monkeypatch):
    from heiscalc import cli

    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran although --out cannot be written")
    monkeypatch.setattr(cli.harmonic, "subharmonicity_scan", no_scan)
    path = tmp_path / "missing" / "scan.json"
    code, out, err = run(capsys, "scan", "--u", "x*y", "--grid=-1:1:3,-1:1:3,-1:1:3",
                         "--out", str(path))
    assert code == 2 and out == "" and err.startswith(f"error: cannot write {path}")


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_out_is_a_parse_error(tmp_path, capsys, target):
    path = tmp_path / target
    code, out, err = run(capsys, "eval", "--map", "inv", "--point", "1,1,0",
                         "--out", str(path))
    assert code == 2
    assert out == "" and err.startswith(f"error: cannot write {path}")
    assert list(tmp_path.iterdir()) == []   # the temp file is removed


def test_cli_runs_as_a_process(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def heiscalc(*argv):
        return subprocess.run([sys.executable, "-m", "heiscalc.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    done = heiscalc("verify", "--suite", "appendix")
    assert done.returncode == 0 and "suite appendix: pass" in done.stdout
    done = heiscalc("eval", "--map", "inv", "--point", "1,1,0",
                    "--out", str(tmp_path / "missing" / "x.json"))
    assert done.returncode == 2
    assert "cannot write" in done.stderr and "Traceback" not in done.stderr


def test_config_fills_defaults_but_flags_win(tmp_path, capsys):
    cfg = tmp_path / "h.cfg"
    cfg.write_text("seed = 9\ntol = 1e-3  # loose default\n")
    _, out1, _ = run(capsys, "verify", "--suite", "conformal", "--config", str(cfg))
    assert "bound 0.001" in out1
    _, out2, _ = run(capsys, "verify", "--suite", "conformal", "--config", str(cfg),
                     "--tol", "1e-9")
    assert "bound 1e-09" in out2


def test_config_parse_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    code, _, err = run(capsys, "verify", "--suite", "conformal", "--config", str(cfg))
    assert code == 2
    assert "key=value" in err


def test_global_flags_accepted_before_subcommand(capsys):
    code, out, _ = run(capsys, "--seed", "3", "verify", "--suite", "conformal")
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize("text,named", [("tolerance = 1e-3\n", "'tolerance'"),
                                        ("order = 5\n", "'order'"),
                                        ("seed = 9\ntol = nan\n", "tolerance"),
                                        ("seed = nine\n", "'nine'")])
def test_config_rejects_unknown_keys_and_bad_values(tmp_path, capsys, text, named):
    cfg = tmp_path / "h.cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, "verify", "--suite", "conformal", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert named in err
