"""The arbitration battery: every contested constant lands on its recorded
verdict with the engine-fitted value, and every verdict is computed from
its evidence, so a perturbed route flips it."""
import pytest

from heiscalc import fields, harmonic, ledger, schwarzian
from heiscalc.cli import main
from heiscalc.ledger import ledger_run

# key -> (agrees, fitted)
EXPECTED = {
    "system-constant": (True, "8"),
    "bilaplace-constant": (True, "-64"),
    "bochner-kappa": (False, "8"),
    "lap-log-jacobian-constant": (False, "4"),
    "sublaplacian-prefactor": (False, "2"),
    "exp-flow-closed-form": (False, "derived form"),
    "cr-sign-family": (False, "tensor = 2 S, reciprocal = -S"),
    "left-cocycle-middle-coefficient": (False, "-1"),
    "pf-gradient-norm": (False, "|Pf| = (1/2) |grad_H ln J|"),
    "vertical-jacobian-sign": (False, "T^2 u + 2 (Xu TYu - Yu TXu)"),
}


@pytest.fixture(scope="module")
def entries():
    return {e.key: e for e in ledger_run()}


def test_ledger_is_complete(entries):
    assert set(entries) == set(EXPECTED)


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_ledger_entry(key, entries):
    agrees, fitted = EXPECTED[key]
    e = entries[key]
    assert e.agrees == agrees, e.line()
    assert e.fitted == fitted, e.line()
    assert e.holds is True, e.line()


def test_entry_lines_render(entries):
    for e in entries.values():
        line = e.line()
        assert e.key in line
        assert ("agrees" in line) or ("MISMATCH" in line)


def _shift_middle_coeff(monkeypatch):
    # the left law's zero moves from -1 to -2
    law = schwarzian.cocycle_residual_left
    monkeypatch.setattr(schwarzian, "cocycle_residual_left",
                        lambda g, f, p, middle_coeff: law(g, f, p, middle_coeff + 1))


def _double_zbar(monkeypatch):
    frame_zbar = ledger.frame_zbar
    monkeypatch.setattr(ledger, "frame_zbar", lambda u: frame_zbar(u) * 2)


# key -> a perturbation of that entry's evidence or of its owner constant
PERTURBATIONS = {
    "exp-flow-closed-form": lambda mp: mp.setattr(
        fields, "scl_exp_flow", fields.scl_exp_flow_reference),
    "cr-sign-family": lambda mp: mp.setattr(
        schwarzian, "s_cr_reciprocal_form", schwarzian.s_cr),   # returns +S
    "left-cocycle-middle-coefficient": _shift_middle_coeff,
    "pf-gradient-norm": _double_zbar,
    "vertical-jacobian-sign": lambda mp: mp.setattr(            # composites lose contact
        ledger, "_rp_compose", lambda g, f1, f2, f3: (f1, f2, f3 * 2)),
    "system-constant": lambda mp: mp.setattr(harmonic, "SYSTEM_CONSTANT", 7),
}


@pytest.mark.parametrize("key", sorted(PERTURBATIONS))
def test_perturbed_evidence_flips_the_verdict(key, monkeypatch, capsys):
    PERTURBATIONS[key](monkeypatch)
    e = {e.key: e for e in ledger_run()}[key]
    assert e.holds is False, e.line()
    assert main(["verify", "--suite", "ledger"]) == 1
    assert f"unexpected fit for {key}:" in capsys.readouterr().out


def test_an_exact_route_that_fits_no_constant_is_a_verdict(monkeypatch, capsys):
    # lap(Xu) + T(Xu) is no constant multiple of T(Yu): the fit of entry (a)
    # finds none, which fails that entry and leaves the other nine
    laplacian_h = ledger.laplacian_h
    monkeypatch.setattr(ledger, "laplacian_h", lambda u: laplacian_h(u) + ledger.frame_t(u))
    entries = {e.key: e for e in ledger_run()}
    assert set(entries) == set(EXPECTED)
    e = entries["system-constant"]
    assert e.fitted == "no candidate fits", e.line()
    assert e.holds is False, e.line()
    assert main(["verify", "--suite", "ledger"]) == 1
    assert "unexpected fit for system-constant:" in capsys.readouterr().out
