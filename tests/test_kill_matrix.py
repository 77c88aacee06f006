"""The kill matrix: the exact set of `verify` keys each named mutant turns
false.

Each row is one mutant, on one side of the cross-checks:
- membership side: drop_theta;
- formula side: a lowered top in gaps.residues, a lowered box volume, a
  Lambda vector with beta_0 lowered by one, and a Lambda vector added off
  the blocks, whose boxes miss the tails in [0, E)^m and which breaks
  Lambda's closure under the step (-e at 0, +e at j) there alone;
- oracle side: one _monomial_runs run dropped, a Gamma vector moved onto a
  gap.

The columns are consistency_report's keys, on small curves only.  A row
fails when a check stops biting, or when it starts to read another side.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wsgaps import gaps, oracle
from wsgaps.curves import curve
from wsgaps.oracle import consistency_report

CURVES = {
    "Y231": curve("Y", q=2, n=3, s=1),
    "Y233": curve("Y", q=2, n=3, s=3),
    "X21131": curve("X", p=2, a=1, b=1, n=3, s=1),
    "Y4313": curve("Y", q=4, n=3, s=13),
}
CASES = [(name, m) for name, dc in CURVES.items() for m in range(1, min(3, dc.max_m) + 1)]

CLOSURE, FAMILIES, GAPS, PURE = ("closure_matches_membership", "families_in_closure", "gap_routes_agree",
                                 "pure_gap_routes_agree")
COUNT, BOUND, TWO_POINT = "lambda_count_formula", "gap_count_bound", "two_point_count_formula"


def lowered_top(monkeypatch):
    """gaps.residues with its largest top lowered by one."""
    real = gaps.residues

    def lowered(dc, m, shift):
        rhos, tops = real(dc, m, shift)
        tops = list(tops)
        tops[tops.index(max(tops))] -= 1
        return rhos, tops

    monkeypatch.setattr(gaps, "residues", lowered)


def lowered_volume(monkeypatch):
    """The box volume of the residue of class 0, which gap_count_upper_bound
    sums when its top is >= 0, lowered by one."""
    real = gaps._box_volume_sum
    monkeypatch.setattr(gaps, "_box_volume_sum", lambda T, d, rho, e, m: real(T, d, rho, e, m) - (d == 0))


def lambda_beta0_lowered(monkeypatch):
    """Lambda with its middle vector's beta_0 lowered by one."""
    real = oracle.enumerate_classical_Lambda

    def lowered(dc, m):
        lam = list(real(dc, m))
        i = len(lam) // 2
        lam[i] = (lam[i][0] - 1, *lam[i][1:])
        return lam

    monkeypatch.setattr(oracle, "enumerate_classical_Lambda", lowered)


def off_the_blocks(dc, m):
    """The vector (2g + 1, E, ..., E) at the default bound 2g: its box at 0
    lies past the simplex and its box at each r >= 1 on tails with t_r = E,
    so no box meets a block tail.  Its first coordinate passes every listed
    one, so the listing stays strictly increasing, and neither its step nor
    its reverse step is listed."""
    return (2 * dc.genus + 1,) + (gaps.table_classes(dc, 2 * dc.genus),) * m


def lambda_off_the_blocks(monkeypatch):
    """Lambda with off_the_blocks added at its end."""
    real = oracle.enumerate_classical_Lambda
    monkeypatch.setattr(oracle, "enumerate_classical_Lambda", lambda dc, m: real(dc, m) + [off_the_blocks(dc, m)])


def monomial_run_dropped(monkeypatch):
    """The oracle's monomials without the first (a_z, b_y) run, the one of
    a_z = b_y = 0, which holds the zero vector."""
    real = oracle._monomial_runs
    monkeypatch.setattr(oracle, "_monomial_runs", lambda *args: (run for i, run in enumerate(real(*args)) if i))


def gamma_on_a_gap(monkeypatch):
    """The Gamma listing with its first vector moved onto the first gap of
    the complement table."""
    real = oracle.enumerate_classical_Gamma

    def moved(dc, m):
        return [next(iter(gaps.gaps_via_complement(dc, m, 2 * dc.genus)))] + real(dc, m)[1:]

    monkeypatch.setattr(oracle, "enumerate_classical_Gamma", moved)


def drop_theta(monkeypatch, request):
    request.getfixturevalue("drop_theta")


# Per mutant, the keys it turns false on each case; a case not named
# turns none.
MATRIX = {
    "drop_theta": (drop_theta, {
        ("Y231", 1): {CLOSURE, BOUND, GAPS, PURE, TWO_POINT},
        ("Y231", 2): {CLOSURE, GAPS, PURE},
        ("Y233", 1): {CLOSURE, BOUND, GAPS, PURE, TWO_POINT},
        ("Y233", 2): {CLOSURE, BOUND, GAPS, PURE},
        ("X21131", 1): {CLOSURE, BOUND, GAPS, PURE, TWO_POINT},
        ("Y4313", 1): {CLOSURE, BOUND, GAPS, PURE, TWO_POINT},
        ("Y4313", 2): {CLOSURE, BOUND, GAPS, PURE},
        ("Y4313", 3): {CLOSURE, BOUND, GAPS, PURE},
    }),
    "lowered_top": (lowered_top, {
        ("Y231", 1): {BOUND, TWO_POINT},
        ("Y4313", 1): {BOUND, TWO_POINT},
        ("Y4313", 2): {BOUND},
    }),
    "lowered_volume": (lowered_volume, {
        ("Y233", 1): {BOUND},
        ("Y233", 2): {BOUND},
    }),
    "lambda_beta0_lowered": (lambda_beta0_lowered, {
        ("Y231", 1): {FAMILIES, GAPS, COUNT, PURE},
        ("Y231", 2): {GAPS, COUNT, PURE},
        ("Y233", 1): {FAMILIES, GAPS},
        ("Y233", 2): {GAPS, COUNT},
        ("X21131", 1): {FAMILIES, GAPS, PURE},
        ("Y4313", 1): {FAMILIES, GAPS, COUNT, PURE},
        ("Y4313", 2): {GAPS, COUNT, PURE},
        ("Y4313", 3): {GAPS, COUNT},
    }),
    "lambda_off_the_blocks": (lambda_off_the_blocks, {
        ("Y231", 1): {FAMILIES, GAPS, COUNT, PURE},
        ("Y231", 2): {FAMILIES, GAPS, COUNT, PURE},
        ("Y233", 1): {FAMILIES, COUNT},
        ("Y233", 2): {COUNT},
        ("X21131", 1): {FAMILIES, COUNT},
        ("Y4313", 1): {FAMILIES, GAPS, COUNT, PURE},
        ("Y4313", 2): {FAMILIES, GAPS, COUNT, PURE},
        ("Y4313", 3): {FAMILIES, GAPS, COUNT},
    }),
    "monomial_run_dropped": (monomial_run_dropped, {case: {CLOSURE, FAMILIES} for case in CASES}),
    "gamma_on_a_gap": (gamma_on_a_gap, {case: {FAMILIES} for case in CASES}),
}


def false_keys(dc, m):
    return {key for key, ok in consistency_report(dc, m).items() if not ok}


@pytest.mark.parametrize("row", list(MATRIX))
def test_kill_matrix(row, monkeypatch, request):
    """Every case passes as it is; under the row's mutant it turns false
    exactly the keys the row names, at the default bound 2g."""
    for name, m in CASES:
        assert false_keys(CURVES[name], m) == set(), (name, m)
    mutate, expected = MATRIX[row]
    if mutate is drop_theta:
        mutate(monkeypatch, request)
    else:
        mutate(monkeypatch)
    got = {case: false_keys(CURVES[case[0]], case[1]) for case in CASES}
    assert got == {case: expected.get(case, set()) for case in CASES}


_UNDER_O = """
import sys
from test_kill_matrix import off_the_blocks
from wsgaps import cli, oracle
if not sys.flags.optimize:
    sys.exit(3)
real = oracle.enumerate_classical_Lambda
oracle.enumerate_classical_Lambda = lambda dc, m: real(dc, m) + [off_the_blocks(dc, m)]
sys.exit(cli.run(sys.argv[1:]))
"""


def test_step_check_is_a_verdict_under_python_O():
    """The step check is a verdict, not an assert: under python -O, `verify`
    on Y(2,3,1) at m = 1 with Lambda off the blocks exits 1 with the keys
    of its kill-matrix row false."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), env.get("PYTHONPATH")]))
    argv = ["verify", "--family", "Y", "--q", "2", "--n", "3", "--s", "1", "--m", "1"]
    proc = subprocess.run([sys.executable, "-O", "-c", _UNDER_O, *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 1, proc.stderr
    checks = json.loads(proc.stdout)["payload"]["checks"]
    assert {key for key, ok in checks.items() if not ok} == MATRIX["lambda_off_the_blocks"][1][("Y231", 1)]
