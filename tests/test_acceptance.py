"""End-to-end acceptance gate.

Ten numbered criteria, each as one test emitting a single pass/fail line.
Run with `pytest tests/test_acceptance.py -v -s` to see every line; any FAIL
also fails the corresponding test.
"""

import time

from conftest import dp_members
from wsgaps.curves import MonomialExponents, curve, monomial_valuation
from wsgaps.gaps import (
    count_gaps_two_points,
    gap_count_upper_bound,
    gaps_via_complement,
    gaps_via_lambda,
    pure_gaps_via_lambda,
    pure_gaps_via_nabla,
    simplex_points,
)
from wsgaps.maximal import (
    alpha_element,
    count_Lambda,
    enumerate_classical_Gamma,
    enumerate_classical_Lambda,
    gamma_hat_in_C,
    index_pairs,
)
from wsgaps.membership import in_classical_H, one_point_gaps_at_P1
from wsgaps.oracle import (
    consistency_report,
    default_box,
    in_lub_closure,
    index_generators,
    monomial_vectors_in_box,
)
from wsgaps.semigroup import from_generators
from wsgaps.sweep import sweep_instances

SWEEP = sweep_instances()

# Brute-force gap scans are confined to instances whose search simplex stays
# at desk scale; larger instances are covered by the formula-side criteria.
BRUTE_GENUS_CAP = 1000

_GAP_CACHE: dict = {}


def _label(dc):
    p = dc.params
    if p.family == "X":
        return f"X(p={p.p},a={p.a},b={p.b},n={p.n},s={p.s})"
    return f"Y(q={p.q},n={p.n},s={p.s})"


def _verdict(num, name, ok):
    print(f"\ncriterion {num:2d} [{'PASS' if ok else 'FAIL'}]: {name}")
    assert ok, f"criterion {num} failed: {name}"


def _complement_gaps(dc, m):
    key = (dc, m)
    if key not in _GAP_CACHE:
        _GAP_CACHE[key] = gaps_via_complement(dc, m)
    return _GAP_CACHE[key]


def test_01_genus_frobenius_sweep():
    t0 = time.time()
    ok = True
    for dc in SWEEP:
        sg = from_generators(dc.gens)
        ok &= len(sg.gaps) == dc.genus and sg.frobenius == 2 * dc.genus - 1
    elapsed = time.time() - t0
    ok &= elapsed < 60
    _verdict(1, f"genus/Frobenius agreement on {len(SWEEP)} sweep instances "
                f"({elapsed:.1f}s)", ok)


def test_02_instance_checks():
    y = curve("Y", q=2, n=3, s=1)
    x = curve("X", p=2, a=1, b=1, n=3, s=1)
    sy = from_generators(y.gens)
    sx = from_generators(x.gens)
    ok = y.gens == (6, 8, 9) and y.genus == 10
    ok &= set(sy.gaps) == {1, 2, 3, 4, 5, 7, 10, 11, 13, 19}
    ok &= x.gens == (3, 4, 9) and x.genus == 3
    ok &= set(sx.gaps) == {1, 2, 5}
    # independent coin-problem oracle
    for dc, sg in ((y, sy), (x, sx)):
        limit = 2 * dc.genus
        members = dp_members(dc.gens, limit)
        ok &= set(sg.gaps) == {v for v in range(limit) if v not in members}
    _verdict(2, "pinned instance gaps vs coin-problem oracle", ok)


def test_03_gamma_hat_cardinality_and_content():
    ok = True
    for dc in SWEEP:
        for m in range(1, dc.max_m + 1):
            got = gamma_hat_in_C(dc, m)
            ok &= len(got) == dc.e
            for i, j in index_pairs(dc):
                exps = MonomialExponents(dc.M - j, dc.q - i, (-1,) * m)
                vec, regular = monomial_valuation(dc, m, exps)
                ok &= regular and vec == alpha_element(dc, m, (i, j)) and vec in got
    _verdict(3, "fundamental-region absolute maximals: cardinality e and "
                "monomial reconstruction", ok)


def test_04_lambda_counting_formula():
    ok = True
    for dc in SWEEP:
        for m in range(1, min(3, dc.max_m) + 1):
            ok &= count_Lambda(dc, m) == len(enumerate_classical_Lambda(dc, m))
    ok &= count_Lambda(curve("Y", q=2, n=3, s=1), 1) == 11
    ok &= count_Lambda(curve("X", p=2, a=1, b=1, n=3, s=1), 1) == 4
    _verdict(4, "relative-maximal counting formula, m up to 3", ok)


def test_05_gap_route_agreement():
    t0 = time.time()
    ok = True
    for dc in SWEEP:
        if dc.genus > 100:
            continue
        for m in range(1, min(2, dc.max_m) + 1):
            ok &= gaps_via_lambda(dc, m) == _complement_gaps(dc, m)
            ok &= pure_gaps_via_lambda(dc, m) == pure_gaps_via_nabla(dc, m)
    elapsed = time.time() - t0
    ok &= elapsed < 300
    _verdict(5, f"gap and pure-gap route agreement, g <= 100, m in {{1,2}} "
                f"({elapsed:.1f}s)", ok)


def test_06_two_point_exact_count():
    ok = True
    checked = 0
    for dc in SWEEP:
        formula = count_gaps_two_points(dc)
        if dc.genus <= BRUTE_GENUS_CAP:
            ok &= formula == len(_complement_gaps(dc, 1))
            checked += 1
    x = curve("X", p=2, a=1, b=1, n=3, s=1)
    y = curve("Y", q=2, n=3, s=1)
    ok &= count_gaps_two_points(x) == 13 == len(_complement_gaps(x, 1))
    ok &= count_gaps_two_points(y) == 115 == len(_complement_gaps(y, 1))
    _verdict(6, f"two-point gap count formula vs brute force "
                f"({checked} instances)", ok)


def test_07_gap_count_upper_bound():
    ok = True
    for (dc, m), gaps in _GAP_CACHE.items():
        ok &= len(gaps) <= gap_count_upper_bound(dc, m)
    ok &= len(_GAP_CACHE) > 0
    _verdict(7, f"gap count within the box-volume bound "
                f"({len(_GAP_CACHE)} gap sets)", ok)


def test_08_oracle_equivalence():
    instances = [
        curve("Y", q=2, n=3, s=1),
        curve("Y", q=2, n=3, s=3),       # s > 1
        curve("X", p=2, a=1, b=1, n=3, s=1),
        curve("X", p=2, a=2, b=1, n=3, s=13),  # b < a
        curve("Y", q=3, n=3, s=7),
        curve("Y", q=4, n=3, s=13),
    ]
    ok = True
    for dc in instances:
        for m in range(1, min(2, dc.max_m) + 1):
            bound = 2 * dc.genus
            box = default_box(dc, m, bound)
            idx = index_generators(monomial_vectors_in_box(dc, m, box))
            for a in simplex_points(m + 1, bound):
                ok &= in_lub_closure(idx, a) == in_classical_H(dc, m, a)
    _verdict(8, f"monomial lub-closure equals membership on the simplex, "
                f"{len(instances)} instances, m in {{1,2}}", ok)


def test_09_m1_bijection():
    ok = True
    for dc in SWEEP:
        gamma = enumerate_classical_Gamma(dc, 1) - {(0, 0)}
        firsts = [v[0] for v in gamma]
        seconds = [v[1] for v in gamma]
        ok &= len(gamma) == dc.genus
        ok &= len(set(firsts)) == len(firsts) == dc.genus
        ok &= len(set(seconds)) == len(seconds) == dc.genus
        ok &= set(firsts) == set(from_generators(dc.gens).gaps)
        ok &= set(seconds) == set(one_point_gaps_at_P1(dc))
    _verdict(9, "m=1 maximal elements biject gap sequences at both points", ok)


def test_10_mutation_sensitivity():
    checks = consistency_report(curve("Y", q=2, n=3, s=1), 1, drop_theta=True)
    ok = checks["closure_matches_membership"] is False
    _verdict(10, "dropping the lattice-translate family breaks the "
                 "closure/membership equivalence", ok)
