"""Gap/pure-gap routes, the zeta-based exact count and the upper bound."""

import random
from array import array
from itertools import product, repeat
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import inversions, table_of, witness_test
from wsgaps import gaps, maximal, membership
from wsgaps.curves import curve, simplex_caps, simplex_runs
from wsgaps.errors import SelfCheckError
from wsgaps.gaps import (
    GapTable,
    _box_spans,
    _box_volume_sum,
    _first,
    _lambda_tables,
    _prefix_row,
    _steps_closed,
    build_gap_report,
    count_gaps_two_points,
    gap_count_upper_bound,
    gaps_via_complement,
    gaps_via_lambda,
    pure_gaps_via_lambda,
    pure_gaps_via_nabla,
    simplex_points,
    table_classes,
)
from wsgaps.maximal import count_Lambda, enumerate_classical_Lambda
from wsgaps.membership import one_point_gaps_at_P1
from wsgaps.oracle import closure_difference, default_box, monomial_vectors_in_box
from wsgaps.semigroup import from_generators
from wsgaps.sweep import sweep_instances


def _box_runs(ranges, runs: dict, budget: int):
    """The reference layout of a box: the tails of prod(ranges) with
    sum <= budget, grouped by head, a Python step per head.  Yields
    (head, xs, base), the tails head + (x,) for x in xs at the positions
    base + x, base = runs[head].start, runs the simplex_runs of a simplex
    sum(t) <= bound with bound >= budget, or of its tails below a width, to
    which ranges are then clipped.  xs is clipped to the budget, not to the
    run's end: a budget below bound ends the box short of it."""
    *heads, last = ranges
    for head in product(*[range(r.start, min(r.stop, budget + 1)) for r in heads]):
        xs = range(last.start, min(last.stop, budget - sum(head) + 1))
        if xs:
            yield head, xs, runs[head].start


def test_simplex_points():
    pts = list(simplex_points(2, 2))
    assert len(pts) == 6
    assert set(pts) == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}


def test_gaps_x21131(x21131):
    gaps = gaps_via_lambda(x21131, 1)
    assert len(gaps) == 13
    assert gaps == gaps_via_complement(x21131, 1)
    assert (0, 0) not in gaps


def test_gaps_y231_contains(y231):
    gaps = gaps_via_lambda(y231, 1)
    assert (1, 1) in gaps
    assert gaps == gaps_via_complement(y231, 1)


def test_gap_projection_is_one_point_gap_set(sweep):
    """On the sweep cases with g <= 60 at m <= 3, the complement and the
    Lambda tables meet the P_inf axis in the gaps of the one-point
    semigroup of dc.gens and each P_j axis in the one-point gaps at P_1,
    g of each."""
    cases = 0
    for dc in sweep:
        if dc.genus > 60:
            continue
        at_inf, at_p1 = set(from_generators(dc.gens).gaps), set(one_point_gaps_at_P1(dc))
        assert len(at_inf) == len(at_p1) == dc.genus
        for m in range(1, min(3, dc.max_m) + 1):
            for table in (gaps_via_complement(dc, m), gaps_via_lambda(dc, m)):
                axes = [set() for _ in range(m + 1)]
                for a in table:
                    nonzero = [j for j, x in enumerate(a) if x]
                    if len(nonzero) == 1:
                        axes[nonzero[0]].add(a[nonzero[0]])
                assert axes[0] == at_inf, (dc.params, m)
                assert all(axis == at_p1 for axis in axes[1:]), (dc.params, m)
            cases += 1
    assert cases == 34, cases


def test_pure_gaps_examples(y231, x21131):
    pure = pure_gaps_via_lambda(y231, 1)
    assert (1, 1) in pure
    assert (19, 1) not in pure
    assert (0, 0) not in pure
    assert pure == pure_gaps_via_nabla(y231, 1)
    assert pure_gaps_via_lambda(x21131, 1) == pure_gaps_via_nabla(x21131, 1)


def test_pure_gaps_m2(y231):
    assert pure_gaps_via_lambda(y231, 2) == pure_gaps_via_nabla(y231, 2)


def zeta(sorted_lambda: list, t: int) -> int:
    """Number of earlier elements (1-based position t) whose first
    coordinate exceeds that of element t.  The list must be sorted by
    ascending second coordinate.  The definition the two-point count's
    inversion count is checked against."""
    seconds = [b[1] for b in sorted_lambda]
    if any(x > y for x, y in zip(seconds, seconds[1:])):
        raise ValueError("list not sorted by second coordinate")
    if not 1 <= t <= len(sorted_lambda):
        raise ValueError(f"position {t} out of range")
    first_t = sorted_lambda[t - 1][0]
    return sum(1 for b in sorted_lambda[: t - 1] if b[0] > first_t)


def test_zeta(y231, x21131):
    lam = sorted(enumerate_classical_Lambda(y231, 1), key=lambda b: b[1])
    assert zeta(lam, 1) == 0
    t = lam.index((3, 3)) + 1
    assert zeta(lam, t) == 2  # predecessors (19,1) and (11,2) exceed 3

    lam_x = sorted(enumerate_classical_Lambda(x21131, 1), key=lambda b: b[1])
    t = lam_x.index((2, 4)) + 1
    assert zeta(lam_x, t) == 1

    with pytest.raises(ValueError, match="not sorted"):
        zeta([(1, 5), (2, 3)], 1)
    with pytest.raises(ValueError, match="out of range"):
        zeta(lam, 0)


def test_two_point_count(y231, y233, x21131):
    assert count_gaps_two_points(x21131) == 13
    assert count_gaps_two_points(y231) == 115
    assert count_gaps_two_points(y233) == len(gaps_via_complement(y233, 1))


def test_two_point_count_repeated_coordinate_is_a_defect(monkeypatch, y231):
    """Distinct coordinates among the m = 1 relative maximals are a property
    of the families, so a repeat is a defect of this package, not bad input.
    The closed form reads classes and residues, which cannot repeat; two
    residues in one class would list its first coordinate twice, and
    maximal.residues refuses them before the count reads them."""
    real = maximal.coord0
    monkeypatch.setattr(maximal, "coord0", lambda dc, m, rho: real(dc, m, 1) if rho == 2 else real(dc, m, rho))
    with pytest.raises(SelfCheckError, match="residues 1 and 2 of .* share the class 1 "):
        count_gaps_two_points(y231)


def test_two_point_count_is_the_listing_count(sweep):
    """The closed form over the residues equals sum(b0 + b1) less the
    inversions of the b1 over the relative maximals as listed, ascending in
    b0, on every sweep case and four larger curves."""
    extra = [curve("Y", q=4, n=5, s=1), curve("Y", q=8, n=3, s=1), curve("X", p=3, a=2, b=1, n=3, s=1),
             curve("X", p=2, a=2, b=1, n=5, s=1)]
    for dc in sweep + extra:
        lam = enumerate_classical_Lambda(dc, 1)
        assert count_gaps_two_points(dc) == sum(map(sum, lam)) - inversions([b[1] for b in lam]), dc.params


def test_two_point_check_bites_on_a_lowered_top(y231, monkeypatch):
    """A formula-side defect, one top of the m = 1 residues lowered by one
    (the relative maximal of its class with the largest b0 dropped), turns
    the two-point check false, while the complement table, which reads
    membership's own residues, is unchanged."""
    complement = gaps_via_complement(y231, 1)
    real = gaps.residues

    def lowered(dc, m, shift):
        rhos, tops = real(dc, m, shift)
        tops = array("q", tops)
        tops[tops.index(max(tops))] -= 1
        return rhos, tops

    monkeypatch.setattr(gaps, "residues", lowered)
    assert gaps_via_complement(y231, 1) == complement
    checks = build_gap_report(y231, 1, complement)
    assert checks["two_point_count_formula"] is False


def test_two_point_count_internals(y231, x21131):
    lam = sorted(enumerate_classical_Lambda(y231, 1), key=lambda b: b[1])
    assert sum(b[0] + b[1] for b in lam) == 150
    assert sum(zeta(lam, t) for t in range(1, len(lam) + 1)) == 35
    lam_x = sorted(enumerate_classical_Lambda(x21131, 1), key=lambda b: b[1])
    assert sum(b[0] + b[1] for b in lam_x) == 15
    assert sum(zeta(lam_x, t) for t in range(1, len(lam_x) + 1)) == 2


def test_two_point_count_matches_zeta_definition(sweep):
    checked = 0
    for dc in sweep:
        if count_Lambda(dc, 1) > 2000:
            continue
        lam = sorted(enumerate_classical_Lambda(dc, 1), key=lambda b: b[1])
        by_definition = sum(b[0] + b[1] for b in lam) - sum(
            zeta(lam, t) for t in range(1, len(lam) + 1)
        )
        assert count_gaps_two_points(dc) == by_definition, dc.params
        checked += 1
    assert checked >= 20


@given(st.lists(st.integers(-50, 50), unique=True, max_size=40))
def test_inversions_match_brute_force(xs):
    n = len(xs)
    assert inversions(xs) == sum(
        1 for s in range(n) for t in range(s + 1, n) if xs[s] > xs[t]
    )


def _enumerated_upper_bound(dc, m):
    """The bound as a plain sum of box volumes over the enumerated maximals."""
    total = 0
    for beta in enumerate_classical_Lambda(dc, m):
        for r in range(m + 1):
            prod = 1
            for s in range(m + 1):
                if s != r:
                    prod *= beta[s]
            total += prod
    return total


def test_gap_count_upper_bound_matches_enumeration(sweep):
    cases = [
        (dc, m)
        for dc in sweep
        for m in range(1, min(3, dc.max_m) + 1)
        if m < 3 or dc.genus <= 2000
    ]
    cases.append((curve("Y", q=4, n=5, s=5), 4))
    for dc, m in cases:
        assert gap_count_upper_bound(dc, m) == _enumerated_upper_bound(dc, m), (dc.params, m)


def _reference_box_volume_sum(c, rho, e, m):
    """_box_volume_sum by convolution: p[K] sums prod(k*e + rho) over the
    shift tuples of sum K (m convolutions).  r = 0 gives sum(p_m); each
    r >= 1 fixes k_r and gives, over the other tuples of sum K',
    p_{m-1}[K'] * sum_{K=K'}^{T} (c - eK), an arithmetic series."""
    T = c // e
    p1 = [k * e + rho for k in range(T + 1)]
    p = [1] + [0] * T
    for _ in range(m):
        p_prev, p = p, [sum(p[a] * p1[K - a] for a in range(K + 1)) for K in range(T + 1)]
    return sum(p) + m * sum(
        x * ((T - K + 1) * c - e * (K + T) * (T - K + 1) // 2) for K, x in enumerate(p_prev)
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_box_volume_closed_form_is_the_convolution(data):
    """The volume of the residue with top T and class d, c = d + e*T: in
    the first class (T = 0), rho = 0 and m up to 6, besides general draws."""
    e = data.draw(st.integers(1, 40))
    T = data.draw(st.one_of(st.just(0), st.integers(0, 60)))
    d = data.draw(st.integers(0, e - 1))
    rho = data.draw(st.one_of(st.just(0), st.integers(0, e - 1)))
    m = data.draw(st.integers(1, 6))
    assert _box_volume_sum(T, d, rho, e, m) == _reference_box_volume_sum(d + e * T, rho, e, m)


def test_gap_count_upper_bound(y231, x21131):
    assert gap_count_upper_bound(x21131, 1) == 15
    assert gap_count_upper_bound(y231, 1) == 150
    assert len(gaps_via_lambda(x21131, 1)) <= 15
    assert len(gaps_via_lambda(y231, 1)) <= 150


def test_every_gap_under_degree_bound(y231):
    for m in (1, 2):
        for alpha in gaps_via_lambda(y231, m):
            assert sum(alpha) <= 2 * y231.genus - 1
            assert all(a >= 0 for a in alpha)


def test_build_gap_report(y231):
    for m in (1, 2):
        checks = build_gap_report(y231, m, gaps_via_complement(y231, m))
        assert all(checks.values()), checks
        assert ("two_point_count_formula" in checks) == (m == 1)


@pytest.mark.parametrize("defect, m", [
    pytest.param("duplicate", 2, id="duplicate"),
    pytest.param("swap", 2, id="swap"),
    pytest.param("duplicate", 1, id="duplicate-m1"),
    pytest.param("swap", 1, id="swap-m1"),
])
def test_lambda_count_formula_needs_strictly_increasing_lambda(y231, monkeypatch, defect, m):
    """A repeated vector (in place of its successor, so the count still
    matches) or two neighbours out of order make the verdict False.  At
    m = 1 the two-point count reads the residues, not the listing, so its
    check still holds."""
    lam = enumerate_classical_Lambda(y231, m)
    if defect == "duplicate":
        bad = lam[:1] + lam[:1] + lam[2:]
    else:
        bad = [lam[1], lam[0]] + lam[2:]
    assert len(bad) == count_Lambda(y231, m)
    monkeypatch.setattr(gaps, "enumerate_classical_Lambda", lambda dc, m: bad)
    checks = build_gap_report(y231, m, gaps_via_complement(y231, m))
    assert checks["lambda_count_formula"] is False
    if m == 1:
        assert checks["two_point_count_formula"] is True


def test_build_gap_report_detects_dropped_theta(y231, drop_theta):
    checks = build_gap_report(y231, 1, gaps_via_complement(y231, 1))
    assert checks["gap_routes_agree"] is False
    assert checks["pure_gap_routes_agree"] is False


def _per_point_routes(dc, m, bound):
    """Gaps and pure gaps of the simplex sum(alpha) <= bound, one
    witness_test call per point and coordinate: a gap lacks a witness at
    some coordinate, a pure gap at every coordinate."""
    has_witness = witness_test(dc, m)
    gaps, pure = set(), set()
    for a in simplex_points(m + 1, bound):
        found = [has_witness(a, r) for r in range(m + 1)]
        if not all(found):
            gaps.add(a)
            if not any(found):
                pure.add(a)
    return gaps, pure


def _assert_scan_matches_per_point(dc, m, bounds):
    """Both scan routes against the per-point sets; the verdict of a point
    does not depend on the bound, so one pass at the largest bound serves."""
    gaps, pure = _per_point_routes(dc, m, max(bounds))
    for bound in bounds:
        assert set(gaps_via_complement(dc, m, bound)) == {a for a in gaps if sum(a) <= bound}, (
            dc.params, m, bound)
        assert set(pure_gaps_via_nabla(dc, m, bound)) == {a for a in pure if sum(a) <= bound}, (
            dc.params, m, bound)


def test_threshold_scan_matches_per_point_oracle(sweep):
    """Bounds with top < e, classes beyond top, the proven region and a
    region wider than it, on every sweep instance with g <= 100, m <= 2."""
    checked = 0
    for dc in sweep:
        if dc.genus > 100:
            continue
        for m in range(1, min(2, dc.max_m) + 1):
            g = dc.genus
            _assert_scan_matches_per_point(dc, m, {0, 1, dc.e - 1, 2 * g - 1, 2 * g + dc.e})
            checked += 1
    assert checked >= 25


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_threshold_scan_matches_per_point_oracle_high_m(sweep, data):
    dc = data.draw(st.sampled_from([d for d in sweep if d.genus <= 10 and d.max_m >= 3]))
    m = data.draw(st.integers(3, dc.max_m))
    bound = data.draw(st.integers(0, 2 * dc.genus + dc.e))
    _assert_scan_matches_per_point(dc, m, {bound})


def test_drop_theta_is_the_witness_mutant(sweep, request):
    """The table-level drop_theta mutant equals `alpha[r] % e != 0 and
    has_witness(alpha, r)` on every simplex point at bound 2g and every r,
    and the scans under it equal the per-point routes."""
    cases = [(dc, m) for dc in sweep if dc.genus <= 60 for m in range(1, min(2, dc.max_m) + 1)]
    real = [witness_test(dc, m) for dc, m in cases]
    request.getfixturevalue("drop_theta")
    pairs = 0
    for (dc, m), has_witness in zip(cases, real):
        mutant = witness_test(dc, m)
        for a in simplex_points(m + 1, 2 * dc.genus):
            for r in range(m + 1):
                assert mutant(a, r) == (a[r] % dc.e != 0 and has_witness(a, r)), (dc.params, a, r)
                pairs += 1
        _assert_scan_matches_per_point(dc, m, {2 * dc.genus - 1})
    assert pairs == 449_846


def _reference_scan(dc, m, bound, pure):
    """The counts of the threshold scan with the formula evaluated on every
    tail: the scan before residue tails, with the E = table_classes(dc,
    bound) classes of alpha_0 counted as ranges.  Reads the residue tables
    through the module attribute, so drop_theta reaches it."""
    e, E = dc.e, table_classes(dc, bound)
    rhos, tops, classes = membership._residue_tables(dc, m)
    past = 2 * bound + 2
    a0 = [c + e * tops[c] if rhos[c] >= 0 else past for c in range(e)] + [past]
    a0_by_rho = [a0[c] for c in classes]
    by_class = [(max(rhos[c], 0), a0[c]) for c in range(e)]
    pick = min if pure else max
    counts = []
    for tail in simplex_points(m, bound):
        cap = bound - sum(tail) + 1
        q = sum([x // e for x in tail])
        residues = [x % e for x in tail]
        shift, start = [], 0
        for k, r in enumerate(sorted(residues)):
            shift += [e * (k - q)] * (r + 1 - start)
            start = r + 1
        shift += [e * (m - q)] * (e - start)
        lim = pick([a0_by_rho[r] + shift[r] for r in residues])
        held = max(0, min(e, cap, lim)) if pure else min(e, cap)
        ends = [min(pick(lim, a0 + shift[rho]), cap) for rho, a0 in by_class[:held]]
        counts += [len(range(C, ends[C % e], E)) if C % e < held else 0 for C in range(E)]
    return bytes(counts)


def _scan(dc, m, bound, pure):
    return (pure_gaps_via_nabla if pure else gaps_via_complement)(dc, m, bound)


# Sweep instances with g <= 100 at every m whose widest reference table
# (bound 2g + e) stays under 10^6 entries, and X(2,2,2,5,5), where p^b = 4
# and e = 205 exceeds every bound below 2g - 1 = 599.
_SCAN_CASES = [
    (dc, m)
    for dc in sweep_instances()
    if dc.genus <= 100
    for m in range(1, dc.max_m + 1)
    if comb(2 * dc.genus + dc.e + m, m) * dc.e <= 10**6
] + [(curve("X", p=2, a=2, b=2, n=5, s=5), 1)]


def _special_bounds(dc):
    return sorted({0, dc.e - 1, dc.e, 2 * dc.genus - 1, 2 * dc.genus + dc.e})


def test_threshold_scan_is_the_per_tail_reference_on_sweep():
    """Counts for counts, both routes, at every special bound."""
    assert len(_SCAN_CASES) >= 25
    for dc, m in _SCAN_CASES:
        for bound in _special_bounds(dc):
            for pure in (False, True):
                table = _scan(dc, m, bound, pure)
                assert table.counts == _reference_scan(dc, m, bound, pure), (dc.params, m, bound, pure)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_threshold_scan_is_the_per_tail_reference(data):
    dc, m = data.draw(st.sampled_from(_SCAN_CASES))
    top = 2 * dc.genus + dc.e
    bound = data.draw(st.one_of(st.sampled_from(_special_bounds(dc)), st.integers(0, top)))
    pure = data.draw(st.booleans())
    assert _scan(dc, m, bound, pure).counts == _reference_scan(dc, m, bound, pure)


def test_threshold_scan_is_the_per_tail_reference_under_drop_theta(y231, x21131, request):
    """The mutant tables reach both sides, and change the tables."""
    cases = [(dc, m, bound, pure) for dc, m in ((y231, 1), (y231, 2), (x21131, 1))
             for bound in (2 * dc.genus - 1, 2 * dc.genus + dc.e) for pure in (False, True)]
    real = [_scan(*case).counts for case in cases]
    request.getfixturevalue("drop_theta")
    for case, table in zip(cases, real):
        mutant = _scan(*case).counts
        assert mutant == _reference_scan(*case), case
        assert mutant != table, case


def _far_bound(dc):
    """A bound far past the gap region sum(alpha) <= 2g - 1."""
    return 4 * dc.genus + 3 * dc.e


# Sweep cases at m <= 2 whose table at the far bound, with CEILING = 1 (so
# with the most classes), stays under 10^5 entries.
_FAR_CASES = [(dc, m) for dc in sweep_instances() for m in range(1, min(2, dc.max_m) + 1)
              if comb(_far_bound(dc) + m, m) * dc.e * -(-2 * dc.genus // dc.e) <= 10**5]


@pytest.mark.parametrize("ceiling", [255, 1])
def test_threshold_scan_is_the_per_tail_reference_far_past_the_gap_region(monkeypatch, ceiling):
    """At bound 4g + 3e every run of the first tails spans at least two
    periods E of its last coordinate and ends in rows of no gap, past
    sum(alpha) = 2g - 1.  With CEILING patched to 1 every count that is not
    0 is at the ceiling, so each block holding a gap holds the ceiling and
    its runs take the formula tail by tail."""
    monkeypatch.setattr(gaps, "CEILING", ceiling)
    assert len(_FAR_CASES) >= 15
    at_ceiling = 0
    for dc, m in _FAR_CASES:
        bound = _far_bound(dc)
        E = table_classes(dc, bound)
        assert bound + 1 > 2 * E
        first = simplex_runs(m, bound)[(0,) * (m - 1)].start  # the run of the tails (0, ..., 0, x)
        for pure in (False, True):
            table = _scan(dc, m, bound, pure)
            assert table.counts == _reference_scan(dc, m, bound, pure), (dc.params, m, pure)
            assert table.stray is None
            at_ceiling += max(table.counts) == ceiling
            # its rows with x >= 2g hold no gap
            assert not any(table.counts[(first + 2 * dc.genus) * E:(first + bound + 1) * E])
    if ceiling == 1:  # every gap table, and most pure-gap tables, hold a gap
        assert at_ceiling >= 1.5 * len(_FAR_CASES)


@pytest.mark.parametrize("family, params, m", [
    pytest.param("Y", dict(q=2, n=3, s=1), 1, id="Y231-1"),
    pytest.param("Y", dict(q=2, n=3, s=1), 2, id="Y231-2"),
    pytest.param("X", dict(p=2, a=2, b=1, n=5, s=41), 1, id="X221541-1"),
])
def test_gaps_are_invariant_under_moving_e_to_coordinate_0(family, params, m):
    """Per point, from witness_test alone: (alpha_0, t) is a gap (a pure
    gap) iff (alpha_0 + e, t - e*u_j) is one, for every t_j >= e."""
    dc = curve(family, **params)
    e, bound = dc.e, 2 * dc.genus + dc.e
    gaps, pure = _per_point_routes(dc, m, bound)
    pairs = 0
    for a in simplex_points(m + 1, bound):
        for j in range(1, m + 1):
            if a[j] >= e:
                b = (a[0] + e, *a[1:j], a[j] - e, *a[j + 1:])
                assert (a in gaps, a in pure) == (b in gaps, b in pure), (a, b)
                pairs += 1
    assert pairs and any(max(a[1:]) >= e for a in gaps)


def test_lambda_tables_obey_the_shift_law(sweep):
    """On the sweep cases with g <= 60 at m <= 3 and bound 2g + 2e: Lambda
    holds the step beta + (-e, ..., +e at j, ...) of each of its vectors
    whose first coordinate stays >= 0, and both Lambda tables have
    row(t) = row(t - E*u_j) with every count lowered by one, floored at 0,
    wherever t_j >= E: 298 steps and 111,994 pairs of rows.  The positions
    are read off simplex_points."""
    steps = rows = 0
    for dc in sweep:
        if dc.genus > 60:
            continue
        e, bound = dc.e, 2 * dc.genus + 2 * dc.e
        E = table_classes(dc, bound)
        for m in range(1, min(3, dc.max_m) + 1):
            lam = enumerate_classical_Lambda(dc, m)
            listed = set(lam)
            for beta in lam:
                for j in range(1, m + 1):
                    if beta[0] >= e:
                        assert (beta[0] - e, *beta[1:j], beta[j] + e, *beta[j + 1:]) in listed, (beta, j)
                        steps += 1
            at = {t: i for i, t in enumerate(simplex_points(m, bound))}
            for table in _lambda_tables(lam, E, m, bound, (False, True)):
                assert table.stray is None
                counts = table.counts
                for t, i in at.items():
                    for j, x in enumerate(t):
                        if x >= E:
                            k = at[(*t[:j], x - E, *t[j + 1:])]
                            lowered = bytes([max(0, n - 1) for n in counts[k * E:(k + 1) * E]])
                            assert counts[i * E:(i + 1) * E] == lowered, (dc.params, m, t, j)
                            rows += 1
    assert (steps, rows) == (298, 111_994), (steps, rows)


def test_block_runs_lay_out_the_blocks(y231):
    """With a width, the layout holds the simplex's tails in [0, width)^m,
    in lexicographic order, each run the tails of one head, and
    simplex_caps still gives bound + 1 - sum(t) per tail.  On boxes clipped
    to the width, _box_spans holds _box_runs' positions, each span as long
    as it can be: no span starts where the one before it stops."""
    rng = random.Random(7)
    for m, bound, width in [(1, 20, 9), (2, 20, 9), (3, 20, 9), (3, 10, 5), (2, 4, 9), (4, 7, 3)]:
        runs = simplex_runs(m, bound, width)
        tails = [t for t in simplex_points(m, bound) if max(t) < width]
        assert list(simplex_points(m, bound, width)) == tails
        assert [(*head, x) for head, run in runs.items() for x in range(len(run))] == tails
        assert [runs[t[:-1]][t[-1]] for t in tails] == list(range(len(tails)))
        assert list(simplex_caps(runs, bound)) == [bound + 1 - sum(t) for t in tails]
        for _ in range(50):
            ranges = [range(lo, min(lo + rng.randrange(width + 2), width)) for lo in rng.choices(range(width), k=m)]
            budget = rng.randrange(bound + 1)
            spans = list(_box_spans(ranges, runs, budget))
            held = [base + x for _, xs, base in _box_runs(ranges, runs, budget) for x in xs]
            assert [t for first, stop in spans for t in range(first, stop)] == held
            assert all(stop < first for (_, stop), (first, _) in zip(spans, spans[1:]))
    assert simplex_runs(2, 20, 21) == simplex_runs(2, 20)


def test_lambda_tables_on_the_blocks_are_the_whole_tables_blocks(y231):
    """Y(2,3,1) at m = 1 and 2, bound 2g + e (tails past E = 9): Lambda as
    listed and without each of its vectors.  The tables built on the blocks
    hold the whole tables' block rows (GapTable.blocks()), and a stray
    there is the whole table's whenever that lies on a block tail, else a
    later one or None.  _steps_closed holds on the listing and fails
    without any vector that has a step or a reverse step, (0, ..., 0) being
    the one that has neither."""
    e, bound = y231.e, 2 * y231.genus + y231.e
    E = table_classes(y231, bound)
    strays = 0
    for m in (1, 2):
        lam = enumerate_classical_Lambda(y231, m)
        for i, dropped in [(None, None), *enumerate(lam)]:
            mutant = lam if i is None else lam[:i] + lam[i + 1:]
            assert _steps_closed(mutant, e) == (dropped is None or max(dropped) < e), dropped
            for pure in (False, True):
                whole = next(_lambda_tables(mutant, E, m, bound, (pure,)))
                block = next(_lambda_tables(mutant, E, m, bound, (pure,), E))
                assert (block.width, block.counts) == (E, whole.blocks().counts), (m, pure)
                if whole.stray is not None and max(whole.stray[1:]) < E:
                    assert block.stray == whole.stray
                else:
                    assert block.stray is None or block.stray > whole.stray
                strays += block.stray is not None
    assert strays


def test_runs_place_every_tail_at_its_simplex_position(y231):
    """The layout against simplex_points alone, at m = 1..4 on small bounds
    and at m = 2 past 2g: the runs follow each other from 0, each
    range(start, start + bound + 1 - sum(head)); runs[t[:-1]][t[-1]] is the
    position of t; and simplex_caps gives bound + 1 - sum(t) per tail."""
    cases = [(m, bound) for m in range(1, 5) for bound in (0, 1, 4, 7)]
    for m, bound in cases + [(2, 2 * y231.genus + y231.e)]:
        runs = simplex_runs(m, bound)
        tails = list(simplex_points(m, bound))
        start = 0
        for head, run in runs.items():
            assert run == range(start, start + bound + 1 - sum(head)), (m, bound, head)
            start = run.stop
        assert start == len(tails)
        assert [runs[t[:-1]][t[-1]] for t in tails] == list(range(len(tails)))
        assert list(simplex_caps(runs, bound)) == [bound + 1 - sum(t) for t in tails]
        assert len(tails) == comb(bound + m, m) and tails == sorted(tails)
        assert list(runs) == sorted({t[:-1] for t in tails})


def _assert_table_is(table, reference):
    """A table against a per-point reference set: iteration is the sorted
    set and len its size."""
    assert table.stray is None
    assert list(table) == sorted(reference)
    assert len(table) == len(reference)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tables_match_per_point_reference(sweep, data):
    """All four routes on small instances with m = 1..3, at bounds from an
    empty simplex to past the proven region."""
    dc = data.draw(st.sampled_from([d for d in sweep if d.genus <= 30]))
    m = data.draw(st.integers(1, min(3, dc.max_m) if dc.genus <= 12 else min(2, dc.max_m)))
    bound = data.draw(st.integers(0, 2 * dc.genus + dc.e))
    gaps, pure = _per_point_routes(dc, m, bound)
    for route, reference in ((gaps_via_complement, gaps), (gaps_via_lambda, gaps),
                             (pure_gaps_via_nabla, pure), (pure_gaps_via_lambda, pure)):
        _assert_table_is(route(dc, m, bound), reference)


def test_lambda_conversion_extends_class_prefixes():
    """e = 3, m = 1: the boxes at 1 give the tail (1,) the prefix 0..5 and
    the boxes at 0 give the points 0, 3, 6 on the tail (0,), each the next
    member of class 0, whatever order lam lists them in."""
    table = next(_lambda_tables({(6, 1), (0, 1), (3, 1)}, 3, 1, 10, (False,)))
    _assert_table_is(table, {(0, 0), (3, 0), (6, 0)} | {(a, 1) for a in range(6)})


def test_lambda_conversion_records_a_point_above_its_class_prefix():
    """Without (3, 1) the point (6, 0) skips (3, 0): it is the table's
    stray, and the table equals no table, itself included.  For pure gaps,
    (10, 0) gives the tail (0,) the prefix 0..9 at coordinate 1, so (6, 0)
    counts there too and skips (0, 0) and (3, 0)."""
    table = next(_lambda_tables({(6, 1), (0, 1)}, 3, 1, 10, (False,)))
    assert table.stray == (6, 0)
    assert set(table) == {(0, 0)} | {(a, 1) for a in range(6)}
    assert table != table
    clean = next(_lambda_tables({(6, 1), (0, 1), (3, 1)}, 3, 1, 10, (False,)))
    assert table.first_difference(clean) == ((3, 0), clean)

    pure = next(_lambda_tables({(10, 0), (6, 1)}, 3, 1, 10, (True,)))
    assert pure.stray == (6, 0)
    assert len(pure) == 0


def _reference_lambda_table(lam, E, m, bound, pure):
    """The Lambda route with a Python step per point: each reach takes the
    max over every tail of each box run, in any order of lam, and the box-0
    pass updates and tests each point of a run against its tail's end.
    Reads gaps.CEILING at call time, so a patched ceiling reaches it."""
    size = comb(bound + m, m)
    runs = simplex_runs(m, bound)
    ceiling = gaps.CEILING

    def reach(r):
        out = array("q", [0]) * size
        for beta in lam:
            ranges = [range(b, b + 1) if j == r else range(b) for j, b in enumerate(beta[1:], 1)]
            for _, xs, base in _box_runs(ranges, runs, bound):
                cells = slice(base + xs.start, base + xs.stop)
                out[cells] = array("q", map(max, out[cells], repeat(beta[0])))
        return out

    prefix = reach(1)
    for r in range(2, m + 1):
        prefix = array("q", map(min if pure else max, prefix, reach(r)))
    tops = [bound + 1 - sum(tail) for tail in simplex_points(m, bound)]
    ends = list(map(min, prefix, tops))
    stray = None
    if pure:
        counts = bytearray(size * E)
    else:
        counts = bytearray(b"".join(_prefix_row(end, E) for end in ends))
        if max(ends) > E * ceiling:
            i = next(i for i, end in enumerate(ends) if end > E * ceiling)
            stray = (E * ceiling, *list(simplex_points(m, bound))[i])
    for beta in sorted(lam):
        b0 = beta[0]
        if b0 > bound:
            break
        k0, c = divmod(b0, E)
        bar = k0 if k0 < ceiling else 256
        for head, xs, base in _box_runs([range(b) for b in beta[1:]], runs, bound - b0):
            first, stop = base + xs.start, base + xs.stop
            cells = slice(first * E + c, stop * E, E)
            old = counts[cells]
            live = ends[first:stop] if pure else repeat(b0 + 1)
            if bar == k0:
                counts[cells] = bytes([k + 1 if k == k0 and b0 < end else k for k, end in zip(old, live)])
            above = [x for x, k, end in zip(xs, old, live) if k < bar and b0 < end]
            if above:
                stray = _first(stray, (b0, *head, above[0]))
    return GapTable(E, m, bound, bytes(counts), stray)


def _assert_lambda_route_is_the_reference(lam, E, m, bound):
    """Both kinds of the route on lam, given as a set, against the per-point
    reference: the same counts and the same stray.  Returns the strays."""
    strays = []
    for pure in (False, True):
        table = next(_lambda_tables(set(lam), E, m, bound, (pure,)))
        reference = _reference_lambda_table(lam, E, m, bound, pure)
        assert (table.counts, table.stray) == (reference.counts, reference.stray), (lam, m, bound, pure)
        strays.append(table.stray)
    return strays


def test_lambda_route_is_the_per_point_reference_on_every_one_vector_mutant(y231):
    """Y(2,3,1) at m = 1 and 2, bound 2g - 1: Lambda without each of its
    vectors, and with a vector added on the tail of each at every beta_0
    up to bound + 1.  Both kinds find strays past the first tail of a run
    (the last coordinate x > 0), where the box-0 pass reads the stray's
    position off the bits of a run mask."""
    bound = 2 * y231.genus - 1
    E = table_classes(y231, bound)
    past_first = [0, 0]
    for m in (1, 2):
        lam = enumerate_classical_Lambda(y231, m)
        mutants = [lam[:i] + lam[i + 1:] for i in range(len(lam))]
        mutants += [lam + [(b0, *beta[1:])] for beta in lam for b0 in range(bound + 2)]
        for mutant in mutants:
            for kind, stray in enumerate(_assert_lambda_route_is_the_reference(mutant, E, m, bound)):
                past_first[kind] += stray is not None and stray[-1] > 0
    assert min(past_first) >= 5, past_first


_LAMBDA_CASES = [(dc, m) for dc in sweep_instances() if dc.genus <= 30 for m in range(1, min(3, dc.max_m) + 1)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lambda_route_is_the_per_point_reference_on_mutants(data):
    """Sweep cases with g <= 30 at m = 1..3 and a drawn bound: Lambda with
    one vector dropped, or with one added on the tail of another at a drawn
    beta_0, gives both kinds of table the reference's counts and stray."""
    dc, m = data.draw(st.sampled_from(_LAMBDA_CASES))
    bound = data.draw(st.integers(0, 2 * dc.genus + dc.e))
    lam = list(enumerate_classical_Lambda(dc, m))
    i = data.draw(st.integers(0, len(lam) - 1))
    if data.draw(st.booleans()):
        del lam[i]
    else:
        lam.append((data.draw(st.integers(0, bound + 1)), *lam[i][1:]))
    _assert_lambda_route_is_the_reference(lam, table_classes(dc, bound), m, bound)


def test_first_difference_is_the_smallest_vector_in_one_table(y231):
    table = gaps_via_complement(y231, 2)
    assert table == gaps_via_complement(y231, 2)
    assert table.first_difference(table) is None
    E, bound = table.E, table.bound
    counts = bytearray(table.counts)
    runs = simplex_runs(2, bound)
    # The tail (0, 1) loses the largest gap of its first class with one;
    # (0, 0) gains the next member of its first class whose next member
    # lies in the simplex.  Rows start at multiples of E, so an index mod E
    # is its class.
    lose = runs[(0,)][1] * E
    lose += next(C for C in range(E) if counts[lose + C])
    gain = runs[(0,)][0] * E
    gain += next(C for C in range(E) if C + E * counts[gain + C] <= bound)
    counts[lose] -= 1
    counts[gain] += 1
    other = GapTable(E, 2, bound, bytes(counts))
    lost, gained = (lose % E + E * counts[lose], 0, 1), (gain % E + E * table.counts[gain], 0, 0)
    expected = min([(lost, table), (gained, other)], key=lambda f: f[0])
    assert table != other
    assert table.first_difference(other) == expected
    assert other.first_difference(table) == expected
    assert len(other) == len(table)
    assert set(table) ^ set(other) == {lost, gained}


def test_first_difference_decodes_only_the_rows_that_differ(y231, monkeypatch):
    """Y(2,3,1) at m = 2 up to degree 200 has 20,301 tails, five blocks of
    rows.  A gap added on the tail (30, 0), in a later block and past every
    gap, is the first difference, and finding it decodes that tail's row of
    each table once and no other row.  Equal tables decode no row."""
    table = gaps_via_complement(y231, 2, 200)
    E, bound = table.E, table.bound
    i = simplex_runs(2, bound)[(30,)][0]
    assert i > gaps._BLOCK_ROWS and not any(table.counts[i * E:(i + 1) * E])
    counts = bytearray(table.counts)
    counts[i * E] = 1
    other = GapTable(E, 2, bound, bytes(counts))
    decoded = []
    real = gaps._gap_bits
    monkeypatch.setattr(gaps, "_gap_bits", lambda row: decoded.append(row) or real(row))
    assert table.first_difference(GapTable(E, 2, bound, table.counts)) is None
    assert decoded == []
    assert table.first_difference(other) == ((0, 30, 0), other)
    assert sorted(decoded) == sorted([table.counts[i * E:(i + 1) * E], other.counts[i * E:(i + 1) * E]])


@pytest.mark.parametrize("m", [1, 2])
def test_first_difference_names_strays_ahead_of_rows(y231, m):
    """Random pairs of the complement table on Y(2,3,1) with one or two
    counts changed (each a gap lost, or the next member of its class in the
    simplex gained), with a stray on one side or both, often at the vector
    of a row difference or of the other stray.  first_difference, both
    ways, is the per-point reference: the smallest of the strays and the
    points one table's counts hold alone, at a tie self's stray, then
    other's, then the row difference."""
    rng = random.Random(28 + m)
    base = gaps_via_complement(y231, m)
    E, bound, counts = base.E, base.bound, base.counts
    tops = [bound - sum(tail) for tail in simplex_points(m, bound) for _ in range(E)]
    steps = {i: [-1] * (k > 0) + [1] * (i % E + E * k <= tops[i]) for i, k in enumerate(counts)}
    changeable = [i for i, step in steps.items() if step]
    points = list(simplex_points(m + 1, bound))
    won = set()  # (rank of the answer, whether a lower rank tied with it)
    for _ in range(300):
        moved = bytearray(counts)
        for i in rng.sample(changeable, rng.randint(1, 2)):
            moved[i] += rng.choice(steps[i])
        held = set(GapTable(E, m, bound, bytes(moved)))
        rows = sorted(held ^ set(base))
        picks = [None, rows[0], rng.choice(rows), rng.choice(points)]
        first, second = rng.choice(picks), rng.choice(picks)
        if rng.random() < 0.2:
            second = first
        mine, theirs = GapTable(E, m, bound, counts, first), GapTable(E, m, bound, bytes(moved), second)
        for a, b in ((mine, theirs), (theirs, mine)):
            ranked = [(a.stray, 0), (b.stray, 1)] + [(v, 2) for v in rows]
            vector, rank = min(f for f in ranked if f[0] is not None)
            side = [a, b, a if vector in set(a) else b][rank]
            assert a.first_difference(b) == (vector, side), (m, a.stray, b.stray, rows[:2])
            won.add((rank, sum(f[0] == vector for f in ranked) > 1))
    assert won == {(0, False), (0, True), (1, False), (1, True), (2, False)}, won


def _hand_built_counts(rng, E: int, m: int, bound: int) -> bytes:
    """Counts k on the simplex sum(alpha) <= bound with E classes, row by
    row: no gap, up to two gaps per class, a random count per class or every
    member of each class up to top = bound - sum(tail), the most a row holds."""
    counts = []
    for tail in simplex_points(m, bound):
        top, kind = bound - sum(tail), rng.random()
        for C in range(E):
            most = (top - C) // E + 1 if C <= top else 0
            counts.append(0 if kind < 0.6 else min(most, rng.randint(0, 2)) if kind < 0.9
                          else rng.randint(0, most) if kind < 0.96 else most)
    return bytes(counts)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_walk_is_the_sorted_per_point_set_past_255_gaps_a_class(e, m):
    """walk on hand-built count tables with E = K*e classes, K > 1, against
    the sorted set of the points their counts hold, with label run once for
    each tail that holds a gap and never for one that holds none.  At m = 1
    up to degree 1,100-1,300 with K = 5 every e holds more than 255 gaps in
    a class mod e, each class mod E at most 255, and at m = 2 up to degree
    255-290 with K = 2 e = 1 does; the table with no gap is walked too."""
    rng = random.Random(1000 * e + m)
    bound = rng.randint(1100, 1300) if m == 1 else rng.randint(255, 290)
    E = e * (5 if m == 1 else 2)
    counts = _hand_built_counts(rng, E, m, bound)
    tails = list(simplex_points(m, bound))
    # Gaps per (tail, class mod e): the K classes mod E over it add up.
    per_class = [sum(row[c::e]) for row in zip(*[iter(counts)] * E) for c in range(e)]
    if m == 1 or e == 1:
        assert sum(k > 255 for k in per_class) >= 10
    assert 0 < sum(map(any, zip(*[iter(counts)] * E))) < len(tails)  # rows with and without gaps
    for table_counts in (counts, bytes(len(counts))):
        points = sorted((C + E * i, *tail) for tail, row in zip(tails, zip(*[iter(table_counts)] * E))
                        for C, k in enumerate(row) for i in range(k))
        labelled = []
        walked = list(GapTable(E, m, bound, table_counts).walk(lambda tail: labelled.append(tail) or tail))
        assert [(a0, *tail) for a0, rests in walked for tail in rests] == points
        assert all(rests for _, rests in walked)
        assert labelled == sorted({point[1:] for point in points})


@pytest.mark.parametrize("E", [1, 3, 7])
def test_walk_stops_at_the_last_gap_far_below_the_bound(E):
    """At m = 1 the row of tail (t,) sits at t*E whatever the bound, so a
    table up to degree 250 padded with rows of no gap is the same set up
    to degree 3*10^6: walk lists the same gaps and labels the same tails,
    stopping at the last tail with a gap and once every class is empty
    instead of running to the bound.  The padded table with no gap walks
    to nothing."""
    rng = random.Random(E)
    small, big = 250, 3 * 10**6
    counts = _hand_built_counts(rng, E, 1, small)
    padded = counts + bytes(E * (big - small))
    expected = list(GapTable(E, 1, small, counts).walk(tuple))
    assert expected and expected[-1][0] < small
    labelled = []
    assert list(GapTable(E, 1, big, padded).walk(lambda tail: labelled.append(tail) or tail)) == expected
    assert labelled == sorted({tail for _, tails in expected for tail in tails})
    assert list(GapTable(E, 1, big, bytes(len(padded))).walk(tuple)) == []


@pytest.mark.parametrize("ceiling", [1, 2])
def test_tables_with_more_classes_than_e_match_per_point_reference(sweep, monkeypatch, ceiling):
    """With CEILING patched down, small sweep instances keep E = K*e
    classes with K > 1: all four routes against the per-point references,
    and closure_difference of the oracle's monomials against a table of the
    per-point gaps, m <= 2, at the proven region and past it."""
    monkeypatch.setattr(gaps, "CEILING", ceiling)
    widened = 0
    for dc in sweep:
        if dc.genus > 30:
            continue
        for m in range(1, min(2, dc.max_m) + 1):
            for bound in (2 * dc.genus - 1, 2 * dc.genus + dc.e):
                E = table_classes(dc, bound)
                widened += E > dc.e
                gap_set, pure = _per_point_routes(dc, m, bound)
                for route, reference in ((gaps_via_complement, gap_set), (gaps_via_lambda, gap_set),
                                         (pure_gaps_via_nabla, pure), (pure_gaps_via_lambda, pure)):
                    table = route(dc, m, bound)
                    assert table.E == E
                    _assert_table_is(table, reference)
                mono = monomial_vectors_in_box(dc, m, default_box(dc, m, bound))
                assert closure_difference(mono, table_of(gap_set, E, m, bound)) is None
    assert widened >= 12


def _all_missing(dc, m):
    """Residue tables with no member: no witness anywhere, every point a gap."""
    return array("q", [-1]) * (dc.e + 1), array("q", bytes(8 * dc.e)), array("q", [dc.e]) * dc.e


@pytest.mark.parametrize("route", ["complement", "lambda", "closure", "closure-bits"])
def test_a_count_past_the_ceiling_is_the_stray(y231, monkeypatch, route):
    """Y(2,3,1) at m = 1 up to degree 255*9 + 30 keeps E = e = 9 classes,
    so class 0 of a tail can count at most 255 gaps, below alpha_0 = 2295.
    Mutants that claim more, instead of wrapping, make the first vector
    past the ceiling the table's stray: the scan with no witness (every
    point a gap) at (2295, 0), and the Lambda route with a relative maximal
    (2300, 3) at (2295, 3), where its box at coordinate 1 holds
    alpha_0 < 2300.  closure_difference names the scan's stray, held by the
    scan's table, against no generator and against the generator (-1, 0):
    it attains coordinate 1 on the tail (0,) at every alpha_0 and
    coordinate 0 at none, so both closures call (2295, 0) a gap as well.
    Without its stray the table is named nowhere there: the closure alone
    holds (2295, 0)."""
    bound = 255 * 9 + 30
    E = table_classes(y231, bound)
    assert E == y231.e == 9
    if route == "lambda":
        lam = sorted({*enumerate_classical_Lambda(y231, 1), (2300, 3)})
        monkeypatch.setattr(gaps, "enumerate_classical_Lambda", lambda dc, m: lam)
        table, first = gaps_via_lambda(y231, 1, bound), (255 * E, 3)
    else:
        monkeypatch.setattr(gaps, "_residue_tables", _all_missing)
        table, first = gaps_via_complement(y231, 1, bound), (255 * E, 0)
    assert table.stray == first
    assert max(table.counts) == 255
    assert table != table
    if route.startswith("closure"):
        gens = [] if route == "closure" else [(-1, 0)]
        assert closure_difference(gens, table) == (first, table)
        assert closure_difference(gens, GapTable(E, 1, bound, table.counts)) == (first, "closure")


@pytest.mark.parametrize("m", [1, 2])
def test_counts_past_the_ceiling_are_clipped_on_every_tail(y231, monkeypatch, m):
    """With no witness anywhere every point is a gap, and with CEILING
    patched to 2 most counts of Y(2,3,1) at bound 4g + 3e pass it, also on
    tails past [0, E)^m.  Both scans store each count of the per-tail
    reference clipped at the ceiling, and name as the stray the smallest
    first point past the ceiling over all tails.  A clipped count lowered
    by a run would fall short of the ceiling."""
    monkeypatch.setattr(gaps, "CEILING", 2)
    monkeypatch.setattr(gaps, "_residue_tables", _all_missing)
    monkeypatch.setattr(membership, "_residue_tables", _all_missing)
    bound = _far_bound(y231)
    E = table_classes(y231, bound)
    tails = list(simplex_points(m, bound))
    for pure in (False, True):
        reference = _reference_scan(y231, m, bound, pure)
        rows = list(zip(*[iter(reference)] * E))
        assert any(max(row) > 2 for tail, row in zip(tails, rows) if max(tail) >= E)
        past = [(2 * E + C, *tail) for tail, row in zip(tails, rows) for C, k in enumerate(row) if k > 2]
        table = _scan(y231, m, bound, pure)
        assert table.counts == bytes(min(k, 2) for k in reference)
        assert table.stray == min(past)


def test_routes_read_disjoint_inputs(y231, monkeypatch, request):
    """The Lambda route reads no residue table and the scan no Lambda: an
    empty Lambda leaves the scan as it is, and drop_theta the Lambda route."""
    lam_route, scan_route = gaps_via_lambda(y231, 2), gaps_via_complement(y231, 2)
    monkeypatch.setattr(gaps, "enumerate_classical_Lambda", lambda dc, m: set())
    assert gaps_via_complement(y231, 2) == scan_route
    assert len(gaps_via_lambda(y231, 2)) == 0
    monkeypatch.undo()
    request.getfixturevalue("drop_theta")
    assert gaps_via_lambda(y231, 2) == lam_route
    assert gaps_via_complement(y231, 2) != scan_route
