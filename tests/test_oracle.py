"""Brute-force reconstruction from monomial valuations and lub closure."""

import random
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import table_of
from wsgaps import gaps, oracle
from wsgaps.curves import MonomialExponents, curve, monomial_valuation, simplex_points
from wsgaps.errors import BadBox
from wsgaps.maximal import (
    count_Lambda,
    enumerate_classical_Gamma,
    enumerate_classical_Lambda,
    gamma_hat_in_C,
    lambda_hat_in_C,
)
from wsgaps.membership import in_classical_H, in_generalized_H
from wsgaps.oracle import (
    Box,
    _closure_rows,
    closure_difference,
    consistency_report,
    default_box,
    in_lub_closure,
    index_generators,
    lub_closure,
    monomial_counts,
    monomial_vectors_in_box,
)


def test_box_validation():
    Box((0, 0), (1, 1))
    with pytest.raises(BadBox):
        Box((0, 2), (1, 1))
    with pytest.raises(BadBox):
        Box((0,), (1, 1))
    assert (1, 1) in Box((0, 0), (2, 2))
    assert (3, 1) not in Box((0, 0), (2, 2))


def test_monomial_vectors_examples(y231):
    box = Box((-20, -20), (20, 20))
    vecs = monomial_vectors_in_box(y231, 1, box)
    assert (19, 1) in vecs  # z^2 y^2 / (x - a)
    assert (-9, 9) in vecs  # 1 / (x - a)
    assert (0, 0) in vecs
    assert all(v in box for v in vecs)


def test_monomial_vectors_are_members(y231):
    box = Box((-20, -20), (20, 20))
    for v in monomial_vectors_in_box(y231, 1, box):
        assert in_generalized_H(y231, 1, v).member


def _brute_force_monomials(dc, m, box):
    """The regular in-box valuations over a fixed wide (a_z, b_y) window, with
    each c_l over the range its own coordinate allows and no other bound,
    each from curves.monomial_valuation, which the oracle does not call."""
    out = set()
    for a_z in range(-1, 20):
        for b_y in range(-25, 51):
            w = a_z + b_y * dc.M
            c_ranges = [
                range(-((box.upper[ell] + w) // dc.e), (-box.lower[ell] - w) // dc.e + 1)
                for ell in range(1, m + 1)
            ]
            for c in product(*c_ranges):
                vec, regular = monomial_valuation(dc, m, MonomialExponents(a_z, b_y, c))
                if regular and vec in box:
                    out.add(vec)
    return out


def test_monomial_vectors_are_exact(y231, y233, x21131, x22313):
    """The enumeration equals the brute force at every m, on the default box,
    on hand boxes with negative and nonnegative lower corners, and on one
    that holds no regular monomial."""
    hand = {
        1: [Box((-40, -30), (25, 20)), Box((0, -5), (30, 12)), Box((-30, -30), (-5, -5))],
        2: [Box((-15, -12, -12), (15, 10, 10)), Box((-4, -9, 0), (18, 6, 7))],
    }
    for dc in (y231, y233, x21131, x22313):
        for m in range(1, dc.max_m + 1):
            for box in [default_box(dc, m, 2 * dc.genus)] + hand[m]:
                got = monomial_vectors_in_box(dc, m, box)
                assert got == _brute_force_monomials(dc, m, box), (dc.params, m, box)
    assert monomial_vectors_in_box(y231, 1, hand[1][2]) == set()


def test_monomial_count_is_the_monomials_built(sweep):
    """The sum of monomial_counts equals the number of vectors the enumeration
    builds (oracle._monomial_vectors yields one per monomial, and
    monomial_vectors_in_box collects them into its set), and at m = max_m
    the number of distinct vectors, on the sweep instances with g <= 30 at
    every m, at bounds 0, 2g and 2g + 7, where the box holds at most 20,000
    monomials."""
    checked = []  # per case: at m = max_m >= 2, where vectors and monomials correspond
    for dc in sweep:
        if dc.genus > 30:
            continue
        for m in range(1, dc.max_m + 1):
            for bound in (0, 2 * dc.genus, 2 * dc.genus + 7):
                box = default_box(dc, m, bound)
                count = sum(monomial_counts(dc, m, box))
                if count > 20_000:
                    continue
                built = list(oracle._monomial_vectors(dc, m, box))
                vectors = monomial_vectors_in_box(dc, m, box)
                assert count == len(built) >= len(vectors) == len(set(built)), (dc.params, m, bound)
                assert count == len(vectors) or m < dc.max_m, (dc.params, m, bound)
                checked.append(m == dc.max_m >= 2)
    assert len(checked) >= 60 and any(checked)
    empty = Box((-30, -30), (-5, -5))
    assert sum(monomial_counts(sweep[0], 1, empty)) == len(monomial_vectors_in_box(sweep[0], 1, empty)) == 0


def test_lub_closure_examples():
    box = Box((-20, -20), (20, 20))
    assert lub_closure({(-9, 9), (0, 0)}, box) == {(-9, 9), (0, 0), (0, 9)}
    assert lub_closure({(3, 4)}, box) == {(3, 4)}
    with pytest.raises(BadBox):
        lub_closure({(30, 0)}, box)


def test_lub_closure_order_independent(y231):
    box = Box((-25, -25), (25, 25))
    seeds = {v for v in gamma_hat_in_C(y231, 1) if v in box}
    closed = lub_closure(seeds, box)
    assert lub_closure(sorted(seeds), box) == closed
    assert lub_closure(sorted(seeds, reverse=True), box) == closed
    # pointwise test agrees with the materialized closure on the whole box
    idx = index_generators(seeds)
    for a0 in range(box.lower[0], box.upper[0] + 1):
        for a1 in range(box.lower[1], box.upper[1] + 1):
            assert in_lub_closure(idx, (a0, a1)) == ((a0, a1) in closed)


def test_closure_elements_are_members(y231):
    box = Box((-25, -25), (25, 25))
    seeds = {v for v in gamma_hat_in_C(y231, 1) if v in box}
    for v in lub_closure(seeds, box):
        assert in_generalized_H(y231, 1, v).member


def test_consistency_report_y231(y231):
    for m in (1, 2):
        checks = consistency_report(y231, m)
        assert all(checks.values()), checks


def test_consistency_report_x21131(x21131):
    checks = consistency_report(x21131, 1)
    assert all(checks.values()), checks


def test_mutation_dropping_theta_is_detected(y231, drop_theta):
    checks = consistency_report(y231, 1)
    assert checks["closure_matches_membership"] is False


def test_families_check_fails_on_a_family_vector_moved_onto_a_gap(y231, monkeypatch):
    """A Gamma listing whose first vector is moved onto a gap of the
    complement table fails families_in_closure and no other check: the gap
    lies outside the monomials' lub closure, while the closure check reads
    no family."""
    real = oracle.enumerate_classical_Gamma
    for m in (1, 2):
        gap = next(iter(gaps.gaps_via_complement(y231, m, 2 * y231.genus)))
        monkeypatch.setattr(oracle, "enumerate_classical_Gamma", lambda dc, m, gap=gap: [gap] + real(dc, m)[1:])
        checks = consistency_report(y231, m)
        assert checks["closure_matches_membership"] is True
        assert [name for name, ok in checks.items() if not ok] == ["families_in_closure"], (m, checks)


def test_families_check_matches_the_per_point_reference(sweep, monkeypatch):
    """families_in_closure, struck off the monomial set, is the per-point
    reference: in_lub_closure of every family vector over an index of the
    box's monomials.  On the sweep cases with g <= 60 and m <= 3, with the
    Gamma listing as enumerated and with its middle vector moved by +-1 at
    each coordinate, so that both verdicts occur at every m.  The gap-route
    checks read no family vector, so build_gap_report is left out."""
    real = oracle.enumerate_classical_Gamma
    monkeypatch.setattr(oracle, "build_gap_report", lambda *args: {})
    verdicts = set()
    for dc in (dc for dc in sweep if dc.genus <= 60):
        for m in range(1, min(3, dc.max_m) + 1):
            bound, listing = 2 * dc.genus, real(dc, m)
            idx = index_generators(monomial_vectors_in_box(dc, m, default_box(dc, m, bound)))
            rest = gamma_hat_in_C(dc, m) | lambda_hat_in_C(dc, m) | set(enumerate_classical_Lambda(dc, m))
            i = len(listing) // 2
            moved = [listing[:i] + [listing[i][:r] + (listing[i][r] + d,) + listing[i][r + 1:]] + listing[i + 1:]
                     for r in range(m + 1) for d in (-1, 1)]
            for gamma in [listing, *moved]:
                monkeypatch.setattr(oracle, "enumerate_classical_Gamma", lambda dc, m, gamma=gamma: gamma)
                got = consistency_report(dc, m, bound)["families_in_closure"]
                assert got == all(in_lub_closure(idx, v) for v in rest.union(gamma)), (dc.params, m, gamma)
                verdicts.add((m, got))
    assert verdicts == set(product((1, 2, 3), (True, False)))


def test_consistency_report_calls_no_per_point_closure_test(y231, monkeypatch):
    """The families check strikes family vectors off the monomial set in one
    pass; it asks in_lub_closure about no point."""
    def refuse(*args):
        raise AssertionError("in_lub_closure called")

    monkeypatch.setattr(oracle, "in_lub_closure", refuse)
    for m in (1, 2):
        assert all(consistency_report(y231, m).values())


def test_default_box_holds_every_family_vector(sweep):
    """families_in_closure tests every closed-form family vector, so each must
    lie in the box whose monomials it is tested against, and the box reaches
    no further than the simplex needs: its upper corner is
    max(bound, the componentwise maximum of the four family listings).  On
    every sweep case with m <= 3 (g <= 2000 at m = 3) and m = 4 with
    g <= 60, and on instances outside the sweep at m <= 3."""
    outside = [curve("Y", q=5, n=3, s=1), curve("Y", q=5, n=3, s=21), curve("Y", q=8, n=3, s=19),
               curve("Y", q=9, n=3, s=73), curve("X", p=5, a=1, b=1, n=3, s=1)]
    checked = 0
    for dc, top_m in [(dc, 4) for dc in sweep] + [(dc, 3) for dc in outside]:
        for m in range(1, min(top_m, dc.max_m) + 1):
            if (m == 3 and dc.genus > 2000) or (m == 4 and dc.genus > 60):
                continue
            bound, box = 2 * dc.genus, default_box(dc, m, 2 * dc.genus)
            families = gamma_hat_in_C(dc, m) | lambda_hat_in_C(dc, m)
            families |= set(enumerate_classical_Gamma(dc, m)) | set(enumerate_classical_Lambda(dc, m))
            assert all(v in box for v in families), (dc.params, m)
            assert box.upper == tuple(max(bound, x) for x in map(max, zip(*families))), (dc.params, m)
            checked += 1
    assert checked == 72 + 13, checked


def test_closure_rows_read_no_family(sweep):
    """The closure check's verdict consults no family: on every sweep case
    with g <= 30 at m <= 3, _closure_rows gives the same rows over the
    monomials of the bare cube, upper corner (bound, ..., bound), as over
    those of default_box, whose corner the families size (past the cube
    in 10 of the 32 cases)."""
    cases = wider = 0
    for dc in sweep:
        if dc.genus > 30:
            continue
        bound = 2 * dc.genus
        for m in range(1, min(3, dc.max_m) + 1):
            upper, box = (bound,) * (m + 1), default_box(dc, m, bound)
            cube = Box(tuple(u - sum(upper) for u in upper), upper)
            bare = list(_closure_rows(monomial_vectors_in_box(dc, m, cube), m, bound))
            assert bare == list(_closure_rows(monomial_vectors_in_box(dc, m, box), m, bound)), (dc.params, m)
            cases += 1
            wider += box != cube
    assert cases == 32 and wider == 10, (cases, wider)


def _held_classes(table):
    """The classes of the tail (0, ..., 0) that hold a gap and whose next
    member, at C + E*k, lies in the simplex; for a tail of zeros the index
    of a class in table.counts is the class."""
    E, counts = table.E, table.counts
    return [C for C in range(E) if counts[C] and C + E * counts[C] <= table.bound]


def _moved(table, steps):
    """table with steps[C] added to the count of class C of the tail of zeros."""
    counts = bytearray(table.counts)
    for C, step in steps.items():
        counts[C] += step
    return gaps.GapTable(table.E, table.m, table.bound, bytes(counts), table.stray)


def test_closure_check_reads_the_threshold_scan(y231, monkeypatch):
    """A gap scan that loses a gap must fail the closure check: one count
    lowered by one drops the largest gap of its class."""
    real = gaps._threshold_scan

    def lossy(dc, m, bound, pure):
        out = real(dc, m, bound, pure)
        return out if pure else _moved(out, {_held_classes(out)[0]: -1})

    monkeypatch.setattr(gaps, "_threshold_scan", lossy)
    assert consistency_report(y231, 1)["closure_matches_membership"] is False


@pytest.mark.parametrize("also_lose", [False, True])
def test_closure_check_catches_a_scan_that_gains_a_member(y231, monkeypatch, also_lose):
    """A gap scan that gains a member must fail the closure check too: one
    count raised by one adds the next member of its class.  With a gap of
    another class lost as well the gap count agrees, so only the count by
    count comparison shows it."""
    real = gaps._threshold_scan

    def gaining(dc, m, bound, pure):
        out = real(dc, m, bound, pure)
        if pure:
            return out
        gain, lose = _held_classes(out)[:2]
        return _moved(out, {gain: 1, lose: -1} if also_lose else {gain: 1})

    monkeypatch.setattr(gaps, "_threshold_scan", gaining)
    assert consistency_report(y231, 1)["closure_matches_membership"] is False


def _per_point_non_members(gens, dim, bound):
    """The reference: every simplex point tested by in_lub_closure, on an
    index of whole buckets built here, independent of closure_difference's
    transform.  A generator with a coordinate above bound is below no
    simplex point, so leaving it out of the index changes no answer and
    keeps the probes short."""
    idx: dict = {}
    for g in gens:
        if max(g) <= bound:
            for r, x in enumerate(g):
                idx.setdefault((r, x), []).append(g)
    return {a for a in simplex_points(dim, bound) if not in_lub_closure(idx, a)}


def _assert_closure_matches(gens, dim, bound, e=None):
    """closure_difference finds no point apart from a table holding exactly
    the reference.  By default E = bound + 1: each class then holds one
    alpha_0, so any set of points is a union of class prefixes, and the
    table with the first or the last simplex point toggled differs there,
    on the side that holds it."""
    reference = _per_point_non_members(gens, dim, bound)
    assert closure_difference(gens, table_of(reference, bound + 1 if e is None else e, dim - 1, bound)) is None
    if e is None:
        for point in ((0,) * dim, (bound,) + (0,) * (dim - 1)):
            toggled = table_of(reference ^ {point}, bound + 1, dim - 1, bound)
            side = "closure" if point in reference else toggled
            assert closure_difference(gens, toggled) == (point, side), (gens, bound, point)


def test_closure_scan_matches_per_point_closure_on_sweep(sweep):
    """Every sweep case with g <= 30, at each m <= 3, on all the monomials of
    the default box at bound 2g, as consistency_report passes them, with the
    curve's e.  Instances that differ only in (n, s) but share q, p^b, M and
    g have the same monomials and bound, so each runs once."""
    seen = set()
    for dc in sweep:
        if dc.genus > 30:
            continue
        for m in range(1, min(3, dc.max_m) + 1):
            if (dc.q, dc.pb, dc.M, dc.genus, m) in seen:
                continue
            seen.add((dc.q, dc.pb, dc.M, dc.genus, m))
            bound = 2 * dc.genus
            mono = monomial_vectors_in_box(dc, m, default_box(dc, m, bound))
            _assert_closure_matches(mono, m + 1, bound, dc.e)
    assert len(seen) >= 19


@pytest.mark.parametrize(
    "gens, dim, bound",
    [
        ([(-3, 4), (5, -2), (0, 0)], 2, 6),  # negative coordinates
        ([(2, 1), (2, 3), (4, 1), (1, 2)], 2, 7),  # (2, 1) dominates (2, 3) and (4, 1)
        ([(2, 1, 0), (2, 1, 0), (0, 3, 3), (0, 3, 3)], 3, 8),  # duplicates
        ([(9, 0), (0, 9), (3, 3)], 2, 8),  # above bound
        # positive parts summing to 10 > 9 (below no simplex point) and to 9
        ([(-1, 5, 5), (4, -2, 6), (5, 5, -7), (4, -2, 5), (0, 0, 0)], 3, 9),
        ([(0, 0, 0), (1, 1, -4), (2, -1, 2), (-5, 2, 1)], 3, 6),
        ([(1, -1)], 2, 3),  # a negative affine coordinate attains nothing at 0
    ],
)
def test_closure_scan_matches_per_point_closure_by_hand(gens, dim, bound):
    _assert_closure_matches(gens, dim, bound)


def test_closure_scan_of_no_generators_is_the_whole_simplex():
    for dim, bound in ((2, 5), (3, 4)):
        whole = table_of(set(simplex_points(dim, bound)), bound + 1, dim - 1, bound)
        assert closure_difference([], whole) is None
        _assert_closure_matches([], dim, bound)


def test_closure_difference_names_a_non_member_above_its_class_prefix():
    """With E = 2 the non-members of the closure of (0, 0) and (1, 1) are no
    union of class prefixes: (2, 0) lies above the member (0, 0) of its
    class, and (3, 1) above (1, 1).  A table of their class prefixes differs
    from the closure first at (2, 0), a gap of the closure alone; with
    (2, 0) as the table's stray the table is named there instead.  With
    E = bound + 1 a table holds them all, and nothing differs."""
    gens, E, bound = [(0, 0), (1, 1)], 2, 4
    outside = _per_point_non_members(gens, 2, bound)
    above = {a for a in outside
             if any((b0, *a[1:]) not in outside for b0 in range(a[0] % E, a[0], E))}
    assert min(above) == (2, 0)
    prefixes = table_of(outside - above, E, 1, bound)
    assert closure_difference(gens, prefixes) == ((2, 0), "closure")
    claimed = gaps.GapTable(E, 1, bound, prefixes.counts, (2, 0))
    assert closure_difference(gens, claimed) == ((2, 0), claimed)
    assert closure_difference(gens, table_of(outside, bound + 1, 1, bound)) is None


def _expected_difference(reference, table):
    """The smallest point where the reference non-members and the gaps of
    table, its stray included, disagree, with the side that calls it a gap:
    table ahead of "closure" at the same point."""
    held = set(table)
    found = [(a, "closure") for a in reference - held] + [(a, table) for a in held - reference]
    found += [(table.stray, table)] if table.stray is not None else []
    return min(found, key=lambda f: (f[0], f[1] == "closure"), default=None)


def _mutants(table, rng):
    """Mutants of table: one count lowered, one raised with its next member
    in the simplex, both in two classes (the gap count then agrees), and
    table's counts with a stray above a class prefix."""
    E, tails = table.E, list(simplex_points(table.m, table.bound))
    counts = table.counts
    lowers = [i for i, k in enumerate(counts) if k]
    raises = [i for i, k in enumerate(counts) if i % E + E * k <= table.bound - sum(tails[i // E])]
    lose, gain = rng.choice(lowers), rng.choice(raises)
    while gain == lose:
        gain = rng.choice(raises)
    out = []
    for steps in ({lose: -1}, {gain: 1}, {gain: 1, lose: -1}):
        moved = bytearray(counts)
        for i, step in steps.items():
            moved[i] += step
        out.append(gaps.GapTable(E, table.m, table.bound, bytes(moved)))
    i = rng.choice(raises)
    above = (i % E + E * (counts[i] + 1), *tails[i // E])
    if sum(above) <= table.bound:
        out.append(gaps.GapTable(E, table.m, table.bound, counts, above))
    return out


def test_closure_difference_names_the_vector_and_the_side(sweep, monkeypatch):
    """Every sweep case with g <= 30 at m <= 2, on the monomials of the
    default box at bound 2g: for mutants of the complement route's table,
    with E = e and with CEILING patched to 1 (E = K*e, K > 1),
    closure_difference names the smallest point where the per-point
    reference and the table disagree, with the side that calls it a gap."""
    rng = random.Random(27)
    seen, sides, widened = set(), set(), 0
    for dc in sweep:
        if dc.genus > 30:
            continue
        for m in range(1, min(2, dc.max_m) + 1):
            if (dc.q, dc.pb, dc.M, dc.genus, m) in seen:
                continue
            seen.add((dc.q, dc.pb, dc.M, dc.genus, m))
            bound = 2 * dc.genus
            mono = monomial_vectors_in_box(dc, m, default_box(dc, m, bound))
            reference = _per_point_non_members(mono, m + 1, bound)
            tables = [gaps.gaps_via_complement(dc, m, bound)]
            with monkeypatch.context() as patch:
                patch.setattr(gaps, "CEILING", 1)
                tables.append(gaps.gaps_via_complement(dc, m, bound))
            widened += tables[-1].E > dc.e
            for table in tables:
                assert closure_difference(mono, table) is None
                for mutant in _mutants(table, rng):
                    expected = _expected_difference(reference, mutant)
                    assert expected is not None
                    assert closure_difference(mono, mutant) == expected, (dc.params, m, mutant.stray)
                    sides.add(expected[1] == "closure")
    assert len(seen) >= 15 and widened >= 10 and sides == {False, True}, (len(seen), widened, sides)


@pytest.mark.parametrize("family, params, m", [
    pytest.param("Y", dict(q=2, n=3, s=1), 1, id="Y231-1"),
    pytest.param("Y", dict(q=2, n=3, s=1), 2, id="Y231-2"),
    pytest.param("X", dict(p=2, a=2, b=1, n=5, s=41), 1, id="X221541-1"),
])
def test_closure_obeys_the_shift_law(family, params, m):
    """From the monomials alone, per point: (alpha_0, t) lies outside the
    lub closure iff (alpha_0 + e, t - e*u_j) does, for every t_j >= e, the
    law the threshold scan's shifted rows rely on."""
    dc = curve(family, **params)
    e, bound = dc.e, 2 * dc.genus + dc.e
    outside = _per_point_non_members(monomial_vectors_in_box(dc, m, default_box(dc, m, bound)), m + 1, bound)
    pairs = 0
    for a in simplex_points(m + 1, bound):
        for j in range(1, m + 1):
            if a[j] >= e:
                b = (a[0] + e, *a[1:j], a[j] - e, *a[j + 1:])
                assert (a in outside) == (b in outside), (a, b)
                pairs += 1
    assert pairs and any(max(a[1:]) >= e for a in outside)


def test_closure_rows_obey_the_shift_law(sweep):
    """The shift law by rows, from the monomials alone: on every sweep case
    with g <= 100 at m <= 3 whose simplex at bound 2g + e has at most 10^5
    tails (Y(3,3,1) at m = 3, with 1.98M, is left out), the closure's row of
    t is the row of t - e*u_j moved down by e, for every t_j >= e."""
    cases = pairs = moving = 0
    for dc in sweep:
        e, bound = dc.e, 2 * dc.genus + dc.e
        for m in range(1, min(3, dc.max_m) + 1):
            if dc.genus > 100 or comb(bound + m, m) > 10**5:
                continue
            mono = monomial_vectors_in_box(dc, m, default_box(dc, m, bound))
            rows = dict(zip(simplex_points(m, bound), _closure_rows(mono, m, bound)))
            for t, row in rows.items():
                for j, x in enumerate(t):
                    if x >= e:
                        assert row == rows[(*t[:j], x - e, *t[j + 1:])] >> e, (dc.params, m, t, j)
                        pairs += 1
                        moving += row != 0
            cases += 1
    assert cases == 39 and pairs > 80_000 and moving, (cases, pairs, moving)


def test_oracle_reads_no_private_name_of_gaps():
    """The closure check hands GapTable its rows: the oracle takes no
    private name of gaps, under its own name or another."""
    private = {name: value for name, value in vars(gaps).items()
               if name.startswith("_") and not name.startswith("__") and callable(value)}
    taken = [name for name, value in vars(oracle).items()
             if name in private or any(value is v for v in private.values())]
    assert not taken, taken


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda dim: st.tuples(
            st.lists(st.tuples(*[st.integers(-4, 9)] * dim), max_size=12),
            st.just(dim),
            st.integers(0, 9),
        )
    )
)
def test_closure_scan_matches_per_point_closure_random(case):
    _assert_closure_matches(*case)


def test_mutant_reaches_every_membership_decision(y231, drop_theta):
    """Under drop_theta the per-point entry points and the scan give one
    verdict on every simplex point at bound 2g, and the mutant shows."""
    for m in (1, 2):
        bound = 2 * y231.genus
        scan_gaps = gaps.gaps_via_complement(y231, m, bound)
        for a in simplex_points(m + 1, bound):
            member = a not in scan_gaps
            assert in_generalized_H(y231, m, a).member == member, (m, a)
            assert in_classical_H(y231, m, a) == member, (m, a)
        assert (0,) * (m + 1) in scan_gaps


def _whole_simplex_report(dc, m, bound):
    """The whole-simplex reference of consistency_report: each check on
    whole tables, as before the routes were compared on the blocks.  The
    closure against the whole complement table, every family vector by
    in_lub_closure over an index of the box's monomials, and both whole
    Lambda tables against the whole scan tables."""
    mono = monomial_vectors_in_box(dc, m, default_box(dc, m, bound))
    complement = gaps.gaps_via_complement(dc, m, bound)
    lam = enumerate_classical_Lambda(dc, m)
    families = gamma_hat_in_C(dc, m) | lambda_hat_in_C(dc, m) | set(enumerate_classical_Gamma(dc, m)) | set(lam)
    idx = index_generators(mono)
    checks = {
        "closure_matches_membership": closure_difference(mono, complement) is None,
        "families_in_closure": all(in_lub_closure(idx, v) for v in families),
        "gap_routes_agree": gaps.gaps_via_lambda(dc, m, bound) == complement,
        "pure_gap_routes_agree": gaps.pure_gaps_via_lambda(dc, m, bound) == gaps.pure_gaps_via_nabla(dc, m, bound),
        "lambda_count_formula": count_Lambda(dc, m) == len(lam) and lam == sorted(set(lam)),
        "gap_count_bound": len(complement) <= gaps.gap_count_upper_bound(dc, m),
    }
    if m == 1:
        checks["two_point_count_formula"] = gaps.count_gaps_two_points(dc) == len(complement)
    return checks


@pytest.mark.parametrize("mutant", [False, True])
def test_report_on_the_blocks_is_the_whole_simplex_reference(sweep, request, mutant):
    """consistency_report compares the routes and the closure on the blocks
    alone; its verdicts, keys in order, are the whole-simplex reference's on
    the sweep cases with g <= 60 at m <= 3, on the real curve (every verdict
    true) and under drop_theta (some false on every case)."""
    if mutant:
        request.getfixturevalue("drop_theta")
    cases = 0
    for dc in (dc for dc in sweep if dc.genus <= 60):
        for m in range(1, min(3, dc.max_m) + 1):
            report = consistency_report(dc, m)
            assert list(report.items()) == list(_whole_simplex_report(dc, m, 2 * dc.genus).items()), (dc.params, m)
            assert all(report.values()) != mutant, (dc.params, m, report)
            cases += 1
    assert cases == 34, cases
