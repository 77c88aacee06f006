"""Brute-force reconstruction from monomial valuations and lub closure."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsgaps import gaps, oracle
from wsgaps.curves import MonomialExponents, monomial_valuation, simplex_points
from wsgaps.errors import BadBox
from wsgaps.maximal import (
    enumerate_classical_Gamma,
    enumerate_classical_Lambda,
    gamma_hat_in_C,
    lambda_hat_in_C,
)
from wsgaps.membership import in_classical_H, in_generalized_H
from wsgaps.oracle import (
    Box,
    closure_table,
    consistency_report,
    count_monomials_in_box,
    default_box,
    in_lub_closure,
    index_generators,
    lub_closure,
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
    each c_l over the range its own coordinate allows and no other bound."""
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


def test_monomial_count_is_the_monomials_built(sweep, monkeypatch):
    """count_monomials_in_box equals the number of monomial_valuation calls
    of monomial_vectors_in_box, and at m = max_m the number of vectors, on
    the sweep instances with g <= 30 at every m, at bounds 0, 2g and 2g + 7,
    where the box holds at most 20,000 monomials."""
    calls = []
    real = oracle.monomial_valuation
    monkeypatch.setattr(oracle, "monomial_valuation", lambda *a: calls.append(1) or real(*a))
    checked = []  # per case: at m = max_m >= 2, where vectors and monomials correspond
    for dc in sweep:
        if dc.genus > 30:
            continue
        for m in range(1, dc.max_m + 1):
            for bound in (0, 2 * dc.genus, 2 * dc.genus + 7):
                box = default_box(dc, m, bound)
                count = count_monomials_in_box(dc, m, box)
                if count > 20_000:
                    continue
                calls.clear()
                vectors = monomial_vectors_in_box(dc, m, box)
                assert count == len(calls) >= len(vectors), (dc.params, m, bound)
                assert count == len(vectors) or m < dc.max_m, (dc.params, m, bound)
                checked.append(m == dc.max_m >= 2)
    assert len(checked) >= 60 and any(checked)
    empty = Box((-30, -30), (-5, -5))
    assert count_monomials_in_box(sweep[0], 1, empty) == len(monomial_vectors_in_box(sweep[0], 1, empty)) == 0


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


def test_default_box_holds_every_family_vector(sweep):
    """families_in_closure tests every closed-form family vector, so each must
    lie in the box whose monomials it is tested against: every sweep case
    with m <= 3 (g <= 2000 at m = 3) and m = 4 with g <= 60."""
    checked = 0
    for dc in sweep:
        for m in range(1, min(4, dc.max_m) + 1):
            if (m == 3 and dc.genus > 2000) or (m == 4 and dc.genus > 60):
                continue
            box = default_box(dc, m, 2 * dc.genus)
            families = gamma_hat_in_C(dc, m) | lambda_hat_in_C(dc, m)
            families |= set(enumerate_classical_Gamma(dc, m)) | set(enumerate_classical_Lambda(dc, m))
            assert all(v in box for v in families), (dc.params, m)
            checked += 1
    assert checked >= 65


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
    index of whole buckets built here, independent of closure_table's
    transform.  A generator with a coordinate above bound is below no
    simplex point, so leaving it out of the index changes no answer and
    keeps the probes short."""
    idx: dict = {}
    for g in gens:
        if max(g) <= bound:
            for r, x in enumerate(g):
                idx.setdefault((r, x), []).append(g)
    return {a for a in simplex_points(dim, bound) if not in_lub_closure(idx, a)}


def _assert_table_matches(gens, dim, bound, e=None):
    """closure_table equals the reference, with no stray.  By default
    e = bound + 1: each class then holds one alpha_0, so any set of points
    is a union of class prefixes and the table holds it exactly."""
    table = closure_table(gens, bound + 1 if e is None else e, dim - 1, bound)
    assert table.stray is None, (gens, bound)
    assert set(table) == _per_point_non_members(gens, dim, bound), (gens, bound)


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
            _assert_table_matches(mono, m + 1, bound, dc.e)
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
    _assert_table_matches(gens, dim, bound)


def test_closure_scan_of_no_generators_is_the_whole_simplex():
    for dim, bound in ((2, 5), (3, 4)):
        assert set(closure_table([], bound + 1, dim - 1, bound)) == set(simplex_points(dim, bound))
        _assert_table_matches([], dim, bound)


def test_closure_table_names_a_non_member_above_its_class_prefix():
    """With e = 2 the non-members of the closure of (0, 0) and (1, 1) are no
    union of class prefixes: (2, 0) lies above the member (0, 0) of its
    class, and (3, 1) above (1, 1).  The smallest such point is the stray,
    and the table equals no stray-free table, not even one with its counts."""
    gens, e, bound = [(0, 0), (1, 1)], 2, 4
    table = closure_table(gens, e, 1, bound)
    outside = _per_point_non_members(gens, 2, bound)
    above = [a for a in outside
             if any((b0, *a[1:]) not in outside for b0 in range(a[0] % e, a[0], e))]
    assert table.stray == min(above) == (2, 0)
    stray_free = gaps.GapTable(e, 1, bound, table.counts)
    assert table != stray_free
    assert table.first_difference(stray_free) == ((2, 0), table)


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
    _assert_table_matches(*case)


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
