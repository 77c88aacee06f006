"""Brute-force reconstruction from monomial valuations and lub closure."""

from itertools import product

import pytest

from wsgaps import gaps
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
    consistency_report,
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
            families |= enumerate_classical_Gamma(dc, m) | enumerate_classical_Lambda(dc, m)
            assert all(v in box for v in families), (dc.params, m)
            checked += 1
    assert checked >= 65


def test_closure_check_reads_the_threshold_scan(y231, monkeypatch):
    """A gap scan that loses its smallest gap must fail the closure check."""
    real = gaps._threshold_scan

    def lossy(dc, m, bound, pure):
        out = real(dc, m, bound, pure)
        if not pure:
            out.discard(min(out))
        return out

    monkeypatch.setattr(gaps, "_threshold_scan", lossy)
    assert consistency_report(y231, 1)["closure_matches_membership"] is False


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
