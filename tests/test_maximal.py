"""Closed-form maximal-element families and the counting formula."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsgaps import maximal
from wsgaps.curves import curve, simplex_points
from wsgaps.errors import BadIndexPair, LengthMismatch, SelfCheckError
from wsgaps.gaps import gap_count_upper_bound
from wsgaps.maximal import (
    MaximalElement,
    coord0,
    count_classical,
    count_Lambda,
    enumerate_classical_Gamma,
    enumerate_classical_Lambda,
    gamma_hat_in_C,
    lambda_hat_in_C,
    pair_from_residue,
    realize,
    relative_shift,
    residues,
)

Y231_GAMMA_HAT = {
    (0, 0), (19, 1), (11, 2), (3, 3), (13, 4), (5, 5), (-3, 6), (7, 7), (-1, 8),
}
X21131_GAMMA_HAT = {
    (0, 0), (5, 1), (1, 2), (-3, 3), (2, 4), (-2, 5), (-6, 6), (-1, 7), (-5, 8),
}


def test_alpha_element(y231, x21131):
    """The fundamental-region member of the index pair (0, 1), i.e. rho = 1."""
    assert realize(y231, 1, MaximalElement(1, (0,))) == (19, 1)
    assert realize(x21131, 1, MaximalElement(1, (0,))) == (5, 1)
    assert realize(y231, 2, MaximalElement(1, (0, 0))) == (10, 1, 1)
    assert coord0(y231, 1, 1) == 19 and coord0(y231, 2, 0) == 0


def test_alpha_element_m_shift(sweep):
    for dc in sweep:
        for m in range(2, dc.max_m + 1):
            for rho in range(1, dc.e):
                assert coord0(dc, m, rho) == coord0(dc, m - 1, rho) - dc.e


def test_gamma_hat_in_C_y231(y231):
    assert gamma_hat_in_C(y231, 1) == Y231_GAMMA_HAT


def test_gamma_hat_in_C_x21131(x21131):
    assert gamma_hat_in_C(x21131, 1) == X21131_GAMMA_HAT


def test_gamma_hat_in_C_cardinality(sweep):
    for dc in sweep:
        for m in range(1, dc.max_m + 1):
            assert len(gamma_hat_in_C(dc, m)) == dc.e


def test_gamma_hat_in_C_no_dominated_coordinate_ties(sweep):
    """No absolute maximal may dominate another while agreeing with it in
    some coordinate: the smaller one would witness a nonempty nabla set of
    the larger.  (Strict domination in every coordinate can and does occur.)"""
    for dc in sweep:
        if dc.e > 120:
            continue
        vecs = sorted(gamma_hat_in_C(dc, min(2, dc.max_m)))
        for u in vecs:
            for v in vecs:
                if u != v and all(x <= y for x, y in zip(u, v)):
                    assert all(x < y for x, y in zip(u, v)), (u, v)


def test_lambda_hat_in_C(y231):
    assert lambda_hat_in_C(y231, 1) == Y231_GAMMA_HAT  # formulas coincide at m=1
    assert (9, 0, 0) in lambda_hat_in_C(y231, 2)
    assert len(lambda_hat_in_C(y231, 2)) == y231.e


def test_realize_examples(y231):
    assert realize(y231, 1, MaximalElement(1, (1,))) == (10, 10)
    assert realize(y231, 1, MaximalElement(0, (0,))) == (0, 0)
    assert realize(y231, 2, MaximalElement(0, (0, 0))) == (0, 0, 0)
    # relative maximals: absolute ones shifted by (m-1)e at P_inf
    assert relative_shift(y231, 1) == 0 and relative_shift(y231, 2) == y231.e
    assert _realize_relative(y231, 1, MaximalElement(1, (2,))) == (1, 19)
    assert _realize_relative(y231, 2, MaximalElement(0, (1, 0))) == (0, 9, 0)
    assert _realize_relative(y231, 2, MaximalElement(0, (0, 0))) == (9, 0, 0)


def _realize_relative(dc, m, elem):
    """The relative maximal of elem: its absolute vector plus relative_shift at P_inf."""
    v = realize(dc, m, elem)
    return (v[0] + relative_shift(dc, m),) + v[1:]


def test_realize_rejects_bad_inputs(y231):
    with pytest.raises(LengthMismatch):
        realize(y231, 1, MaximalElement(1, (1, 2)))
    with pytest.raises(BadIndexPair):  # rho = e is the excluded pair (q, M)
        realize(y231, 1, MaximalElement(y231.e, (0,)))
    with pytest.raises(BadIndexPair):
        realize(y231, 1, MaximalElement(-1, (0,)))


def _tau(dc, m, rho):
    """Largest shift sum keeping the first coordinate of the relative
    maximal member for rho nonnegative."""
    return (coord0(dc, m, rho) + relative_shift(dc, m)) // dc.e


def test_tau_examples(y231, x21131):
    for m in range(1, y231.max_m + 1):
        assert _tau(y231, m, 1) == 2  # pair (0, 1): (16 + 12 - 9) // 9
    for m in range(1, x21131.max_m + 1):
        assert _tau(x21131, m, 3) == -1  # pair (0, 3): (0 + 12 - 18) floored by 18
    with pytest.raises(BadIndexPair):
        _tau(y231, 1, y231.e)


def test_pair_from_residue_bijection(sweep):
    for dc in sweep:
        pairs = [(i, j) for i in range(dc.q + 1) for j in range(1, dc.M + 1)
                 if (i, j) != (dc.q, dc.M)]
        assert len(pairs) == dc.e - 1
        for pair in pairs:
            rho = pair[0] * dc.M + pair[1]
            assert 1 <= rho <= dc.e - 1
            assert pair_from_residue(dc, rho) == pair
        with pytest.raises(BadIndexPair):
            pair_from_residue(dc, 0)
        with pytest.raises(BadIndexPair):
            pair_from_residue(dc, dc.e)


Y231_CLASSICAL_M1 = [
    (0, 0), (1, 19), (2, 11), (3, 3), (4, 13), (5, 5),
    (7, 7), (10, 10), (11, 2), (13, 4), (19, 1),
]


def test_classical_gamma_y231(y231):
    assert enumerate_classical_Gamma(y231, 1) == Y231_CLASSICAL_M1


def test_classical_gamma_x21131(x21131):
    assert enumerate_classical_Gamma(x21131, 1) == [(0, 0), (1, 2), (2, 4), (5, 1)]


def test_classical_gamma_nonnegative(sweep):
    for dc in sweep[:6]:
        for v in enumerate_classical_Gamma(dc, 1):
            assert all(x >= 0 for x in v)


def test_classical_lambda_y231(y231):
    lam = enumerate_classical_Lambda(y231, 1)
    assert lam == Y231_CLASSICAL_M1
    assert len(lam) == 11


def test_classical_lambda_x21131(x21131):
    assert enumerate_classical_Lambda(x21131, 1) == [(0, 0), (1, 2), (2, 4), (5, 1)]


def test_classical_lambda_m2_contains(y231):
    lam = enumerate_classical_Lambda(y231, 2)
    assert (0, 9, 0) in lam and (9, 0, 0) in lam


def test_count_lambda_examples(y231, x21131):
    assert count_Lambda(y231, 1) == 11
    assert count_Lambda(x21131, 1) == 4


def test_count_lambda_matches_enumeration(sweep):
    for dc in sweep:
        if dc.genus > 600:
            continue
        for m in range(1, min(2, dc.max_m) + 1):
            assert count_Lambda(dc, m) == len(set(enumerate_classical_Lambda(dc, m)))


def _brute_force_listing(dc, m, shift):
    """Every realization translated by shift at P_inf whose coordinates are
    all >= 0, from realize over each residue and every shift vector whose
    sum keeps the first coordinate >= 0, deduplicated and sorted."""
    found = set()
    for rho in range(dc.e):
        for ks in simplex_points(m, max(0, (coord0(dc, m, rho) + shift) // dc.e)):
            v = realize(dc, m, MaximalElement(rho, ks))
            v = (v[0] + shift,) + v[1:]
            if min(v) >= 0:
                found.add(v)
    return sorted(found)


def test_classical_listings_are_the_sorted_realizations(sweep):
    """Both classical listings, built in order, equal the sorted set of
    brute-force realizations and are strictly increasing: every sweep case
    with g <= 600, at every m."""
    checked = 0
    for dc in sweep:
        if dc.genus > 600:
            continue
        for m in range(1, dc.max_m + 1):
            for listing, shift in ((enumerate_classical_Gamma, 0),
                                   (enumerate_classical_Lambda, relative_shift(dc, m))):
                got = listing(dc, m)
                assert got == _brute_force_listing(dc, m, shift), (dc.params, m, listing.__name__)
                assert all(u < v for u, v in zip(got, got[1:])), (dc.params, m, listing.__name__)
                checked += 1
    assert checked >= 100


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_tails_join_tuple_and_string_pieces_alike(parts):
    """_tails joins the pieces it is given in one order: its string tails
    are its tuple tails with each coordinate rendered, and the tuple tails
    of sum R are the shift vectors of sum R in lexicographic order."""
    e, rho, top = 7, 3, 6
    tuples = maximal._tails([(k * e + rho,) for k in range(top + 1)], parts)
    strings = maximal._tails([f",{k * e + rho}" for k in range(top + 1)], parts)
    assert strings == [["".join(f",{y}" for y in tail) for tail in row] for row in tuples]
    assert tuples == [[tuple(k * e + rho for k in ks) for ks in simplex_points(parts, r) if sum(ks) == r]
                      for r in range(top + 1)]


def test_residues_hold_one_residue_per_class(sweep):
    """residues holds, for every class c in [0, e - 1], exactly one residue
    rho and its top, with coord0 + shift = c + e*top; count_classical of it
    is the length of the classical listing, and the vectors
    (c + e*top, rho, ..., rho) are the fundamental-region set.  Every
    sweep case at every m and both shifts; listings up to g <= 600."""
    for dc in sweep:
        for m in range(1, dc.max_m + 1):
            for shift, listing, in_C in ((0, enumerate_classical_Gamma, gamma_hat_in_C),
                                         (relative_shift(dc, m), enumerate_classical_Lambda, lambda_hat_in_C)):
                rhos, tops = residues(dc, m, shift)
                assert len(rhos) == len(tops) == dc.e
                assert sorted(rhos) == list(range(dc.e)), (dc.params, m, shift)
                assert all(c + dc.e * top == coord0(dc, m, rho) + shift
                           for c, (rho, top) in enumerate(zip(rhos, tops))), (dc.params, m, shift)
                assert in_C(dc, m) == {(c + dc.e * top,) + (rho,) * m for c, (rho, top) in enumerate(zip(rhos, tops))}
                if dc.genus <= 600:
                    assert count_classical((rhos, tops), m) == len(listing(dc, m)), (dc.params, m, shift)


def test_shared_first_coordinate_class_is_a_defect(y231, monkeypatch):
    """Two residues whose first coordinates agree mod e would list the same
    first coordinate twice at m = 1; residues, and with it every listing,
    count and box-volume sum of the formula side, refuses, as for any
    self-check, instead of emitting them out of order.  The check runs
    over all e residues, also those with no classical vector: rho = 6 of
    Y(2,3,1) has coord0 = -3, top = -1 and class 6."""
    real = maximal.coord0
    monkeypatch.setattr(maximal, "coord0", lambda dc, m, rho: real(dc, m, 1) if rho == 2 else real(dc, m, rho))
    with pytest.raises(SelfCheckError, match="residues 1 and 2 of .* share the class 1 "):
        residues(y231, 1, 0)
    for formula in (enumerate_classical_Gamma, count_Lambda, gamma_hat_in_C, lambda_hat_in_C,
                    gap_count_upper_bound):
        with pytest.raises(SelfCheckError, match="share the class"):
            formula(y231, 1)
    monkeypatch.setattr(maximal, "coord0", lambda dc, m, rho: real(dc, m, 6) if rho == 7 else real(dc, m, rho))
    with pytest.raises(SelfCheckError, match="residues 6 and 7 of .* share the class 6 "):
        residues(y231, 1, 0)


def test_delta_lambda_zero_injective(y231):
    """Collision scan over bounded shift parameters: distinct family
    parameters always realize distinct relative maximal vectors."""
    seen = {}
    for m in (1, 2):
        seen.clear()
        elems = [MaximalElement(rho, ks) for rho in range(y231.e) for ks in _all_ks(m, 3)]
        for elem in elems:
            v = _realize_relative(y231, m, elem)
            assert seen.setdefault(v, elem) == elem


def _all_ks(m, hi):
    if m == 1:
        return [(k,) for k in range(hi + 1)]
    return [(k1, k2) for k1 in range(hi + 1) for k2 in range(hi + 1)]


@settings(max_examples=150)
@given(st.integers(0, 7), st.integers(0, 5), st.integers(0, 5))
def test_gamma_family_coordinates(rho_off, k1, k2):
    """Realized GammaFamily vectors carry the index-pair residue in every
    affine coordinate and respect the shift lattice."""
    dc = curve("Y", q=2, n=3, s=1)
    rho = rho_off + 1  # in [1, e-1]
    v = realize(dc, 2, MaximalElement(rho, (k1, k2)))
    assert v[1] == k1 * dc.e + rho
    assert v[2] == k2 * dc.e + rho
    base = realize(dc, 2, MaximalElement(rho, (0, 0)))
    assert v[0] == base[0] - (k1 + k2) * dc.e
