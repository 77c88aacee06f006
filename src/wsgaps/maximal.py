"""Closed-form families of maximal elements of the generalized semigroup.

Two parameterized families are realized as integer vectors indexed by
(P_inf, P_1, ..., P_m):

* GammaFamily -- absolute maximal elements (index pair + lattice shifts);
* ThetaFamily -- the pure lattice translates of the zero vector, which are
                 absolute maximal as well (only constants have no poles).

Together they are the absolute maximal elements.  Every relative maximal
element is an absolute one translated by relative_shift(dc, m) = (m-1)e at
P_inf, so the relative side needs no family of its own: realize takes that
shift as an argument.

Index pairs (i, j) run over [0, q] x [1, M] minus (q, M); the map
(i, j) -> i*M + j is a bijection onto [1, (q+1)M - 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .curves import DerivedConstants, check_m, simplex_points
from .errors import BadIndexPair, LengthMismatch


@dataclass(frozen=True)
class GammaFamily:
    pair: tuple[int, int]
    ks: tuple[int, ...]


@dataclass(frozen=True)
class ThetaFamily:
    ks: tuple[int, ...]


MaximalElement = GammaFamily | ThetaFamily


def check_pair(dc: DerivedConstants, pair: tuple[int, int]) -> None:
    i, j = pair
    if not (0 <= i <= dc.q and 1 <= j <= dc.M) or (i, j) == (dc.q, dc.M):
        raise BadIndexPair(f"(i, j) = {pair} outside [0,{dc.q}] x [1,{dc.M}] \\ ({dc.q},{dc.M})")


def index_pairs(dc: DerivedConstants):
    """All admissible (i, j), in lexicographic order."""
    for i in range(dc.q + 1):
        for j in range(1, dc.M + 1):
            if (i, j) != (dc.q, dc.M):
                yield (i, j)


def pair_from_residue(dc: DerivedConstants, rho: int) -> tuple[int, int]:
    """Inverse of (i, j) -> i*M + j for rho in [1, e - 1]."""
    if not 1 <= rho <= dc.e - 1:
        raise BadIndexPair(f"residue {rho} outside [1, {dc.e - 1}]")
    i = (rho - 1) // dc.M
    return (i, rho - i * dc.M)


def alpha_coord0(dc: DerivedConstants, m: int, pair: tuple[int, int]) -> int:
    """First coordinate of the GammaFamily member for pair with zero shifts."""
    i, j = pair
    return ((dc.q**2 - m * dc.pb) * dc.e - i * dc.q * dc.M - j * dc.q**3) // dc.pb


def relative_shift(dc: DerivedConstants, m: int) -> int:
    """The translation at P_inf taking absolute maximal elements to relative ones."""
    return (m - 1) * dc.e


def realize(
    dc: DerivedConstants, m: int, elem: MaximalElement, shift: int = 0
) -> tuple[int, ...]:
    """Evaluate a tagged family member to its point vector, translated by
    shift at P_inf (relative_shift(dc, m) for a relative maximal element)."""
    check_m(dc, m)
    ks = elem.ks
    if len(ks) != m:
        raise LengthMismatch(f"expected {m} shift parameters, got {len(ks)}")
    if isinstance(elem, ThetaFamily):
        c0, rho = 0, 0
    else:
        check_pair(dc, elem.pair)
        i, j = elem.pair
        c0, rho = alpha_coord0(dc, m, elem.pair), i * dc.M + j
    return (c0 + shift - sum(ks) * dc.e,) + tuple(k * dc.e + rho for k in ks)


def alpha_element(dc: DerivedConstants, m: int, pair: tuple[int, int]) -> tuple[int, ...]:
    """The absolute maximal element in the fundamental region for (i, j)."""
    return realize(dc, m, GammaFamily(pair, (0,) * m))


def gamma_hat_in_C(dc: DerivedConstants, m: int) -> set[tuple[int, ...]]:
    """Absolute maximals inside the fundamental region: e vectors incl. 0."""
    check_m(dc, m)
    out = {(0,) * (m + 1)}
    for pair in index_pairs(dc):
        out.add(alpha_element(dc, m, pair))
    return out


def lambda_hat_in_C(dc: DerivedConstants, m: int) -> set[tuple[int, ...]]:
    """Relative maximals inside the fundamental region: e vectors."""
    shift = relative_shift(dc, m)
    return {(v[0] + shift,) + v[1:] for v in gamma_hat_in_C(dc, m)}


def tau(dc: DerivedConstants, pair: tuple[int, int]) -> int:
    """Largest shift sum keeping the first coordinate of the relative maximal
    GammaFamily realization for pair nonnegative; the same at every m, since
    the relative shift cancels the m-dependence of alpha_coord0.

    Floor division toward -inf, so negative first coordinates exclude the pair.
    """
    check_pair(dc, pair)
    return alpha_coord0(dc, 1, pair) // dc.e


def _enumerate_classical(dc: DerivedConstants, m: int, shift: int) -> set[tuple[int, ...]]:
    """Realizations translated by shift at P_inf with every coordinate >= 0.

    Coordinates 1..m are nonnegative iff every k is; the first coordinate,
    alpha_coord0 (0 for ThetaFamily) + shift - e*sum(ks), bounds the shift sum.
    """
    check_m(dc, m)
    out = set()
    for ks in simplex_points(m, shift // dc.e):
        out.add(realize(dc, m, ThetaFamily(ks), shift))
    for pair in index_pairs(dc):
        for ks in simplex_points(m, (alpha_coord0(dc, m, pair) + shift) // dc.e):
            out.add(realize(dc, m, GammaFamily(pair, ks), shift))
    return out


def enumerate_classical_Gamma(dc: DerivedConstants, m: int) -> set[tuple[int, ...]]:
    """Absolute maximals with all coordinates >= 0 (the zero vector included)."""
    return _enumerate_classical(dc, m, 0)


def enumerate_classical_Lambda(dc: DerivedConstants, m: int) -> set[tuple[int, ...]]:
    """Relative maximals with all coordinates >= 0."""
    return _enumerate_classical(dc, m, relative_shift(dc, m))


def count_Lambda(dc: DerivedConstants, m: int) -> int:
    """Closed-form cardinality of the classical relative-maximal set."""
    check_m(dc, m)
    total = comb(2 * m - 1, m)
    for pair in index_pairs(dc):
        t = tau(dc, pair)
        if t >= 0:
            total += comb(t + m, m)
    return total
