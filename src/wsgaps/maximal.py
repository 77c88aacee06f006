"""Closed-form maximal elements of the generalized semigroup.

A maximal element is MaximalElement(rho, ks): a residue rho in [0, e - 1]
and shifts ks = (k_1, ..., k_m), realized at (P_inf, P_1, ..., P_m) as

    (coord0(dc, m, rho) - e*sum(ks), k_1*e + rho, ..., k_m*e + rho).

rho = 0 is the Theta family, the pure lattice translates of the zero vector
(only constants have no poles), with coord0 = 0.  Every other rho is the
Gamma family member of the index pair (i, j) = pair_from_residue(dc, rho):
pairs run over [0, q] x [1, M] minus (q, M), and (i, j) -> i*M + j is a
bijection onto [1, e - 1].  coord0 is the only code that tells the two
families apart; together they are the absolute maximal elements.

Every relative maximal element is an absolute one translated by
relative_shift(dc, m) = (m-1)e at P_inf, so the relative side needs no
family of its own: realize gives the absolute vector, and the relative
side adds the shift to its first coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .curves import DerivedConstants, check_m, simplex_points
from .errors import BadIndexPair, LengthMismatch


@dataclass(frozen=True)
class MaximalElement:
    rho: int
    ks: tuple[int, ...]


def pair_from_residue(dc: DerivedConstants, rho: int) -> tuple[int, int]:
    """Inverse of (i, j) -> i*M + j for rho in [1, e - 1]."""
    if not 1 <= rho <= dc.e - 1:
        raise BadIndexPair(f"residue {rho} outside [1, {dc.e - 1}]")
    i = (rho - 1) // dc.M
    return (i, rho - i * dc.M)


def coord0(dc: DerivedConstants, m: int, rho: int) -> int:
    """First coordinate of the member for rho with zero shifts: 0 for the
    Theta family (rho = 0), else the Gamma family formula on its index pair."""
    if rho == 0:
        return 0
    i, j = pair_from_residue(dc, rho)
    return ((dc.q**2 - m * dc.pb) * dc.e - i * dc.q * dc.M - j * dc.q**3) // dc.pb


def relative_shift(dc: DerivedConstants, m: int) -> int:
    """The translation at P_inf taking absolute maximal elements to relative ones."""
    return (m - 1) * dc.e


def realize(dc: DerivedConstants, m: int, elem: MaximalElement) -> tuple[int, ...]:
    """Evaluate a maximal element to its point vector."""
    check_m(dc, m)
    ks, rho = elem.ks, elem.rho
    if len(ks) != m:
        raise LengthMismatch(f"expected {m} shift parameters, got {len(ks)}")
    return (coord0(dc, m, rho) - sum(ks) * dc.e,) + tuple(k * dc.e + rho for k in ks)


def gamma_hat_in_C(dc: DerivedConstants, m: int) -> set[tuple[int, ...]]:
    """Absolute maximals inside the fundamental region: e vectors incl. 0."""
    check_m(dc, m)
    return {(coord0(dc, m, rho),) + (rho,) * m for rho in range(dc.e)}


def lambda_hat_in_C(dc: DerivedConstants, m: int) -> set[tuple[int, ...]]:
    """Relative maximals inside the fundamental region: e vectors."""
    shift = relative_shift(dc, m)
    return {(v[0] + shift,) + v[1:] for v in gamma_hat_in_C(dc, m)}


def _enumerate_classical(dc: DerivedConstants, m: int, shift: int) -> set[tuple[int, ...]]:
    """Realizations translated by shift at P_inf with every coordinate >= 0.

    Coordinates 1..m are nonnegative iff every k is; the first coordinate,
    coord0 + shift - e*sum(ks), bounds the shift sum by (coord0 + shift)//e.
    """
    check_m(dc, m)
    e = dc.e
    out = set()
    for rho in range(e):
        c = coord0(dc, m, rho) + shift
        for ks in simplex_points(m, c // e):
            out.add((c - e * sum(ks),) + tuple(k * e + rho for k in ks))
    return out


def enumerate_classical_Gamma(dc: DerivedConstants, m: int) -> set[tuple[int, ...]]:
    """Absolute maximals with all coordinates >= 0 (the zero vector included)."""
    return _enumerate_classical(dc, m, 0)


def enumerate_classical_Lambda(dc: DerivedConstants, m: int) -> set[tuple[int, ...]]:
    """Relative maximals with all coordinates >= 0."""
    return _enumerate_classical(dc, m, relative_shift(dc, m))


def count_Lambda(dc: DerivedConstants, m: int) -> int:
    """Closed-form cardinality of the classical relative-maximal set: the
    shift sums of the member for rho run over [0, T] with
    T = (coord0 + relative_shift)//e (floored, so T < 0 excludes rho), and
    comb(T + m, m) shift vectors have sum <= T.  T is the same at every m,
    since the relative shift cancels the m-dependence of coord0."""
    check_m(dc, m)
    shift = relative_shift(dc, m)
    ts = [(coord0(dc, m, rho) + shift) // dc.e for rho in range(dc.e)]
    return sum(comb(t + m, m) for t in ts if t >= 0)
