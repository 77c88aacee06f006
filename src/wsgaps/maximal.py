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

Every consumer on the formula side reads the e residues from one O(e)
pass, residues(dc, m, shift): per class c of the first coordinate mod e,
the rho and the top with coord0 + shift = c + e*top.  The fundamental-
region sets (gamma_hat_in_C, lambda_hat_in_C) are the vectors
(c + e*top, rho, ..., rho); the classical listings (every coordinate
>= 0) take the residues with top >= 0, whose shift sums run over
[0, top]; count_classical sums over them, gaps.gap_count_upper_bound sums
their box volumes, and walk_classical orders them: first coordinate x
ascending, one vector per (rho, ks) and at each x the shift vectors in
lexicographic order.  Distinct parameters realize distinct vectors, so no
set removes repeats, and the order follows from the closed form, so
nothing sorts them.  The walk decides the order and nothing else:
_enumerate_classical builds each vector of a residue from its shift
vectors (curves.simplex_points), the listings `verify` checks.  The
command line counts and prices a listing from the same residues and
writes its rows in the walk's order without building a vector: at
m = 1 through the walk, one row per first coordinate, and above from
text of its own (cli._sum_blocks), one string per residue and shift sum.
The command line's fundamental-region listing streams from the residues
too.  Membership reads the same arrays at shift 0, from a call of its own
(membership._residue_tables), so it never shares an instance with this
side.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from math import comb

from .curves import DerivedConstants, check_m, simplex_points
from .errors import BadIndexPair, LengthMismatch, SelfCheckError


class MaximalElement(namedtuple("MaximalElement", "rho ks")):
    __slots__ = ()


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


def _hat_in_C(dc: DerivedConstants, m: int, shift: int) -> set[tuple[int, ...]]:
    """The e maximals translated by shift inside the fundamental region,
    read off residues: (c + e*top, rho, ..., rho) for each class c."""
    return {(c + dc.e * top,) + (rho,) * m for c, (rho, top) in enumerate(zip(*residues(dc, m, shift)))}


def gamma_hat_in_C(dc: DerivedConstants, m: int) -> set[tuple[int, ...]]:
    """Absolute maximals inside the fundamental region: e vectors incl. 0."""
    return _hat_in_C(dc, m, 0)


def lambda_hat_in_C(dc: DerivedConstants, m: int) -> set[tuple[int, ...]]:
    """Relative maximals inside the fundamental region: e vectors."""
    return _hat_in_C(dc, m, relative_shift(dc, m))


def residues(dc: DerivedConstants, m: int, shift: int) -> tuple[array, array]:
    """The e residues translated by shift at P_inf, in O(e), as two arrays
    indexed by class: rhos[c] and tops[c] for the residue rho with
    coord0 + shift = c + e*top, c in [0, e - 1].

    The e first coordinates coord0 fall in distinct classes mod e, so each
    class holds exactly one residue: two live residues of one class would
    list its first coordinate twice at m = 1, and membership, which builds
    its own instance of these arrays (membership._residue_tables), could
    not invert them.  coord0 drops by e per unit of m, so the
    class of a residue is the same at every m and for both shifts.  A
    shared class is a defect, as in gaps.count_gaps_two_points, and raises
    SelfCheckError.

    The classical listing (every coordinate >= 0) of a residue takes the
    shift vectors ks with sum(ks) <= top: its first coordinate is
    c + e*(top - sum(ks)).  So a residue with top < 0 lists nothing, and a
    residue listed at m > 1 is listed at m = 1.
    """
    check_m(dc, m)
    e = dc.e
    rhos, tops = array("q", [-1]) * e, array("q", bytes(8 * e))
    for rho in range(e):
        top, c = divmod(coord0(dc, m, rho) + shift, e)
        if rhos[c] >= 0:
            raise SelfCheckError(f"residues {rhos[c]} and {rho} of {dc.params} at m = {m} share "
                                 f"the class {c} of the first coordinate mod e")
        rhos[c], tops[c] = rho, top
    return rhos, tops


def walk_classical(residues: tuple[array, array]):
    """The order of the classical listing of residues (the residues
    arrays): the first coordinate x ascending.

    Yields (i, live) for i = 0, 1, ...: live holds (c, rho, top) for each
    residue with top >= i, c ascending, and stands for the first
    coordinates x = c + e*i, whose vectors have shift sum s = top - i.

    Coordinates 1..m are nonnegative iff every k is, and x = c + e*i
    belongs to the shifts of sum top - i.  So the walk takes x upwards, i
    outer and c inner; each x has one rho, as no two residues share a
    class.  At one x, coordinate j is k_j*e + rho, so the vectors of x are
    in lexicographic order when their shift vectors are.  Vectors differ in rho
    (coordinate 1 mod e) or in some k, so none repeats, and nothing is
    sorted.
    """
    live = [(c, rho, top) for c, (rho, top) in enumerate(zip(*residues)) if top >= 0]
    for i in range(max(residues[1]) + 1):
        live = [entry for entry in live if entry[2] >= i]
        yield i, live


def _enumerate_classical(dc: DerivedConstants, m: int, shift: int) -> list[tuple[int, ...]]:
    """The vectors of walk_classical in its order, lexicographic.  Above
    m = 1 the vectors of x with shift sum s take (k_1, ..., k_(m-1)) from
    simplex_points(m - 1, s), in lexicographic order, and k_m = s - sum."""
    e = dc.e
    out = []
    for i, live in walk_classical(residues(dc, m, shift)):
        if m == 1:
            out += [(c + e * i, (top - i) * e + rho) for c, rho, top in live]
            continue
        for c, rho, top in live:
            x, s = c + e * i, top - i
            out += [(x, *[k * e + rho for k in ks], (s - sum(ks)) * e + rho) for ks in simplex_points(m - 1, s)]
    return out


def enumerate_classical_Gamma(dc: DerivedConstants, m: int) -> list[tuple[int, ...]]:
    """Absolute maximals with all coordinates >= 0 (the zero vector
    included), in lexicographic order."""
    return _enumerate_classical(dc, m, 0)


def enumerate_classical_Lambda(dc: DerivedConstants, m: int) -> list[tuple[int, ...]]:
    """Relative maximals with all coordinates >= 0, in lexicographic order."""
    return _enumerate_classical(dc, m, relative_shift(dc, m))


def count_classical(residues: tuple[array, array], m: int) -> int:
    """Closed-form length of the classical listing of residues (the
    residues arrays): the shift sums of a residue with top >= 0 run over
    [0, top], and comb(top + m, m) shift vectors have sum <= top."""
    return sum(comb(top + m, m) for top in residues[1] if top >= 0)


def count_Lambda(dc: DerivedConstants, m: int) -> int:
    """Closed-form cardinality of the classical relative-maximal set
    (count_classical at the relative shift), in O(e).  Each top is the same
    at every m, since the relative shift cancels the m-dependence of coord0."""
    return count_classical(residues(dc, m, relative_shift(dc, m)), m)
