"""Partial order, least upper bounds and semigroup membership decisions.

Membership in the generalized semigroup is decided coordinate by
coordinate: a vector belongs iff every coordinate r admits an absolute
maximal element agreeing with it at r and dominated elsewhere.  Because
every absolute maximal element is MaximalElement(rho, ks) with rho in
[0, e - 1], the residue of the target coordinate mod e = (q+1)M forces rho,
and a witness exists iff one closed-form inequality holds; no box
enumeration is involved.

Everything reads one cached residue table and one slack formula.  The
table is membership's own instance of the formula side's residues
(maximal.residues: per class c of the first coordinate mod e, the rho
there and its top), with the inverse classes[rho] added; the formula side
builds its instances separately, so a defect planted in this one reaches
the membership decisions and never Lambda.  Per point, nabla_witness
builds the witness (caps, first unpinned shift lowered by the slack) for
in_generalized_H, in_classical_H, the one-point gaps and `wsgaps member`.
Gap tables come from the threshold scan in gaps.py, which solves the
inequality for alpha_0 once per tail.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from functools import lru_cache

from .curves import DerivedConstants, check_m
from .errors import EmptyInput, LengthMismatch, SelfCheckError
from .maximal import MaximalElement, realize, residues


class MembershipVerdict(namedtuple("MembershipVerdict", "member witnesses failing_coordinate")):
    """witnesses holds one MaximalElement per coordinate when member, else
    None; failing_coordinate is the first coordinate without one, else None."""

    __slots__ = ()


def lub(vectors) -> tuple[int, ...]:
    """Componentwise maximum of a nonempty collection of equal-length vectors."""
    vectors = list(vectors)
    if not vectors:
        raise EmptyInput("lub of an empty collection")
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise LengthMismatch("vectors of unequal length")
    return tuple(max(v[i] for v in vectors) for i in range(n))


@lru_cache(maxsize=None)
def _residue_tables(dc: DerivedConstants, m: int) -> tuple[array, array, array]:
    """The maximal element each coordinate residue forces, as three arrays:
    rhos[c] and tops[c] are maximal.residues(dc, m, 0), the rho whose
    zero-shift first coordinate is a0 = coord0(dc, m, rho) = c + e*tops[c],
    and classes[rho] = c is its inverse.  rhos[e] = -1 is the entry of no
    member, so a table without the member of some rho sets classes[rho] = e.

    Coordinate r >= 1 reads c = classes[alpha_r mod e], coordinate 0 reads
    c = alpha_0 mod e, and rho = rhos[c] < 0 means no member.
    maximal.residues raises SelfCheckError when two residues share a class,
    and returns fresh arrays, so the cached table is membership's own
    instance; callers share it and must not mutate it.
    """
    rhos, tops = residues(dc, m, 0)
    classes = array("q", bytes(8 * dc.e))
    for c, rho in enumerate(rhos):
        classes[rho] = c
    rhos.append(-1)
    return rhos, tops, classes


def nabla_witness(
    dc: DerivedConstants,
    m: int,
    alpha: tuple[int, ...],
    r: int,
) -> MaximalElement | None:
    """The absolute maximal gamma with gamma_r = alpha_r and gamma <= alpha
    whose shifts ks are lexicographically smallest; None when none exists.

    The residue tables force the member rho, of class c and zero-shift first
    coordinate a0 = c + e*tops[c].  Every shift at its cap
    (alpha_t - rho)//e gives the largest shift sum; lowering the first shift
    not pinned by coordinate r by the slack keeps gamma_0 <= alpha_0 (equal
    at r = 0) and is the lexicographically smallest choice.
    """
    check_m(dc, m)
    if len(alpha) != m + 1:
        raise LengthMismatch(f"expected a vector of length {m + 1}")
    e = dc.e
    rhos, tops, classes = _residue_tables(dc, m)
    c = classes[alpha[r] % e] if r else alpha[0] % e
    rho = rhos[c]
    if rho < 0:
        return None
    ks = [(x - rho) // e for x in alpha[1:]]
    slack = (alpha[0] - c) // e - tops[c] + sum(ks)
    if slack < 0:
        return None
    free = 1 if r == 1 else 0  # coordinate r >= 1 pins shift r - 1
    if free < m:
        ks[free] -= slack
    return MaximalElement(rho, tuple(ks))


def in_generalized_H(dc: DerivedConstants, m: int, alpha) -> MembershipVerdict:
    """Decide membership in the generalized semigroup at (P_inf, P_1..P_m)."""
    alpha = tuple(alpha)
    witnesses: dict[int, MaximalElement] = {}
    # The order 1..m, 0 fixes failing_coordinate, which `wsgaps member`
    # prints: the first affine coordinate without a witness, else 0.
    for r in list(range(1, m + 1)) + [0]:
        w = nabla_witness(dc, m, alpha, r)
        if w is None:
            return MembershipVerdict(member=False, witnesses=None, failing_coordinate=r)
        witnesses[r] = w
    ordered = tuple(witnesses[r] for r in range(m + 1))
    reached = lub(realize(dc, m, w) for w in ordered)
    if reached != alpha:
        raise SelfCheckError(f"witnesses of {alpha} have lub {reached}, not {alpha}")
    return MembershipVerdict(member=True, witnesses=ordered, failing_coordinate=None)


def in_classical_H(dc: DerivedConstants, m: int, alpha) -> bool:
    """Membership with every coordinate >= 0."""
    alpha = tuple(alpha)
    if any(a < 0 for a in alpha):
        return False
    return in_generalized_H(dc, m, alpha).member


def one_point_gaps_at_P1(dc: DerivedConstants) -> tuple[int, ...]:
    """Gap sequence of the one-point semigroup at P_1: the b with no witness
    at coordinate 1 of (0, b), nothing being allowed at P_inf."""
    g = dc.genus
    out = tuple(b for b in range(2 * g + 1) if nabla_witness(dc, 1, (0, b), 1) is None)
    if len(out) != g:
        raise SelfCheckError(f"{len(out)} one-point gaps at P_1 for {dc.params}, genus {g}")
    return out
