"""Partial order, least upper bounds and semigroup membership decisions.

Membership in the generalized semigroup is decided coordinate by
coordinate: a vector belongs iff every coordinate r admits an absolute
maximal element agreeing with it at r and dominated elsewhere.  Because the
absolute maximal set is exactly GammaFamily union ThetaFamily, the residue
of the target coordinate mod e = (q+1)M forces the family member, and a
witness exists iff one closed-form inequality holds; no box enumeration is
involved.

Two procedures share that reduction.  membership_test and witness_test
build the residue tables once and return per-vector boolean closures; the
gap scans and in_classical_H use them.  nabla_witness and in_generalized_H
construct the witnesses themselves and serve `wsgaps member` and the tests.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .curves import DerivedConstants, check_m
from .errors import EmptyInput, LengthMismatch, SelfCheckError
from .maximal import (
    GammaFamily,
    MaximalElement,
    ThetaFamily,
    alpha_coord0,
    index_pairs,
    pair_from_residue,
    realize,
)


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    witnesses: tuple[MaximalElement, ...] | None  # one per coordinate when member
    failing_coordinate: int | None


def lub(vectors) -> tuple[int, ...]:
    """Componentwise maximum of a nonempty collection of equal-length vectors."""
    vectors = list(vectors)
    if not vectors:
        raise EmptyInput("lub of an empty collection")
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise LengthMismatch("vectors of unequal length")
    return tuple(max(v[i] for v in vectors) for i in range(n))


def _lex_min_ks(
    kmax: list[int], fixed: dict[int, int], total: int, exact: bool = True
) -> tuple[int, ...] | None:
    """Lexicographically smallest ks with ks[p] <= kmax[p] (p free),
    ks[p] = fixed[p] (p fixed) and sum(ks) == total (>= total when
    exact=False); None if infeasible."""
    free = [p for p in range(len(kmax)) if p not in fixed]
    need = total - sum(fixed.values())
    if need > sum(kmax[p] for p in free):
        return None
    if not free:
        ok = need == 0 if exact else need <= 0
        return tuple(fixed[p] for p in range(len(kmax))) if ok else None
    ks = dict(fixed)
    for idx, p in enumerate(free):
        later = sum(kmax[u] for u in free[idx + 1 :])
        ks[p] = need - later
        need = later
    return tuple(ks[p] for p in range(len(kmax)))


@lru_cache(maxsize=None)
def _pairs_by_coord0_residue(dc: DerivedConstants, m: int):
    """Index pairs grouped by first-coordinate residue mod e, lex order kept
    within each class.  Lets the r = 0 witness scan touch only the pairs
    whose first coordinate can match the target at all."""
    groups: dict[int, list] = {}
    for pair in index_pairs(dc):
        a0 = alpha_coord0(dc, m, pair)
        groups.setdefault(a0 % dc.e, []).append((pair, a0))
    return {rho: tuple(v) for rho, v in groups.items()}


def nabla_witness(
    dc: DerivedConstants,
    m: int,
    alpha: tuple[int, ...],
    r: int,
    use_theta: bool = True,
) -> MaximalElement | None:
    """An absolute maximal gamma with gamma_r = alpha_r and gamma <= alpha.

    Returns None when no such element exists.  use_theta=False drops the
    ThetaFamily witnesses; it exists only for the mutation harness and makes
    the procedure deliberately incomplete.
    """
    check_m(dc, m)
    if len(alpha) != m + 1:
        raise LengthMismatch(f"expected a vector of length {m + 1}")
    e = dc.e

    if r != 0:
        rho = alpha[r] % e
        if rho == 0:
            if not use_theta:
                return None
            kmax = [alpha[t + 1] // e for t in range(m)]
            fixed = {r - 1: alpha[r] // e}
            smin = -(alpha[0] // e)  # gamma_0 = -e*sum(ks) <= alpha_0
            ks = _lex_min_ks(kmax, fixed, smin, exact=False)
            return ThetaFamily(ks) if ks is not None else None
        pair = pair_from_residue(dc, rho)
        a0 = alpha_coord0(dc, m, pair)
        kmax = [(alpha[t + 1] - rho) // e for t in range(m)]
        fixed = {r - 1: (alpha[r] - rho) // e}
        smin = -((alpha[0] - a0) // e)  # ceil((a0 - alpha_0)/e)
        ks = _lex_min_ks(kmax, fixed, smin, exact=False)
        return GammaFamily(pair, ks) if ks is not None else None

    # r = 0: scan matching-residue index pairs in lexicographic order,
    # ThetaFamily last.
    for pair, a0 in _pairs_by_coord0_residue(dc, m).get(alpha[0] % e, ()):
        rho = pair[0] * dc.M + pair[1]
        kmax = [(alpha[t + 1] - rho) // e for t in range(m)]
        ks = _lex_min_ks(kmax, {}, (a0 - alpha[0]) // e)
        if ks is not None:
            return GammaFamily(pair, ks)
    if use_theta and alpha[0] % e == 0:
        kmax = [alpha[t + 1] // e for t in range(m)]
        ks = _lex_min_ks(kmax, {}, -alpha[0] // e)
        if ks is not None:
            return ThetaFamily(ks)
    return None


def in_generalized_H(
    dc: DerivedConstants, m: int, alpha, use_theta: bool = True
) -> MembershipVerdict:
    """Decide membership in the generalized semigroup at (P_inf, P_1..P_m)."""
    alpha = tuple(alpha)
    witnesses: dict[int, MaximalElement] = {}
    # Affine coordinates first: their witness parameters are fully forced,
    # while coordinate 0 needs a scan over all index pairs.
    for r in list(range(1, m + 1)) + [0]:
        w = nabla_witness(dc, m, alpha, r, use_theta=use_theta)
        if w is None:
            return MembershipVerdict(member=False, witnesses=None, failing_coordinate=r)
        witnesses[r] = w
    ordered = tuple(witnesses[r] for r in range(m + 1))
    reached = lub(realize(dc, m, w) for w in ordered)
    if reached != alpha:
        raise SelfCheckError(f"witnesses of {alpha} have lub {reached}, not {alpha}")
    return MembershipVerdict(member=True, witnesses=ordered, failing_coordinate=None)


def witness_test(
    dc: DerivedConstants, m: int, use_theta: bool = True
) -> Callable[[tuple[int, ...], int], bool]:
    """has_witness(alpha, r) == (nabla_witness(dc, m, alpha, r) is not None),
    decided without building the witness.

    The residue of the target coordinate forces the family member (rho, a0):
    for r != 0, rho = alpha_r mod e (by_rho; ThetaFamily at rho = 0); for
    r = 0, the member whose first coordinate a0 matches alpha_0 mod e
    (by_class).  Its shifts can reach alpha at r and stay below it elsewhere
    iff (alpha_0 - a0)//e + sum_t (alpha_t - rho)//e >= 0.
    """
    check_m(dc, m)
    e = dc.e
    by_rho = [(0, 0) if use_theta else None]
    by_rho += [(rho, alpha_coord0(dc, m, pair_from_residue(dc, rho))) for rho in range(1, e)]
    # The e first coordinates fall in distinct classes mod e on every
    # instance checked, which makes the r = 0 lookup a single entry.
    by_class: dict[int, tuple[int, int]] = {}
    for entry in filter(None, by_rho):
        cls = entry[1] % e
        if cls in by_class:
            raise SelfCheckError(
                f"residue {cls} mod {e} holds the first coordinates of both "
                f"rho = {by_class[cls][0]} and rho = {entry[0]}"
            )
        by_class[cls] = entry

    def has_witness(alpha: tuple[int, ...], r: int) -> bool:
        forced = by_rho[alpha[r] % e] if r else by_class.get(alpha[0] % e)
        if forced is None:
            return False
        rho, a0 = forced
        return (alpha[0] - a0) // e + sum([(x - rho) // e for x in alpha[1:]]) >= 0

    return has_witness


def membership_test(
    dc: DerivedConstants, m: int, use_theta: bool = True
) -> Callable[[tuple[int, ...]], bool]:
    """member(alpha) == in_generalized_H(dc, m, alpha).member: witness_test
    at every coordinate."""
    has_witness = witness_test(dc, m, use_theta=use_theta)
    coords = range(m + 1)
    return lambda alpha: all(has_witness(alpha, r) for r in coords)


_cached_membership_test = lru_cache(maxsize=None)(membership_test)


def in_classical_H(dc: DerivedConstants, m: int, alpha, use_theta: bool = True) -> bool:
    """Membership with every coordinate >= 0, by the boolean test."""
    alpha = tuple(alpha)
    if any(a < 0 for a in alpha):
        return False
    if len(alpha) != m + 1:
        raise LengthMismatch(f"expected a vector of length {m + 1}")
    return _cached_membership_test(dc, m, use_theta)(alpha)


def one_point_gaps_at_P1(dc: DerivedConstants) -> tuple[int, ...]:
    """Gap sequence of the one-point semigroup at P_1, via the witness test
    at coordinate 1 with nothing allowed at P_inf."""
    g = dc.genus
    has_witness = witness_test(dc, 1)
    out = tuple(b for b in range(2 * g + 1) if not has_witness((0, b), 1))
    if len(out) != g:
        raise SelfCheckError(f"{len(out)} one-point gaps at P_1 for {dc.params}, genus {g}")
    return out
