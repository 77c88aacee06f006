"""Gap and pure-gap enumeration by two independent routes, plus exact and
bounding count formulas.

All searches are confined to the simplex sum(alpha) <= 2g - 1: any
nonnegative vector of total degree at least 2g is a semigroup member
(nonspeciality of divisors of degree >= 2g), so no gap lies outside.
"""

from __future__ import annotations

from itertools import product

from .curves import DerivedConstants, check_m, simplex_points
from .errors import NotSorted, WsgapsError
from .maximal import count_Lambda, enumerate_classical_Lambda
from .membership import membership_test, witness_test


def _default_bound(dc: DerivedConstants, bound: int | None) -> int:
    return 2 * dc.genus - 1 if bound is None else bound


def _nabla_bar_slices(dc: DerivedConstants, m: int, bound: int) -> list[set]:
    """slice[i] = all alpha in the simplex lying in some shifted open box
    of a classical relative maximal at coordinate i."""
    lam = enumerate_classical_Lambda(dc, m)
    slices = [set() for _ in range(m + 1)]
    for beta in lam:
        for i in range(m + 1):
            if beta[i] > bound or any(beta[j] < 1 for j in range(m + 1) if j != i):
                continue
            ranges = [
                range(min(beta[j] - 1, bound) + 1) if j != i else (beta[i],)
                for j in range(m + 1)
            ]
            for alpha in product(*ranges):
                if sum(alpha) <= bound:
                    slices[i].add(alpha)
    return slices


def gaps_via_lambda(dc: DerivedConstants, m: int, bound: int | None = None) -> set:
    """Gap set from the relative maximals: union of the shifted open boxes."""
    check_m(dc, m)
    bound = _default_bound(dc, bound)
    slices = _nabla_bar_slices(dc, m, bound)
    return set().union(*slices)


def pure_gaps_via_lambda(dc: DerivedConstants, m: int, bound: int | None = None) -> set:
    """Pure-gap set from the relative maximals.

    The union over (m+1)-tuples of relative maximals of intersected boxes
    equals the intersection over coordinates of per-coordinate unions, which
    avoids the |Lambda|^(m+1) blowup.
    """
    check_m(dc, m)
    bound = _default_bound(dc, bound)
    slices = _nabla_bar_slices(dc, m, bound)
    out = slices[0]
    for s in slices[1:]:
        out = out & s
    return out


def gaps_via_complement(dc: DerivedConstants, m: int, bound: int | None = None) -> set:
    """Independent route: complement of membership on the bounded simplex."""
    check_m(dc, m)
    bound = _default_bound(dc, bound)
    member = membership_test(dc, m)
    return {a for a in simplex_points(m + 1, bound) if not member(a)}


def pure_gaps_via_nabla(dc: DerivedConstants, m: int, bound: int | None = None) -> set:
    """Definition-based route: every coordinate witness must fail."""
    check_m(dc, m)
    bound = _default_bound(dc, bound)
    has_witness = witness_test(dc, m)
    coords = range(m + 1)
    return {
        a
        for a in simplex_points(m + 1, bound)
        if not any(has_witness(a, r) for r in coords)
    }


def zeta(sorted_lambda: list, t: int) -> int:
    """Number of earlier elements (1-based position t) whose first
    coordinate exceeds that of element t.  The list must be sorted by
    ascending second coordinate."""
    seconds = [b[1] for b in sorted_lambda]
    if any(x > y for x, y in zip(seconds, seconds[1:])):
        raise NotSorted("list not sorted by second coordinate")
    if not 1 <= t <= len(sorted_lambda):
        raise WsgapsError(f"position {t} out of range")
    first_t = sorted_lambda[t - 1][0]
    return sum(1 for b in sorted_lambda[: t - 1] if b[0] > first_t)


def count_gaps_two_points(dc: DerivedConstants) -> int:
    """Exact two-point gap count from the sorted relative maximals."""
    lam = sorted(enumerate_classical_Lambda(dc, 1), key=lambda b: b[1])
    # The formula needs all first and all second coordinates pairwise distinct.
    if len({b[0] for b in lam}) != len(lam) or len({b[1] for b in lam}) != len(lam):
        raise WsgapsError("relative maximals have repeated coordinates")
    return sum(
        b[0] + b[1] - zeta(lam, t) for t, b in enumerate(lam, start=1)
    )


def gap_count_upper_bound(dc: DerivedConstants, m: int) -> int:
    """Sum over relative maximals of the shifted-box volumes."""
    check_m(dc, m)
    total = 0
    for beta in enumerate_classical_Lambda(dc, m):
        for r in range(m + 1):
            prod = 1
            for s in range(m + 1):
                if s != r:
                    prod *= beta[s]
            total += prod
    return total


def build_gap_report(dc: DerivedConstants, m: int) -> dict[str, bool]:
    """The gap-side cross-check table: each route and formula against an
    independent one on the proven gap region sum(alpha) <= 2g - 1."""
    g_compl = gaps_via_complement(dc, m)
    checks = {
        "gap_routes_agree": gaps_via_lambda(dc, m) == g_compl,
        "pure_gap_routes_agree": pure_gaps_via_lambda(dc, m) == pure_gaps_via_nabla(dc, m),
        "lambda_count_formula": count_Lambda(dc, m)
        == len(enumerate_classical_Lambda(dc, m)),
        "gap_count_bound": len(g_compl) <= gap_count_upper_bound(dc, m),
    }
    if m == 1:
        checks["two_point_count_formula"] = count_gaps_two_points(dc) == len(g_compl)
    return checks
