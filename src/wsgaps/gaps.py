"""Gap and pure-gap enumeration by two independent routes, plus exact and
bounding count formulas.

All searches are confined to the simplex sum(alpha) <= 2g - 1: any
nonnegative vector of total degree at least 2g is a semigroup member
(nonspeciality of divisors of degree >= 2g), so no gap lies outside.

The Lambda route unions the shifted open boxes of the relative maximals.
The complement and nabla routes never read Lambda: they run one threshold
scan over the residue tables of membership.  Fix a tail t = (alpha_1..alpha_m)
with top = bound - sum(t).  A witness at coordinate r exists iff
alpha_0 >= a0 - e*S(t), with (rho, a0) the forced table entry and
S(t) = sum_s (alpha_s - rho)//e (the slack inequality, solved for alpha_0).
Each r >= 1 fixes rho by alpha_r, so its threshold does not depend on
alpha_0; r = 0 gives one threshold U_c per class c = alpha_0 mod e.  The
gaps of the tail in class c are range(c, min(max(L, U_c), top + 1), e) with L
the largest r >= 1 threshold; the pure gaps use the smallest and min.  A
missing table entry means no witness at any alpha_0 and counts as top + 1.
Cost: O(#tails * e * m + output), against O(#points * m^2) for a per-point
membership test.
"""

from __future__ import annotations

from itertools import product, repeat

from .curves import DerivedConstants, check_m, simplex_points
from .errors import NotSorted, SelfCheckError, WsgapsError
from .maximal import coord0, count_Lambda, enumerate_classical_Lambda, relative_shift
from .membership import _residue_tables


def _default_bound(dc: DerivedConstants, bound: int | None) -> int:
    return 2 * dc.genus - 1 if bound is None else bound


def _nabla_bar_slices(lam: set, m: int, bound: int) -> list[set]:
    """slice[i] = all alpha in the simplex lying in some shifted open box
    of a classical relative maximal (an element of lam) at coordinate i."""
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
    return set().union(*_nabla_bar_slices(enumerate_classical_Lambda(dc, m), m, bound))


def pure_gaps_via_lambda(dc: DerivedConstants, m: int, bound: int | None = None) -> set:
    """Pure-gap set from the relative maximals.

    The union over (m+1)-tuples of relative maximals of intersected boxes
    equals the intersection over coordinates of per-coordinate unions, which
    avoids the |Lambda|^(m+1) blowup.
    """
    check_m(dc, m)
    bound = _default_bound(dc, bound)
    return set.intersection(*_nabla_bar_slices(enumerate_classical_Lambda(dc, m), m, bound))


def _threshold_scan(dc: DerivedConstants, m: int, bound: int, pure: bool) -> set:
    """The non-members (pure: the vectors with no witness at any coordinate)
    of the simplex sum(alpha) <= bound, one tail at a time."""
    e = dc.e
    by_rho, by_class = _residue_tables(dc, m)
    classes = [by_class.get(c) for c in range(e)]
    pick = min if pure else max
    out: set = set()
    for tail in simplex_points(m, bound):
        cap = bound - sum(tail) + 1  # top + 1

        def threshold(forced):
            if forced is None:
                return cap
            rho, a0 = forced
            return a0 - e * sum([(x - rho) // e for x in tail])

        lim = pick([threshold(by_rho[x % e]) for x in tail])
        tails = [repeat(x) for x in tail]
        # A pure gap lies below every r >= 1 threshold, so no class >= lim has one.
        for c in range(min(e, cap, lim) if pure else min(e, cap)):
            hi = min(pick(lim, threshold(classes[c])), cap)
            out.update(zip(range(c, hi, e), *tails))
    return out


def gaps_via_complement(dc: DerivedConstants, m: int, bound: int | None = None) -> set:
    """Independent route: complement of membership on the bounded simplex."""
    check_m(dc, m)
    return _threshold_scan(dc, m, _default_bound(dc, bound), pure=False)


def pure_gaps_via_nabla(dc: DerivedConstants, m: int, bound: int | None = None) -> set:
    """Definition-based route: every coordinate witness must fail."""
    check_m(dc, m)
    return _threshold_scan(dc, m, _default_bound(dc, bound), pure=True)


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


def _inversions(xs: list[int]) -> int:
    """Pairs s < t with xs[s] > xs[t] (xs distinct), by a Fenwick tree over ranks."""
    rank = {x: r for r, x in enumerate(sorted(xs), start=1)}
    tree = [0] * (len(xs) + 1)
    total = 0
    for seen, x in enumerate(xs):
        i = r = rank[x]
        while i:  # earlier elements not above x
            total -= tree[i]
            i &= i - 1
        total += seen
        while r < len(tree):
            tree[r] += 1
            r += r & -r
    return total


def count_gaps_two_points(dc: DerivedConstants) -> int:
    """Exact two-point gap count sum_t (b0 + b1 - zeta(t)) from the sorted
    relative maximals; sum_t zeta(t) counts the inversions of the b0."""
    lam = sorted(enumerate_classical_Lambda(dc, 1), key=lambda b: b[1])
    # The formula needs all first and all second coordinates pairwise distinct.
    if len({b[0] for b in lam}) != len(lam) or len({b[1] for b in lam}) != len(lam):
        raise SelfCheckError(f"relative maximals of {dc.params} at m = 1 have repeated coordinates")
    return sum(b[0] + b[1] for b in lam) - _inversions([b[0] for b in lam])


def _box_volume_sum(c: int, rho: int, e: int, m: int) -> int:
    """Sum over r of prod_{s != r} beta_s, over the vectors
    beta = (c - eK, k1*e + rho, ..., km*e + rho) with k >= 0, K = sum(k) <= T = c // e.

    p[K] sums prod(k*e + rho) over the tuples of sum K (m convolutions).  r = 0
    gives sum(p_m); each r >= 1 fixes k_r and gives, over the other tuples of
    sum K', p_{m-1}[K'] * sum_{K=K'}^{T} (c - eK), an arithmetic series.
    """
    T = c // e
    if T < 0:
        return 0
    p1 = [k * e + rho for k in range(T + 1)]
    p = [1] + [0] * T
    for _ in range(m):
        p_prev, p = p, [sum(p[a] * p1[K - a] for a in range(K + 1)) for K in range(T + 1)]
    return sum(p) + m * sum(
        x * ((T - K + 1) * c - e * (K + T) * (T - K + 1) // 2) for K, x in enumerate(p_prev)
    )


def gap_count_upper_bound(dc: DerivedConstants, m: int) -> int:
    """Sum over the classical relative maximals of the shifted-box volumes,
    in closed form per residue rho."""
    check_m(dc, m)
    shift = relative_shift(dc, m)
    return sum(_box_volume_sum(coord0(dc, m, rho) + shift, rho, dc.e, m) for rho in range(dc.e))


def build_gap_report(dc: DerivedConstants, m: int) -> dict[str, bool]:
    """The gap-side cross-check table: each route and formula against an
    independent one on the proven gap region sum(alpha) <= 2g - 1."""
    g_compl = gaps_via_complement(dc, m)
    lam = enumerate_classical_Lambda(dc, m)
    slices = _nabla_bar_slices(lam, m, 2 * dc.genus - 1)
    checks = {
        "gap_routes_agree": set().union(*slices) == g_compl,
        "pure_gap_routes_agree": set.intersection(*slices) == pure_gaps_via_nabla(dc, m),
        "lambda_count_formula": count_Lambda(dc, m) == len(lam),
        "gap_count_bound": len(g_compl) <= gap_count_upper_bound(dc, m),
    }
    if m == 1:
        checks["two_point_count_formula"] = count_gaps_two_points(dc) == len(g_compl)
    return checks
