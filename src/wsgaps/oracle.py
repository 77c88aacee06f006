"""Brute-force oracle: rebuild the semigroup from raw valuation vectors.

The closure side never consults the closed-form families in maximal.py.
It enumerates exactly the regular monomials whose valuation vectors lie in
a box, closes those vectors under componentwise maxima, and compares the
outcome with the formula-driven modules.  That independence is the whole
point: every formula is cross-examined against nothing but the curve
equations.

The closure is never built.  index_generators, the one generator index,
buckets the generators by (coordinate, value) and cuts each bucket to its
minimal antichain.  closure_table reads it one tail at a time and returns
the closure's non-members on the simplex sum(alpha) <= bound as a GapTable,
so consistency_report compares it with the complement route's table cap by
cap, and every other check of the report runs on that same region.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, product
from operator import le

from .curves import DerivedConstants, MonomialExponents, check_m, monomial_valuation, simplex_points
from .errors import BadBox
from .gaps import GapTable, _ints, build_gap_report, gaps_via_complement
from .maximal import (
    enumerate_classical_Gamma,
    enumerate_classical_Lambda,
    gamma_hat_in_C,
    lambda_hat_in_C,
)


@dataclass(frozen=True)
class Box:
    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or any(
            lo > hi for lo, hi in zip(self.lower, self.upper)
        ):
            raise BadBox(f"lower {self.lower} not <= upper {self.upper}")

    def __contains__(self, v) -> bool:
        return all(lo <= x <= hi for lo, x, hi in zip(self.lower, v, self.upper))


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def default_box(dc: DerivedConstants, m: int, bound: int) -> Box:
    """The closure check's box for the simplex sum(alpha) <= bound.

    The upper corner U holds the simplex and every closed-form family vector
    of the sweep instances (a test checks it); bound alone does not.  The
    coordinates of a regular monomial have a nonnegative sum (see
    monomial_vectors_in_box), so one below U has coordinate t >= U_t - sum(U):
    that lower corner holds every regular monomial vector below U.
    """
    upper = (max(bound, dc.q**2 * dc.e // dc.pb),) + (max(bound, m * dc.e - 1),) * m
    return Box(lower=tuple(u - sum(upper) for u in upper), upper=upper)


def monomial_vectors_in_box(dc: DerivedConstants, m: int, box: Box) -> set[tuple[int, ...]]:
    """Valuation vectors of all regular monomials in the box, each monomial
    built once and none discarded.

    With w = a_z + b_y*M, coords[l] = -(w + c_l*e) and coords[0] =
    base + e*sum(c), base = a_z*q^3/p^b + b_y*(q/p^b)*M, so the coordinates
    sum to a_z*(q^3 - q)/p^b + (max_m - m)*w.  Regular means a_z >= 0 and,
    unless m = max_m, w >= 0, so sum(box.upper) bounds a_z and w.  At
    m = max_m, (b_y, c) and (b_y + q + 1, c - 1) give one vector, so q + 1
    values of b_y suffice.  Coordinate l bounds c_l and coordinate 0 bounds
    sum(c): c_1..c_{m-1} run over their product, c_m over what both leave.
    """
    check_m(dc, m)
    if len(box.lower) != m + 1:
        raise BadBox(f"box dimension {len(box.lower)} != {m + 1}")
    q, pb, M, e = dc.q, dc.pb, dc.M, dc.e
    s_hi = sum(box.upper)
    az_coeff = (q**3 - q) // pb
    out = set()
    for a_z in range(s_hi // az_coeff + 1):
        b_lo = _ceil_div(-a_z, M)
        if m < dc.max_m:
            w_hi = (s_hi - a_z * az_coeff) // (dc.max_m - m)
            b_ys = range(b_lo, (w_hi - a_z) // M + 1)
        else:
            b_ys = range(b_lo, b_lo + q + 1)
        for b_y in b_ys:
            w = a_z + b_y * M
            base = a_z * (q**3 // pb) + b_y * (q // pb) * M
            sum_lo, sum_hi = _ceil_div(box.lower[0] - base, e), (box.upper[0] - base) // e
            *heads, last = [
                range(_ceil_div(-box.upper[ell] - w, e), (-box.lower[ell] - w) // e + 1)
                for ell in range(1, m + 1)
            ]
            for head in product(*heads):
                part = sum(head)
                for c_m in range(max(last.start, sum_lo - part), min(last.stop, sum_hi - part + 1)):
                    exps = MonomialExponents(a_z, b_y, head + (c_m,))
                    out.add(monomial_valuation(dc, m, exps)[0])
    return out


def lub_closure(vectors, box: Box) -> set[tuple[int, ...]]:
    """Least fixed point of pairwise componentwise maxima, inside the box.

    Truncating to the box is sound because lub is monotone: anything a
    discarded out-of-box vector could generate inside the box is already
    generated by in-box vectors.
    """
    current = set(map(tuple, vectors))
    for v in current:
        if v not in box:
            raise BadBox(f"seed {v} outside box")
    worklist = list(current)
    while worklist:
        v = worklist.pop()
        for u in list(current):
            w = tuple(map(max, u, v))
            if w in box and w not in current:
                current.add(w)
                worklist.append(w)
    return current


def in_lub_closure(gens_index: dict, alpha: tuple[int, ...]) -> bool:
    """Membership in the lub closure, decided pointwise: alpha is a lub of
    generators iff every coordinate r is attained by a generator below alpha."""
    n = len(alpha)
    for r in range(n):
        hits = gens_index.get((r, alpha[r]), ())
        if not any(all(g[t] <= alpha[t] for t in range(n)) for g in hits):
            return False
    return True


def _minimal(vectors: list) -> list:
    """The componentwise minimal elements of sorted, distinct vectors, in order.

    Sorted, a vector can lie above earlier ones only, whose coordinate 0 is
    not above its own.  Each further coordinate t keeps, as bits, the
    candidates whose coordinate t is not above its own either, so a vector
    is minimal iff no candidate survives: O(dim * n log n) steps on n-bit
    integers, where a scan of the antichain found so far is quadratic.
    """
    below = [(1 << i) - 1 for i in range(len(vectors))]
    for t in range(1, len(vectors[0])):
        col = [v[t] for v in vectors]
        reached = 0
        for _, group in groupby(sorted(range(len(col)), key=col.__getitem__), key=col.__getitem__):
            group = list(group)
            for i in group:
                reached |= 1 << i
            for i in group:
                below[i] &= reached
    return [v for v, b in zip(vectors, below) if not b]


def index_generators(gens) -> dict:
    """Index a generator set by (coordinate, value) for in_lub_closure and
    closure_table.  Each bucket is cut to its minimal antichain (maxima of
    vectors, Kung-Luccio-Preparata 1975), sorted, once each: a generator of a
    bucket lies below alpha iff a minimal one does."""
    buckets: dict = {}
    for g in gens:
        for r, x in enumerate(g):
            buckets.setdefault((r, x), set()).add(g)
    return {key: _minimal(sorted(bucket)) for key, bucket in buckets.items()}


def closure_table(index: dict, e: int, m: int, bound: int) -> GapTable:
    """The points of the simplex sum(alpha) <= bound outside the lub closure
    of the generators behind index (built by index_generators), as a GapTable
    with e classes of alpha_0, one tail (alpha_1..alpha_m) at a time.

    Each r >= 1 gives L_r, the least g_0 of the (r, alpha_r) entries below
    the tail (g <= (bound,) + tail, as g_r is fixed and g_0 <= bound), or
    top + 1 with top = bound - sum(tail).  Every alpha_0 < max L_r is a
    non-member: the caps of the classes are set there at once.  Each alpha_0
    from there to top probes the (0, alpha_0) antichain; a non-member that
    does not extend its class prefix becomes the table's stray, as in the
    Lambda route.  Cost: O(#tails * (e + m * antichain) + probes).
    """
    hi = _ints()
    stray = None
    for tail in simplex_points(m, bound):
        top = bound - sum(tail)
        ceil = (bound,) + tail
        lo = max(min((g[0] for g in index.get((r, x), ()) if all(map(le, g, ceil))), default=top + 1)
                 for r, x in enumerate(tail, start=1))
        end = min(max(lo, 0), top + 1)
        caps = [c if end <= c else end + (c - end) % e for c in range(e)]
        for a0 in range(end, top + 1):
            if not any(all(map(le, g, ceil)) for g in index.get((0, a0), ())):
                c = a0 % e
                if caps[c] == a0:
                    caps[c] += e
                elif stray is None or (a0, *tail) < stray:
                    stray = (a0, *tail)
        hi.extend(caps)
    return GapTable(e, m, bound, hi, stray)


def consistency_report(dc: DerivedConstants, m: int, bound: int | None = None) -> dict[str, bool]:
    """Run the full cross-validation suite on the simplex sum(alpha) <= bound
    (2g by default); all verdicts True means pass.

    gaps_via_complement runs once.  The closure_table of the monomials below
    the simplex (positive parts summing to at most bound) must equal it, the
    closed-form families must lie in the monomial lub closure, and
    build_gap_report checks the other routes and formulas against the same
    table, on the same region."""
    check_m(dc, m)
    bound = 2 * dc.genus if bound is None else bound
    mono = monomial_vectors_in_box(dc, m, default_box(dc, m, bound))
    complement = gaps_via_complement(dc, m, bound)

    below = index_generators(g for g in mono if sum([x for x in g if x > 0]) <= bound)
    checks = {"closure_matches_membership": closure_table(below, dc.e, m, bound) == complement}
    del below  # released before the next index and the gap-side tables

    families = gamma_hat_in_C(dc, m) | lambda_hat_in_C(dc, m)
    families.update(enumerate_classical_Gamma(dc, m), enumerate_classical_Lambda(dc, m))
    corner = tuple(map(max, zip(*families)))  # a generator not below it is below no family vector
    idx = index_generators(g for g in mono if all(map(le, g, corner)))
    checks["families_in_closure"] = all(in_lub_closure(idx, v) for v in families)
    del mono, idx, families  # likewise

    checks.update(build_gap_report(dc, m, complement))
    return checks
