"""Brute-force oracle: rebuild the semigroup from raw valuation vectors.

The closure side never consults the closed-form families in maximal.py.
It enumerates exactly the regular monomials whose valuation vectors lie in
a box, closes those vectors under componentwise maxima, and compares the
outcome with the formula-driven modules.  That independence is the whole
point: every formula is cross-examined against nothing but the curve
equations.

The closure is never built.  closure_table takes the generators in one
dominance (zeta) transform over the tails and returns the closure's
non-members on the simplex sum(alpha) <= bound as a GapTable, so
consistency_report compares it with the complement route's table cap by
cap, and every other check of the report runs on that same region.  The
families check alone reads the (coordinate, value) buckets of
index_generators, one in_lub_closure call per family vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from operator import le

from .curves import DerivedConstants, MonomialExponents, check_m, monomial_valuation, simplex_points
from .errors import BadBox
from .gaps import GapTable, _ints, _rank, build_gap_report, gaps_via_complement
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
    """Membership in the lub closure, decided pointwise for the families
    check: alpha is a lub of generators iff every coordinate r is attained
    by a generator below alpha."""
    n = len(alpha)
    for r in range(n):
        hits = gens_index.get((r, alpha[r]), ())
        if not any(all(g[t] <= alpha[t] for t in range(n)) for g in hits):
            return False
    return True


def index_generators(gens) -> dict:
    """Bucket a generator set by (coordinate, value) for in_lub_closure."""
    buckets: dict = {}
    for g in gens:
        for r, x in enumerate(g):
            buckets.setdefault((r, x), []).append(g)
    return buckets


def closure_table(gens, e: int, m: int, bound: int) -> GapTable:
    """The points of the simplex sum(alpha) <= bound outside the lub closure
    of gens, as a GapTable with e classes of alpha_0, one tail t =
    (alpha_1..alpha_m) at a time.

    As t >= 0, g lies below (alpha_0, t) iff g_0 <= alpha_0 and its cell,
    g_1..g_m with negative coordinates raised to 0, lies below t; a g with
    max(g_0, 0) + sum(cell) > bound lies below no simplex point.  Each cell
    seeds held with the bits g_0 >= 0 of its generators, and low[r] with
    their least g_0 over g_r >= 0 (a negative g_r attains nothing).  One pass
    in simplex_points order, where t - e_j comes first, ORs held[t - e_j]
    into held[t] and takes the least low[r][t - e_j] over j != r: a zeta
    transform over the product order (Bjorklund, Husfeldt, Kaski and
    Koivisto, STOC 2007).  Then held[t] holds the alpha_0 attained at 0, and
    no alpha_0 < max_r low[r][t] attains every r >= 1, so the class caps are
    set there at once.  Each zero bit of held[t] from there to top = bound -
    sum(t) is a non-member; one that does not extend its class prefix
    becomes the table's stray, as in the Lambda route.
    """
    n = comb(bound + m, m)
    held = [0] * n
    low = [[bound + 1] * n for _ in range(m)]
    for g in gens:
        cell = tuple([x if x > 0 else 0 for x in g[1:]])
        if max(g[0], 0) + sum(cell) > bound:
            continue
        i = _rank(cell, bound)
        if g[0] >= 0:
            held[i] |= 1 << g[0]
        for r, x in enumerate(g[1:]):
            if x >= 0 and g[0] < low[r][i]:
                low[r][i] = g[0]
    hi, stray = _ints(), None
    for i, tail in enumerate(simplex_points(m, bound)):
        for j, x in enumerate(tail):
            if x:
                p = _rank(tail[:j] + (x - 1,) + tail[j + 1:], bound)
                held[i] |= held[p]
                for r, col in enumerate(low):
                    if r != j and col[p] < col[i]:
                        col[i] = col[p]
        top = bound - sum(tail)
        end = min(max(max(col[i] for col in low), 0), top + 1)
        caps = [c if end <= c else end + (c - end) % e for c in range(e)]
        miss = ~held[i] & ((1 << (top + 1)) - (1 << end))  # the non-members, as bits
        while miss:
            a0 = (miss & -miss).bit_length() - 1
            miss ^= 1 << a0
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

    gaps_via_complement runs once.  The closure_table of the monomials must
    equal it, the closed-form families must lie in the monomial lub closure,
    and build_gap_report checks the other routes and formulas against the
    same table, on the same region."""
    check_m(dc, m)
    bound = 2 * dc.genus if bound is None else bound
    mono = monomial_vectors_in_box(dc, m, default_box(dc, m, bound))
    complement = gaps_via_complement(dc, m, bound)

    checks = {"closure_matches_membership": closure_table(mono, dc.e, m, bound) == complement}

    families = gamma_hat_in_C(dc, m) | lambda_hat_in_C(dc, m)
    families.update(enumerate_classical_Gamma(dc, m), enumerate_classical_Lambda(dc, m))
    corner = tuple(map(max, zip(*families)))  # a generator not below it is below no family vector
    idx = index_generators(g for g in mono if all(map(le, g, corner)))
    checks["families_in_closure"] = all(in_lub_closure(idx, v) for v in families)
    del mono, idx, families  # released before the gap-side tables

    checks.update(build_gap_report(dc, m, complement))
    return checks
