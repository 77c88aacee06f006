"""Brute-force oracle: rebuild the semigroup from raw valuation vectors.

The closure side never consults the closed-form families in maximal.py.
It enumerates exactly the regular monomials whose valuation vectors lie in
a box, each from its own exponents, closes those vectors under
componentwise maxima, and compares the outcome with the formula-driven
modules.  That independence is the whole point: every formula is
cross-examined against nothing but the curve equations.  The families size
the box alone (default_box), so that the families check finds every
monomial below its vectors; the closure check reads only the monomials
below the simplex, which every box holds, so its verdict is the same on
any box.

The closure is never built.  _closure_rows takes the generators through
one dominance (zeta) transform over the tails, a coordinate at a time and
run by run, and gives the closure's non-members on the simplex
sum(alpha) <= bound tail by tail, each as the bits of one integer.
closure_difference hands those rows to GapTable.difference, the one row
comparison, so the oracle reads a gap table only through its public
methods.  consistency_report compares with the complement route's table on
its blocks, the tails in [0, E)^m (GapTable.blocks()): the blocks are
down-closed, so the transform runs on them alone, seeded only by the
generators whose cell lies there.  The closure's non-members obey the
shift law ((alpha_0, t) is one iff (alpha_0 + e, t - e*u_j) is, for
t_j >= e, from the monomials alone), and the scan's tables obey it by
construction, so the blocks agree iff the whole tables do.  Only gaps.py
writes gap tables, and every other check of the report runs on that same
region.  The families check buckets the family vectors
by (coordinate, value) (index_generators) and makes one pass over the same
monomial set: each monomial g strikes, from the bucket of each of its own
(r, g_r), the vectors above it.  A vector is a lub of monomials iff every
coordinate is attained by a monomial below it, that is iff it is struck
from each of its buckets, so the check holds iff every bucket empties: the
rule of in_lub_closure, seen from the generators' side.  The box's
monomials are held once, as that set.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, product, repeat
from math import comb
from operator import gt, or_

from .curves import DerivedConstants, check_m, simplex_caps, simplex_runs
from .errors import BadBox
from .gaps import GapTable, build_gap_report, gaps_via_complement
from .maximal import (enumerate_classical_Gamma, enumerate_classical_Lambda, gamma_hat_in_C, lambda_hat_in_C,
                      relative_shift, residues)


class Box(namedtuple("Box", "lower upper")):
    __slots__ = ()

    def __new__(cls, lower: tuple[int, ...], upper: tuple[int, ...]):
        if len(lower) != len(upper) or any(lo > hi for lo, hi in zip(lower, upper)):
            raise BadBox(f"lower {lower} not <= upper {upper}")
        return super().__new__(cls, lower, upper)

    def __contains__(self, v) -> bool:
        return all(lo <= x <= hi for lo, x, hi in zip(self.lower, v, self.upper))


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def default_box(dc: DerivedConstants, m: int, bound: int) -> Box:
    """The oracle's box for the simplex sum(alpha) <= bound.

    Its upper corner U is (bound, ..., bound) raised to the componentwise
    maximum of the family vectors that families_in_closure tests: the hat
    sets (c + e*top, rho, ..., rho) and the classical listings, whose
    coordinates 1..m are k*e + rho for k in [0, top].  The relative shift
    (m - 1)e >= 0 dominates shift 0, so the residues at the relative shift
    give that maximum in O(e): max(c + e*top) first, and
    max(max(top, 0)*e + rho) at every other coordinate.  The closure check
    reads only the monomials below the simplex, so the corner changes no
    verdict of it.  The coordinates of a regular monomial have a
    nonnegative sum (see _monomial_runs), so one below U has coordinate
    t >= U_t - sum(U): that lower corner holds every regular monomial
    vector below U.
    """
    e = dc.e
    rhos, tops = residues(dc, m, relative_shift(dc, m))
    first = max(c + e * top for c, top in enumerate(tops))
    rest = max(max(top, 0) * e + rho for rho, top in zip(rhos, tops))
    upper = (max(bound, first),) + (max(bound, rest),) * m
    return Box(lower=tuple(u - sum(upper) for u in upper), upper=upper)


def _monomial_runs(dc: DerivedConstants, m: int, box: Box):
    """The regular monomials z^a_z y^b_y prod (x - alpha_l)^c_l with
    valuation vectors in the box: yields (base, w, ranges, lo, hi), one
    monomial for each c in product(*ranges) with lo <= sum(c) <= hi, whose
    vector is (base + e*sum(c), -(w + c_1*e), ..., -(w + c_m*e)).

    Here w = a_z + b_y*M, the valuation at each beta = 0 point, and base =
    a_z*q^3/p^b + b_y*(q/p^b)*M, the pole order at P_inf of z^a_z y^b_y, so
    the coordinates sum to a_z*(q^3 - q)/p^b + (max_m - m)*w.  Regular
    means a_z >= 0 and, unless m = max_m, w >= 0, so sum(box.upper) bounds
    a_z and w.  At m = max_m, (b_y, c) and (b_y + q + 1, c - 1) give one
    vector, so q + 1 values of b_y suffice.  Coordinate l bounds c_l and
    coordinate 0 bounds sum(c): c_1..c_{m-1} run over their product, c_m
    over what both leave.
    """
    check_m(dc, m)
    if len(box.lower) != m + 1:
        raise BadBox(f"box dimension {len(box.lower)} != {m + 1}")
    q, pb, M, e = dc.q, dc.pb, dc.M, dc.e
    s_hi = sum(box.upper)
    az_coeff = (q**3 - q) // pb
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
            ranges = [range(_ceil_div(-box.upper[ell] - w, e), (-box.lower[ell] - w) // e + 1)
                      for ell in range(1, m + 1)]
            yield base, w, ranges, sum_lo, sum_hi


def _monomial_vectors(dc: DerivedConstants, m: int, box: Box):
    """The valuation vector of each monomial of _monomial_runs, one per
    monomial, built from its run's base and w."""
    e = dc.e
    for base, w, (*heads, last), lo, hi in _monomial_runs(dc, m, box):
        for head in product(*heads):
            part, coords = sum(head), tuple([-(w + c * e) for c in head])
            for c_m in range(max(last.start, lo - part), min(last.stop, hi - part + 1)):
                yield (base + e * (part + c_m),) + coords + (-(w + c_m * e),)


def monomial_vectors_in_box(dc: DerivedConstants, m: int, box: Box) -> set[tuple[int, ...]]:
    """Valuation vectors of all regular monomials in the box, each monomial
    built once and none discarded (_monomial_vectors)."""
    return set(_monomial_vectors(dc, m, box))


def _points_up_to(ranges, total: int) -> int:
    """#{c in prod(ranges) : sum(c) <= total}, in O(2^k) for k ranges.
    Shifted to start at 0, the points of the orthant with coordinate sum at
    most n number comb(n + k, k); inclusion-exclusion over the coordinates
    pushed past the end of their range leaves the box."""
    k, n = len(ranges), total - sum(r.start for r in ranges)
    count = 0
    for passed in product((0, 1), repeat=k):
        rest = n - sum([len(r) for r, p in zip(ranges, passed) if p])
        if rest >= 0:
            count += (-1) ** sum(passed) * comb(rest + k, k)
    return count


def monomial_counts(dc: DerivedConstants, m: int, box: Box):
    """Per (a_z, b_y) run of _monomial_runs, the number of its monomials,
    without building them: the points c of the box of the c ranges with
    lo <= sum(c) <= hi, in closed form.  Their sum is the number of
    monomials monomial_vectors_in_box builds, at least the number of
    vectors it returns (below m = max_m two monomials can share a
    vector)."""
    for *_, ranges, lo, hi in _monomial_runs(dc, m, box):
        yield _points_up_to(ranges, hi) - _points_up_to(ranges, lo - 1)


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
    generators iff every coordinate r is attained by a generator below
    alpha.  The tests' per-point reference; consistency_report applies the
    same rule from the generators' side."""
    n = len(alpha)
    for r in range(n):
        hits = gens_index.get((r, alpha[r]), ())
        if not any(all(g[t] <= alpha[t] for t in range(n)) for g in hits):
            return False
    return True


def index_generators(gens) -> dict:
    """Bucket a vector set by (coordinate, value): the generators, for
    in_lub_closure, or the family vectors that consistency_report strikes
    off as the monomials attain them."""
    buckets: dict = {}
    for g in gens:
        for r, x in enumerate(g):
            buckets.setdefault((r, x), []).append(g)
    return buckets


def _closure_rows(gens, m: int, bound: int, width: int | None = None):
    """Per tail t = (alpha_1..alpha_m) of the simplex sum(alpha) <= bound,
    each coordinate below width when it is given, in simplex_points order,
    the points (alpha_0, t) outside the lub closure of gens, as the bits
    alpha_0 of one integer.

    As t >= 0, g lies below (alpha_0, t) iff g_0 <= alpha_0 and its cell,
    g_1..g_m with negative coordinates raised to 0, lies below t; a g with
    max(g_0, 0) + sum(cell) > bound lies below no simplex point, and one
    with a cell coordinate at or past width below no tail of the region.
    The region is down-closed, so the rows of its tails are those of the
    whole simplex.  Each cell seeds, at its position
    runs[cell[:-1]][cell[-1]] in the layout runs = simplex_runs(m, bound,
    width), held with the bits g_0 >= 0 of its generators,
    and low[r] with their least g_0 over g_r >= 0 (a negative g_r attains
    nothing).  A zeta transform over the product order (Bjorklund,
    Husfeldt, Kaski and Koivisto, STOC 2007) then ORs into held[t] the held
    of every cell below t, and takes into low[r][t] the least low[r] of
    every cell below t with the same t_r.  It runs one coordinate j at a
    time, run by run of the layout, each run (the range of its tails'
    positions) at C speed: along the last coordinate an accumulate within
    the run, along any other a map against the run of head - e_j, whose
    transform along j is already done.  Then held[t] holds the alpha_0
    attained at 0, and no alpha_0 < end = max_r low[r][t] attains every
    r >= 1, so the non-members of t up to top = bound - sum(t) are the bits
    of range(end) and the zero bits of held[t], with top + 1 read from the
    layout (simplex_caps).
    """
    runs = simplex_runs(m, bound, width)
    n, width = sum(map(len, runs.values())), bound + 1 if width is None else width
    held = [0] * n
    low = [[bound + 1] * n for _ in range(m)]
    for g in gens:
        cell = tuple([x if x > 0 else 0 for x in g[1:]])
        if max(g[0], 0) + sum(cell) > bound or max(cell) >= width:
            continue
        i = runs[cell[:-1]][cell[-1]]
        if g[0] >= 0:
            held[i] |= 1 << g[0]
        for r, x in enumerate(g[1:]):
            if x >= 0 and g[0] < low[r][i]:
                low[r][i] = g[0]
    for j in range(m):
        cols = [(held, or_)] + [(col, min) for r, col in enumerate(low) if r != j]
        for head, run in runs.items():
            start, stop = run.start, run.stop
            if j == m - 1:
                for col, op in cols:
                    col[start:stop] = accumulate(col[start:stop], op)
            elif head[j]:
                prev = runs[head[:j] + (head[j] - 1,) + head[j + 1:]].start
                for col, op in cols:
                    col[start:stop] = map(op, col[start:stop], col[prev:prev + len(run)])
    return (((1 << min(end, cap)) - 1 | ~bits) & ((1 << cap) - 1)
            for bits, end, cap in zip(held, map(max, repeat(0), *low), simplex_caps(runs, bound)))


def closure_difference(gens, table: GapTable):
    """The points of table's tails (its simplex sum(alpha) <= bound, or
    that simplex's blocks) outside the lub closure of gens, compared with
    the gaps of table: None when they agree, else (vector, side) for the
    lexicographically smallest point where they differ, side table when it
    calls the point a gap (its stray included, named ahead of a
    closure-side difference at the same vector) and "closure" when the
    closure alone does.  _closure_rows builds the
    closure's rows, and GapTable.difference compares them with the table's.
    """
    return table.difference(enumerate(_closure_rows(gens, table.m, table.bound, table.width)), "closure")


def consistency_report(dc: DerivedConstants, m: int, bound: int | None = None,
                       volume: int | None = None) -> dict[str, bool]:
    """Run the full cross-validation suite on the simplex sum(alpha) <= bound
    (2g by default); all verdicts True means pass.

    gaps_via_complement runs once, on the whole simplex.  The non-members
    of the monomials' lub closure must be its gaps on every block tail
    (closure_difference on complement.blocks() finds none apart), which
    the shift law carries to every tail; the closed-form families must lie
    in the monomial lub closure; and build_gap_report checks the other
    routes against the same table on its blocks, and the counts against
    the whole table.  Lambda is enumerated once, for the families and the
    report; volume, when the caller has it, is gap_count_upper_bound(dc,
    m)."""
    check_m(dc, m)
    bound = 2 * dc.genus if bound is None else bound
    mono = monomial_vectors_in_box(dc, m, default_box(dc, m, bound))
    complement = gaps_via_complement(dc, m, bound)

    checks = {"closure_matches_membership": closure_difference(mono, complement.blocks()) is None}

    lam = enumerate_classical_Lambda(dc, m)
    families = gamma_hat_in_C(dc, m) | lambda_hat_in_C(dc, m)
    families.update(enumerate_classical_Gamma(dc, m), lam)
    waiting = index_generators(families)
    for g in mono:
        for key in enumerate(g):
            if bucket := waiting.get(key):
                bucket[:] = [v for v in bucket if any(map(gt, g, v))]
    checks["families_in_closure"] = not any(waiting.values())
    del mono, waiting, families  # released before the gap-side tables

    checks.update(build_gap_report(dc, m, complement, lam, volume))
    return checks
