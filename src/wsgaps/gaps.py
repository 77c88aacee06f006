"""Gap and pure-gap enumeration by two independent routes, plus exact and
bounding count formulas.

All searches are confined to the simplex sum(alpha) <= 2g - 1: any
nonnegative vector of total degree at least 2g is a semigroup member
(nonspeciality of divisors of degree >= 2g), so no gap lies outside.

A gap set is a GapTable.  (e, 0, ..., 0) lies in H, so for a fixed tail
t = (alpha_1..alpha_m) the gaps of each class c = alpha_0 mod e form a
prefix range(c, hi, e) of the class: the table keeps one cap hi per (tail,
class), comb(bound + m, m)*e integers, and never a tuple per gap.  Tables
are compared cap by cap, and walk() lists their gaps in lexicographic order
(alpha_0 first), which `wsgaps gaps` streams as it renders.  The cap
c + e*k says that the tail leaves class c at alpha_0 = c + e*k, so walk
keeps each class's gap counts k as bytes and drops the tails whose count
alpha_0 // e reaches with a few C-level passes, not a Python call per tail.

The Lambda route converts the shifted open boxes of the relative maximals
into caps, checking that every point it adds extends its class prefix.
The complement and nabla routes never read Lambda: they run one threshold
scan over the residue tables of membership.  Fix a tail t with
top = bound - sum(t).  A witness at coordinate r exists iff
alpha_0 >= a0 - e*S(t), with (rho, a0) the forced table entry and
S(t) = sum_s (alpha_s - rho)//e (the slack inequality, solved for alpha_0).
Each r >= 1 fixes rho by alpha_r, so its threshold does not depend on
alpha_0; r = 0 gives one threshold U_c per class c = alpha_0 mod e.  The
cap of class c is min(max(L, U_c), top + 1) with L the largest r >= 1
threshold; the pure gaps use the smallest and min.  A missing table entry
means no witness at any alpha_0 and counts as top + 1.

The scan evaluates that formula only on the residue tails k, sorted with
every coordinate below e.  It reads a tail t only through sum(t), the
multiset of its residues mod e and Q = sum_s alpha_s//e, so t has the row
of k = sorted(t mod e) shifted by e*Q = sum(t) - sum(k): going from k to t
lowers every threshold, L (or its min) and top + 1 by e*Q and leaves the
residues alone, so each class end drops by e*Q, and rounding an end up to
class c commutes with that shift (an end at or below c gives the cap c).
Hence cap_t[c] = max(c, cap_k[c] - e*Q), and when the largest cap_k[c] - c
is at most e*Q the row of t is range(e).  k lies in the simplex and comes
no later than t in simplex_points order, so one pass serves.  Cost: the
formula, O(e + m) per row, runs on at most min(comb(e + m - 1, m), #tails)
rows; every other entry costs one comparison, against O(#points * m^2) for
a per-point membership test.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, compress, islice, product, repeat
from math import comb
from operator import floordiv, lt, sub

from .curves import DerivedConstants, check_m, simplex_points
from .errors import SelfCheckError
from .maximal import count_Lambda, enumerate_classical_Lambda, relative_shift, residues
from .membership import _residue_tables


def _default_bound(dc: DerivedConstants, bound: int | None) -> int:
    return 2 * dc.genus - 1 if bound is None else bound


def _runs(m: int, bound: int) -> dict:
    """The layout of simplex_points(m, bound): each head (a tail without its
    last coordinate) to the start of its run, the tails head + (x,) for x in
    range(bound - sum(head) + 1), which sit at runs[head] + x."""
    heads = list(simplex_points(m - 1, bound)) if m > 1 else [()]
    return dict(zip(heads, accumulate([bound + 1 - sum(head) for head in heads], initial=0)))


def _add_prefix_row(hi, end: int, e: int) -> None:
    """Append to hi the caps of the gaps range(end), end >= 0, in each class
    c in [0, e - 1]: the least c + e*k >= end, k >= 0.  With q = end -
    end % e that is q + e + c for c < end % e and q + c above, two C-level
    ranges."""
    q = end - end % e
    hi.extend(range(q + e, end + e))
    hi.extend(range(end, q + e))


class GapTable:
    """A gap (or pure-gap) set on the simplex sum(alpha) <= bound, as caps.

    hi holds e caps per tail t = (alpha_1..alpha_m), the tails in
    simplex_points order, laid out by runs = _runs(m, bound):
    hi[(runs[t[:-1]] + t[-1])*e + c] = c + e*k when the gaps (alpha_0, t)
    with alpha_0 = c mod e are range(c, c + e*k, e).

    stray is the lexicographically smallest point a route produced above its
    class prefix, else None.  Such a set is not a union of class prefixes:
    the caps hold the prefixes only, and a table with a stray equals none.
    """

    __slots__ = ("e", "m", "bound", "hi", "stray")

    def __init__(self, e: int, m: int, bound: int, hi, stray: tuple[int, ...] | None = None):
        self.e, self.m, self.bound, self.hi, self.stray = e, m, bound, hi, stray

    def __len__(self) -> int:
        e = self.e
        return (sum(self.hi) - len(self.hi) // e * (e * (e - 1) // 2)) // e

    def __iter__(self):
        for a0, tails in self.walk(tuple):
            for tail in tails:
                yield (a0, *tail)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GapTable):
            return NotImplemented
        shape = (self.e, self.m, self.bound)
        return shape == (other.e, other.m, other.bound) and self.first_difference(other) is None

    def walk(self, label):
        """Yield (alpha_0, [label(t) for each tail t with a gap (alpha_0, t)])
        for alpha_0 ascending, the tails in lexicographic order, skipping an
        alpha_0 without gaps.  label runs once per tail that has a gap.

        The cap c + e*k of a (tail, class c) holds k gaps, so the tail
        leaves the class at the level j = alpha_0 // e = k.  Each class
        keeps the labels of the tails it still holds and, as bytes, their
        counts k - base (base = 0 until a recount), saturated at 255.  At
        level j a class changes only when j - base is among its counts: one
        translate gives the keep-mask, compress filters the labels and
        replace drops the count, so no Python code runs per tail.  The last
        gap of a class lies in the simplex, so a cap is at most bound + e and
        a count passes 254 only when bound >= 254*e; such a table's classes
        also keep their caps and recount their tails from them at
        j - base = 255, with base = j.  Cost: one label and one row of counts
        per tail with a gap, then C-level passes over the tails a class
        still holds at each level where one leaves it, O(#entries + #gaps).
        """
        e, hi = self.e, self.hi
        empty, es = array("q", range(e)), [e] * e
        wide = self.bound >= 254 * e
        labels, rows = [], []
        for i, tail in zip(range(0, len(hi), e), simplex_points(self.m, self.bound)):
            row = hi[i:i + e]
            if row != empty:
                labels.append(label(tail))
                rows.append(row if wide else bytes(map(floordiv, row, es)))
        caps = None
        if wide:
            caps = array("q", chain.from_iterable(rows))
            counts = bytes(map(min, map(floordiv, caps, repeat(e)), repeat(255)))
        else:
            counts = b"".join(rows)
        del rows
        # Per class: [counts, labels, caps (wide tables only), base].
        held = [[counts[c::e], labels, None if caps is None else caps[c::e], 0] for c in range(e)]
        del counts, labels, caps
        for a0 in range(self.bound + 1):
            j, c = divmod(a0, e)
            entry = held[c]
            ks, tails, caps, base = entry
            if not tails:
                continue
            level = j - base
            if level == 255:  # counts saturated: recount the tails left from their caps
                ks = bytes(map(min, map(floordiv, map(sub, caps, repeat(a0)), repeat(e)), repeat(255)))
                entry[0], entry[3], level = ks, j, 0
            if level in ks:  # every count below level has left already
                keep = ks.translate(b"\1" * level + b"\0" + b"\1" * (255 - level))
                tails = list(compress(tails, keep))
                if caps is not None:
                    entry[2] = array("q", compress(caps, keep))
                entry[:2] = ks.replace(bytes((level,)), b""), tails
            if tails:
                yield a0, tails

    def first_difference(self, other: GapTable):
        """(vector, table) for the lexicographically smallest vector that one
        table's caps hold and the other's do not, or that is a table's stray,
        with the table holding it; None when the tables hold the same set.
        Both tables must cover the same simplex."""
        found = [(t.stray, t) for t in (self, other) if t.stray is not None]
        if self.hi != other.hi:
            e = self.e
            rows = range(0, len(self.hi), e)
            for i, tail in zip(rows, simplex_points(self.m, self.bound)):
                mine, theirs = self.hi[i:i + e], other.hi[i:i + e]
                if mine != theirs:
                    found += [((min(a, b), *tail), self if a > b else other)
                              for a, b in zip(mine, theirs) if a != b]
        return min(found, key=lambda f: f[0], default=None)


def _box_runs(ranges, runs: dict, budget: int):
    """The tails of the box prod(ranges) with sum <= budget, grouped by
    head: yields (head, xs, runs[head]), the tails head + (x,) for x in xs
    sitting at runs[head] + x, runs the _runs of their simplex."""
    *heads, last = ranges
    for head in product(*[range(r.start, min(r.stop, budget + 1)) for r in heads]):
        xs = range(last.start, min(last.stop, budget - sum(head) + 1))
        if xs:
            yield head, xs, runs[head]


def _lambda_table(lam, e: int, m: int, bound: int, pure: bool) -> GapTable:
    """The gaps (pure: the pure gaps) of the simplex from the relative maximals lam.

    Each beta in lam gives an open box per coordinate i, shifted to pass
    through beta there: alpha_i = beta_i and 0 <= alpha_j < beta_j elsewhere.
    The gaps are the union of all boxes; the pure gaps intersect over i the
    union of the boxes at i.  A box at r >= 1 holds alpha_0 < beta_0 on each
    of its tails, a prefix of every class.  A box at 0 holds one point
    (beta_0, t) per tail t.  Taken in ascending beta_0 after every prefix is
    set, each such point (pure: each below the prefix) must extend its class
    prefix; the smallest that does not becomes the table's stray.
    """
    size = comb(bound + m, m)
    runs = _runs(m, bound)

    def reach(r):
        """Per tail, the largest beta_0 of the boxes at r that hold it."""
        out = array("q", [0]) * size
        for beta in lam:
            ranges = [range(b, b + 1) if j == r else range(b) for j, b in enumerate(beta[1:], 1)]
            for _, xs, base in _box_runs(ranges, runs, bound):
                cells = slice(base + xs.start, base + xs.stop)
                out[cells] = array("q", map(max, out[cells], repeat(beta[0])))
        return out

    prefix = reach(1)
    for r in range(2, m + 1):
        prefix = array("q", map(min if pure else max, prefix, reach(r)))
    tops = chain.from_iterable(range(bound + 1 - sum(head), 0, -1) for head in runs)  # top + 1
    caps = array("q", map(min, prefix, tops))
    del prefix
    if pure:
        hi = array("q", range(e)) * size
    else:
        hi = array("q")
        for cap in caps:
            _add_prefix_row(hi, cap, e)
    stray = None
    for beta in sorted(lam):
        b0, c = beta[0], beta[0] % e
        if b0 > bound:
            break
        for head, xs, base in _box_runs([range(b) for b in beta[1:]], runs, bound - b0):
            first, stop = base + xs.start, base + xs.stop
            cells = slice(first * e + c, stop * e, e)
            old = hi[cells]
            # b0 <= top on every tail of the run, so only pure gaps need the prefix.
            live = caps[first:stop] if pure else repeat(b0 + 1)
            hi[cells] = array("q", [h + e if h == b0 < cap else h for h, cap in zip(old, live)])
            if min(old) < b0:
                above = [(b0, *head, x) for x, h, cap in zip(xs, old, live) if h < b0 < cap]
                if above and (stray is None or above[0] < stray):
                    stray = above[0]
    return GapTable(e, m, bound, hi, stray)


def gaps_via_lambda(dc: DerivedConstants, m: int, bound: int | None = None) -> GapTable:
    """Gap table from the relative maximals: union of the shifted open boxes."""
    check_m(dc, m)
    return _lambda_table(enumerate_classical_Lambda(dc, m), dc.e, m, _default_bound(dc, bound), pure=False)


def pure_gaps_via_lambda(dc: DerivedConstants, m: int, bound: int | None = None) -> GapTable:
    """Pure-gap table from the relative maximals.

    The union over (m+1)-tuples of relative maximals of intersected boxes
    equals the intersection over coordinates of per-coordinate unions, which
    avoids the |Lambda|^(m+1) blowup.
    """
    check_m(dc, m)
    return _lambda_table(enumerate_classical_Lambda(dc, m), dc.e, m, _default_bound(dc, bound), pure=True)


def _threshold_scan(dc: DerivedConstants, m: int, bound: int, pure: bool) -> GapTable:
    """The non-members (pure: the vectors with no witness at any coordinate)
    of the simplex sum(alpha) <= bound: the threshold formula on each
    residue tail, every other row shifted from its residue tail's."""
    e = dc.e
    by_rho, by_class = _residue_tables(dc, m)
    # A missing table entry (no witness at any alpha_0) gets a first
    # coordinate whose threshold lies past every top.
    past = 2 * bound + 2
    a0_by_rho = [past if forced is None else forced[1] for forced in by_rho]
    by_class = [by_class.get(c, (0, past)) for c in range(e)]
    pick = min if pure else max
    classes = array("q", range(e))
    rows = {}  # residue tail -> (its row, the largest cap - c in the row)
    hi = array("q")
    for tail in simplex_points(m, bound):
        key = tuple(sorted([x % e for x in tail]))
        if key != tail:
            row, reach = rows[key]
            s = sum(tail) - sum(key)  # e*Q
            hi.extend(classes if reach <= s else [c if h - s < c else h - s for c, h in enumerate(row)])
            continue
        cap = bound - sum(tail) + 1  # top + 1
        # The threshold of (rho, a0) is a0 + shift[rho]: with every x < e,
        # -e * sum_t (x_t - rho)//e = e * #{t : x_t < rho}, and tail is sorted.
        shift, start = [], 0
        for k, r in enumerate(tail):
            shift += [e * k] * (r + 1 - start)
            start = r + 1
        shift += [e * m] * (e - start)
        lim = pick([a0_by_rho[r] + shift[r] for r in tail])
        # A pure gap lies below every r >= 1 threshold, so no class >= lim has one.
        held = max(0, min(e, cap, lim)) if pure else min(e, cap)
        # The end of class c's gaps is min(pick(lim, t), cap), t its r = 0 threshold.
        lo = min(lim, cap)
        if pure:
            ends = [t if (t := a0 + shift[rho]) < lo else lo for rho, a0 in by_class[:held]]
        else:
            ends = [lo if (t := a0 + shift[rho]) < lo else t if t < cap else cap for rho, a0 in by_class[:held]]
        # The cap of class c: the first c + e*k at or past the end of its gaps.
        row = array("q", [c if end <= c else end + (c - end) % e for c, end in enumerate(ends)])
        row.extend(range(held, e))
        rows[key] = row, max(map(sub, row, classes))
        hi.extend(row)
    return GapTable(e, m, bound, hi)


def gaps_via_complement(dc: DerivedConstants, m: int, bound: int | None = None) -> GapTable:
    """Independent route: complement of membership on the bounded simplex."""
    check_m(dc, m)
    return _threshold_scan(dc, m, _default_bound(dc, bound), pure=False)


def pure_gaps_via_nabla(dc: DerivedConstants, m: int, bound: int | None = None) -> GapTable:
    """Definition-based route: every coordinate witness must fail."""
    check_m(dc, m)
    return _threshold_scan(dc, m, _default_bound(dc, bound), pure=True)


def _inversions(xs: list[int]) -> int | None:
    """Pairs s < t with xs[s] > xs[t], by a Fenwick tree over ranks; None
    when xs repeats a value, as two values then share a rank."""
    rank = {x: r for r, x in enumerate(sorted(xs), start=1)}
    if len(rank) != len(xs):
        return None
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
    """Exact two-point gap count sum_t (b0 + b1 - z_t) over the relative
    maximals in ascending b1, where z_t counts the earlier ones whose b0
    exceeds that of the t-th; sum_t z_t counts the inversions of the b0 in
    b1 order, which are those of the b1 in b0 order, the listing's."""
    lam = enumerate_classical_Lambda(dc, 1)
    inversions = _inversions([b[1] for b in lam])
    # The formula needs all first and all second coordinates pairwise distinct.
    if inversions is None or not all(a[0] < b[0] for a, b in zip(lam, islice(lam, 1, None))):
        raise SelfCheckError(f"relative maximals of {dc.params} at m = 1 have repeated coordinates")
    return sum(map(sum, lam)) - inversions


def _box_volume_sum(T: int, d: int, rho: int, e: int, m: int) -> int:
    """Sum over r of prod_{s != r} beta_s, over the vectors
    beta = (c - eK, k1*e + rho, ..., km*e + rho) with k >= 0, K = sum(k) <= T,
    for c = d + e*T, T >= 0 and d in [0, e - 1].

    The shift coordinates have generating function A(x) = sum_k (k*e + rho)*x^k
    = (rho + (e - rho)*x)/(1 - x)^2, so A^j = sum_i w_j(i)*x^i/(1 - x)^(2j) with
    w_j(i) = C(j, i)*rho^(j - i)*(e - rho)^i.  r = 0 gives [x^T] A^m/(1 - x).
    Each r >= 1 fixes k_r; the other tuples of sum K' contribute
    sum_{K=K'}^{T} (c - eK) = d*(n + 1) + e*C(n + 1, 2), n = T - K',
    so the term is [x^T] A^(m-1)*(d/(1 - x)^2 + e*x/(1 - x)^3).  O(m) binomials.
    """

    def w(j, i):
        return comb(j, i) * rho ** (j - i) * (e - rho) ** i

    n = T + 2 * m
    return sum(w(m, i) * comb(n - i, 2 * m) for i in range(m + 1)) + m * sum(
        w(m - 1, i) * (d * comb(n - 1 - i, 2 * m - 1) + e * comb(n - 1 - i, 2 * m)) for i in range(m)
    )


def gap_count_upper_bound(dc: DerivedConstants, m: int) -> int:
    """Sum over the classical relative maximals of the shifted-box volumes,
    in closed form per residue with top >= 0 (maximal.residues at the
    relative shift)."""
    rhos, tops = residues(dc, m, relative_shift(dc, m))
    return sum(_box_volume_sum(top, c, rho, dc.e, m) for c, (rho, top) in enumerate(zip(rhos, tops)) if top >= 0)


def build_gap_report(dc: DerivedConstants, m: int, complement: GapTable) -> dict[str, bool]:
    """The gap-side cross-check table: each route and formula against an
    independent one, on the region of complement, the complement route's
    gap table (gaps_via_complement), which must hold the gap region
    sum(alpha) <= 2g - 1."""
    bound = complement.bound
    lam = enumerate_classical_Lambda(dc, m)
    checks = {
        "gap_routes_agree": _lambda_table(lam, dc.e, m, bound, pure=False) == complement,
        "pure_gap_routes_agree": (_lambda_table(lam, dc.e, m, bound, pure=True)
                                  == pure_gaps_via_nabla(dc, m, bound)),
        # Strictly increasing: no vector listed twice, and the order the listings rely on.
        "lambda_count_formula": count_Lambda(dc, m) == len(lam) and all(map(lt, lam, islice(lam, 1, None))),
        "gap_count_bound": len(complement) <= gap_count_upper_bound(dc, m),
    }
    if m == 1:
        checks["two_point_count_formula"] = count_gaps_two_points(dc) == len(complement)
    return checks
