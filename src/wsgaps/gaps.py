"""Gap and pure-gap enumeration by two independent routes, plus exact and
bounding count formulas.

All searches are confined to the simplex sum(alpha) <= 2g - 1: any
nonnegative vector of total degree at least 2g is a semigroup member
(nonspeciality of divisors of degree >= 2g), so no gap lies outside.

A gap set is a GapTable of gap counts.  (e, 0, ..., 0) lies in H, and so
does (E, 0, ..., 0) for every multiple E = K*e, so for a fixed tail
t = (alpha_1..alpha_m) the gaps of each class C = alpha_0 mod E form a
prefix range(C, C + E*k, E) of the class: the table keeps the one count k
per (tail, class) as a byte, comb(bound + m, m)*E bytes, and never a tuple
per gap.  K is the least with CEILING*K*e >= min(bound + 1, 2g): no gap has
alpha_0 >= 2g, so no class of a correct table holds more than CEILING = 255
gaps, and K = 1 on every sweep instance.  A route that would store a larger
count claims a gap past the ceiling instead, the table's stray.  Tables are
compared byte by byte, and walk() lists their gaps in lexicographic order
(alpha_0 first), which `wsgaps gaps` streams as it renders: it keeps each
class's counts as stored and drops the tails whose count alpha_0 // E
reaches with a few C-level passes, not a Python call per tail.

The Lambda route converts the shifted open boxes of the relative maximals
into counts, checking that every point it adds extends its class prefix.
It takes Lambda in ascending beta_0 and works by box runs (the tails of a
box that share all but their last coordinate): a run costs O(1) Python
operations, a slice fill, a translate or a big-integer mask, whatever its
length, and verify builds both kinds of table from one reach pass.
The complement and nabla routes never read Lambda: they run one threshold
scan over membership's residue table, its own instance of the arrays of
maximal.residues (rhos and tops by class) with the inverse classes[rho].
Fix a tail t with top = bound - sum(t).  A witness at coordinate r exists
iff alpha_0 >= a0 - e*S(t), with rho the forced member, c its class,
a0 = c + e*tops[c] its zero-shift first coordinate and
S(t) = sum_s (alpha_s - rho)//e (the slack inequality, solved for alpha_0).
Each r >= 1 fixes rho by alpha_r, so its threshold does not depend on
alpha_0; r = 0 gives one threshold U_c per class c = alpha_0 mod e.  The
gaps of class c end at min(max(L, U_c), top + 1) with L the largest r >= 1
threshold; the pure gaps use the smallest and min.  A class without a
member (rho < 0) means no witness at any alpha_0 and counts as top + 1.

The scan evaluates that formula only on the tails in [0, E)^m, the blocks.
It reads a tail t only through sum(t), the multiset of its residues mod e
and Q = sum_s alpha_s//e, so a block computes each sorted tail once.
Moving t_j >= E down by E lowers every threshold, L (or its min) and
top + 1 by E and leaves the residues alone, so row(t) is row(t - E*u_j)
with every count lowered by one, floored at 0.  The run of a head h (the
tails h + (x,)) is then the block of low = h mod E, the rows (low, r) for
r < E, lowered by (sum(h) - sum(low))/E + j on the rows x in
[E*j, E*(j + 1)): one C-level translate per E rows, and rows of no gap once
the lowering reaches the block's largest count.  A count at CEILING may be
clipped and cannot be lowered, so the runs of such a block take the
formula tail by tail.  Cost: the formula, O(E + m) per row, runs on at most
min(comb(E + m - 1, m), #tails) rows; every other row is a share of a
translate, against O(#points * m^2) for a per-point membership test.

The Lambda route is checked on the blocks too (lambda_route_agrees).  Its
tables obey the same shift law whenever Lambda is closed under the step
(-e at 0, +e at j) and its reverse (_steps_closed, O(|Lambda|*m) set
lookups), so a whole Lambda table equals a whole scan table iff their
blocks agree (GapTable.blocks()), and the Lambda tables are built on the
blocks alone: each box clipped to [0, E)^m, a box at r >= 1 with
beta_r >= E skipped, and box runs that follow each other in the layout
joined into one span.  A Lambda not closed under the step is compared on
the whole simplex, so the answer is the whole tables' either way.  `gaps`
prints the scan's table and builds the whole Lambda table only when the
blocks disagree, to name the smallest differing vector.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from functools import cache, partial
from itertools import compress, islice, product, repeat
from math import comb
from operator import itemgetter, lt, ne

from .curves import DerivedConstants, check_m, simplex_caps, simplex_points, simplex_runs
from .maximal import count_Lambda, enumerate_classical_Lambda, relative_shift, residues
from .membership import _residue_tables

# The most gaps a table stores for one (tail, class): each count is a byte.
CEILING = 255
# Rows sliced, joined or compared at a time.  Sliced rows and bytes.join's
# buffer of some 80 bytes per item would outweigh a table of few classes on
# many tails, so walk and the non-pure Lambda table take the rows in blocks;
# first_difference compares blocks at C speed before any row.
_BLOCK_ROWS = 4096


def _default_bound(dc: DerivedConstants, bound: int | None) -> int:
    return 2 * dc.genus - 1 if bound is None else bound


def table_classes(dc: DerivedConstants, bound: int) -> int:
    """E = K*e, the classes of alpha_0 in a gap table of dc on the simplex
    sum(alpha) <= bound: K is the least with CEILING*K*e >= min(bound + 1,
    2g).  A class C then holds at most CEILING points C + E*i below
    min(bound + 1, 2g), and no gap lies at or past either."""
    reach = min(bound + 1, 2 * dc.genus)
    return dc.e * max(1, -(-reach // (CEILING * dc.e)))


def _prefix_row(end: int, E: int) -> bytes:
    """The counts of the gaps range(end), end >= 0, in each class C in
    [0, E - 1], at most CEILING each: with K, d = divmod(end, E), K + 1
    below d and K from d on."""
    k, d = divmod(end, E)
    return bytes((min(k + 1, CEILING),)) * d + bytes((min(k, CEILING),)) * (E - d)


@cache
def _above(level: int) -> bytes:
    """The translate table of the counts i -> ASCII '1' if i > level, else '0'."""
    return bytes([48 + (i > level) for i in range(256)])


def _gap_bits(row: bytes) -> int:
    """The gaps of a row of E counts as the bits alpha_0 of one integer:
    level i holds bit C + E*i where row[C] > i.  Each level is one translate
    into ASCII digits, reversed so that int(..., 2) reads them highest
    first."""
    return int(b"".join([row.translate(_above(i))[::-1] for i in reversed(range(max(row)))]) or b"0", 2)


@cache
def _lowered(a: int) -> bytes:
    """The translate table of the counts i -> max(0, i - a)."""
    return bytes([max(0, i - a) for i in range(256)])


def _first(*vectors):
    """The lexicographically smallest of vectors that is not None, else None."""
    return min(filter(None, vectors), default=None)


class GapTable:
    """A gap (or pure-gap) set on the simplex sum(alpha) <= bound, as counts.

    counts holds E bytes per tail t = (alpha_1..alpha_m), the tails in
    simplex_points order, laid out by runs = simplex_runs(m, bound, width):
    counts[runs[t[:-1]][t[-1]]*E + C] = k when the gaps (alpha_0, t)
    with alpha_0 = C mod E are range(C, C + E*k, E).  width None holds
    every tail of the simplex; width E holds the blocks, the tails in
    [0, E)^m (blocks()).  A width past bound holds every tail too and is
    stored as None.

    stray is the lexicographically smallest point a route produced above its
    class prefix, or past the CEILING gaps a class can store, else None.
    Such a set is not a union of stored class prefixes: the counts hold the
    prefixes only, and a table with a stray equals none.
    """

    __slots__ = ("E", "m", "bound", "counts", "stray", "width")

    def __init__(self, E: int, m: int, bound: int, counts: bytes, stray: tuple[int, ...] | None = None,
                 width: int | None = None):
        self.E, self.m, self.bound, self.counts, self.stray = E, m, bound, counts, stray
        self.width = width if width is not None and width <= bound else None

    def __len__(self) -> int:
        return sum(self.counts)

    def __iter__(self):
        for a0, tails in self.walk(tuple):
            for tail in tails:
                yield (a0, *tail)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GapTable):
            return NotImplemented
        shape = (self.E, self.m, self.bound, self.width)
        return shape == (other.E, other.m, other.bound, other.width) and self.first_difference(other) is None

    def blocks(self) -> GapTable:
        """This table on its blocks, the tails in [0, E)^m: one slice of
        counts per run of the blocks' layout, simplex_runs(m, bound, E).  The
        stray stays, wherever it lies, so a table with a stray still equals
        none."""
        whole, E, counts = simplex_runs(self.m, self.bound, self.width), self.E, self.counts
        rows = b"".join([counts[whole[head].start * E:(whole[head].start + len(run)) * E]
                         for head, run in simplex_runs(self.m, self.bound, E).items()])
        return GapTable(E, self.m, self.bound, rows, self.stray, E)

    def walk(self, label):
        """Yield (alpha_0, [label(t) for each tail t with a gap (alpha_0, t)])
        for alpha_0 ascending, the tails in lexicographic order, skipping an
        alpha_0 without gaps.  label runs once per tail that has a gap.

        A tail with k gaps in class C leaves the class at the level
        j = alpha_0 // E = k.  Each class keeps the labels of the tails it
        still holds and their counts, as stored.  At level j a class
        changes only when j is among its counts: one translate gives the
        keep-mask, compress filters the labels and replace drops the count,
        so no Python code runs per tail.  Cost: one label per tail with a
        gap, then C-level passes over the tails a class still holds at each
        level where one leaves it, O(#entries + #gaps).  The walk stops at
        the last tail that holds a gap, and once every class is empty,
        within E of the last alpha_0 with a gap, not at bound.
        """
        E, counts = self.E, self.counts
        tails, none, step = simplex_points(self.m, self.bound, self.width), bytes(E), E * _BLOCK_ROWS
        labels, joined = [], bytearray()
        size = len(counts.rstrip(b"\0"))  # no row past the last nonzero count holds a gap
        for start in range(0, size, step):
            rows = [counts[i:i + E] for i in range(start, min(start + step, size), E)]
            live = list(map(ne, rows, repeat(none)))
            labels += map(label, compress(islice(tails, len(rows)), live))
            joined += b"".join(compress(rows, live))
        if not labels:
            return
        held = [[joined[C::E], labels] for C in range(E)]  # per class: [counts, labels]
        del joined, labels
        emptied = 0  # classes that no longer hold a tail
        for a0 in range(self.bound + 1):
            level, C = divmod(a0, E)
            entry = held[C]
            ks, tails = entry
            # A count is at most 255, so a class is empty before level 256.
            if tails and level in ks:  # every count below level has left already
                keep = ks.translate(b"\1" * level + b"\0" + b"\1" * (255 - level))
                tails = entry[1] = list(compress(tails, keep))
                entry[0] = ks.replace(bytes((level,)), b"")
                emptied += not tails
                if emptied == E:
                    return
            if tails:
                yield a0, tails

    def difference(self, rows, holder, stray=None):
        """(vector, side) for the lexicographically smallest vector where this
        table and holder disagree, side the one that calls it a gap; None
        when they hold the same set.  rows holds (i, bits) for the tails i,
        ascending in layout order, where holder's gaps may differ, bits the
        tail's gaps as the bits alpha_0 of one integer; a tail not in rows
        agrees, so an empty rows compares the strays alone.  stray is
        holder's stray.  At a tie this table's stray comes first, then
        holder's, then a row.  The lowest set bit of the XOR of two rows is
        the tail's smallest differing alpha_0, and the layout is in
        lexicographic order, so the least (alpha_0, i) is the smallest row
        difference.  Each distinct row of this table is decoded once."""
        found = [(v, side) for v, side in ((self.stray, self), (stray, holder)) if v is not None]
        E, counts, decode = self.E, self.counts, cache(_gap_bits)
        diffs = ((i, bits ^ decode(counts[i * E:(i + 1) * E])) for i, bits in rows)
        best = min((((diff & -diff).bit_length() - 1, i) for i, diff in diffs if diff), default=None)
        if best is not None:
            a0, i = best
            tail = next(islice(simplex_points(self.m, self.bound, self.width), i, None))
            found.append(((a0, *tail), self if decode(counts[i * E:(i + 1) * E]) >> a0 & 1 else holder))
        return min(found, key=itemgetter(0), default=None)

    def first_difference(self, other: GapTable):
        """(vector, table) for the lexicographically smallest vector that one
        table's counts hold and the other's do not, or that is a table's
        stray, with the table holding it; None when the tables hold the same
        set.  Both tables must cover the same tails with the same E.  This
        is difference over other's rows and stray: at a tie self's stray
        comes first, then other's, then a row.  Only the rows whose bytes
        differ are decoded: equal counts are one comparison, and otherwise
        blocks of _BLOCK_ROWS rows are compared first, each at C speed."""
        E, mine, theirs, step = self.E, self.counts, other.counts, self.E * _BLOCK_ROWS
        tails = (i for start in range(0, len(mine) if mine != theirs else 0, step)
                 if mine[start:start + step] != theirs[start:start + step]
                 for i in range(start // E, min(start + step, len(mine)) // E)
                 if mine[i * E:(i + 1) * E] != theirs[i * E:(i + 1) * E])
        decode = cache(_gap_bits)
        return self.difference(((i, decode(theirs[i * E:(i + 1) * E])) for i in tails), other, other.stray)


def _box_runs(ranges, runs: dict, budget: int):
    """The tails of the box prod(ranges) with sum <= budget, grouped by
    head: yields (head, xs, base), the tails head + (x,) for x in xs at the
    positions base + x, base = runs[head].start, runs the simplex_runs of a
    simplex sum(t) <= bound with bound >= budget, or of its tails below a
    width, to which ranges are then clipped.  xs is clipped to the budget,
    not to the run's end: a budget below bound ends the box short of it."""
    *heads, last = ranges
    for head in product(*[range(r.start, min(r.stop, budget + 1)) for r in heads]):
        xs = range(last.start, min(last.stop, budget - sum(head) + 1))
        if xs:
            yield head, xs, runs[head].start


def _box_spans(ranges, runs: dict, budget: int):
    """The positions of _box_runs(ranges, runs, budget) as spans
    (first, stop), each joining the box runs that follow each other in the
    layout: a run that ends at its run's end joins the next head's run
    that starts at x = 0.  This is the Lambda route's inner loop, so it
    walks the heads itself rather than through _box_runs' tuples."""
    *heads, last = ranges
    lo, hi = last.start, last.stop
    first = stop = None
    for head in product(*[range(r.start, min(r.stop, budget + 1)) for r in heads]):
        end = min(hi, budget - sum(head) + 1)
        if lo < end:
            base = runs[head].start
            if base + lo != stop:
                if stop is not None:
                    yield first, stop
                first = base + lo
            stop = base + end
    if stop is not None:
        yield first, stop


@cache
def _equal(k: int) -> bytes:
    """The translate table of the counts i -> (i == k)."""
    return bytes([i == k for i in range(256)])


@cache
def _below(bar: int) -> bytes:
    """The translate table of the counts i -> (i < bar)."""
    return bytes([i < bar for i in range(256)])


def _reach(lam, r: int, runs: dict, bound: int, size: int, width: int) -> array:
    """Per tail of the region runs (size tails of the simplex sum(t) <= bound,
    each coordinate below width), the largest beta_0 of the boxes at r >= 1
    that hold it, else 0.  lam is in ascending beta_0, so each box span
    (_box_spans) is one slice fill: a later box never lowers a reach.  A
    box with beta_0 <= 0 is skipped, as its fill would go below the initial
    0, and so is one with beta_r >= width, which holds no tail of the
    region."""
    out = array("q", [0]) * size
    for beta in lam:
        if beta[0] > 0 and beta[r] < width:
            fill = array("q", beta[:1])
            ranges = [range(b, b + 1) if j == r else range(min(b, width)) for j, b in enumerate(beta[1:], 1)]
            for first, stop in _box_spans(ranges, runs, bound):
                out[first:stop] = fill * (stop - first)
    return out


def _lambda_tables(lam, E: int, m: int, bound: int, kinds, width: int | None = None):
    """Yield, for each pure in kinds, the gaps (pure: the pure gaps) of the
    simplex from the relative maximals lam, with E classes of alpha_0, on
    the tails in [0, width)^m (width None: every tail; width E: the blocks,
    as GapTable.blocks() lays them out).  Each box's ranges are clipped to
    [0, width), and a box at r >= 1 with beta_r >= width holds no tail of
    the region and is skipped, so a table on the blocks reads only the box
    runs that meet them.  A tail's row reads only the boxes that hold it,
    so it is the same on any region that holds the tail; a stray is the
    smallest of the region.

    Each beta in lam gives an open box per coordinate i, shifted to pass
    through beta there: alpha_i = beta_i and 0 <= alpha_j < beta_j elsewhere.
    The gaps are the union of all boxes; the pure gaps intersect over i the
    union of the boxes at i.  A box at r >= 1 holds alpha_0 < beta_0 on each
    of its tails, a prefix of every class: per tail, the reach of r (_reach)
    is the largest such beta_0, and the end of the tail's prefix is the max
    (pure: the min) over r of the reaches, capped at top + 1.  Both kinds
    read one reach pass, each reach freed once the prefixes have read it.
    A box at 0 holds one point (beta_0, t) per tail t.  Taken in ascending
    beta_0 after every prefix is set, each such point (pure: each below its
    tail's end) must extend its class prefix; the smallest that does not,
    or that would pass CEILING, becomes the table's stray.

    Every step costs O(1) Python operations per box span (_box_spans: the
    box runs that follow each other in the layout, joined), each at C speed
    over its tails.  The class-c counts old of a span move up by one where
    old == k0 (a translate and a replace).  The pure pass keeps one byte
    per tail, alive while beta_0 < its end: beta_0 only rises, so each tail
    is cleared once, from buckets of the tails by end.  It adds the mask
    (old == k0) & alive as big integers (k0 <= 254: no carry).  A stray is
    a span's first tail with old < k0 (pure: and alive), a find (pure: the
    highest set bit of the mask), kept as (beta_0, position) until the
    table is done: the layout follows the lexicographic order of the tails.

    Both tables obey the scan's shift law, row(t) is row(t - E*u_j) with
    every count lowered by one, floored at 0, whenever lam passes
    _steps_closed (argued there), as the classical listings do.  The route
    does not use the law; lambda_route_agrees does.
    """
    runs = simplex_runs(m, bound, width)
    size, lim = sum(map(len, runs.values())), bound + 1 if width is None else width
    ceiling = CEILING
    lam = sorted(lam)
    prefixes = [_reach(lam, 1, runs, bound, size, lim)] * len(kinds)
    for r in range(2, m + 1):
        more = _reach(lam, r, runs, bound, size, lim)
        for i, pure in enumerate(kinds):
            prefixes[i] = array("q", map(min if pure else max, prefixes[i], more))
        del more
    for pure in kinds:
        ends = array("q", map(min, prefixes.pop(0), simplex_caps(runs, bound)))  # per tail, where its prefix ends
        stray = None
        if pure:
            counts, alive, buckets = bytearray(size * E), bytearray(size), defaultdict(partial(array, "i"))
            for t in compress(range(size), ends):  # the tails with a nonzero end
                alive[t] = 1
                buckets[ends[t]].append(t)
            pending = sorted(buckets, reverse=True)  # the ends still to pass, ascending from the end
        else:
            rows, counts = {end: _prefix_row(end, E) for end in set(ends)}, bytearray()
            for start in range(0, size, _BLOCK_ROWS):
                counts += b"".join(map(rows.__getitem__, ends[start:start + _BLOCK_ROWS]))
            if max(ends) > E * ceiling:  # the first such tail's class 0 passes the ceiling
                stray = (E * ceiling, next(i for i, end in enumerate(ends) if end > E * ceiling))
        del ends
        for beta in lam:
            b0 = beta[0]
            if b0 > bound:
                break
            k0, c = divmod(b0, E)
            if k0 < ceiling:
                bar, equal, was, now = k0, _equal(k0), bytes((k0,)), bytes((k0 + 1,))
            else:  # no count can take a point past the ceiling: each is a stray
                bar = 256
            below = _below(bar)
            while pure and pending and pending[-1] <= b0:
                for t in buckets.pop(pending.pop()):
                    alive[t] = 0
            for first, stop in _box_spans([range(min(b, lim)) for b in beta[1:]], runs, bound - b0):
                cells = slice(first * E + c, stop * E, E)
                old = counts[cells]
                # b0 <= top on every tail of the run, so only pure gaps need the prefix.
                if not pure:
                    if bar == k0:
                        counts[cells] = old.replace(was, now)
                    x = old.translate(below).find(1)
                    if x >= 0:
                        stray = _first(stray, (b0, first + x))
                    continue
                live = int.from_bytes(alive[first:stop], "big")
                if not live:
                    continue
                if bar == k0:
                    counts[cells] = (int.from_bytes(old, "big")
                                     + (int.from_bytes(old.translate(equal), "big") & live)).to_bytes(len(old), "big")
                low = int.from_bytes(old.translate(below), "big") & live
                if low:  # the first tail's byte is the highest
                    stray = _first(stray, (b0, stop - 1 - (low.bit_length() - 1) // 8))
        if stray is not None:  # (alpha_0, position): positions follow the lexicographic order of the tails
            stray = (stray[0], *next(islice(simplex_points(m, bound, width), stray[1], None)))
        counts = bytes(counts)  # the table's own bytes: no second copy waits in this frame
        yield GapTable(E, m, bound, counts, stray, width)
        del counts  # freed before the next kind's arrays are built


def gaps_via_lambda(dc: DerivedConstants, m: int, bound: int | None = None) -> GapTable:
    """Gap table from the relative maximals: union of the shifted open boxes."""
    check_m(dc, m)
    bound = _default_bound(dc, bound)
    return next(_lambda_tables(enumerate_classical_Lambda(dc, m), table_classes(dc, bound), m, bound, (False,)))


def pure_gaps_via_lambda(dc: DerivedConstants, m: int, bound: int | None = None) -> GapTable:
    """Pure-gap table from the relative maximals.

    The union over (m+1)-tuples of relative maximals of intersected boxes
    equals the intersection over coordinates of per-coordinate unions, which
    avoids the |Lambda|^(m+1) blowup.
    """
    check_m(dc, m)
    bound = _default_bound(dc, bound)
    return next(_lambda_tables(enumerate_classical_Lambda(dc, m), table_classes(dc, bound), m, bound, (True,)))


def _steps_closed(lam, e: int) -> bool:
    """Whether lam, as a set, holds the step beta + (-e, 0, ..., +e at j,
    ..., 0) of each of its vectors with beta_0 >= e, and the reverse step
    beta + (+e, 0, ..., -e at j, ..., 0) of each with beta_j >= e, at every
    j >= 1: O(|lam|*m) set lookups.

    Then both Lambda tables obey the scan's shift law.  Take t_j >= e.  A
    box at 0 of beta holding (alpha_0, t) has beta_j > t_j >= e, and the
    box at 0 of its reverse step holds (alpha_0 + e, t - e*u_j); a box at
    r >= 1 holding it has beta_0 > alpha_0 and beta_j > t_j (r != j) or
    beta_j = t_j (r = j), so its reverse step's box at r holds the moved
    point.  Back, a box holding (alpha_0 + e, t - e*u_j) has beta_0 >= e,
    and its step's box holds (alpha_0, t).  So each coordinate's union of
    boxes, and with it the gaps and the pure gaps, obeys the law at e, and
    so at E = K*e; the classical listings hold both steps (k_j raised by
    one while K <= top, or lowered while k_j >= 1)."""
    listed = set(lam)
    for beta in listed:
        b0 = beta[0]
        for j in range(1, len(beta)):
            head, bj, rest = beta[1:j], beta[j], beta[j + 1:]
            if b0 >= e and (b0 - e, *head, bj + e, *rest) not in listed:
                return False
            if bj >= e and (b0 + e, *head, bj - e, *rest) not in listed:
                return False
    return True


def lambda_route_agrees(dc: DerivedConstants, m: int, scans: dict, lam=None) -> list[bool]:
    """Whether the Lambda route holds the set of each scan table, in the
    order of scans: scans[pure] is the complement table (pure False) or the
    nabla table (pure True) of one simplex, whole.  lam, when the caller
    has it, is enumerate_classical_Lambda(dc, m).

    The scan tables obey the shift law by construction.  When lam is closed
    under the step (_steps_closed) the Lambda tables obey it too, so each
    row of a whole table is its block row lowered, and two whole tables
    agree iff their blocks do: the Lambda tables are built on the blocks
    alone and compared with scan.blocks().  Otherwise they are built on the
    whole simplex and compared with the scan tables as they are.  Either
    way the answer is the whole tables' equality."""
    some = next(iter(scans.values()))
    lam = enumerate_classical_Lambda(dc, m) if lam is None else lam
    width = some.E if _steps_closed(lam, dc.e) else None
    tables = _lambda_tables(lam, some.E, m, some.bound, tuple(scans), width)
    return [table == (scan if width is None else scan.blocks()) for table, scan in zip(tables, scans.values())]


def _threshold_scan(dc: DerivedConstants, m: int, bound: int, pure: bool) -> GapTable:
    """The non-members (pure: the vectors with no witness at any coordinate)
    of the simplex sum(alpha) <= bound: the threshold formula on the tails in
    [0, E)^m, every other run its block lowered by one count per E."""
    e, E, ceiling = dc.e, table_classes(dc, bound), CEILING
    rhos, tops, classes = _residue_tables(dc, m)
    # Per class, (rho, a0) with a0 = c + e*tops[c] the zero-shift first
    # coordinate; a class without a member (rho < 0: no witness at any
    # alpha_0) gets a first coordinate whose threshold lies past every top.
    past = 2 * bound + 2
    by_class = [(rho, c + e * top) if rho >= 0 else (0, past) for c, (rho, top) in enumerate(zip(rhos, tops))]
    a0_by_rho = [by_class[c][1] if c < e else past for c in classes]
    pick = min if pure else max
    counts, blocks, stray = bytearray(), {}, None

    def row(tail):
        """The counts of tail, at most CEILING; one past it makes the tail's
        first point past the ceiling a stray."""
        nonlocal stray
        cap, q = bound - sum(tail) + 1, e * sum([x // e for x in tail])  # top + 1, e*Q
        # The threshold of (rho, a0) is a0 + shift[rho], shift[rho] = e*#{s : t_s mod e < rho} - e*Q.
        shift, start = [], 0
        for k, r in enumerate(sorted([x % e for x in tail])):
            shift += [e * k - q] * (r + 1 - start)
            start = r + 1
        shift += [e * m - q] * (e - start)
        lim = pick([a0_by_rho[x % e] + shift[x % e] for x in tail])
        # A pure gap lies below every r >= 1 threshold, so no class >= lim has one.
        held = max(0, min(e, cap, lim)) if pure else min(e, cap)
        # The end of class c's gaps is min(pick(lim, t), cap), t its r = 0 threshold.
        lo = min(lim, cap)
        if pure:
            ends = [t if (t := a0 + shift[rho]) < lo else lo for rho, a0 in by_class[:held]]
        else:
            ends = [lo if (t := a0 + shift[rho]) < lo else t if t < cap else cap for rho, a0 in by_class[:held]]
        ends += range(held, e)  # no gap: the end at the class itself
        # The count of class C: the points C + E*i below the end of class C mod e.
        ns = [-((C - end) // E) if end > C else 0 for C, end in enumerate(ends * (E // e))]
        if max(ns) <= ceiling:
            return bytes(ns)
        stray = _first(stray, (E * ceiling + next(C for C, n in enumerate(ns) if n > ceiling), *tail))
        return bytes([min(n, ceiling) for n in ns])

    by_sorted = cache(row)  # the formula is symmetric in the tail: blocks call it once per sorted tail
    runs = simplex_runs(m, bound)
    for head, run in runs.items():
        size, low = len(run), tuple([x % E for x in head])  # low <= head is a head too
        if low not in blocks:
            rows = b"".join([by_sorted(tuple(sorted((*low, x)))) for x in range(min(E, len(runs[low])))])
            blocks[low] = rows, max(rows)
        rows, most = blocks[low]
        if most >= ceiling:  # a count at the ceiling may be clipped: no lowering, the formula per tail
            counts += b"".join([row((*head, x)) for x in range(size)])
            continue
        level = (sum(head) - sum(low)) // E
        for j in range(min(most - level, -(-size // E))):  # row x = E*j + r is block row r lowered by level + j
            counts += rows[:E * (size - E * j)].translate(_lowered(level + j))
        counts += bytes(E * run.stop - len(counts))  # the rest of the run: every count lowered to 0
    return GapTable(E, m, bound, bytes(counts), stray)


def gaps_via_complement(dc: DerivedConstants, m: int, bound: int | None = None) -> GapTable:
    """Independent route: complement of membership on the bounded simplex."""
    check_m(dc, m)
    return _threshold_scan(dc, m, _default_bound(dc, bound), pure=False)


def pure_gaps_via_nabla(dc: DerivedConstants, m: int, bound: int | None = None) -> GapTable:
    """Definition-based route: every coordinate witness must fail."""
    check_m(dc, m)
    return _threshold_scan(dc, m, _default_bound(dc, bound), pure=True)


def count_gaps_two_points(dc: DerivedConstants, residues=None) -> int:
    """Exact two-point gap count of H(P_inf, P_1), from the m = 1 residues
    alone (maximal.residues at the relative shift 0; residues, when the
    caller has them), in O(e log e) time and O(e) memory: no relative
    maximal is listed.

    The gaps number sum (b0 + b1) over the relative maximals less their
    inversions, the pairs u, v with u0 < v0 and u1 > v1.  The
    residue of class c, with rho and top T >= 0, lists the vectors
    (c + e*i, (T - i)*e + rho) for i in [0, T], so sum (b0 + b1) is
    sum (T + 1)(c + rho + e*T).  Take u at i' of (c', rho', T') and v at i
    of (c, rho, T), d = i - i'.  As c and rho lie in [0, e - 1], u0 < v0
    iff d > 0, or d = 0 and c' < c; u1 > v1 iff d > T - T', or d = T - T'
    and rho' > rho.  So each ordered pair of residues, a residue with
    itself included, holds:
    - comb(min(T', T) + 1, 2) inversions with d > max(0, T - T');
    - T + 1 with d = 0 when c' < c and T'*e + rho' > T*e + rho (then
      T' >= T, and i' = i runs over [0, T]);
    - T' + 1 with d = T - T' > 0 when rho' > rho and T' < T (i' runs over
      [0, T']).
    The first sum reads the tops in descending order, the j-th the min of
    2j + 1 ordered pairs (with the j before it and with itself); the
    second is one Fenwick pass over the classes in descending T*e + rho,
    the third one over the tops in descending rho.
    The classes are distinct and so are the rho (maximal.residues raises
    SelfCheckError on a shared class), so no coordinate repeats."""
    e = dc.e
    # The parameter hides this module's maximal.residues.
    rhos, tops = globals()["residues"](dc, 1, 0) if residues is None else residues
    live = list(compress(range(e), map((-1).__lt__, tops)))  # the classes with top >= 0
    ts, rs = [tops[c] for c in live], [rhos[c] for c in live]
    n, size = len(live), max(ts) + 1
    total = sum([(t + 1) * (c + r + e * t) for c, r, t in zip(live, rs, ts)])
    total -= sum([t * (t + 1) // 2 * (2 * j + 1) for j, t in enumerate(sorted(ts, reverse=True))])
    keys = [t * e + r for t, r in zip(ts, rs)]
    tree = [0] * (n + 1)  # per class position, a residue of larger key seen
    for j in sorted(range(n), key=keys.__getitem__, reverse=True):
        i, before = j, 0
        while i:
            before += tree[i]
            i &= i - 1
        total -= (ts[j] + 1) * before
        i = j + 1
        while i <= n:
            tree[i] += 1
            i += i & -i
    tree = [0] * (size + 1)  # per top T' + 1, the T' + 1 of each residue of larger rho seen
    for j in sorted(range(n), key=rs.__getitem__, reverse=True):
        i = t = ts[j]
        while i:
            total -= tree[i]
            i &= i - 1
        i = t + 1
        while i <= size:
            tree[i] += t + 1
            i += i & -i
    return total


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


def gap_count_upper_bound(dc: DerivedConstants, m: int, residues=None) -> int:
    """Sum over the classical relative maximals of the shifted-box volumes,
    in closed form per residue with top >= 0 (maximal.residues at the
    relative shift; residues, when the caller has them)."""
    # The parameter hides this module's maximal.residues.
    rhos, tops = globals()["residues"](dc, m, relative_shift(dc, m)) if residues is None else residues
    return sum(_box_volume_sum(top, c, rho, dc.e, m) for c, (rho, top) in enumerate(zip(rhos, tops)) if top >= 0)


def build_gap_report(dc: DerivedConstants, m: int, complement: GapTable, lam=None,
                     volume: int | None = None) -> dict[str, bool]:
    """The gap-side cross-check table: each route and formula against an
    independent one, on the region of complement, the complement route's
    whole gap table (gaps_via_complement), which must hold the gap region
    sum(alpha) <= 2g - 1.  The routes are compared on the blocks
    (lambda_route_agrees); the counts read the whole table.  lam and
    volume, when the caller has them, are enumerate_classical_Lambda(dc, m)
    and gap_count_upper_bound(dc, m)."""
    lam = enumerate_classical_Lambda(dc, m) if lam is None else lam
    volume = gap_count_upper_bound(dc, m) if volume is None else volume
    scans = {False: complement, True: pure_gaps_via_nabla(dc, m, complement.bound)}
    gap_routes, pure_routes = lambda_route_agrees(dc, m, scans, lam)
    checks = {
        "gap_routes_agree": gap_routes,
        "pure_gap_routes_agree": pure_routes,
        # Strictly increasing: no vector listed twice, and the order the listings rely on.
        "lambda_count_formula": count_Lambda(dc, m) == len(lam) and all(map(lt, lam, islice(lam, 1, None))),
        "gap_count_bound": len(complement) <= volume,
    }
    if m == 1:
        checks["two_point_count_formula"] = count_gaps_two_points(dc) == len(complement)
    return checks
