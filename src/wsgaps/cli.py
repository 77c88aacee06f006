"""Command-line surface: JSON/TSV emission and the verification suite.

Exit codes: 0 success, 1 verification failure, 2 invalid flags/parameters.
All configuration comes from flags; no environment variables are read.
Vectors are emitted in lexicographic order and integers beyond 2^53 are
serialized as decimal strings so JSON consumers keep them exact.

A record's vectors skip the generic encoder.  Each command knows what it
lists and hands _emit_blocks its rows as blocks of rendered text
(_table_blocks, _classical_blocks or _region_blocks); a record without
vectors goes to _emit_fields.  json.dumps renders the rest of the record
around a placeholder, and the blocks are written in its place at the
indents json.dumps(indent=1) uses at that depth (or as TSV rows).  Both
kinds of `gamma` and `lambda` listing take one pass over the e residues
(maximal.residues: a rho and a top per class of the first coordinate mod
e).  A classical listing (`gamma --classical`, `lambda --classical`) gets
its count, its byte refusal and its rows from them, in the order of
maximal.walk_classical: the first coordinate x upwards, and at each x the
shift vectors of one sum in lexicographic order, so the rows come out
lexicographic with no vector built and nothing sorted.  At m = 1, where
each x has one row, a %-template fills each row.  Above, the rows of
coordinates 2..m of each residue and shift sum are rendered once, into
one string whose rows each open with the marker _SLOT (_sum_blocks), and
each x's rows are one str.join of those strings with the marker replaced
by the rendering of x and of coordinate 1: one str.replace per level and
sum, mapped over every residue, so no Python code runs per row.  The
marker is a NUL character, which no rendered integer and no piece of
_ROW_PARTS or _ROW_SEP holds, so a replace hits the markers alone.  A
fundamental-region listing sorts the classes by top, which puts its e
vectors in order, and writes one row per residue in blocks of
_REGION_ROWS rows, so neither a vector set nor its sort is built.  A gap
table (`gaps`) is streamed the same way: walking alpha_0 upwards, each
alpha_0's rows are one str.join of its rendering and the renderings of
its tails, each tail rendered once, so neither a row list nor the gap
set is ever built.
A table stores one gap count per (tail, class of alpha_0), as a byte, and
GapTable.walk reads those counts as stored: it hands over each alpha_0's
renderings as a list it filters from the class's previous one with a
byte mask of the counts, so the walk runs no Python code per tail and
converts nothing.  The bytes equal
json.dumps(indent=1) of the encoded record, and the per-row prints of TSV.
Only the fundamental-region listing tests coordinates against 2^53: its
rho are below e, within its step estimate, so it reads the first
coordinates at the two ends of its sorted classes, and they go through
_encode only when one exceeds 2^53.  The streamed outputs scan no
coordinate and need no test: every coordinate of an admitted classical
listing is at most its step estimate, below WORK_LIMIT (_listing_work),
and a gap table's lie in [0, bound], where a bound past 2^53 would mean
more than 2^53*e table entries, far above what `gaps` admits.
"""

from __future__ import annotations

import argparse
import json
import sys
from bisect import bisect_right
from functools import cache
from itertools import accumulate, compress, repeat
from math import comb
from operator import neg

from . import gaps as gaps_mod
from . import maximal, membership, oracle
from .curves import check_m, curve
from .errors import WORK_LIMIT, TooMuchWork, WsgapsError, amount_str, exact_str

SCHEMA_VERSION = "1"
_JSON_SAFE = 2**53
# Peak resident bytes of `gaps` per entry of its table (comb(bound + m, m)
# tails, E classes each): both routes' tables of one-byte gap counts, the
# emitter's per-class copy of the rows with a gap and its tail renderings,
# the Lambda route's per-tail arrays and the interpreter.  Measured with
# scripts/peak_rss.py, stdout to /dev/null: 8.3 on Y(4,5,1) at m = 1, 4.4 on
# Y(3,3,1) at m = 2 up to degree 1000 and 7.2 (7.3 pure) on Y(2,3,3) at
# m = 1 up to degree 3*10^6, where e = 3 leaves the per-tail arrays the most
# weight.  The step estimate counts every entry, so an admitted table has at
# most WORK_LIMIT entries, about 0.9 GB at this price, under BYTE_LIMIT:
# `gaps` needs no byte refusal of its own.
BYTES_PER_ENTRY = 9
# Peak resident bytes of `verify` per monomial of the oracle's box
# (oracle.monomial_counts): the set of their valuation vectors, the gap
# tables and the interpreter.  Measured with scripts/peak_rss.py 147-179 on
# Y(2,3,1) at m = 2 up to degree 300-520 (179 at 460, just past a doubling
# of the set's hash table), a box the family corner does not widen.  On
# Y(4,3,13) at m = 4 it reads 194 and 248 on the box of the family corner
# up to degree 40 and 30 (718,914 and 207,663 monomials): the fixed part of
# the peak weighs more on fewer monomials, and between the two runs a
# monomial adds 173.  So 192 is the marginal price, which governs near
# BYTE_LIMIT, not a bound on the peak of a small box.  Below m = max_m
# monomials share vectors and the figure is loose: 105 at m = 3 on
# Y(4,3,13) up to degree 60, 6-9 at m = 1 on Y(2,3,1) up to degree 800-1000.
BYTES_PER_MONOMIAL = 192
# Peak resident bytes of `gamma --classical` and `lambda --classical` per
# vector listed, stdout to /dev/null: the interpreter, the sum-blocks of
# every residue at m >= 2 (_sum_blocks) and one x's block (one i's at
# m = 1).  Measured with scripts/peak_rss.py, gamma and lambda: 28.7 on
# Y(8,5,1) at m = 1 (1,031,969 vectors, where the interpreter weighs
# most), 24.3-25.6 on Y(5,9,7) at m = 2, 14.1-16.3 on Y(7,3,1) and
# 18.9-23.5 on Y(5,5,1) at m = 3 and 11.0-14.1 on Y(5,5,1) at m = 4.
# Y(8,5,1) at m = 1 has read up to 33.5, so the price keeps that margin.
BYTES_PER_VECTOR = 36
# Peak resident bytes per residue (e of them, whatever m is), stdout to
# /dev/null and the interpreter included, of:
# - `gamma --classical` and `lambda --classical`, on top of BYTES_PER_VECTOR:
#   the residue arrays and, at m = 1, each live residue's entry in the walk,
#   above, the sum-blocks and cells of each live residue and the sorted
#   classes while they are built.  Measured, as (peak - 36 per vector)/e,
#   151 on X(2,1,1,21,1) at m = 1, 213 on Y(2,21,1) at m = 1, 205 and 351
#   there at m = 2 (shifts 0 and (m - 1)e), 196 on Y(3,13,1) at m = 1 and
#   414 and 453 at m = 2.
BYTES_PER_CLASSICAL_RESIDUE = 560
# - the fundamental-region `gamma` and `lambda`: the residue arrays and the
#   classes sorted by top.  Measured 78-80 on Y(2,21,1) and X(2,1,1,21,1) at
#   m = 1 and 2, 83 on Y(3,13,1) at m = 3.
# - `member`: the residue table of membership (the residue arrays and their
#   inverse).  Measured 32 on Y(2,21,1) at m = 1 and 2 and on X(2,1,1,21,1)
#   at m = 1, 35 on Y(3,13,1) at m = 1 and 3 and 26 on Y(2,23,1) at m = 1.
BYTES_PER_REGION_RESIDUE = 88
# Largest memory estimate `member` and the listings run, a quarter of an
# 8 GB desk machine; above it the command exits 2 at once instead of
# crowding out the rest of the machine.  Near WORK_LIMIT a `gaps` table
# takes about 0.9 GB, `counts` about 0.35 GB (_counts_work) and `verify`'s
# monomials at most BYTE_LIMIT.
BYTE_LIMIT = 2 * 10**9
# Steps `verify` charges a monomial of the oracle's box, so that WORK_LIMIT
# steps hold at most BYTE_LIMIT bytes of monomials: the step limit alone
# bounds the set, as BYTES_PER_ENTRY lets it bound the tables of `gaps`.
# A monomial takes 1-2 us to build and strike (1.6 on X(3,2,1,5,1181) at
# m = 2), a table step about 10 ns, so the price falls short of its time.
STEPS_PER_MONOMIAL = -(-BYTES_PER_MONOMIAL * WORK_LIMIT // BYTE_LIMIT)


def _encode(obj):
    """Recursively make obj JSON-safe, stringifying oversized integers."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return exact_str(obj) if abs(obj) > _JSON_SAFE else obj
    if isinstance(obj, (list, tuple)):
        return [_encode(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    return obj


def _record(dc, payload) -> dict:
    """The record of one command, every field through _encode."""
    derived = dc._asdict()
    params = {k: v for k, v in derived.pop("params")._asdict().items() if v is not None}
    return {
        "schema_version": SCHEMA_VERSION,
        "params": _encode(params),
        "derived": _encode(derived),
        "payload": _encode(payload),
    }


def _tsv_field(value) -> str:
    """A TSV cell: lists comma-joined, as --vector takes them; None empty."""
    if isinstance(value, list):
        return ",".join(str(x) for x in value)
    return "" if value is None else str(value)


def _dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ": "), indent=1)


# Stands in for payload.vectors while _dumps renders the rest of a record.
_SLOT = "\0"
# Between two rendered vectors.
_ROW_SEP = {"json": ",\n", "tsv": "\n"}
# What a rendered vector writes before its first coordinate, between two
# coordinates and after its last.
_ROW_PARTS = {"json": ("   [\n    ", ",\n    ", "\n   ]"), "tsv": ("", "\t", "")}
# Rows per block of a fundamental-region listing, which bounds the text held at once.
_REGION_ROWS = 4096


def _region_blocks(e: int, m: int, residues, fmt: str):
    """The e vectors (x, rho, ..., rho) of a fundamental-region listing
    (maximal.residues), x = c + e*top, as blocks of _REGION_ROWS rows: each
    a TSV row, or the JSON list _dumps writes at the depth of
    payload.vectors.  A stable sort of the classes c by top puts x
    ascending, as c lies in [0, e - 1], and the x are distinct, so the rows
    are in lexicographic order.  Every rho is below e <= WORK_LIMIT, so
    only an x can pass 2^53, and the ends of the sorted list hold the
    largest |x|; past 2^53 every JSON x goes through _encode (str renders
    the TSV cell either way)."""
    rhos, tops = residues
    lead, sep, end = _ROW_PARTS[fmt]
    order = sorted(range(e), key=tops.__getitem__)
    past = fmt == "json" and max(abs(c + e * tops[c]) for c in (order[0], order[-1])) > _JSON_SAFE
    render = (lambda x: json.dumps(_encode(x))) if past else str
    for start in range(0, e, _REGION_ROWS):
        yield _ROW_SEP[fmt].join([lead + render(c + e * tops[c]) + (sep + str(rhos[c])) * m + end
                                  for c in order[start:start + _REGION_ROWS]])


def _table_blocks(table, fmt: str):
    """The rows of a gap table, one block per alpha_0 in table.walk order.
    Every coordinate lies in [0, table.bound], far below 2^53, so str
    renders each."""
    lead, sep, end = _ROW_PARTS[fmt]
    between = _ROW_SEP[fmt]
    for a0, rests in table.walk(lambda tail: "".join([sep + str(x) for x in tail]) + end):
        first = lead + str(a0)
        yield first + (between + first).join(rests)


def _sum_blocks(e: int, m: int, residues, fmt: str) -> tuple[list, list]:
    """For m >= 2, each live residue's rows of coordinates 2..m as sum-blocks,
    by class c: blocks[c][t], for t in [0, top], is its level-(m - 1) block
    of sum top - t, and cells[c][k], for k in [0, top], is its cell_k =
    sep + str(k*e + rho).  Both are None for a class with top < 0.

    A level-p block of sum R holds the rows of the last p coordinates of
    one residue with shift sum R, lexicographic, each row opened by the
    marker _SLOT.  Level 1 is the one row _SLOT + cell_R + end, and level
    p + 1 of sum R is between.join, for k ascending in [0, R], of the
    level-p block of sum R - k with each marker replaced by _SLOT + cell_k:
    k is the new first shift, and the rows of one k are its lower block's.
    With the live residues sorted by top, descending, those with top >= R
    are a prefix, so each (level, R, k) is one map over the prefix, and
    the Python work is per level, sum and k, not per residue and shift
    vector."""
    sep, end = _ROW_PARTS[fmt][1:]
    between = _ROW_SEP[fmt]
    rhos, tops = residues
    order = sorted(compress(range(e), map((-1).__lt__, tops)), key=tops.__getitem__, reverse=True)
    ranked = [tops[c] for c in order]
    # The first n[R] residues of order have top >= R.
    n = [bisect_right(ranked, -r, key=neg) for r in range(max(tops) + 2)]
    # column[k][j] and level[R][j]: cell_k and the block of sum R of the j-th residue of order.
    column = [[sep + str(k * e + rhos[c]) for c in order[:n[k]]] for k in range(len(n) - 1)]
    level = [[_SLOT + cell + end for cell in row] for row in column]
    marks = [[_SLOT + cell for cell in row] for row in column] if m > 2 else []
    for _ in range(m - 2):
        # zip stops at k = 0, whose blocks of sum r are the n[r] of the prefix.
        level = [list(map(between.join, zip(*[map(str.replace, level[r - k], repeat(_SLOT), marks[k])
                                              for k in range(r + 1)])))
                 for r in range(len(level))]
    blocks, cells = [None] * e, [None] * e
    # The residues of one top t, [a, b) in order, take their own rows of both in one zip each.
    for t, (b, a) in enumerate(zip(n, n[1:])):
        for c, own_blocks, own_cells in zip(order[a:b], zip(*[row[a:b] for row in level[t::-1]]),
                                            zip(*[row[a:b] for row in column[:t + 1]])):
            blocks[c], cells[c] = own_blocks, own_cells
    return blocks, cells


def _classical_blocks(e: int, m: int, residues, fmt: str):
    """The rows of the classical listing of residues (maximal.residues), in
    the order of maximal.walk_classical: x = c + e*i ascending, i outer and
    c inner over the classes with top >= i, its vectors of shift sum
    s = top - i.  _listing_work bounds every coordinate, so str renders
    each.
    At m = 1 every x has one row: one block per i, a %-template per row.
    Above, each x is one block: its residue's sum-blocks (_sum_blocks) of
    sum s - k, k ascending in [0, s], joined with each marker replaced by
    lead + str(x) + cell_k.  It is made when its turn comes, so one x's
    block is held at a time, and the walk keeps no entry per residue.
    The rows are lexicographic: x ascends; at one x coordinate 1 is
    k*e + rho, which ascends with k; and the rows of one k are its
    sum-block's, lexicographic by induction on the level.  No row repeats
    (walk_classical).  The marker, a NUL character, cannot meet the text
    it stands in: every row holds only digits, minus signs and the pieces
    of _ROW_PARTS and _ROW_SEP, none of which holds it, so each replace
    hits the markers alone."""
    lead, sep, end = _ROW_PARTS[fmt]
    between = _ROW_SEP[fmt]
    if m == 1:
        row = lead + "%d" + sep + "%d" + end
        for i, live in maximal.walk_classical(e, m, residues, None):
            yield between.join([row % (c + e * i, (top - i) * e + rho) for c, rho, top, _ in live])
        return
    tops = residues[1]
    (blocks, cells), slots = _sum_blocks(e, m, residues, fmt), repeat(_SLOT)
    for i in range(max(tops) + 1):
        for c in compress(range(e), map(i.__le__, tops)):
            yield between.join(map(str.replace, blocks[c][i:], slots, map((lead + str(c + e * i)).__add__, cells[c])))


def _emit_blocks(record: dict, fmt: str, blocks) -> None:
    """Write record with blocks, the rendered rows of its vectors in order,
    as payload.vectors."""
    payload = record["payload"]
    write = sys.stdout.write
    if fmt == "tsv":
        for block in blocks:
            write(block)
            write("\n")
        return
    first = next(blocks, None)
    if first is None:
        print(_dumps({**record, "payload": {**payload, "vectors": []}}))
        return
    # _dumps writes the one-entry list [_SLOT] as "[\n   <slot>\n  ]" here.
    header = _dumps({**record, "payload": {**payload, "vectors": [_SLOT]}})
    head, tail = header.split("   " + json.dumps(_SLOT))
    write(head)
    write(first)
    for block in blocks:
        write(_ROW_SEP[fmt])
        write(block)
    write(tail + "\n")


def _emit_fields(record: dict, fmt: str) -> None:
    """A record without vectors: as JSON, or one TSV row per field."""
    if fmt == "json":
        print(_dumps(record))
        return
    payload = record["payload"]
    # Only `params` has an empty payload; its answer is the record header.
    rows = payload or {"params": record["params"], "derived": record["derived"]}
    for k in sorted(rows):
        if isinstance(rows[k], dict):
            for name in sorted(rows[k]):
                print(f"{k}.{name}\t{_tsv_field(rows[k][name])}")
        else:
            print(f"{k}\t{_tsv_field(rows[k])}")


def _needs(command: str, m: int, bound: int) -> str:
    return f"{command} at m = {m} up to degree {amount_str(bound)} needs at least"


def _refuse_above_limit(dc, command: str, m: int, bound: int, closed_form: int) -> int:
    """Raise TooMuchWork when closed_form plus the Lambda-box volume exceeds
    WORK_LIMIT, else return the volume (gap_count_upper_bound).  The volume
    is a few binomial terms per residue, but it loops over e residues, so it
    runs only when closed_form, whose binomial terms are O(1), is under the
    limit."""
    _refuse(_needs(command, m, bound), closed_form)
    volume = gaps_mod.gap_count_upper_bound(dc, m)
    _refuse(_needs(command, m, bound), closed_form + volume)
    return volume


def _refuse_gaps(dc, m: int, bound: int) -> None:
    """`gaps` by steps: comb(bound + m, m) threshold-scan tails with E
    classes each, one table entry per tail and class, plus the volume.  An
    admitted table fits in memory (BYTES_PER_ENTRY)."""
    _refuse_above_limit(dc, "gaps", m, bound, comb(bound + m, m) * gaps_mod.table_classes(dc, bound))


def _refuse_verify(dc, m: int, bound: int) -> int:
    """`verify` by steps: five tables' entries as in `gaps` (the closure
    transform, complement, nabla and both Lambda routes); one step per
    simplex point, an allowance for the closure check, which builds each
    tail's non-members as an integer of top + 1 bits and XORs it with the
    table's row in GapTable.difference, so the term prices those bits; the
    volume; and STEPS_PER_MONOMIAL per monomial of the oracle's box,
    counted without building them, a price under which admitted monomials
    fit in BYTE_LIMIT.  The monomials are counted only when the rest is
    under the limit, on the box that consistency_report builds:
    oracle.default_box, whose corner the families size in O(e).  The count
    runs over the box's (a_z, b_y) runs and stops once it passes the steps
    the rest leaves, so a refusal names a lower bound and never walks every
    run.  Returns the volume, for the report's gap-count check.

    The terms price whole tables, while the closure and both Lambda tables
    now run on the blocks, the tails in [0, E)^m (oracle.consistency_report),
    so the estimate overstates those terms, and some cases it refuses
    would now run in time."""
    work = 5 * comb(bound + m, m) * gaps_mod.table_classes(dc, bound) + comb(bound + m + 1, m + 1)
    volume = _refuse_above_limit(dc, "verify", m, bound, work)
    for monomials in accumulate(oracle.monomial_counts(dc, m, oracle.default_box(dc, m, bound)), initial=0):
        if work + volume + monomials * STEPS_PER_MONOMIAL > WORK_LIMIT:
            break
    _refuse(_needs("verify", m, bound), work + volume + monomials * STEPS_PER_MONOMIAL)
    return volume


def _refuse(what: str, amount: int, unit: str = "steps", limit: int = WORK_LIMIT) -> None:
    if amount > limit:
        raise TooMuchWork(f"{what} {amount_str(amount)} {unit}, above the limit {limit}")


def _counts_work(dc, m: int) -> int:
    """Steps of `counts`, in O(1): gap_count_upper_bound sums, for each of
    e residues, 3m + 1 binomials of O(m) multiplications, priced (m + 1)^2
    steps; at m = 1 the two-point count (gaps.count_gaps_two_points) makes
    two Fenwick passes over the residues, a query and an update per
    residue and pass, each of at most ceil(log2 e) levels, priced a step a
    level.  It lists no relative maximal: its lists of e entries peak at
    143-292 bytes a residue (scripts/peak_rss.py, e from 177,148 to
    1,030,302), and this estimate admits at most 1,136,363 residues at
    m = 1, so the step limit alone keeps `counts` under BYTE_LIMIT."""
    two_point = 4 * (dc.e - 1).bit_length() if m == 1 else 0
    return dc.e * ((m + 1) ** 2 + two_point)


def _listing_work(dc, m: int, classical: bool) -> int:
    """Steps of `member`, `gamma` and `lambda`, in O(1): e residues, each with
    m + 1 coordinates or (classical) shift vectors of sum at most top < q^2/p^b.

    A fundamental-region estimate e*m bounds every rho < e of its listing,
    so only a first coordinate can pass 2^53 there (_region_blocks tests
    them).  A classical estimate bounds every coordinate of its listing, so
    an admitted classical listing has every coordinate at most WORK_LIMIT <
    2^53, and str renders it.  Write coord0 + shift = c + e*top as in
    maximal.residues: a listed residue has top >= 0, a first coordinate
    c + e*i, i <= top, is at most coord0 + shift, and every other,
    k*e + rho with k <= top and rho < e, is below coord0 + shift + e.
    Write Q = q^2/p^b (exact, as p^b | q), so m <= q/p^b <= Q, and
    e = (q + 1)M.  For rho >= 1, coord0 = ((q^2 - m*p^b)e - i*q*M -
    j*q^3)/p^b, floored, with i >= 0 and j >= 1, is at most (Q - m)e, and
    coord0 = 0 at rho = 0.  With shift <= (m - 1)e, every coordinate is at
    most (Q - m)e + (m - 1)e + e = Q*e <= e*comb(Q + m, m), as
    comb(Q + m, m) >= Q + m for Q, m >= 1."""
    return dc.e * (comb(dc.q**2 // dc.pb + m, m) if classical else m)


def _refuse_listing(dc, command: str, m: int, classical: bool) -> None:
    """Refuse `member`, `gamma` or `lambda` by steps (_listing_work) and
    by the bytes it holds for each of e residues, in O(1): a classical
    listing's BYTES_PER_CLASSICAL_RESIDUE, else BYTES_PER_REGION_RESIDUE."""
    per_residue = BYTES_PER_CLASSICAL_RESIDUE if classical else BYTES_PER_REGION_RESIDUE
    _refuse(f"{command} at m = {m} needs about", _listing_work(dc, m, classical))
    _refuse(f"{command} at m = {m} keeps {amount_str(dc.e)} residues, about", dc.e * per_residue, "bytes",
            BYTE_LIMIT)


def _refuse_classical(command: str, m: int, residues) -> int:
    """Refuse a classical listing by bytes, once its steps passed: its
    vectors, counted from its residues (maximal.count_classical), at
    BYTES_PER_VECTOR, plus its e residues at BYTES_PER_CLASSICAL_RESIDUE.
    Returns the count."""
    count = maximal.count_classical(residues, m)
    _refuse(f"{command} --classical at m = {m} lists {amount_str(count)} vectors, about",
            count * BYTES_PER_VECTOR + len(residues[1]) * BYTES_PER_CLASSICAL_RESIDUE, "bytes", BYTE_LIMIT)
    return count


def _add_param_flags(sub):
    sub.add_argument("--family", required=True, choices=["X", "Y"])
    for name in ("p", "a", "b", "q", "n", "s"):
        sub.add_argument(f"--{name}", type=int)
    sub.add_argument("--format", choices=["json", "tsv"], default="json")


def _curve_from_args(args):
    required = ("n", "s", "p", "a", "b") if args.family == "X" else ("n", "s", "q")
    missing = [k for k in required if getattr(args, k) is None]
    if missing:
        raise WsgapsError(f"missing flags for family {args.family}: {missing}")
    # Every given flag goes through, so validate_params rejects the other family's.
    given = {k: getattr(args, k) for k in ("p", "a", "b", "q", "n", "s")}
    return curve(args.family, **{k: v for k, v in given.items() if v is not None})


def _parse_vector(text: str, length: int) -> tuple[int, ...]:
    try:
        vec = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise WsgapsError(f"--vector must be comma-separated integers, got {text!r}") from None
    if len(vec) != length:
        raise WsgapsError(f"--vector must have {length} entries, got {len(vec)}")
    return vec


def _jobs(text: str) -> int:
    jobs = int(text) if text.lstrip("-").isdigit() else 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return jobs


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `wsgaps` parser, built once per process: parse_args leaves it as it was."""
    ap = argparse.ArgumentParser(
        prog="wsgaps",
        description="Weierstrass semigroups, gaps and pure gaps at several "
        "points on two families of maximal curves; exact arithmetic only.",
    )
    curve_flags = argparse.ArgumentParser(add_help=False)
    _add_param_flags(curve_flags)
    subs = ap.add_subparsers(dest="command", required=True)
    for name in ("params", "gamma", "lambda", "gaps", "member", "counts", "verify"):
        sub = subs.add_parser(name, parents=[curve_flags])
        if name != "params":
            sub.add_argument("--m", type=int, default=1)
        if name in ("gamma", "lambda"):
            sub.add_argument("--classical", action="store_true")
        if name == "gaps":
            sub.add_argument("--pure", action="store_true")
        if name == "member":
            sub.add_argument("--vector", required=True)
        if name in ("gaps", "verify"):
            # Widens the search region past its proven bound, never shrinks it.
            sub.add_argument("--box-sum", type=int, default=0)
            # Accepted for compatibility; every scan runs in one thread.
            sub.add_argument("--jobs", type=_jobs, default=1)
    return ap


def run(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # argparse hands `--flag=--` over as an empty list, whatever the flag's type.
    if any(isinstance(v, list) for v in vars(args).values()):
        ap.error("'--' is not a flag value")
    try:
        dc = _curve_from_args(args)
        if args.command == "params":
            _emit_fields(_record(dc, {}), args.format)
            return 0

        # Every other command takes --m; the work estimates need it in range.
        check_m(dc, args.m)

        if args.command in ("gamma", "lambda"):
            _refuse_listing(dc, args.command, args.m, args.classical)
            shift = maximal.relative_shift(dc, args.m) if args.command == "lambda" else 0
            residues = maximal.residues(dc, args.m, shift)
            if args.classical:
                count = _refuse_classical(args.command, args.m, residues)
                blocks = _classical_blocks(dc.e, args.m, residues, args.format)
            else:
                count, blocks = dc.e, _region_blocks(dc.e, args.m, residues, args.format)
            _emit_blocks(_record(dc, {"m": args.m, "count": count}), args.format, blocks)
            return 0

        if args.command == "gaps":
            bound = max(args.box_sum, 2 * dc.genus - 1)
            _refuse_gaps(dc, args.m, bound)
            routes = [("formula", gaps_mod.gaps_via_lambda), ("complement", gaps_mod.gaps_via_complement)]
            if args.pure:
                routes = [("formula", gaps_mod.pure_gaps_via_lambda), ("nabla", gaps_mod.pure_gaps_via_nabla)]
            (name, route), (scan_name, scan_route) = routes
            scan = scan_route(dc, args.m, bound)
            # Checked on the blocks; only a disagreement builds the whole Lambda table, to name the vector.
            if not gaps_mod.lambda_route_agrees(dc, args.m, {args.pure: scan})[0]:
                table = route(dc, args.m, bound)
                differ = table.first_difference(scan)
                if differ is not None:
                    vector, holder = differ
                    held = f"a gap by the {name if holder is table else scan_name} route " + (
                        "above its class prefix" if vector == holder.stray else "only")
                    print(f"route disagreement between {name} and {scan_name}: smallest differing vector "
                          f"{vector}, {held}", file=sys.stderr)
                    return 1
            _emit_blocks(_record(dc, {"m": args.m, "count": len(scan)}), args.format,
                         _table_blocks(scan, args.format))
            return 0

        if args.command == "member":
            vec = _parse_vector(args.vector, args.m + 1)
            _refuse_listing(dc, "member", args.m, False)
            verdict = membership.in_generalized_H(dc, args.m, vec)
            payload = {
                "m": args.m,
                "vector": vec,
                "member": verdict.member,
                "classical_member": verdict.member and min(vec) >= 0,
                "failing_coordinate": verdict.failing_coordinate,
            }
            _emit_fields(_record(dc, payload), args.format)
            return 0

        if args.command == "counts":
            _refuse(f"counts at m = {args.m} needs about", _counts_work(dc, args.m))
            residues = maximal.residues(dc, args.m, maximal.relative_shift(dc, args.m))
            payload = {
                "m": args.m,
                "lambda_count": maximal.count_classical(residues, args.m),
                "gap_count_upper_bound": gaps_mod.gap_count_upper_bound(dc, args.m, residues),
            }
            if args.m == 1:
                payload["two_point_gap_count"] = gaps_mod.count_gaps_two_points(dc, residues)
            _emit_fields(_record(dc, payload), args.format)
            return 0

        if args.command == "verify":
            bound = max(args.box_sum, 2 * dc.genus)
            volume = _refuse_verify(dc, args.m, bound)
            checks = oracle.consistency_report(dc, args.m, bound=bound, volume=volume)
            _emit_fields(_record(dc, {"m": args.m, "checks": checks, "pass": all(checks.values())}), args.format)
            return 0 if all(checks.values()) else 1
    except WsgapsError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    # A reader closing stdout early (`wsgaps ... | head`) ends the process by
    # SIGPIPE, as for any Unix filter, not by a traceback with exit code 1.
    import signal  # only this entry point sets a handler; importers of cli skip the module

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
