"""Command-line surface: JSON/TSV emission and the verification suite.

Exit codes: 0 success, 1 verification failure, 2 invalid flags/parameters.
All configuration comes from flags; no environment variables are read.
Vectors are emitted in lexicographic order and integers beyond 2^53 are
serialized as decimal strings so JSON consumers keep them exact.

A record's `vectors` skip the generic encoder.  json.dumps renders the rest
of the record around a placeholder; each vector fills one %-template (one
integer per line at the indents json.dumps(indent=1) uses at that depth, or
one TSV row), and str.join builds the list as one string.  The bytes
equal json.dumps(indent=1) of the encoded record, and the per-row prints of
TSV; coordinates go through _encode only when some |x| > 2^53.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from dataclasses import asdict
from math import comb

from . import gaps as gaps_mod
from . import maximal, membership, oracle
from .curves import check_m, curve
from .errors import TooMuchWork, WsgapsError, exact_str

SCHEMA_VERSION = "1"
_JSON_SAFE = 2**53
# Largest work estimate `gaps` and `verify` run; above it the command exits 2
# at once instead of running for hours or exhausting memory.
WORK_LIMIT = 10**8
# Peak resident bytes of `gaps` per gap: both routes' sets, the sorted list
# and the rendered text, interpreter included.  Measured 416 on Y(3,5,1) and
# 414 on Y(4,5,5) at m = 1, and 391 on Y(3,3,1) at m = 2.
BYTES_PER_GAP = 420
# Largest memory estimate `gaps` runs; above it the command exits 2 at once
# instead of being killed when memory runs out.
BYTE_LIMIT = 8 * 10**9


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
    """The record of one command; payload["vectors"], a list of equal-length
    tuples, stays as it is for _emit to render."""
    derived = asdict(dc)
    params = {k: v for k, v in derived.pop("params").items() if v is not None}
    return {
        "schema_version": SCHEMA_VERSION,
        "params": _encode(params),
        "derived": _encode(derived),
        "payload": {k: v if k == "vectors" else _encode(v) for k, v in payload.items()},
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


def _vector_rows(vectors: list, fmt: str) -> list[str]:
    """Each vector as a TSV row, or as the JSON list _dumps writes at the
    depth of payload.vectors.  Coordinates are rendered by str unless some
    |x| > 2^53; then each goes through _encode."""
    slots = ["%s"] * len(vectors[0])
    row = "\t".join(slots) if fmt == "tsv" else "   [\n    " + ",\n    ".join(slots) + "\n   ]"
    if -_JSON_SAFE <= min(map(min, vectors)) and max(map(max, vectors)) <= _JSON_SAFE:
        return list(map(row.__mod__, vectors))
    cell = str if fmt == "tsv" else json.dumps
    return [row % tuple(cell(_encode(x)) for x in v) for v in vectors]


def _emit(record: dict, fmt: str) -> None:
    payload = record["payload"]
    vectors = payload.get("vectors")
    if fmt == "json" and vectors:
        # _dumps writes the one-entry list [_SLOT] as "[\n   <slot>\n  ]" here.
        header = _dumps({**record, "payload": {**payload, "vectors": [_SLOT]}})
        head, tail = header.split("   " + json.dumps(_SLOT))
        print(head, ",\n".join(_vector_rows(vectors, fmt)), tail, sep="")
    elif fmt == "json":
        print(_dumps(record))
    elif vectors is not None:
        if vectors:
            print("\n".join(_vector_rows(vectors, fmt)))
    else:
        # Only `params` has an empty payload; its answer is the record header.
        rows = payload or {"params": record["params"], "derived": record["derived"]}
        for k in sorted(rows):
            if isinstance(rows[k], dict):
                for name in sorted(rows[k]):
                    print(f"{k}.{name}\t{_tsv_field(rows[k][name])}")
            else:
                print(f"{k}\t{_tsv_field(rows[k])}")


def _refuse_above_limit(dc, command: str, m: int, bound: int, closed_form: int) -> int:
    """Raise TooMuchWork when closed_form plus the Lambda-box volume exceeds
    WORK_LIMIT, else return the volume (gap_count_upper_bound).  The volume
    is a convolution whose length grows with the instance, so it runs only
    when closed_form is under the limit."""
    what = f"{command} at m = {m} up to degree {exact_str(bound)} needs at least"
    _refuse(what, closed_form)
    volume = gaps_mod.gap_count_upper_bound(dc, m)
    _refuse(what, closed_form + volume)
    return volume


def _refuse_gaps(dc, m: int, bound: int) -> None:
    """`gaps` by steps (comb(bound + m, m) threshold-scan tails with e
    classes each, plus the volume) and by bytes: every gap lies in
    sum(alpha) <= 2g - 1, so the volume bounds the gaps of any bound."""
    gaps = _refuse_above_limit(dc, "gaps", m, bound, comb(bound + m, m) * dc.e)
    if gaps * BYTES_PER_GAP > BYTE_LIMIT:
        raise TooMuchWork(f"gaps at m = {m} holds up to {exact_str(gaps)} gaps, about "
                          f"{exact_str(gaps * BYTES_PER_GAP)} bytes, above the limit {BYTE_LIMIT}")


def _refuse(what: str, work: int) -> None:
    if work > WORK_LIMIT:
        raise TooMuchWork(f"{what} {exact_str(work)} steps, above the limit {WORK_LIMIT}")


def _counts_work(dc, m: int) -> int:
    """Steps of `counts`, in O(1): gap_count_upper_bound convolves, for each
    of e residues, m sequences of length T + 1 <= q^2/p^b; at m = 1 the
    two-point count sorts up to e*T relative maximals."""
    t = dc.q**2 // dc.pb
    return dc.e * m * t * t + (dc.e * t if m == 1 else 0)


def _listing_work(dc, m: int, classical: bool) -> int:
    """Steps of `member`, `gamma` and `lambda`, in O(1): e residues, each with
    m + 1 coordinates or (classical) shift vectors of sum T < q^2/p^b."""
    return dc.e * (comb(dc.q**2 // dc.pb + m, m) if classical else m)


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wsgaps",
        description="Weierstrass semigroups, gaps and pure gaps at several "
        "points on two families of maximal curves; exact arithmetic only.",
    )
    subs = ap.add_subparsers(dest="command", required=True)
    for name in ("params", "gamma", "lambda", "gaps", "member", "counts", "verify"):
        sub = subs.add_parser(name)
        _add_param_flags(sub)
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
    except WsgapsError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2

    try:
        if args.command == "params":
            _emit(_record(dc, {}), args.format)
            return 0

        # Every other command takes --m; the work estimates need it in range.
        check_m(dc, args.m)

        if args.command in ("gamma", "lambda"):
            _refuse(f"{args.command} at m = {args.m} needs about", _listing_work(dc, args.m, args.classical))
            classical, in_C = {
                "gamma": (maximal.enumerate_classical_Gamma, maximal.gamma_hat_in_C),
                "lambda": (maximal.enumerate_classical_Lambda, maximal.lambda_hat_in_C),
            }[args.command]
            vecs = (classical if args.classical else in_C)(dc, args.m)
            _emit(_record(dc, {"m": args.m, "vectors": sorted(vecs), "count": len(vecs)}), args.format)
            return 0

        if args.command == "gaps":
            bound = max(args.box_sum, 2 * dc.genus - 1)
            _refuse_gaps(dc, args.m, bound)
            fn = gaps_mod.pure_gaps_via_lambda if args.pure else gaps_mod.gaps_via_lambda
            vecs = fn(dc, args.m, bound)
            check = (
                gaps_mod.pure_gaps_via_nabla(dc, args.m, bound)
                if args.pure
                else gaps_mod.gaps_via_complement(dc, args.m, bound)
            )
            if vecs != check:
                print("route disagreement between formula and complement", file=sys.stderr)
                return 1
            _emit(_record(dc, {"m": args.m, "vectors": sorted(vecs), "count": len(vecs)}), args.format)
            return 0

        if args.command == "member":
            vec = _parse_vector(args.vector, args.m + 1)
            _refuse(f"member at m = {args.m} needs about", _listing_work(dc, args.m, False))
            verdict = membership.in_generalized_H(dc, args.m, vec)
            payload = {
                "m": args.m,
                "vector": vec,
                "member": verdict.member,
                "classical_member": membership.in_classical_H(dc, args.m, vec),
                "failing_coordinate": verdict.failing_coordinate,
            }
            _emit(_record(dc, payload), args.format)
            return 0

        if args.command == "counts":
            _refuse(f"counts at m = {args.m} needs about", _counts_work(dc, args.m))
            payload = {
                "m": args.m,
                "lambda_count": maximal.count_Lambda(dc, args.m),
                "gap_count_upper_bound": gaps_mod.gap_count_upper_bound(dc, args.m),
            }
            if args.m == 1:
                payload["two_point_gap_count"] = gaps_mod.count_gaps_two_points(dc)
            _emit(_record(dc, payload), args.format)
            return 0

        if args.command == "verify":
            bound = max(args.box_sum, 2 * dc.genus)
            # The threshold scan as in `gaps`, plus at most one closure probe per point.
            work = comb(bound + args.m, args.m) * dc.e + comb(bound + args.m + 1, args.m + 1)
            _refuse_above_limit(dc, "verify", args.m, bound, work)
            checks = oracle.consistency_report(dc, args.m, bound=bound)
            _emit(_record(dc, {"m": args.m, "checks": checks, "pass": all(checks.values())}), args.format)
            return 0 if all(checks.values()) else 1
    except WsgapsError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    # A reader closing stdout early (`wsgaps ... | head`) ends the process by
    # SIGPIPE, as for any Unix filter, not by a traceback with exit code 1.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
