"""Command-line surface: formats, exit codes, round-trips, stability."""

import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from math import comb
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import witness_test
from wsgaps import cli, gaps, maximal, oracle
from wsgaps.cli import (
    BYTE_LIMIT,
    BYTES_PER_CLASSICAL_RESIDUE,
    BYTES_PER_ENTRY,
    BYTES_PER_MONOMIAL,
    BYTES_PER_REGION_RESIDUE,
    BYTES_PER_VECTOR,
    STEPS_PER_MONOMIAL,
    WORK_LIMIT,
    _ROW_PARTS,
    _ROW_SEP,
    _SLOT,
    _classical_blocks,
    _counts_work,
    _emit_blocks,
    _encode,
    _listing_work,
    _record,
    _refuse_classical,
    _refuse_gaps,
    _refuse_listing,
    _refuse_verify,
    _region_blocks,
    _table_blocks,
    run,
)
from wsgaps.curves import curve, simplex_points
from wsgaps.errors import SHOWN_BITS, TooMuchWork, amount_str, exact_str

SRC = Path(__file__).resolve().parents[1] / "src"
Y231 = ["--family", "Y", "--q", "2", "--n", "3", "--s", "1"]
Y233 = ["--family", "Y", "--q", "2", "--n", "3", "--s", "3"]
X21131 = ["--family", "X", "--p", "2", "--a", "1", "--b", "1", "--n", "3", "--s", "1"]


def _json(capsys):
    return json.loads(capsys.readouterr().out)


def test_params_y231(capsys):
    assert run(["params", *Y231]) == 0
    rec = _json(capsys)
    assert rec["schema_version"] == "1"
    assert rec["derived"]["genus"] == 10
    assert rec["derived"]["gens"] == [6, 8, 9]


def test_params_tsv_one_row_per_field(capsys):
    assert run(["params", *Y231]) == 0
    rec = _json(capsys)
    assert run(["params", *Y231, "--format", "tsv"]) == 0
    rows = [r.split("\t") for r in capsys.readouterr().out.splitlines()]
    names = [k for k, _ in rows]
    assert names == sorted(f"{sec}.{k}" for sec in ("params", "derived") for k in rec[sec])
    assert ["derived.gens", "6,8,9"] in rows and ["params.family", "Y"] in rows


def test_params_invalid_exit_2(capsys):
    assert run(["params", "--family", "X", "--p", "2", "--a", "1", "--b", "1",
                "--n", "3", "--s", "3"]) == 2
    assert "GenusNotPositive" in capsys.readouterr().err

    assert run(["params", "--family", "Y", "--q", "2", "--n", "3", "--s", "2"]) == 2
    assert "SNotDividing" in capsys.readouterr().err


def test_params_missing_flags_exit_2(capsys):
    assert run(["params", "--family", "Y", "--n", "3", "--s", "1"]) == 2
    assert "missing" in capsys.readouterr().err


def test_params_other_family_flags_exit_2(capsys):
    assert run(["params", *Y231, "--p", "7"]) == 2
    assert "family Y takes no p, a, b" in capsys.readouterr().err
    assert run(["params", *X21131, "--q", "5"]) == 2
    assert "family X takes no q" in capsys.readouterr().err


def test_gamma_count(capsys):
    assert run(["gamma", *Y231, "--m", "1"]) == 0
    rec = _json(capsys)
    assert rec["payload"]["count"] == 9
    assert [0, 0] in rec["payload"]["vectors"]


def test_gaps_tsv_rows(capsys):
    assert run(["gaps", *X21131, "--m", "1", "--format", "tsv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 13
    assert all(len(r.split("\t")) == 2 for r in rows)


def test_member_false(capsys):
    assert run(["member", *Y231, "--m", "1", "--vector", "1,1"]) == 0
    payload = _json(capsys)["payload"]
    assert payload["member"] is False
    assert payload["failing_coordinate"] == 1


def test_member_tsv_fields(capsys):
    expected = {
        "1,1": {"vector": "1,1", "member": "False", "failing_coordinate": "1"},
        "19,1": {"vector": "19,1", "member": "True", "failing_coordinate": ""},
    }
    for vector, fields in expected.items():
        assert run(["member", *Y231, "--m", "1", "--vector", vector, "--format", "tsv"]) == 0
        rows = dict(r.split("\t") for r in capsys.readouterr().out.splitlines())
        assert {k: rows[k] for k in fields} == fields
        # The vector cell is what --vector accepts.
        assert run(["member", *Y231, "--m", "1", "--vector", rows["vector"]]) == 0
        assert _json(capsys)["payload"]["member"] == (fields["member"] == "True")


def test_member_bad_vector_exit_2(capsys):
    for vector in ("1,1,1", "1,x", ""):
        assert run(["member", *Y231, "--m", "1", "--vector", vector]) == 2
        err = capsys.readouterr().err
        assert "WsgapsError" in err and "Traceback" not in err


def test_counts(capsys):
    assert run(["counts", *Y231, "--m", "1"]) == 0
    payload = _json(capsys)["payload"]
    assert payload["lambda_count"] == 11
    assert payload["gap_count_upper_bound"] == 150
    assert payload["two_point_gap_count"] == 115


def test_counts_large_instance(capsys):
    # Y(4,5,1) at m=4: the bound is summed in closed form, never over Lambda.
    assert run(["counts", "--family", "Y", "--q", "4", "--n", "5", "--s", "1", "--m", "4"]) == 0
    payload = _json(capsys)["payload"]
    assert payload["lambda_count"] == 596139
    # Above 2**53, so emitted as a decimal string (checked against the
    # enumerated sum over all 596,139 relative maximals).
    assert payload["gap_count_upper_bound"] == "50683820011114178430"


def test_verify_exit_0(capsys):
    assert run(["verify", *Y231, "--m", "1"]) == 0
    payload = _json(capsys)["payload"]
    assert payload["pass"] is True


def test_verify_negative_box_sum_keeps_default_region(capsys, monkeypatch):
    run(["verify", *Y231, "--m", "1"])
    plain = capsys.readouterr().out
    assert run(["verify", *Y231, "--m", "1", "--box-sum", "-5"]) == 0
    assert capsys.readouterr().out == plain

    bounds = []
    report = oracle.consistency_report
    monkeypatch.setattr(oracle, "consistency_report",
                        lambda dc, m, bound, volume: bounds.append(bound) or report(dc, m, bound, volume))
    for box_sum in ("-5", "25"):
        run(["verify", *Y231, "--m", "1", "--box-sum", box_sum])
    capsys.readouterr()
    assert bounds == [20, 25]  # 2g = 20 is the default region


def test_verify_scans_the_complement_once(capsys, monkeypatch):
    """Every check of `verify` reads one complement table: the run calls
    gaps_via_complement once and the threshold scan twice (complement and
    nabla), also with --box-sum."""
    calls = {"gaps_via_complement": 0, "_threshold_scan": 0}
    for name in calls:
        real = getattr(gaps, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for mod in (gaps, oracle):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    for argv in (["--m", "1"], ["--m", "2", "--box-sum", "30"]):
        calls.update(dict.fromkeys(calls, 0))
        assert run(["verify", *Y231, *argv]) == 0
        assert calls == {"gaps_via_complement": 1, "_threshold_scan": 2}, argv
    capsys.readouterr()


def test_verify_computes_the_volume_and_lambda_once(capsys, monkeypatch):
    """`verify` sums the Lambda-box volume once, for its price and its
    gap-count check, and enumerates Lambda once, for the families check,
    both Lambda routes, the Lambda count and (m = 1) the two-point count."""
    calls = {"gap_count_upper_bound": 0, "enumerate_classical_Lambda": 0}
    for name in calls:
        real = getattr(gaps, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for mod in (gaps, oracle, maximal):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    for argv in (["--m", "1"], ["--m", "2", "--box-sum", "30"]):
        calls.update(dict.fromkeys(calls, 0))
        assert run(["verify", *Y231, *argv]) == 0
        assert calls == {"gap_count_upper_bound": 1, "enumerate_classical_Lambda": 1}, argv
    capsys.readouterr()


def test_verify_reaches_each_coordinate_once_for_both_kinds(capsys, monkeypatch):
    """`verify` builds both Lambda tables from one reach pass: each
    coordinate r >= 1 has its reach array computed once, not once per kind."""
    reached = []
    real = gaps._reach

    def counted(lam, r, *args):
        reached.append(r)
        return real(lam, r, *args)

    monkeypatch.setattr(gaps, "_reach", counted)
    for m in (1, 2):
        reached.clear()
        assert run(["verify", *Y231, "--m", str(m)]) == 0
        assert sorted(reached) == list(range(1, m + 1)), m
    capsys.readouterr()


def test_verify_tsv_one_row_per_check(capsys):
    assert run(["verify", *Y231, "--m", "1", "--format", "tsv"]) == 0
    rows = [r.split("\t") for r in capsys.readouterr().out.splitlines()]
    names = [k for k, _ in rows if k.startswith("checks.")]
    assert names == sorted(names) and "checks.gap_routes_agree" in names
    assert all(v == "True" for k, v in rows if k != "m")
    assert [k for k, _ in rows if not k.startswith("checks.")] == ["m", "pass"]


def test_double_dash_flag_value_exit_2(capsys):
    # argparse parses `--flag=--` to an empty list; it used to reach the
    # library and end in a traceback with exit 1.
    for argv in (["member", *Y231, "--vector=--"], ["counts", *Y231, "--m=--"],
                 ["counts", "--family", "Y", "--q=--", "--n", "3", "--s", "1"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        assert "'--' is not a flag value" in capsys.readouterr().err


def test_jobs_below_one_exit_2(capsys):
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            run(["verify", *Y231, "--m", "1", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


def _assert_closed_stdout_ends_by_sigpipe(fmt):
    """The vectors go out in one write, more than a pipe buffer holds (about
    95 KiB as TSV, 287 KiB as JSON); the reader closes after one line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["lambda", "--family", "Y", "--q", "4", "--n", "5", "--s", "5", "--m", "2",
            "--classical", "--format", fmt]
    with subprocess.Popen([sys.executable, "-m", "wsgaps.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == -signal.SIGPIPE
    assert "Traceback" not in err


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="platform has no SIGPIPE")
def test_closed_stdout_ends_by_sigpipe():
    _assert_closed_stdout_ends_by_sigpipe("tsv")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="platform has no SIGPIPE")
def test_closed_stdout_ends_by_sigpipe_json():
    _assert_closed_stdout_ends_by_sigpipe("json")


def test_bad_m_exit_2(capsys):
    assert run(["gamma", *Y231, "--m", "5"]) == 2
    assert "BadM" in capsys.readouterr().err


def test_gaps_refuses_work_that_cannot_finish(capsys):
    # X(3,2,1,3,1) at m = 3: about 7e16 steps; Y(3,3,1) at m = 3: about 1.6e8.
    for argv in (["--family", "X", "--p", "3", "--a", "2", "--b", "1", "--n", "3", "--s", "1"],
                 ["--family", "Y", "--q", "3", "--n", "3", "--s", "1"]):
        t0 = time.perf_counter()
        assert run(["gaps", *argv, "--m", "3"]) == 2
        assert time.perf_counter() - t0 < 5
        out = capsys.readouterr()
        assert out.out == ""
        assert "TooMuchWork" in out.err and "above the limit 100000000" in out.err
    assert run(["gaps", *Y231, "--m", "1", "--box-sum", str(10**8)]) == 2
    assert "TooMuchWork" in capsys.readouterr().err


def test_verify_refuses_work_that_cannot_finish(capsys):
    # Y(3,3,1) at m = 3: about 2.2e8 steps; Y(2,3,1) up to degree 100000 at
    # m = 1: about 5e9; Y(2,3,1) up to degree 800 at m = 2: about 1.004e8
    # for its five tables, where one table would be about 8.9e7.
    for argv in (["--family", "Y", "--q", "3", "--n", "3", "--s", "1", "--m", "3"],
                 [*Y231, "--m", "1", "--box-sum", "100000"],
                 [*Y231, "--m", "2", "--box-sum", "800"]):
        t0 = time.perf_counter()
        assert run(["verify", *argv]) == 2
        assert time.perf_counter() - t0 < 5
        out = capsys.readouterr()
        assert out.out == ""
        assert "TooMuchWork" in out.err and "above the limit 100000000" in out.err
        assert "Traceback" not in out.err


def _cli_subprocess(argv):
    """Run the CLI in a fresh interpreter; returns (process, seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "wsgaps.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=20)
    return proc, time.perf_counter() - t0


def _assert_refused_at_once(argv):
    proc, seconds = _cli_subprocess(argv)
    assert seconds < 5, argv
    assert proc.returncode == 2, (argv, proc.stderr)
    assert proc.stdout == ""
    assert "TooMuchWork" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["gaps", "verify", "counts"])
def test_refusal_comes_before_the_volume(command):
    """Y(2,23,1) at m = 1: the threshold scan alone is about 2.1e14 steps
    and the counts estimate, through its two-point term, about 8.4e8, so
    the command refuses before summing the Lambda-box volume over its
    8,388,609 residues, which takes seconds."""
    _assert_refused_at_once([command, "--family", "Y", "--q", "2", "--n", "23", "--s", "1", "--m", "1"])


def test_counts_runs_what_a_convolution_price_refused():
    """Y(8,5,1) at m = 8: a volume convolution priced e*m*(q^2/p^b)^2, about
    1.07e9 steps; its binomial terms are priced e*(m + 1)^2 and run in well
    under a second."""
    dc = curve("Y", q=8, n=5, s=1)
    assert dc.e * 8 * (dc.q**2 // dc.pb) ** 2 > WORK_LIMIT >= _counts_work(dc, 8)
    proc, seconds = _cli_subprocess(["counts", "--family", "Y", "--q", "8", "--n", "5", "--s", "1", "--m", "8"])
    assert proc.returncode == 0, proc.stderr
    assert seconds < 5
    assert json.loads(proc.stdout)["payload"]["lambda_count"] == maximal.count_Lambda(dc, 8)


@pytest.mark.parametrize("flags", [["member", "--vector", "1,1"], ["gamma"], ["lambda"],
                                   ["gamma", "--classical"], ["lambda", "--classical"]])
def test_listings_refuse_work_that_cannot_finish(flags):
    """Y(2,41,1) at m = 1 has e = 2^41 + 1 residues: `member` would build an
    e-entry residue table and the listings would loop over every residue."""
    _assert_refused_at_once([flags[0], "--family", "Y", "--q", "2", "--n", "41", "--s", "1",
                             "--m", "1", *flags[1:]])


def test_gaps_refuses_what_memory_cannot_hold(capsys):
    """The step estimate counts every table entry, and WORK_LIMIT entries
    at BYTES_PER_ENTRY fit under BYTE_LIMIT, so the step limit alone keeps
    `gaps` in memory.  Y(2,3,1) at m = 1 up to degree 3*10^8 would keep
    2,700,000,009 entries, about 24 GB, and is refused at once."""
    assert WORK_LIMIT * BYTES_PER_ENTRY <= BYTE_LIMIT
    argv = ["gaps", *Y231, "--m", "1", "--box-sum", str(3 * 10**8)]
    _assert_refused_at_once(argv)
    for flags in ([], ["--pure"]):
        assert run([*argv, *flags]) == 2
        assert f"steps, above the limit {WORK_LIMIT}" in capsys.readouterr().err


def test_counts_refuses_what_memory_cannot_hold(capsys):
    """The two-point count keeps a few lists of e entries, no listing: its
    peak, measured with scripts/peak_rss.py, is 143-292 bytes a residue at
    e from 177,148 to 1,030,302 (725 on Y(32,3,1), where the interpreter
    weighs most).  The step estimate admits at most 1,136,363 residues at
    m = 1, so at 300 bytes each the step limit alone keeps `counts` under
    BYTE_LIMIT.  Y(32,3,1) at m = 1, whose two-point count once held up to
    33,588,225 relative maximals, runs; Y(2,23,1) is refused by steps."""
    # The estimate grows with e, so 1,136,363 is the most residues it admits.
    assert _counts_work(SimpleNamespace(e=1_136_363), 1) <= WORK_LIMIT < _counts_work(SimpleNamespace(e=1_136_364), 1)
    assert 1_136_363 * 300 <= BYTE_LIMIT
    argv = ["counts", "--family", "Y", "--q", "32", "--n", "3", "--s", "1", "--m", "1"]
    proc, seconds = _cli_subprocess(argv)
    assert proc.returncode == 0, proc.stderr
    assert seconds < 5
    payload = json.loads(proc.stdout)["payload"]
    assert payload["lambda_count"] == maximal.count_Lambda(curve("Y", q=32, n=3, s=1), 1)
    assert run(["counts", "--family", "Y", "--q", "2", "--n", "23", "--s", "1", "--m", "1"]) == 2
    assert f"steps, above the limit {WORK_LIMIT}" in capsys.readouterr().err


def test_counts_builds_no_listing(capsys, monkeypatch, y231):
    """`counts` at m = 1 and 2 computes the residues once, for the Lambda
    count, the volume and (at m = 1) the two-point count, and lists no
    relative maximal: one call through maximal.residues and gaps.residues
    together."""
    def refuse(*args):
        raise AssertionError("counts built a listing")

    volumes = {m: gaps.gap_count_upper_bound(y231, m) for m in (1, 2)}
    calls = []
    real = maximal.residues
    monkeypatch.setattr(maximal, "_enumerate_classical", refuse)
    for module in (maximal, gaps):
        monkeypatch.setattr(module, "residues", lambda *args: calls.append(args) or real(*args))
    for m, volume in volumes.items():
        calls.clear()
        assert run(["counts", *Y231, "--m", str(m)]) == 0
        payload = _json(capsys)["payload"]
        assert payload["gap_count_upper_bound"] == volume
        assert payload.get("two_point_gap_count") == (115 if m == 1 else None)
        assert len(calls) == 1, m


@pytest.mark.parametrize("command", [
    "verify --family Y --q 2 --n 5 --s 1 --m 2 --jobs 1",
    "gaps --family Y --q 4 --n 3 --s 1 --m 1 --jobs 1",
    "gaps --family X --p 2 --a 2 --b 2 --n 5 --s 5 --m 1 --pure --jobs 1",
])
def test_benchmark_commands_check_the_routes_on_the_blocks(command, capsys, monkeypatch):
    """The benchmark's `verify` and `gaps` commands build no whole Lambda
    table and print the bytes pinned in perfbench/digests.json: the Lambda
    tables are built on the blocks alone (width E), and the closure, where
    it runs, reads at most the block tails.  `verify` builds its nabla table
    on the blocks too, and its complement table whole; `gaps` prints a
    whole scan table."""
    def refuse(*args):
        raise AssertionError("a whole Lambda table was built")

    real_tables, real_rows, real_scan = gaps._lambda_tables, oracle._closure_rows, gaps._threshold_scan
    widths, tails, scans = [], [], []

    def scan(dc, m, bound, pure, width=None):
        table = real_scan(dc, m, bound, pure, width)
        scans.append((pure, table.width, table.E))
        return table

    def tables(lam, E, m, bound, kinds, width=None):
        widths.append((width, E))
        return real_tables(lam, E, m, bound, kinds, width)

    def rows(gens, m, bound, width=None):
        out = list(real_rows(gens, m, bound, width))
        tails.append((len(out), sum(1 for _ in simplex_points(m, bound, width)), width))
        return iter(out)

    monkeypatch.setattr(gaps, "gaps_via_lambda", refuse)
    monkeypatch.setattr(gaps, "pure_gaps_via_lambda", refuse)
    monkeypatch.setattr(gaps, "_lambda_tables", tables)
    monkeypatch.setattr(oracle, "_closure_rows", rows)
    monkeypatch.setattr(gaps, "_threshold_scan", scan)
    assert run(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == json.loads((SRC.parent / "perfbench" / "digests.json").read_text())[command]
    assert widths and all(width == E for width, E in widths), widths
    if command.startswith("verify"):
        # Y(2,5,1) at m = 2 up to degree 92: 33^2 block tails of the simplex's 4,371.
        assert tails == [(33 * 33, 33 * 33, 33)], tails
        assert scans == [(False, None, 33), (True, 33, 33)], scans
    else:
        assert tails == []
        assert [(pure, width) for pure, width, _ in scans] == [("--pure" in command, None)], scans


def test_gaps_refuses_by_bytes_only_what_cannot_fit(sweep, y231):
    """Every sweep case under the step limit fits, the largest table among
    them, Y(4,5,1) at m = 1 (15,694,800 entries, about 0.14 GB), included,
    and so do Y(2,3,1) at m = 1 widened to degree 5*10^6 and 10^7, which
    both pass the step estimate: no admitted table passes BYTE_LIMIT at
    BYTES_PER_ENTRY."""
    cases = [(dc, m, 2 * dc.genus - 1) for dc in sweep for m in range(1, dc.max_m + 1)]
    cases += [(y231, 1, 5 * 10**6), (y231, 1, 10**7)]
    admitted = set()
    for dc, m, bound in cases:
        try:
            _refuse_gaps(dc, m, bound)
        except TooMuchWork:
            continue
        assert comb(bound + m, m) * gaps.table_classes(dc, bound) * BYTES_PER_ENTRY <= BYTE_LIMIT
        admitted.add((dc.params.family, dc.params.q, dc.params.n, dc.params.s, m, bound))
    assert {("Y", 4, 5, 1, 1, 15311), ("Y", 3, 5, 1, 1, 1925), ("Y", 4, 5, 5, 1, 3011),
            ("Y", 4, 3, 1, 1, 911), ("Y", 2, 3, 1, 1, 5 * 10**6), ("Y", 2, 3, 1, 1, 10**7)} <= admitted


def test_verify_refuses_what_memory_cannot_hold(capsys):
    """The step estimate charges STEPS_PER_MONOMIAL a monomial, and
    WORK_LIMIT steps of monomials at BYTES_PER_MONOMIAL fit under
    BYTE_LIMIT, so the step limit alone keeps the oracle's monomial set in
    memory.  Y(2,3,1) at m = 2 up to degree 700 would build 9,589,320
    monomial vectors and is refused at once, by steps."""
    assert STEPS_PER_MONOMIAL * BYTE_LIMIT >= BYTES_PER_MONOMIAL * WORK_LIMIT
    argv = ["verify", *Y231, "--m", "2", "--box-sum", "700"]
    _assert_refused_at_once(argv)
    assert run(argv) == 2
    assert f"steps, above the limit {WORK_LIMIT}" in capsys.readouterr().err


@pytest.mark.parametrize("box_sum", [6000, 14000])
def test_verify_refusal_stops_counting_at_the_limit(box_sum, capsys):
    """Y(2,3,1) at m = 1 up to degree 6000 and 14000 passes the closed-form
    terms, and its box holds millions of (a_z, b_y) runs (21.8M at 14000):
    the monomial count stops once it passes the steps the rest leaves, so
    the command exits 2 at once, refused by steps."""
    argv = ["verify", *Y231, "--m", "1", "--box-sum", str(box_sum)]
    _assert_refused_at_once(argv)
    assert run(argv) == 2
    assert f"steps, above the limit {WORK_LIMIT}" in capsys.readouterr().err


def test_verify_refusal_leaves_the_last_monomial_run_unread(monkeypatch, capsys):
    """Y(2,5,1) at m = 1 up to degree 5000 passes the closed-form terms, and
    its monomials pass the steps the rest leaves: the count stops before
    the last (a_z, b_y) run of the box, so a run is left to read once the
    command is refused by steps."""
    real, counts = oracle.monomial_counts, []

    def kept(*args):
        counts.append(real(*args))
        return counts[-1]

    monkeypatch.setattr(oracle, "monomial_counts", kept)
    assert run(["verify", "--family", "Y", "--q", "2", "--n", "5", "--s", "1", "--m", "1", "--box-sum", "5000"]) == 2
    assert f"steps, above the limit {WORK_LIMIT}" in capsys.readouterr().err
    assert len(counts) == 1 and next(counts[0], None) is not None


def test_verify_refuses_by_bytes_only_what_cannot_fit(sweep, y231):
    """Pricing the monomials keeps every outcome of
    scripts/verify_small_instances.py on the sweep cases with g <= 100
    (each at every m runs, but Y(3,3,1) at m = 3, refused by steps, as are
    the 21 cases past g = 100 that the script skips), `verify-m2` and
    test_08 included.  Of Y(2,3,1) at m = 2 widened to degree 500 and 700,
    only the second is refused, by steps: no case is refused by bytes."""
    cases = [(dc, m, 2 * dc.genus) for dc in sweep if dc.genus <= 100 for m in range(1, dc.max_m + 1)]
    cases += [(y231, 2, 500), (y231, 2, 700)]
    refused = {}
    for dc, m, bound in cases:
        try:
            _refuse_verify(dc, m, bound)
        except TooMuchWork as err:
            by = "bytes" if f"bytes, above the limit {BYTE_LIMIT}" in str(err) else "steps"
            refused[(dc.params.family, dc.params.q, dc.params.n, dc.params.s, m, bound)] = by
    assert len(cases) == 44
    assert refused == {("Y", 3, 3, 1, 3, 198): "steps", ("Y", 2, 3, 1, 2, 700): "steps"}


@pytest.mark.parametrize("pure", [False, True])
def test_gaps_names_the_first_route_disagreement(y231, request, capsys, pure):
    """Under drop_theta the complement and nabla routes lose the Theta
    member and the formula route does not: `gaps` exits 1 and names the
    smallest vector where the per-point gap sets of the real and the mutant
    witness tests differ, and the route that holds it."""
    bound = 2 * y231.genus - 1
    real = witness_test(y231, 1)
    request.getfixturevalue("drop_theta")
    mutant = witness_test(y231, 1)
    quantifier = all if pure else any

    def is_gap(has_witness, a):
        return quantifier(not has_witness(a, r) for r in range(2))

    vector = min(a for a in simplex_points(2, bound) if is_gap(real, a) != is_gap(mutant, a))
    holder = "formula" if is_gap(real, vector) else ("nabla" if pure else "complement")
    assert run(["gaps", *Y231, "--m", "1", *(["--pure"] if pure else [])]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert f"smallest differing vector {vector}, a gap by the {holder} route only" in out.err


def test_counts_admits_every_sweep_case(sweep):
    assert all(_counts_work(dc, m) <= WORK_LIMIT for dc in sweep for m in range(1, dc.max_m + 1))


def test_listings_admit_every_sweep_case(sweep):
    assert all(_listing_work(dc, m, classical) <= WORK_LIMIT
               for dc in sweep for m in range(1, dc.max_m + 1) for classical in (False, True))


def _largest_classical_coordinate(dc, m: int, shift: int) -> int:
    """The largest coordinate of the classical listing translated by shift,
    read off its residues with top >= 0: x = c + e*top at zero shifts, and
    coordinate 1 is top*e + rho at k_1 = top."""
    rhos, tops = maximal.residues(dc, m, shift)
    return max(max(c, rho) + top * dc.e for c, (rho, top) in enumerate(zip(rhos, tops)) if top >= 0)


def test_listing_bound_holds_every_coordinate(sweep):
    """The largest coordinate of a classical listing, read off its residues,
    is the largest |x| over every coordinate of the `gamma --classical`
    (shift 0) and `lambda --classical` (shift relative_shift) listings:
    every sweep case with g <= 600, at every m.  The e-vector listings have
    no such bound; _region_blocks measures their first coordinates."""
    for dc in sweep:
        if dc.genus > 600:
            continue
        for m in range(1, dc.max_m + 1):
            for shift, listing in ((0, maximal.enumerate_classical_Gamma),
                                   (maximal.relative_shift(dc, m), maximal.enumerate_classical_Lambda)):
                largest = max(abs(x) for v in listing(dc, m) for x in v)
                assert _largest_classical_coordinate(dc, m, shift) == largest, (dc.params, m, shift)


def test_classical_listing_bound_is_within_its_step_estimate(sweep):
    """The inequality _listing_work proves, on every sweep case at every m:
    the largest coordinate of a classical listing, read off its residues,
    is at most its step estimate, so an admitted one renders every
    coordinate by str."""
    for dc in sweep:
        for m in range(1, dc.max_m + 1):
            for shift in (0, maximal.relative_shift(dc, m)):
                assert _largest_classical_coordinate(dc, m, shift) <= _listing_work(dc, m, True), \
                    (dc.params, m, shift)


def test_classical_listings_refuse_by_bytes_only_what_cannot_fit(capsys):
    """Y(5,9,7) at m = 2 passes the step estimate (97,935,318 steps), and
    the streamed `lambda --classical` (27,101,250 vectors from 279,018
    residues) peaks at about 628 MiB, so its byte estimate is admitted.  At
    m = 3 the listing would hold 170,958,196 vectors, above the byte limit,
    but the command is refused on its steps first, before the O(e) count."""
    dc = curve("Y", q=5, n=9, s=7)
    assert _listing_work(dc, 2, True) == 97_935_318
    residues = {m: maximal.residues(dc, m, maximal.relative_shift(dc, m)) for m in (2, 3)}
    assert _refuse_classical("lambda", 2, residues[2]) == 27_101_250
    assert dc.e == 279_018 and 27_101_250 * BYTES_PER_VECTOR + dc.e * BYTES_PER_CLASSICAL_RESIDUE <= BYTE_LIMIT
    estimate = 170958196 * BYTES_PER_VECTOR + dc.e * BYTES_PER_CLASSICAL_RESIDUE
    with pytest.raises(TooMuchWork, match=f"lists 170958196 vectors, about {estimate} bytes"):
        _refuse_classical("lambda", 3, residues[3])
    argv = ["lambda", "--family", "Y", "--q", "5", "--n", "9", "--s", "7", "--m", "3", "--classical"]
    _assert_refused_at_once(argv)
    assert run(argv) == 2
    assert f"steps, above the limit {WORK_LIMIT}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["member", "--vector", "1,1,1"], ["gamma"]])
def test_listings_refuse_what_their_residues_cannot_hold(flags, capsys):
    """Y(2,25,1) at m = 2 passes the step estimate (e*m = 67,108,866), but
    `member` would build its residue table for e = 33,554,433 residues and
    `gamma` would sort them, about 3.0 GB for either at
    BYTES_PER_REGION_RESIDUE = 88 a residue: both exit 2 at once."""
    argv = [flags[0], "--family", "Y", "--q", "2", "--n", "25", "--s", "1", "--m", "2", *flags[1:]]
    dc = curve("Y", q=2, n=25, s=1)
    assert _listing_work(dc, 2, False) == 67_108_866 <= WORK_LIMIT
    _assert_refused_at_once(argv)
    assert run(argv) == 2
    assert BYTES_PER_REGION_RESIDUE == 88
    assert (f"keeps 33554433 residues, about {33554433 * 88} bytes, above the limit {BYTE_LIMIT}"
            in capsys.readouterr().err)


def test_listings_admit_what_their_residues_can_hold():
    """The per-residue prices admit the listings measured at e = 2,097,153:
    `member` on Y(2,21,1) at m = 1 and 2 (65 MiB), the fundamental-region
    `gamma` and `lambda` there at m = 1 and 2 (159 MiB), `lambda --classical`
    there at m = 2 (4,893,354 vectors, 870 MiB) and `gamma --classical` on
    X(2,1,1,21,1) at m = 1 (1,048,576 vectors, 339 MiB).  `member` on
    Y(2,23,1) at m = 1 (e = 8,388,609, about 0.74 GB at 88 bytes a
    residue, measured 209 MiB) is admitted too."""
    y, x = curve("Y", q=2, n=21, s=1), curve("X", p=2, a=1, b=1, n=21, s=1)
    for m in (1, 2):
        for command in ("member", "gamma", "lambda"):
            _refuse_listing(y, command, m, False)
    y23 = curve("Y", q=2, n=23, s=1)
    assert y23.e == 8_388_609
    _refuse_listing(y23, "member", 1, False)
    for dc, command, m, shift in ((y, "lambda", 2, y.e), (x, "gamma", 1, 0)):
        _refuse_listing(dc, command, m, True)
        _refuse_classical(command, m, maximal.residues(dc, m, shift))


def _flags(dc) -> list[str]:
    """The curve flags of dc."""
    names = ("p", "a", "b", "n", "s") if dc.params.family == "X" else ("q", "n", "s")
    return ["--family", dc.params.family, *(f for k in names for f in (f"--{k}", str(getattr(dc.params, k))))]


def test_streamed_classical_listings_are_the_encoder_output(sweep):
    """`gamma --classical` and `lambda --classical`, streamed from
    maximal.walk_classical, and the fundamental-region `gamma` and
    `lambda`, streamed from the sorted residues, against the reference
    renderings of the tuple listings (the fundamental-region sets sorted):
    every sweep case with g <= 600, at every m, in JSON and TSV."""
    checked = 0
    for dc in sweep:
        if dc.genus > 600:
            continue
        for m in range(1, dc.max_m + 1):
            for command, flags, listing in (
                    ("gamma", ["--classical"], maximal.enumerate_classical_Gamma),
                    ("lambda", ["--classical"], maximal.enumerate_classical_Lambda),
                    ("gamma", [], lambda dc, m: sorted(maximal.gamma_hat_in_C(dc, m))),
                    ("lambda", [], lambda dc, m: sorted(maximal.lambda_hat_in_C(dc, m)))):
                vectors = listing(dc, m)
                record = _record(dc, {"m": m, "vectors": vectors, "count": len(vectors)})
                for fmt in ("json", "tsv"):
                    fast, reference = io.StringIO(), io.StringIO()
                    with redirect_stdout(fast):
                        assert run([command, *_flags(dc), "--m", str(m), *flags, "--format", fmt]) == 0
                    with redirect_stdout(reference):
                        _reference_emit(record, fmt)
                    assert fast.getvalue() == reference.getvalue(), (dc.params, command, flags, m, fmt)
                    checked += 1
    assert checked >= 400


def test_gaps_prints_the_whole_lambda_table(sweep):
    """`gaps` prints the scan's table once the Lambda route agrees on the
    blocks: its bytes are those of the whole Lambda table's walk, with and
    without --pure, on every sweep case with g <= 60 at m <= 3."""
    checked = 0
    for dc in (dc for dc in sweep if dc.genus <= 60):
        for m in range(1, min(3, dc.max_m) + 1):
            for pure, route in ((False, gaps.gaps_via_lambda), (True, gaps.pure_gaps_via_lambda)):
                table = route(dc, m)
                printed, reference = io.StringIO(), io.StringIO()
                with redirect_stdout(printed):
                    assert run(["gaps", *_flags(dc), "--m", str(m), *(["--pure"] if pure else [])]) == 0
                with redirect_stdout(reference):
                    _emit_blocks(_record(dc, {"m": m, "count": len(table)}), "json", _table_blocks(table, "json"))
                assert printed.getvalue() == reference.getvalue(), (dc.params, m, pure)
                checked += 1
    assert checked == 68, checked


def test_integers_past_the_str_limit_print_exactly():
    """Y(2,14283,1): e and g have 4300 decimal digits, and the Frobenius
    number 2g - 1 has 4301, one past str()'s default limit."""
    y = ["--family", "Y", "--q", "2", "--n", "14283", "--s", "1"]
    proc, _ = _cli_subprocess(["params", *y])
    assert proc.returncode == 0, proc.stderr
    derived = json.loads(proc.stdout)["derived"]
    genus = (2**14285 - 2**14283 - 4) // 2
    assert Decimal(derived["e"]) == Decimal(2**14283 + 1)
    assert Decimal(derived["genus"]) == Decimal(genus)
    assert Decimal(derived["frobenius"]) == Decimal(2 * genus - 1)
    _assert_refused_at_once(["gaps", *y, "--m", "1"])
    # (q^n + 1)/(q + 1) past the limit in the SNotDividing message
    proc, _ = _cli_subprocess(["params", "--family", "Y", "--q", "2", "--n", "14301", "--s", "2"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("SNotDividing: s = 2 does not divide") and "Traceback" not in proc.stderr
    assert Decimal(proc.stderr.split()[-1]) == Decimal((2**14301 + 1) // 3)


@pytest.mark.parametrize("argv", [
    "params --family Y --q 1000000000000000003 --n 3 --s 1",
    "params --family X --p 1000000000000000003 --a 1 --b 1 --n 3 --s 1",
    "params --family Y --q 2 --n 2000001 --s 1",
    "gamma --family Y --q 2 --n 200001 --s 1",
])
def test_huge_inputs_are_refused_at_once_in_a_short_message(argv):
    """The prime tests (by trial division) and `params` on Y(2,2000001,1)
    (building and printing its constants) each ran past 40 s, and the
    `gamma` refusal printed its 60,207-digit amount."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        assert run(argv.split()) == 2
    assert time.perf_counter() - t0 < 1
    assert out.getvalue() == "" and err.getvalue().startswith("TooMuchWork: ") and len(err.getvalue()) < 1024


def test_messages_give_a_huge_integer_by_its_size(capsys):
    """Past SHOWN_BITS bits a message gives an integer's bit length: a
    refusal's amount, SNotDividing's (q^n + 1)/(q + 1) and BadM's max_m,
    whose 6,021 digits were a ValueError traceback from str()."""
    assert amount_str(2**SHOWN_BITS - 1) == exact_str(2**SHOWN_BITS - 1)
    assert amount_str(-(2**SHOWN_BITS)) == f"<a {SHOWN_BITS + 1}-bit integer>"
    for argv, message in [
        ("gamma --family Y --q 2 --n 200001 --s 1",
         "TooMuchWork: gamma at m = 1 needs about <a 200002-bit integer> steps, above the limit 100000000"),
        ("params --family Y --q 2 --n 30001 --s 2",
         "SNotDividing: s = 2 does not divide (q^n + 1)/(q + 1) = <a 30000-bit integer>"),
        ("gamma --family X --p 2 --a 20000 --b 1 --n 3 --s 1 --m 0",
         "BadM: m = 0 out of range [1, <a 20000-bit integer>]"),
    ]:
        assert run(argv.split()) == 2
        assert capsys.readouterr().err == message + "\n"


# stdout SHA-256 of small commands, pinned at the commit before vectors were
# spliced into the record by str.join instead of going through json.dumps.
Y455 = "--family Y --q 4 --n 5 --s 5"
GOLDEN = {
    "params --family Y --q 2 --n 3 --s 1": (
        "b09af2f630f8785758f269d3bf45149d6f9013f21b49ed19fdc73a5d4dc35cee",
        "f49a691fd704a280e5c84e009f2704ddfad8106fd4c77b82fdffb91b81ad5968"),
    "params --family X --p 2 --a 1 --b 1 --n 3 --s 1": (
        "8323e373c31623df040ef81cf7097240ff792a54763cf13375b4c8e4848590a5",
        "f29f72a670011a5a2f72b8719d02725cd8d0a6a61823ac6e26e963c5797c4797"),
    "gamma --family Y --q 2 --n 3 --s 1 --m 2": (
        "1a89941785f1f6539b66cd97175ea475e1c8288c39260bba36d3241d84b42407",
        "4c5f54859732b90c7cb84939dd6be3aa3cc10c29129ad20aa54f46e17bd81fab"),
    "gamma --family X --p 2 --a 1 --b 1 --n 3 --s 1 --m 1 --classical": (
        "48d9e7d6325338c66b2a45011d90c08210d7324fa2baf8c84868cb90f1b0a2dd",
        "e3128e375cd6086a148c80734f9dade6445f7a3464a488998c4b80793b96a2d7"),
    "lambda --family Y --q 2 --n 3 --s 1 --m 2": (
        "f804824df856e2702e93519c47239aea0b399903aed6f6a2627b47a16f5d4359",
        "e56d6559fb5235d63900f2bbf46ee5f72210ac8422cbf25646c5a3c58760aae6"),
    f"lambda {Y455} --m 2 --classical": (
        "9cbf93fb67990b8a4c731acc7368795ec9978a696fdca5f069821a271ebb5d6e",
        "a1cec138752c424a90d9194f514e714af62079b61167d96e5a9e5d4d53973f06"),
    "gaps --family X --p 2 --a 1 --b 1 --n 3 --s 1 --m 1": (
        "2603a8228ea06451d9006c4e6b9562d4072dbfcbfa105624107c829ece90e63a",
        "caa0bbd06ba436bddcb6d54a65ef3968b447919404eb73805ee2e57e9b22ac7c"),
    "gaps --family Y --q 2 --n 3 --s 1 --m 2 --pure": (
        "4491e90184f09be34708a783a6aa92c6771082ba8f7bbfd9e15a953e46463e80",
        "342a954c8753f106b89d3a60e3338a66680d896a93ecef7ef5d6332a393eed53"),
    # no pure gaps: "vectors": [] as JSON, no bytes at all as TSV
    "gaps --family Y --q 2 --n 3 --s 3 --m 1 --pure": (
        "6a90689b98b01fb42cd9769a99137fb2bd03353cb4e3a77ac980b39d9bb8cd8f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "member --family Y --q 2 --n 3 --s 1 --m 1 --vector 1,1": (
        "a4547cd5d8bc94fb1a319a999419fdb465d00e6efc2754038e49b4a4d6e273ce",
        "67d895c4474501ac7907e1a421783b28e2574870d26f2beffd0f01f9f1e5fba1"),
    "member --family Y --q 2 --n 3 --s 1 --m 2 --vector 19,1,-3": (
        "a4d77e68fb3f8a92ab6ced654404f7dc1604f30f7abb757522f4339e3e73d90e",
        "784fbcff990894098acba2385f2db860e0087afc136e0c5af3512b5b031f6f89"),
    "counts --family Y --q 2 --n 3 --s 1 --m 1": (
        "b54cf076bcd61cf95afa538163000a0aeacd7185f40c10a33d12f0368c7f10dd",
        "a015ec6ae20dcf307329eadf06335c7f576ab8073de4b283299e3a3f9c589b2d"),
    # gap_count_upper_bound is above 2**53: a JSON string, a bare TSV cell
    "counts --family Y --q 4 --n 5 --s 1 --m 4": (
        "ee43b61b9c1774dce5a37a03f55369cd827db283cb91aa3a4a6db537b6e823d5",
        "db877bdfeae4b28ba7d94c3f239a713dfa5cbf59048bb6dc24fc574a52ee7eff"),
    "verify --family Y --q 2 --n 3 --s 1 --m 1": (
        "78a0c6c5e9b0943b62faeaeb385e3b2e0660ff11c1de8659a4ef5ffacdff296d",
        "ac9d8cbb2e1411bd57e3766238e06f5bd4643d6f14764be8f73ac30a07f137c6"),
}


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_bytes_pinned(command, fmt, capsys):
    assert run([*command.split(), "--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[command][fmt == "tsv"]


def _reference_emit(record, fmt):
    """What the command line printed while every record went through
    _encode and json.dumps and every TSV vector row had its own print."""
    if fmt == "json":
        print(json.dumps(_encode(record), sort_keys=True, separators=(",", ": "), indent=1))
    else:
        for v in _encode(record["payload"]["vectors"]):
            print("\t".join(str(x) for x in v))


# First coordinates at and around +-2**53, and ones far past it.
_EDGES = [2**53 - 1, 2**53, 2**53 + 1, -(2**53) + 1, -(2**53), -(2**53) - 1, 2**60, -(2**60)]


@st.composite
def _residue_listing(draw):
    """Hand-built residues of a fundamental-region listing: e, m and the
    arrays (rhos, tops) by class, rhos a permutation of range(e), with up
    to three first coordinates x = c + e*top at or past +-2^53."""
    e, m = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    rhos = draw(st.permutations(range(e)))
    tops = draw(st.lists(st.integers(-40, 40), min_size=e, max_size=e))
    for x in draw(st.lists(st.sampled_from(_EDGES), max_size=3)):
        tops[x % e] = x // e
    return e, m, (array("q", rhos), array("q", tops))


def _emit_region(dc, e, m, residues, fmt):
    """Write a fundamental-region listing as the command line does: its
    rows through _region_blocks, the rest of the record through _record."""
    _emit_blocks(_record(dc, {"m": m, "count": e}), fmt, _region_blocks(e, m, residues, fmt))


@settings(max_examples=400, deadline=None)
@given(_residue_listing(), st.sampled_from(["json", "tsv"]), st.integers(1, 3))
def test_emit_matches_the_encoder(y231, listing, fmt, rows):
    """_region_blocks sorts the residues and measures the ends of its list:
    every first coordinate at or past 2^53 comes out as the encoder writes
    it, in blocks of any size."""
    e, m, (rhos, tops) = listing
    vectors = sorted((c + e * top,) + (rho,) * m for c, (rho, top) in enumerate(zip(rhos, tops)))
    fast, reference = io.StringIO(), io.StringIO()
    with redirect_stdout(fast), patch.object(cli, "_REGION_ROWS", rows):
        _emit_region(y231, e, m, (rhos, tops), fmt)
    with redirect_stdout(reference):
        _reference_emit(_record(y231, {"m": m, "vectors": vectors, "count": e}), fmt)
    assert fast.getvalue() == reference.getvalue()


def test_emit_encodes_past_2_53(y231, capsys):
    """A first coordinate past 2^53 at either end of the sorted list sends
    every first coordinate through _encode: the ones past 2^53 come out as
    decimal strings, the others as numbers."""
    residues = (array("q", [1, 0, 2]), array("q", [-(2**52), 2**52, 1]))  # x = -3*2^52, 1 + 3*2^52, 5
    _emit_region(y231, 3, 1, residues, "json")
    assert json.loads(capsys.readouterr().out)["payload"]["vectors"] == [
        ["-13510798882111488", 1], [5, 2], ["13510798882111489", 0]]
    _emit_region(y231, 3, 1, residues, "tsv")
    assert capsys.readouterr().out == "-13510798882111488\t1\n5\t2\n13510798882111489\t0\n"


@st.composite
def _classical_residues(draw):
    """Hand-built residues of a classical listing: e, m and the lists
    (rhos, tops) by class, rhos a permutation of range(e), tops in [-1, 6]."""
    e, m = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    rhos = draw(st.permutations(range(e)))
    return e, m, rhos, draw(st.lists(st.integers(-1, 6), min_size=e, max_size=e))


@settings(max_examples=150, deadline=None)
@given(_classical_residues(), st.sampled_from(["json", "tsv"]))
@example((3, 2, [2, 0, 1], [-1, -1, -1]), "json")  # no live residue
@example((3, 2, [2, 0, 1], [-1, -1, -1]), "tsv")
@example((4, 3, [1, 3, 0, 2], [-1, 6, -1, -1]), "json")  # one live residue
@example((4, 3, [1, 3, 0, 2], [-1, 6, -1, -1]), "tsv")
@example((5, 5, [4, 2, 0, 3, 1], [0, 0, 0, 0, 0]), "json")  # every top 0
@example((5, 5, [4, 2, 0, 3, 1], [0, 0, 0, 0, 0]), "tsv")
def test_classical_blocks_are_the_walked_vectors(y231, listing, fmt):
    """_classical_blocks on any residues writes the encoder's bytes of the
    vectors maximal.walk_classical lists with 1-tuples
    (maximal._enumerate_classical on the same residues)."""
    e, m, rhos, tops = listing
    residues = (array("q", rhos), array("q", tops))
    with patch.object(maximal, "residues", lambda *args: residues):
        vectors = maximal._enumerate_classical(SimpleNamespace(e=e), m, 0)
    assert len(vectors) == maximal.count_classical(residues, m)
    fast, reference = io.StringIO(), io.StringIO()
    with redirect_stdout(fast):
        _emit_blocks(_record(y231, {"m": m, "count": len(vectors)}), fmt, _classical_blocks(e, m, residues, fmt))
    with redirect_stdout(reference):
        _reference_emit(_record(y231, {"m": m, "vectors": vectors, "count": len(vectors)}), fmt)
    assert fast.getvalue() == reference.getvalue()


def test_classical_listings_build_no_shift_tails(monkeypatch):
    """`lambda --classical` and `gamma --classical` at m = 1..4 on Y(4,5,5)
    build no shift tails and no tuple listing: they run with
    maximal._enumerate_classical, the one builder of either, patched to
    raise.  The marker the sum-blocks replace is in none of the row
    pieces, so no replace can hit the text around it."""
    def refuse(*args):
        raise AssertionError("the listing built its vectors as tuples")

    assert not any(_SLOT in piece for piece in (*_ROW_SEP.values(), *(p for ps in _ROW_PARTS.values() for p in ps)))
    monkeypatch.setattr(maximal, "_enumerate_classical", refuse)
    for command in ("lambda", "gamma"):
        for m in (1, 2, 3, 4):
            out = io.StringIO()
            with redirect_stdout(out):
                assert run([command, *Y455.split(), "--m", str(m), "--classical"]) == 0
            record = json.loads(out.getvalue())
            assert len(record["payload"]["vectors"]) == record["payload"]["count"] > 0, (command, m)


# The curves the streamed-emitter test draws from.
TABLE_CURVES = {"Y231": curve("Y", q=2, n=3, s=1), "Y233": curve("Y", q=2, n=3, s=3),
                "X21131": curve("X", p=2, a=1, b=1, n=3, s=1)}


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("name", sorted(TABLE_CURVES))
def test_listings_are_the_encoder_output(name, fmt, capsys):
    """`gamma` and `lambda`, classical or not, at every m, against the
    reference renderings of the same vectors deduplicated and sorted."""
    dc, params = TABLE_CURVES[name], {"Y231": Y231, "Y233": Y233, "X21131": X21131}[name]
    listings = {
        ("gamma", False): maximal.gamma_hat_in_C, ("gamma", True): maximal.enumerate_classical_Gamma,
        ("lambda", False): maximal.lambda_hat_in_C, ("lambda", True): maximal.enumerate_classical_Lambda,
    }
    for m in range(1, dc.max_m + 1):
        for (command, classical), listing in listings.items():
            flags = ["--classical"] if classical else []
            assert run([command, *params, "--m", str(m), "--format", fmt, *flags]) == 0
            got = capsys.readouterr().out
            vectors = sorted(set(listing(dc, m)))
            _reference_emit(_record(dc, {"m": m, "vectors": vectors, "count": len(vectors)}), fmt)
            assert got == capsys.readouterr().out, (command, classical, m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TABLE_CURVES)), st.integers(1, 3), st.booleans(), st.integers(0, 30),
       st.sampled_from(["json", "tsv"]))
def test_streamed_gap_table_matches_the_encoder(name, m, pure, bound, fmt):
    """A gap table streamed from walk gives the bytes of json.dumps(indent=1)
    and of one print per TSV row of the same vectors, sorted: empty tables
    (every pure-gap table of Y(2,3,3)) and regions past 2g - 1 included."""
    dc = TABLE_CURVES[name]
    m = min(m, dc.max_m)
    table = (gaps.pure_gaps_via_nabla if pure else gaps.gaps_via_complement)(dc, m, bound)
    fast, reference = io.StringIO(), io.StringIO()
    with redirect_stdout(fast):
        _emit_blocks(_record(dc, {"m": m, "count": len(table)}), fmt, _table_blocks(table, fmt))
    with redirect_stdout(reference):
        _reference_emit(_record(dc, {"m": m, "vectors": sorted(table), "count": len(table)}), fmt)
    assert fast.getvalue() == reference.getvalue()


@pytest.mark.parametrize("pure", [False, True])
def test_gaps_box_sum_output_is_the_encoder_output(y231, capsys, pure):
    """`gaps --box-sum 30` on Y(2,3,1), 2g - 1 = 19, against the reference
    renderings of its vectors."""
    flags = ["--pure"] if pure else []
    route = gaps.pure_gaps_via_nabla if pure else gaps.gaps_via_complement
    vectors = sorted(route(y231, 2, 30))
    for fmt in ("json", "tsv"):
        assert run(["gaps", *Y231, "--m", "2", "--box-sum", "30", "--format", fmt, *flags]) == 0
        got = capsys.readouterr().out
        _reference_emit(_record(y231, {"m": 2, "vectors": vectors, "count": len(vectors)}), fmt)
        assert got == capsys.readouterr().out


def test_gaps_names_a_point_above_its_class_prefix(y231, monkeypatch, capsys):
    """A relative maximal (b0, 1) added to Lambda gives the formula route
    the point (b0, 0) above the class prefix of its tail when (b0, 0) and
    (b0 - e, 0) are members; with every (x, 1), x < b0, a gap its box at
    coordinate 1 adds nothing, so (b0, 0) is the first disagreement."""
    real = gaps.gaps_via_complement(y231, 1)
    b0 = next(b for b in range(y231.e, 2 * y231.genus)
              if (b, 0) not in real and (b - y231.e, 0) not in real and all((x, 1) in real for x in range(b)))
    lam = sorted({*gaps.enumerate_classical_Lambda(y231, 1), (b0, 1)})
    monkeypatch.setattr(gaps, "enumerate_classical_Lambda", lambda dc, m: lam)
    assert run(["gaps", *Y231, "--m", "1"]) == 1
    err = capsys.readouterr().err
    assert f"smallest differing vector {(b0, 0)}, a gap by the formula route above its class prefix" in err
    assert gaps.gaps_via_lambda(y231, 1).stray == (b0, 0)


Y4313 = ["--family", "Y", "--q", "4", "--n", "3", "--s", "13"]


def _per_point_gaps(dc, m, bound, pure):
    """The gaps (pure gaps) of the simplex sum(alpha) <= bound, sorted, one
    witness_test call per point and coordinate."""
    has_witness = witness_test(dc, m)
    quantifier = all if pure else any
    return [a for a in simplex_points(m + 1, bound) if quantifier(not has_witness(a, r) for r in range(m + 1))]


@pytest.mark.parametrize("ceiling", [1, 2])
def test_gaps_with_more_classes_than_e_is_the_encoder_output(monkeypatch, capsys, ceiling):
    """With CEILING patched down, Y(2,3,1) (e = 9, g = 10) and Y(4,3,13)
    (e = 5, g = 6) keep E = K*e classes with K = 2 or 3: `gaps`, with and
    without --pure, at m = 1, 2, in the proven region and past it, against
    the reference renderings of the per-point gaps."""
    monkeypatch.setattr(gaps, "CEILING", ceiling)
    for dc, params in ((curve("Y", q=2, n=3, s=1), Y231), (curve("Y", q=4, n=3, s=13), Y4313)):
        for m in (1, 2):
            for box_sum in (0, 2 * dc.genus + dc.e):
                bound = max(box_sum, 2 * dc.genus - 1)
                assert gaps.table_classes(dc, bound) > dc.e
                for pure in (False, True):
                    vectors = _per_point_gaps(dc, m, bound, pure)
                    flags = ["--m", str(m), "--box-sum", str(box_sum), *(["--pure"] if pure else [])]
                    for fmt in ("json", "tsv"):
                        assert run(["gaps", *params, *flags, "--format", fmt]) == 0
                        got = capsys.readouterr().out
                        _reference_emit(_record(dc, {"m": m, "vectors": vectors, "count": len(vectors)}), fmt)
                        assert got == capsys.readouterr().out, (params, flags, fmt)


def test_gaps_names_a_gap_past_the_ceiling(y231, monkeypatch, capsys):
    """With CEILING patched to 2, Y(2,3,1) up to degree 40 keeps E = 18
    classes, and some class C of the tail (0,) holds exactly two gaps.  A
    relative maximal (b0, 41), b0 = C + 2E, whose box at coordinate 1 lies
    past the simplex, gives the formula route the points (b0, t), t <= 40 -
    b0, which no count can take: (b0, 0) extends its class prefix past the
    ceiling.  It is the table's stray and the first vector past the ceiling,
    and `gaps` exits 1 naming it."""
    monkeypatch.setattr(gaps, "CEILING", 2)
    bound = 40
    E = gaps.table_classes(y231, bound)
    real = set(_per_point_gaps(y231, 1, bound, False))
    C = next(C for C in range(E) if sum((a0, 0) in real for a0 in range(C, bound + 1, E)) == 2)
    b0 = C + 2 * E
    lam = sorted({*gaps.enumerate_classical_Lambda(y231, 1), (b0, bound + 1)})
    monkeypatch.setattr(gaps, "enumerate_classical_Lambda", lambda dc, m: lam)
    mutant = real | {(b0, t) for t in range(bound - b0 + 1)}
    # (b0, 0) is the third point of class C on the tail (0,); every other
    # added point has the same alpha_0 on a later tail.
    assert [a0 for a0 in range(C, bound + 1, E) if (a0, 0) in mutant] == [C, C + E, b0]
    assert gaps.gaps_via_lambda(y231, 1, bound).stray == (b0, 0)
    assert run(["gaps", *Y231, "--m", "1", "--box-sum", str(bound)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert f"smallest differing vector {(b0, 0)}, a gap by the formula route above its class prefix" in out.err


def test_output_stability(capsys):
    run(["gaps", *Y231, "--m", "1"])
    first = capsys.readouterr().out
    run(["gaps", *Y231, "--m", "1"])
    assert capsys.readouterr().out == first


def test_round_trip_gaps_are_nonmembers(capsys):
    run(["gaps", *X21131, "--m", "1"])
    vectors = _json(capsys)["payload"]["vectors"]
    for v in vectors:
        run(["member", *X21131, "--m", "1", "--vector", ",".join(map(str, v))])
        assert _json(capsys)["payload"]["classical_member"] is False


def test_round_trip_gamma_are_members(capsys):
    run(["gamma", *Y231, "--m", "1", "--classical"])
    vectors = _json(capsys)["payload"]["vectors"]
    for v in vectors:
        run(["member", *Y231, "--m", "1", "--vector", ",".join(map(str, v))])
        assert _json(capsys)["payload"]["member"] is True


# (flags, genus) per fuzzed instance; --box-sum stays <= 2g + 5 so every
# example is small.
FUZZ_INSTANCES = {"Y231": (Y231, 10), "X21131": (X21131, 3)}
COMMANDS = ["params", "gamma", "lambda", "gaps", "member", "counts", "verify"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(COMMANDS))
    params, genus = FUZZ_INSTANCES[draw(st.sampled_from(sorted(FUZZ_INSTANCES)))]
    argv = [command, *params]
    if command != "params" and draw(st.booleans()):
        argv += ["--m", str(draw(st.integers(-1, 4)))]
    if command == "member":
        ints = st.lists(st.integers(-50, 50), max_size=4).map(lambda v: ",".join(map(str, v)))
        text = st.text(alphabet="0123456789,-x ", max_size=8)
        argv.append("--vector=" + draw(st.one_of(ints, text)))
    if command in ("gamma", "lambda") and draw(st.booleans()):
        argv.append("--classical")
    if command == "gaps" and draw(st.booleans()):
        argv.append("--pure")
    if command in ("gaps", "verify"):
        if draw(st.booleans()):
            argv += ["--jobs", str(draw(st.integers(-3, 4)))]
        if draw(st.booleans()):
            argv += ["--box-sum", str(draw(st.integers(-10, 2 * genus + 5)))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "tsv"]))]
    return argv


@settings(max_examples=120, deadline=None)
@given(_argv())
def test_fuzz_exit_code_contract(argv):
    """Exit 0, 1 or 2 for every flag combination, never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
