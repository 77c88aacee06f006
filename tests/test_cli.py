"""Command-line surface: formats, exit codes, round-trips, stability."""

import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsgaps import oracle
from wsgaps.cli import WORK_LIMIT, _counts_work, _listing_work, run

SRC = Path(__file__).resolve().parents[1] / "src"
Y231 = ["--family", "Y", "--q", "2", "--n", "3", "--s", "1"]
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
                        lambda dc, m, bound: bounds.append(bound) or report(dc, m, bound))
    for box_sum in ("-5", "25"):
        run(["verify", *Y231, "--m", "1", "--box-sum", box_sum])
    capsys.readouterr()
    assert bounds == [20, 25]  # 2g = 20 is the default region


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


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="platform has no SIGPIPE")
def test_closed_stdout_ends_by_sigpipe():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["lambda", "--family", "Y", "--q", "4", "--n", "5", "--s", "5", "--m", "2",
            "--classical", "--format", "tsv"]  # about 95 KiB, more than a pipe buffer holds
    with subprocess.Popen([sys.executable, "-m", "wsgaps.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == -signal.SIGPIPE
    assert "Traceback" not in err


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
    # m = 1: about 5e9.
    for argv in (["--family", "Y", "--q", "3", "--n", "3", "--s", "1", "--m", "3"],
                 [*Y231, "--m", "1", "--box-sum", "100000"]):
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
def test_refusal_skips_the_volume_convolution(command):
    """Y(101,3,1) at m = 1: the threshold scan alone is about 1.1e16 steps
    and the counts estimate about 1.1e14, so the command refuses before
    summing the Lambda-box volume, whose convolution would run for minutes."""
    _assert_refused_at_once([command, "--family", "Y", "--q", "101", "--n", "3", "--s", "1", "--m", "1"])


@pytest.mark.parametrize("flags", [["member", "--vector", "1,1"], ["gamma"], ["lambda"],
                                   ["gamma", "--classical"], ["lambda", "--classical"]])
def test_listings_refuse_work_that_cannot_finish(flags):
    """Y(2,41,1) at m = 1 has e = 2^41 + 1 residues: `member` would build an
    e-entry residue table and the listings would loop over every residue."""
    _assert_refused_at_once([flags[0], "--family", "Y", "--q", "2", "--n", "41", "--s", "1",
                             "--m", "1", *flags[1:]])


def test_counts_admits_every_sweep_case(sweep):
    assert all(_counts_work(dc, m) <= WORK_LIMIT for dc in sweep for m in range(1, dc.max_m + 1))


def test_listings_admit_every_sweep_case(sweep):
    assert all(_listing_work(dc, m, classical) <= WORK_LIMIT
               for dc in sweep for m in range(1, dc.max_m + 1) for classical in (False, True))


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
