#!/usr/bin/env python3
"""Run one `wsgaps` command in a child process and report its peak memory.

    python3 scripts/peak_rss.py [--per N] -- gamma --family Y --q 2 --n 21 --s 1 --m 2

The child runs `python3 -m wsgaps.cli ARGV` on this checkout's src/, with
stdout sent to /dev/null and stderr passed through.  Prints the child's exit
code, its wall time, its peak resident set size (the kernel's maxrss of the
child alone, read by os.wait4) and, given --per N, the peak in bytes per
unit of N (a residue count, a vector count, ...).  This is how the byte
constants of the command line (BYTES_PER_* in wsgaps.cli) are measured.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--per", type=int, help="report the peak in bytes per this many units")
    ap.add_argument("command", nargs=argparse.REMAINDER, help="the wsgaps argv, after --")
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("no wsgaps command given")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    with open(os.devnull, "w") as devnull:
        child = subprocess.Popen([sys.executable, "-m", "wsgaps.cli", *command], env=env, stdout=devnull)
        _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, so Popen must not wait again
    peak = usage.ru_maxrss * 1024  # KiB on Linux
    print(f"exit\t{child.returncode}")
    print(f"wall_s\t{seconds:.2f}")
    print(f"peak_rss_mib\t{peak / 2**20:.1f}")
    if args.per:
        print(f"bytes_per_unit\t{peak / args.per:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
