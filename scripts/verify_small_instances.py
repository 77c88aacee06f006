#!/usr/bin/env python3
"""Run `wsgaps verify` on every sweep instance at every m.  A case the
command refuses as too much work (exit 2) is printed as skipped, so the
skip rule is the command's own estimate.  Each case line ends with the
first 12 hex digits of the SHA-256 of the command's stdout (and, for a
refused case, of its stderr), and carries no time: the timings, the
total and the three slowest cases run, go to stderr, so the stdout of two
checkouts' runs diffs to nothing when no command's output changed a byte.
It imports wsgaps from this checkout's src/."""

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wsgaps.cli import run  # noqa: E402
from wsgaps.sweep import sweep_instances  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def main() -> int:
    ok, cases, skipped, times = True, 0, 0, []
    t_start = time.time()
    for dc in sweep_instances():
        p = dc.params
        if p.family == "X":
            label = f"X(p={p.p},a={p.a},b={p.b},n={p.n},s={p.s})"
            flags = ["--p", p.p, "--a", p.a, "--b", p.b]
        else:
            label = f"Y(q={p.q},n={p.n},s={p.s})"
            flags = ["--q", p.q]
        for m in range(1, dc.max_m + 1):
            argv = ["verify", "--family", p.family, *flags, "--n", p.n, "--s", p.s, "--m", m]
            t0 = time.time()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(list(map(str, argv)))
            case = f"{label} m={m} g={dc.genus}"
            if code == 2:
                skipped += 1
                print(f"{case}: skipped, {err.getvalue().strip()} "
                      f"[stdout {digest(out.getvalue())} stderr {digest(err.getvalue())}]")
                continue
            cases += 1
            ok &= code == 0
            times.append((time.time() - t0, case))
            print(f"{case}: {'pass' if code == 0 else f'FAIL (exit {code})'} [stdout {digest(out.getvalue())}]")
            if code != 0:
                print("  " + str(json.loads(out.getvalue())["payload"]["checks"]))
    print(f"{cases} cases run, {skipped} skipped")
    print(f"{time.time() - t_start:.1f}s", file=sys.stderr)
    for seconds, case in sorted(times, reverse=True)[:3]:
        print(f"slowest: {case} ({seconds:.2f}s)", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
