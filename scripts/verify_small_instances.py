#!/usr/bin/env python3
"""Run `wsgaps verify` on every sweep instance at every m.  A case the
command refuses as too much work (exit 2) is printed as skipped, so the
skip rule is the command's own estimate.  It ends with the three slowest
cases it ran.  It imports wsgaps from this checkout's src/."""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wsgaps.cli import run  # noqa: E402
from wsgaps.sweep import sweep_instances  # noqa: E402


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
                print(f"{case}: skipped, {err.getvalue().strip()}")
                continue
            cases += 1
            ok &= code == 0
            times.append((time.time() - t0, case))
            print(f"{case}: {'pass' if code == 0 else 'FAIL'} ({times[-1][0]:.2f}s)")
            if code != 0:
                print("  " + str(json.loads(out.getvalue())["payload"]["checks"]))
    print(f"{cases} cases run, {skipped} skipped, {time.time() - t_start:.1f}s")
    for seconds, case in sorted(times, reverse=True)[:3]:
        print(f"slowest: {case} ({seconds:.2f}s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
