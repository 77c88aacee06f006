#!/usr/bin/env python3
"""Run the full oracle cross-validation on every small-genus sweep instance,
for m = 1 and (where allowed) m = 2."""

import sys
import time

from wsgaps.oracle import consistency_report
from wsgaps.sweep import sweep_instances

MAX_GENUS = 100


def main() -> int:
    ok = True
    for dc in sweep_instances():
        if dc.genus > MAX_GENUS:
            continue
        for m in (1, 2):
            if m > dc.max_m:
                continue
            t0 = time.time()
            checks = consistency_report(dc, m)
            status = "pass" if all(checks.values()) else "FAIL"
            ok &= all(checks.values())
            p = dc.params
            label = (
                f"X(p={p.p},a={p.a},b={p.b},n={p.n},s={p.s})"
                if p.family == "X"
                else f"Y(q={p.q},n={p.n},s={p.s})"
            )
            print(f"{label} m={m} g={dc.genus}: {status} ({time.time() - t0:.2f}s)")
            if status == "FAIL":
                print("  " + str(checks))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
