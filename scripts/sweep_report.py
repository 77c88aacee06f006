#!/usr/bin/env python3
"""Print a TSV of every sweep instance with its derived constants and the
genus/Frobenius agreement between the formula and the Apery construction.
It imports wsgaps from this checkout's src/."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wsgaps.semigroup import from_generators  # noqa: E402
from wsgaps.sweep import sweep_instances  # noqa: E402


def main() -> int:
    print("family\tq\tpb\tn\ts\tM\te\tgens\tgenus\tfrobenius\tagree")
    ok = True
    for dc in sweep_instances():
        sg = from_generators(dc.gens)
        agree = len(sg.gaps) == dc.genus and sg.frobenius == dc.frobenius
        ok &= agree
        p = dc.params
        print(
            f"{p.family}\t{dc.q}\t{dc.pb}\t{p.n}\t{p.s}\t{dc.M}\t{dc.e}\t"
            f"{','.join(map(str, dc.gens))}\t{dc.genus}\t{dc.frobenius}\t{agree}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
