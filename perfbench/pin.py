"""Pin the SHA-256 of every benchmark command's stdout into digests.json.

    python3 perfbench/pin.py

Run it from the root of a checkout of the commit whose output is the
reference.  The CLI's output must stay byte-identical, so a later commit
re-pins only when it changes that output on purpose and says so.
"""

import json
import os
import shutil
import tempfile

from run import HERE, OUT, outputs_by_command, run_pass
from workloads import WORKLOADS


def main() -> None:
    digests = {}
    os.makedirs(OUT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="pin-", dir=OUT)
    try:
        for workload in WORKLOADS.values():
            result = run_pass(workload, workload.commands, outdir)
            for line, out in outputs_by_command(workload, workload.commands, result).items():
                if out["rc"] != 0:
                    raise SystemExit(f"{line} exited with {out['rc']}; nothing pinned")
                digests[line] = out["sha256"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    with open(os.path.join(HERE, "digests.json"), "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"pinned {len(digests)} commands")


if __name__ == "__main__":
    main()
