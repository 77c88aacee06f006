"""Self-test of the benchmark itself (about two minutes).

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It checks that:
- BENCHMARK.json names the workloads of workloads.py with their reasons;
- one traced pass of every workload yields every per-layer metric that
  BENCHMARK.json names, and its self times add up to the pass's wall_s;
- two traced passes of one workload give exactly equal counters;
- formulas makes no membership or oracle calls;
- the spans form a tree in time;
- the pinned digests pass, and a corrupted one fails and names its command.
Exit code 0 iff every check holds.
"""

import json
import os
import shutil
import sys
import tempfile

from run import OUT, ROOT, check_pass, run_pass, trace_metrics
from workloads import WORKLOADS, key

COUNTERS = ("curves.derive.calls", "curves.monomial_valuation.calls", "membership.in_classical_H.calls",
            "membership.nabla_witness.calls", "oracle.in_lub_closure.calls", "cli.run.calls",
            "maximal.enumerate_classical_Lambda.vectors", "maximal.enumerate_classical_Gamma.vectors",
            "cli.stdout_bytes", "cli.vectors_emitted")



def expect(ok: bool, what: str) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    return ok


def check_spans(path: str, name: str) -> bool:
    with open(path) as f:
        spans = json.load(f)["spans"]
    by_id = {s[0]: s for s in spans}
    ok = bool(spans)
    for span_id, _, start, end, parent, run in spans:
        ok = ok and start <= end and run is not None
        if parent is not None:
            p = by_id[parent]
            ok = ok and parent < span_id and p[2] <= start and end <= p[3] and p[5] == run
    return expect(ok, f"{name}: {len(spans)} spans nest in time under their parents and carry a run id")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")) as f:
        digests = json.load(f)
    ok = [expect(
        [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()],
        "BENCHMARK.json lists the workloads of workloads.py with their reasons",
    )]
    per_layer = [m["name"] for m in spec["per_layer"]]

    os.makedirs(OUT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="selftest-", dir=OUT)
    try:
        metrics = {}
        for workload in WORKLOADS.values():
            spans = os.path.join(OUT, f"selftest-{workload.name}.spans.json")
            result = run_pass(workload, workload.commands, outdir, True, spans, {"workload": workload.name})
            ok.append(expect(check_pass(workload, workload.commands, result, digests) == [],
                             f"{workload.name}: outputs match the pinned digests and the semantic check"))
            metrics[workload.name] = trace_metrics([result], [result])
            missing = [m for m in per_layer if m not in metrics[workload.name]]
            ok.append(expect(not missing, f"{workload.name}: every per-layer metric is reported (missing: {missing})"))
            accounted = sum(stat[1] for stat in result["trace"]["functions"].values())
            ok.append(expect(
                abs(accounted - result["wall_s"]) < 0.01 * result["wall_s"],
                f"{workload.name}: self times {accounted:.3f} s account for wall_s {result['wall_s']:.3f} s",
            ))
            ok.append(check_spans(spans, workload.name))

            line = key(workload.commands[0])
            corrupted = dict(digests, **{line: "0" * 64})
            named = [c for c, _ in check_pass(workload, workload.commands, result, corrupted)]
            ok.append(expect(named == [line], f"{workload.name}: a corrupted digest fails and names {line!r}"))

        name = "verify-m2"
        workload = WORKLOADS[name]
        result = run_pass(workload, workload.commands, outdir, True, os.path.join(OUT, "selftest-again.spans.json"), {})
        again = trace_metrics([result], [result])
        differ = [c for c in COUNTERS if again[c] != metrics[name][c]]
        ok.append(expect(not differ, f"{name}: two traced passes give equal counters (differing: {differ})"))

        f = metrics["formulas"]
        ok.append(expect(f["membership.in_classical_H.calls"] == 0 and f["oracle.in_lub_closure.calls"] == 0,
                         "formulas: zero in_classical_H and in_lub_closure calls"))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    failed = ok.count(False)
    print(f"{failed} check(s) failed" if failed else "all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
