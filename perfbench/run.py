"""The wsgaps benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src.
Each pass runs the workload's command list through `wsgaps.cli.run` in a
fresh single-threaded interpreter (perfbench/worker.py), and passes repeat
while fewer than S seconds have gone.  Every command's stdout must match its
pinned SHA-256 and every workload's semantic check must hold; a failed
command is named on stderr, the run exits 1 and reports no metric.

Times are scaled to a reference Python speed (see REF_PROBE_S), because
this kind of shared machine runs the same pass 20-35% slower or faster from
one minute to the next; the raw seconds are printed too.  --trace 0 reports
the end-to-end metrics of BENCHMARK.json, medians over the passes.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics, including each layer's self time and the tracing overhead (traced
minus untraced wall_s); the traced passes write their spans to
perfbench/out/.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import LAYERS, per_layer_metrics
from workloads import WORKLOADS, key

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 15  # setup-only interpreters per run, besides one per pass
WORKER_TIMEOUT_S = 150
# Duration of worker.SpeedProbe's loop at the reference speed.  The *_ref_s
# metrics and setup_s scale measured seconds by REF_PROBE_S / (mean probe
# duration): seconds the work would take with Python running at that speed.
# Setup interpreters are too short to probe, so setup_s uses the median
# probe of the run's passes.
REF_PROBE_S = 2.0e-4


class WorkerError(Exception):
    pass


def spawn(args: list[str]) -> dict:
    """Run the worker in a fresh interpreter; add setup_s to its result."""
    pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    # A fixed hash seed keeps string hashing, and so any str-keyed set order, the same in every pass.
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker killed after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def run_pass(workload, commands, outdir: str, traced: bool = False, spans_path=None, meta=None) -> dict:
    job = {
        "commands": commands,
        "check_commands": workload.check_commands,
        "outdir": outdir,
        "trace": traced,
        "spans_path": spans_path,
        "meta": meta,
    }
    return spawn(["pass", json.dumps(job)])


def outputs_by_command(workload, commands, result) -> dict[str, dict]:
    """Output summaries of one pass, timed and check commands, by command line."""
    argvs = [*commands, *workload.check_commands]
    return {key(argv): out for argv, out in zip(argvs, [*result["outputs"], *result["check_outputs"]])}


def check_pass(workload, commands, result, digests) -> list[tuple[str, str]]:
    """(command line, reason) for every failed check of one pass."""
    failures = []
    outputs = outputs_by_command(workload, commands, result)
    for line, out in outputs.items():
        if out["rc"] != 0:
            failures.append((line, f"exit code {out['rc']}"))
        elif out["sha256"] != digests.get(line):
            failures.append((line, f"stdout sha256 {out['sha256']} differs from the pinned {digests.get(line)}"))
        elif out["n_vectors"] is not None and out["fields"].get("count") != out["n_vectors"]:
            failures.append((line, f"count {out['fields'].get('count')} but {out['n_vectors']} vectors"))
    return failures + workload.check(outputs)


def source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "wsgaps"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def spread(values: list[float]) -> str:
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return f"n={len(values)} q1-q3 {q1:.6g}-{q3:.6g}"
    return f"n={len(values)} min-max {min(values):.6g}-{max(values):.6g}"


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)
    commands = workload.ordered(args.seed)
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "order": [key(c) for c in commands],
    }
    print("env " + json.dumps(env))

    os.makedirs(OUT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    start = time.monotonic()
    setup = []
    passes = []  # (traced, result)
    failures = []  # (pass, command line, reason)
    attempted = 0
    try:
        try:
            setup += [spawn(["setup"])["setup_s"] for _ in range(SETUP_SAMPLES)]
        except WorkerError as err:
            attempted += len(commands) + len(workload.check_commands)
            failures += [(0, key(c), f"setup: {err}") for c in [*commands, *workload.check_commands]]
        kinds = (False, True) if args.trace else (False,)
        n = 0
        while not failures and (n == 0 or time.monotonic() - start < args.seconds):
            for traced in kinds:
                spans = os.path.join(OUT, f"{workload.name}-seed{args.seed}-pass{n}.spans.json")
                attempted += len(commands) + len(workload.check_commands)
                try:
                    result = run_pass(workload, commands, outdir, traced, spans, {**env, "pass": n})
                except WorkerError as err:
                    failures += [(n, key(c), str(err)) for c in [*commands, *workload.check_commands]]
                else:
                    failures += [(n, line, why) for line, why in check_pass(workload, commands, result, digests)]
                    setup.append(result["setup_s"])
                    passes.append((traced, result))
                n += 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    failed = len({(n, line) for n, line, _ in failures})
    print(f"passes {len(passes)}  commands attempted {attempted}  failed {failed}  failed_frac {failed / attempted:.6g}")
    if failures:
        for n, line, reason in failures:
            print(f"FAILED (pass {n}): {line}: {reason}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    plain = [r for traced, r in passes if not traced]
    if args.trace:
        metrics = trace_metrics(plain, [r for traced, r in passes if traced])
        print_trace(metrics)
    else:
        samples = {name: [r[name] for r in plain] for name in ("wall_s", "cpu_s", "peak_rss_mb", "probe_s")}
        samples["wall_ref_s"] = [to_ref(r, r["wall_s"]) for r in plain]
        samples["cpu_ref_s"] = [to_ref(r, r["cpu_s"]) for r in plain]
        samples["raw_setup_s"] = setup
        samples["setup_s"] = [t * REF_PROBE_S / statistics.median(samples["probe_s"]) for t in setup]
        for name, values in samples.items():
            unit = units.get(name, "s")  # the unbounded extras are all seconds
            print(f"{name:12s} {statistics.median(values):.6g} {unit}  ({spread(values)})")
        metrics = {name: statistics.median(values) for name, values in samples.items()}

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"benchmark defect: BENCHMARK.json names metrics this run did not produce: {missing}", file=sys.stderr)
        return 3
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": result}))
    return 0


def to_ref(result: dict, seconds: float) -> float:
    """Seconds measured in one pass, scaled to the reference speed."""
    return seconds * REF_PROBE_S / result["probe_s"]


def trace_metrics(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced passes of the per-layer metrics, plus the
    output counters and the tracing overhead; times in reference seconds."""
    per_pass = [per_layer_metrics(r["trace"], to_ref(r, 1.0)) for r in traced]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    outputs = traced[0]["outputs"]
    metrics["cli.stdout_bytes"] = sum(o["bytes"] for o in outputs)
    metrics["cli.vectors_emitted"] = sum(o["n_vectors"] or 0 for o in outputs)
    metrics["trace.wall_s"] = statistics.median(to_ref(r, r["wall_s"]) for r in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(to_ref(r, r["wall_s"]) for r in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics


def print_trace(metrics: dict[str, float]) -> None:
    wall = metrics["trace.wall_s"]
    print(f"in reference seconds: traced wall_s {wall:.4f} s, untraced {metrics['trace.untraced_wall_s']:.4f} s, "
          f"tracing overhead {metrics['trace.overhead_s']:.4f} s")
    print("layer self time (share of traced wall_s):")
    for layer in LAYERS:
        s = metrics[f"{layer}.self_s"]
        print(f"  {layer:11s} {s:9.4f} s  {s / wall:7.2%}")
    rest = wall - sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    print(f"  {'unassigned':11s} {rest:9.4f} s  {rest / wall:7.2%}")
    for name in sorted(metrics):
        print(f"{name:45s} {metrics[name]:.6g}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "wsgaps", "cli.py")):
        print(f"no wsgaps sources under {SRC}: run from the root of a wsgaps checkout", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
