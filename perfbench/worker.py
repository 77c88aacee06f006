"""One pass of a workload in a fresh, single-threaded interpreter.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py pass '<json spec>'

Both modes import wsgaps and build its argparse parser, then note the
monotonic clock (system-wide on Linux, so run.py can subtract its spawn time
to get setup_s).  `setup` stops there.  `pass` runs the timed commands
through `wsgaps.cli.run` under a SpeedProbe, keeping each command's stdout
in a file; reads user+sys CPU and peak RSS; then runs the untimed check
commands and summarises every output.  The last stdout line is one JSON
object.
"""

import sys
import time

import wsgaps.cli

wsgaps.cli.build_parser()
READY = time.monotonic()

import contextlib  # noqa: E402  (harness imports stay out of setup_s)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

PROBE_PERIOD_S = 0.01


class SpeedProbe:
    """Times a fixed pure-Python task from a SIGALRM handler every
    PROBE_PERIOD_S of wall time while the commands run (about 3% extra work).

    On a shared machine the speed at which this process runs Python swings by
    a third within seconds and drifts over minutes; the probe follows both,
    because it samples the same core at the same moments.  The task mixes
    integer arithmetic with tuple and dict allocation, as the workloads do;
    either half alone tracks one workload well and another poorly.  Speed is
    work per second, so the pass's mean speed is 1 / (harmonic mean of the
    durations).
    """

    def __init__(self):
        self.samples: list[float] = []

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(2000):
            x += (i * 7) % 13
        d = {}
        for i in range(400):
            d[(i, i * 3, i & 7)] = [i]
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self._probe()

    def mean(self) -> float:
        """Harmonic mean of the probe durations."""
        return statistics.harmonic_mean(self.samples)


def run_command(argv, path: str) -> tuple[int | str, float]:
    """Exit code and seconds of one command.  Its stdout is captured in memory
    while timed, then written to `path` untimed, so the shared disk adds no
    noise to the times."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        try:
            rc = wsgaps.cli.run(list(argv))
        except SystemExit as exc:  # argparse rejects the flags
            rc = exc.code
        except Exception as exc:  # reported as a failed command, never as a sample
            traceback.print_exc()
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    with open(path, "w") as f:
        f.write(out.getvalue())
    return rc, seconds


def summarise(path: str, rc) -> dict:
    with open(path, "rb") as f:
        data = f.read()
    summary = {"rc": rc, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data), "n_vectors": None, "fields": {}}
    try:
        payload = json.loads(data)["payload"]
    except (ValueError, KeyError, TypeError):
        return summary
    if "vectors" in payload:
        summary["n_vectors"] = len(payload["vectors"])
    summary["fields"] = {k: v for k, v in payload.items() if isinstance(v, (bool, int, str))}
    return summary


def run_pass(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    outdir = spec["outdir"]
    rcs = []
    wall = 0.0
    with SpeedProbe() as probe:
        for i, argv in enumerate(spec["commands"]):
            if tracer is not None:
                tracer.run_id = i
            rc, seconds = run_command(argv, os.path.join(outdir, f"cmd{i}.out"))
            rcs.append(rc)
            wall += seconds
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ready": READY,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "probe_s": probe.mean(),
    }
    if tracer is not None:
        result["trace"] = tracer.report()
        tracer.write_spans(spec["spans_path"], spec["meta"])
    check_rcs = [
        run_command(argv, os.path.join(outdir, f"check{i}.out"))[0] for i, argv in enumerate(spec["check_commands"])
    ]
    result["outputs"] = [summarise(os.path.join(outdir, f"cmd{i}.out"), rc) for i, rc in enumerate(rcs)]
    result["check_outputs"] = [
        summarise(os.path.join(outdir, f"check{i}.out"), rc) for i, rc in enumerate(check_rcs)
    ]
    return result


def main() -> None:
    if sys.argv[1:] == ["setup"]:
        result = {"ready": READY}
    elif len(sys.argv) == 3 and sys.argv[1] == "pass":
        result = run_pass(json.loads(sys.argv[2]))
    else:
        sys.exit("usage: worker.py setup | worker.py pass '<json spec>'")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
