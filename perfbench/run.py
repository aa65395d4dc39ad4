"""Benchmark of the uniseq command line, run in process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closure-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One process runs one workload on one thread as a closed loop: each job is
one call of ``uniseq.cli.main(argv)`` with its output captured, started
when the previous job's output has been checked.  The run repeats whole
rounds of the workload's job list for about ``--seconds``.  The last line
of standard output is a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  ``--workload all`` runs each workload in a fresh
process and prints one such line per workload, then a summary line.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(ROOT))
from perfbench import checks, trace, workloads  # noqa: E402

SETUPS = 11
TAIL = 75  # job_tail_ms percentile; with 40 or more jobs, ten lie beyond it


def import_uniseq():
    """Import the package from this checkout's sources, afresh."""
    for name in [n for n in sys.modules if n == "uniseq" or n.startswith("uniseq.")]:
        del sys.modules[name]
    cli = importlib.import_module("uniseq.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"uniseq imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(name, seed):
    """Import the package and build the inputs ``SETUPS`` times; return the
    last job list, the main function and the median set-up time."""
    workdir = OUT / "inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        cli = import_uniseq()
        jobs = workloads.build(name, seed, workdir)
        times.append(time.perf_counter() - start)
    return jobs, cli.main, statistics.median(times)


def call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


class Verifier:
    """Checks each job's output.  An output identical to one this run has
    already verified for the same job is not checked a second time."""

    def __init__(self):
        self.verified = {}
        self.errors = []

    def __call__(self, index, job, rc, stdout):
        if self.verified.get(index) == (rc, stdout):
            return
        try:
            if job.check is None:
                job.check = job.make_check()
            job.check(checks.parse(job.command, job.fmt, stdout), rc)
        except (checks.CheckFailed, ValueError, KeyError, TypeError) as exc:
            self.errors.append(f"{' '.join(job.argv)[:160]}: {type(exc).__name__}: {exc}")
            return
        self.verified[index] = (rc, stdout)


def run_rounds(jobs, main, seconds, tracer=None):
    """Closed loop over whole rounds.  Another round starts only while at
    least half of one still fits in ``seconds``.  Returns each job's
    latencies, each round's summed latency, the failed-job count and
    whether every output checked out."""
    verify = Verifier()
    per_job = [[] for _ in jobs]
    round_totals = []
    failed = 0
    start = time.perf_counter()
    while True:
        total = 0.0
        for index, job in enumerate(jobs):
            # Start every job with an empty collector and keep the
            # benchmark's own objects (inputs, checks) out of its scans, so
            # they do not lengthen the job's collection pauses.
            gc.collect()
            gc.freeze()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc, stdout, stderr = call(main, job.argv)
                else:
                    rc, stdout, stderr = tracer.job(call, main, job.argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed job
                print(f"failed: {' '.join(job.argv)[:160]}: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            latency = time.perf_counter() - t0
            if rc not in (0, 1):
                print(f"failed: {' '.join(job.argv)[:160]}: exit {rc}: {stderr.strip()}",
                      file=sys.stderr)
                failed += 1
                continue
            per_job[index].append(latency)
            total += latency
            if tracer is not None:
                tracer.counters["cli.output_bytes"] += len(stdout)
            verify(index, job, rc, stdout)
        round_totals.append(total)
        elapsed = time.perf_counter() - start
        if elapsed + (elapsed / len(round_totals)) / 2 > seconds:
            break
    for error in verify.errors[:5]:
        print(f"check failed: {error}", file=sys.stderr)
    return per_job, round_totals, failed, not verify.errors


def end_to_end(per_job, round_totals, setup_s):
    """Job latencies are each job's median over the run's rounds."""
    latencies = [statistics.median(t) for t in per_job if t]
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[TAIL - 1]
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(round_totals), "s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def closure_peak_mb(tracer):
    """tracemalloc peak of one closure over the largest input the traced run
    saw, measured after the run's spans and counters are taken."""
    if not tracer.largest_closure:
        return 0.0
    closure = tracer.originals["submonoid.closure"]
    gc.collect()
    tracemalloc.start()
    try:
        closure(list(tracer.largest_closure))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_workload(args):
    jobs, main, setup_s = set_up(args.workload, args.seed)
    if not args.trace:
        per_job, rounds, failed, correct = run_rounds(jobs, main, args.seconds)
        metrics = end_to_end(per_job, rounds, setup_s)
    else:
        tracer = trace.Tracer()
        trace.install(tracer)
        per_job, rounds, failed, correct = run_rounds(jobs, main, args.seconds, tracer)
        traced_wall = statistics.median(rounds)
        metrics = trace.layer_metrics(tracer, len(rounds))
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace.write_spans(tracer, path, {"workload": args.workload, "seed": args.seed,
                                         "rounds": len(rounds), "wall_s": traced_wall})
        print(f"traced wall_s {traced_wall:.4f} over {len(rounds)} rounds; spans in {path}",
              file=sys.stderr)
        metrics["submonoid.closure_peak_mb"]["value"] = closure_peak_mb(tracer)
    return {
        "correct": correct,
        "attempted": len(rounds) * len(jobs),
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args):
    """Each workload in a fresh process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **result}), flush=True)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "uniseq" / "__init__.py").is_file():
        print(f"error: no uniseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
