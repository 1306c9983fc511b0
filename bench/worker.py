"""Run one workload in this process and print its raw results as JSON.

``bench/run.py`` starts this script once per run, so the peak memory it
reports belongs to the workload alone.  Inputs are generated from the seed
and parsed before the clock starts.  Jobs then run one after another (one
client, closed loop) in whole rounds: a new round starts while the jobs
have taken less than the run time together or fewer than MIN_ROUNDS rounds
have run, and the rounds repeat if the generated ones run out.  The clock
runs only while a job runs: each answer is checked, and the heap collected,
between jobs and off the clock.

With --trace 1 every job runs twice, untraced and then traced, so the
trace overhead is measured on the same jobs.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import jobs as joblib
import workloads
from calibration import CALIBRATION_INTERVAL_S, calibrate, scaled
from tracing import JOB_SPAN, Tracer

# Layers whose functions are stages of a job; the other wrapped layers
# (algebra, linalg, series) are arithmetic that a stage calls.
STAGE_LAYERS = (JOB_SPAN, "cli", "jsonio", "becker", "mahler", "regular")

# Every run has at least this many rounds, so at least ten jobs lie beyond
# the tail percentile that bench/run.py derives from it.
MIN_ROUNDS = {"pipeline": 2, "certify": 3, "convert": 10}
# A job still running after this many seconds is stopped and counts as failed.
BUDGET_S = 10.0
# Traced jobs run slower; their budget is the untraced one times this.
TRACE_BUDGET_FACTOR = 4.0
SPANS_DIR = Path(__file__).resolve().parent / "out"


class JobTimeout(BaseException):
    """Raised by the interval timer when a job overruns its budget; a
    BaseException so that no ``except Exception`` in the package eats it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def timed_call(fn, arg, budget):
    """(seconds, output, failure) for one call under the budget; failure is
    None or a (kind, reason) pair."""
    failure = None
    out = None
    signal.setitimer(signal.ITIMER_REAL, budget)
    start = time.perf_counter()
    try:
        out = fn(arg)
    except JobTimeout:
        failure = ("budget", "over the %.0f s budget" % budget)
    except Exception as exc:  # any exception is a failed job, recorded by type
        failure = ("raised", "%s: %s" % (type(exc).__name__, exc))
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, out, failure


def checked(check, job, elapsed, out, failure) -> dict:
    """The result record of one job; the answer is checked here, off the
    clock, and only the verdict of the check is kept."""
    decided = False
    if failure is None:
        try:
            reason, decided = check(job, out)
        except Exception as exc:  # an answer the checks cannot read is wrong
            reason = "checker raised %s: %s" % (type(exc).__name__, exc)
        if reason is not None:
            failure = ("wrong", reason)
    return {
        "input": job["name"],
        "seconds": elapsed,
        "failure": failure and failure[0],
        "reason": failure and failure[1],
        "decided": decided,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, spans_dir: Path = SPANS_DIR) -> dict:
    prepare, execute, check = joblib.WORKLOADS[workload]
    rounds = workloads.GENERATORS[workload](seed)
    inputs = [job for jobs in rounds for job in jobs]
    prepared = [prepare(job) for job in inputs]
    round_size = len(rounds[0])
    budget = BUDGET_S
    tracer = Tracer() if trace else None
    signal.signal(signal.SIGALRM, _on_alarm)

    results = []
    points = []  # (index of the next job, block times) of each calibration point
    since_point = float("inf")
    untraced_s = traced_s = 0.0
    traced_jobs = 0
    wall = 0.0
    min_jobs = MIN_ROUNDS[workload] * round_size
    while wall < seconds or len(results) % round_size or len(results) < min_jobs:
        idx = len(results) % len(inputs)
        # Each job starts from a collected heap, so garbage left by earlier
        # jobs and checks is not charged to it.
        gc.collect()
        if since_point >= CALIBRATION_INTERVAL_S:
            points.append((len(results), calibrate()))
            since_point = 0.0
        elapsed, out, failure = timed_call(execute, prepared[idx], budget)
        wall += elapsed
        since_point += elapsed
        if tracer is not None and failure is None:
            tracer.job = len(results)
            tracer.install()
            try:
                t_elapsed, _, t_failure = timed_call(
                    lambda p: tracer.span(JOB_SPAN, execute, p), prepared[idx], budget * TRACE_BUDGET_FACTOR
                )
            finally:
                tracer.uninstall()
            if t_failure is None:
                untraced_s += elapsed
                traced_s += t_elapsed
                traced_jobs += 1
            else:
                tracer.repair()
        results.append(checked(check, inputs[idx], elapsed, out, failure))
        del out
    points.append((len(results), calibrate()))
    k = 0
    for i, result in enumerate(results):
        while points[k + 1][0] <= i:
            k += 1
        result["ref_seconds"] = scaled(result["seconds"], points[k][1], points[k + 1][1])

    doc = {
        "workload": workload,
        "seed": seed,
        "inputs": len(inputs),
        "round_size": round_size,
        "min_jobs": min_jobs,
        "budget_s": budget,
        "wall_s": wall,
        "calibration_s": [statistics.median(blocks) for _, blocks in points],
        "jobs": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        doc["trace"] = dict(
            tracer.summary(STAGE_LAYERS),
            untraced_s=untraced_s,
            traced_s=traced_s,
            jobs=traced_jobs,
            counters=tracer.counters,
            errors=tracer.errors,
            spans=len(tracer.span_name),
        )
        tracer.write(spans_dir / ("spans-%s-%d.json" % (workload, seed)))
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(joblib.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
