"""mahlerkit benchmark: three seeded closed-loop workloads, checked answers.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from anywhere; the package is imported from ``src/`` next to this
directory.  With --trace 0 the run measures the end-to-end metrics: the
CLI cold start (setup_s) in fresh interpreters, then the workload in a
worker process of its own.  With --trace 1 the worker wraps the package's
layers and the run reports per-layer metrics instead.  Times are in
reference seconds, scaled by calibrations of the host's speed (see
calibration.py and measure_setup).  The last line of standard output is one JSON object {correct, attempted, failed, metrics};
the lines before it are a readable report.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "mahlerkit"
WORKLOADS = ("pipeline", "certify", "convert")
CORPUS_NAMES = ["thue_morse", "stern", "binary_partitions", "one_plus_z", "paradox_k2"]
SETUP_REPEATS = 11
# setup_s is in reference seconds: each cold start is scaled by the bare
# interpreter starts (`python -c pass`) around it, which change with the
# host's load as much as it does and not at all with the package, to a host
# where a bare start takes this long.  See bench/README.md.
BARE_START_REF_S = 0.06
# A hung worker is killed, so that a run ends within three minutes.
WORKER_TIMEOUT_S = 170

# Metrics the JSON line carries, as listed in BENCHMARK.json.
END_TO_END = ("setup_s", "jobs_per_s", "job_p50_s", "job_tail_s", "decided_ratio", "peak_rss_mb")
LAYERS = ("cli", "jsonio", "becker", "regular", "mahler", "linalg", "series", "algebra")
# The per-layer metrics of the JSON line: the self times that are nonzero
# on every workload, the work counts, the error counts and the overhead.
# The report prints every metric of PER_LAYER_REPORT.
PER_LAYER = (
    "series.mul_poly.self_s",
    "series.compose_power.terms",
    "mahler.verify.self_s",
    "mahler.verify.calls",
    "mahler.verify.window_terms",
    "algebra.poly_mul.self_s",
    "algebra.poly_mul.calls",
    "algebra.divrem.self_s",
    "algebra.poly_gcd.self_s",
    "algebra.poly_gcd.calls",
    "mahler.guess.calls",
    "linalg.echelon.systems",
    "linalg.add_row.calls",
    "linalg.add_row.self_s",
    "linalg.rows_per_system",
) + tuple("%s.errors" % layer for layer in LAYERS) + ("trace.overhead_ratio",)
PER_LAYER_REPORT = PER_LAYER + (
    "series.mul.self_s",
    "series.invert.self_s",
    "becker.normalize.self_s",
    "mahler.relation_search.self_s",
    "mahler.relation_search.found_ratio",
    "becker.witness.self_s",
    "mahler.guess.self_s",
    "mahler.guess.found_ratio",
    "becker.certify_irregular.self_s",
    "becker.certify_regular.self_s",
    "regular.rep_to_equation.self_s",
    "regular.closure_rep.self_s",
    "regular.closure_rep.dim_sum",
    "mahler.cartier_coordinates.self_s",
    "algebra.rf.self_s",
    "algebra.norm_over_kth_roots.self_s",
    "algebra.cyclotomic_profile.self_s",
    "jsonio.self_s",
    "cli.self_s",
)

# The layers each workload was chosen to load, as in bench/README.md.
CLAIMS = {
    "pipeline": ("becker.normalize", "series", "mahler.verify", "algebra.poly_mul"),
    "certify": ("linalg", "mahler.guess"),
    "convert": ("regular", "mahler.guess"),
}


def unit_of(name: str) -> str:
    for suffix, unit in (("jobs_per_s", "1/s"), ("_s", "s"), ("_ratio", "ratio"), ("_mb", "MB"), ("rows_per_system", "rows")):
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> tuple[list[float], list[float]]:
    """Cold starts of `mahlerkit corpus list`, one at a time, each followed
    by a bare interpreter start, after one untimed start of each that
    leaves the bytecode cache warm as an installed package has it.
    Returns (measured, reference) seconds: a start's reference time is its
    measured time scaled by BARE_START_REF_S over the mean of the bare
    starts around it."""
    env = child_env()

    def timed(cmd):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError("`%s` failed: %s" % (" ".join(cmd[1:]), proc.stderr.strip()))
        return elapsed, proc.stdout

    def cli_start():
        elapsed, out = timed([sys.executable, "-m", "mahlerkit", "corpus", "list"])
        if out.split() != CORPUS_NAMES:
            raise RuntimeError("`mahlerkit corpus list` printed %r" % out)
        return elapsed

    bare = [sys.executable, "-c", "pass"]
    cli_start()
    before = timed(bare)[0]
    times, ref_times = [], []
    for _ in range(SETUP_REPEATS):
        elapsed = cli_start()
        after = timed(bare)[0]
        times.append(elapsed)
        ref_times.append(elapsed * BARE_START_REF_S / ((before + after) / 2))
        before = after
    return times, ref_times


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("worker failed:\n%s" % proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float], min_jobs: int) -> tuple[float, str]:
    """The highest percentile that still has at least ten jobs beyond it in
    a run of min_jobs jobs, the fewest the worker runs.  Longer runs report
    the same percentile (nearest rank), so runs stay comparable."""
    q = (min_jobs - 10) / min_jobs
    ordered = sorted(times)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)], "p%.1f" % (100 * q)


def counts(doc: dict) -> tuple[int, int, int]:
    """(attempted, failed, wrong) jobs of a worker result."""
    jobs = doc["jobs"]
    return len(jobs), sum(1 for j in jobs if j["failure"]), sum(1 for j in jobs if j["failure"] == "wrong")


def end_to_end(doc: dict) -> dict:
    jobs = doc["jobs"]
    attempted, failed, _ = counts(doc)
    times = [j["ref_seconds"] for j in jobs]
    tail_s, tail_label = tail(times, doc["min_jobs"])
    return {
        "jobs_per_s": (attempted - failed) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "fail_ratio": failed / attempted,
        "decided_ratio": sum(1 for j in jobs if j["decided"]) / attempted,
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "_tail_label": tail_label,
    }


def charged_share(selfs_by_stage: dict, members) -> float:
    """Share of traced job time charged to a set of layers or span names:
    their own self time, plus the self time of arithmetic spans whose
    nearest calling stage is one of them."""

    def member(name):
        return any(name == m or name.startswith(m + ".") for m in members)

    total = sum(selfs_by_stage.values())
    charged = sum(v for (name, stage), v in selfs_by_stage.items() if member(name) or member(stage))
    return charged / total if total else 0.0


def per_layer(doc: dict) -> dict:
    t = doc["trace"]
    selfs, calls, counters, errors = t["self_s"], t["calls"], t["counters"], t["errors"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in PER_LAYER_REPORT:
        if name.endswith(".errors"):
            out[name] = errors.get(name.split(".")[0], 0)
        elif name.endswith(".self_s"):
            out[name] = selfs.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".found_ratio"):
            span = name[: -len(".found_ratio")]
            out[name] = ratio(counters.get(span + ".found", 0), calls.get(span, 0))
        elif name == "linalg.echelon.systems":
            out[name] = calls.get("linalg.echelon", 0)
        elif name == "linalg.rows_per_system":
            out[name] = ratio(calls.get("linalg.add_row", 0), calls.get("linalg.echelon", 0))
        elif name == "trace.overhead_ratio":
            out[name] = ratio(t["traced_s"], t["untraced_s"])
        else:
            out[name] = counters.get(name, 0)
    return out


def report_trace(workload: str, doc: dict, metrics: dict) -> list[str]:
    t = doc["trace"]
    selfs_by_stage = {tuple(k.split("|")): v for k, v in t["self_by_stage"].items()}
    total_self = sum(t["self_s"].values())
    lines = [
        "traced jobs: %d, spans: %d, traced job time %.3f s, untraced %.3f s"
        % (t["jobs"], t["spans"], t["job_span_s"], t["untraced_s"]),
        "self times sum to %.3f s = %.4f of traced job time" % (total_self, total_self / t["job_span_s"] if t["job_span_s"] else 0.0),
        "self time by span (share of traced job time):",
    ]
    for name, v in sorted(t["self_s"].items(), key=lambda kv: -kv[1]):
        lines.append("  %-32s %10.4f s  %6.1f%%  calls %d" % (name, v, 100 * v / total_self, t["calls"][name]))
    share = charged_share(selfs_by_stage, CLAIMS[workload])
    lines.append(
        "claim: %s take %.1f%% of traced job time: %s"
        % (" + ".join(CLAIMS[workload]), 100 * share, "holds" if share > 0.5 else "DOES NOT HOLD")
    )
    lines.append("per-layer metrics:")
    for name in PER_LAYER_REPORT:
        lines.append("  %-38s %14.6g %s" % (name, metrics[name], unit_of(name)))
    return lines


def report_end_to_end(workload: str, doc: dict, metrics: dict) -> list[str]:
    jobs = doc["jobs"]
    attempted, failed, _ = counts(doc)
    lines = [
        "workload %s, seed %d: %d jobs in rounds of %d (%d distinct inputs), %d failed, per-job budget %.0f s, "
        "jobs took %.3f s measured, %.3f s at reference speed (median calibration %.2f ms)"
        % (
            workload,
            doc["seed"],
            attempted,
            doc["round_size"],
            doc["inputs"],
            failed,
            doc["budget_s"],
            doc["wall_s"],
            sum(j["ref_seconds"] for j in jobs),
            1000 * statistics.median(doc["calibration_s"]),
        )
    ]
    for name in ("jobs_per_s", "job_p50_s", "job_tail_s", "fail_ratio", "decided_ratio", "peak_rss_mb"):
        note = "%d jobs, %d/%d failed/attempted" % (attempted, failed, attempted)
        if name == "job_tail_s":
            note = metrics["_tail_label"] + ", " + note
        lines.append("  %-14s %12.6f %-5s (%s)" % (name, metrics[name], unit_of(name), note))
    for j in jobs:
        if j["failure"]:
            lines.append("  FAILED (%s) %s after %.3f s: %s" % (j["failure"], j["input"], j["seconds"], j["reason"]))
    return lines


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, names) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in names},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print("error: no mahlerkit sources at %s" % PACKAGE, file=sys.stderr)
        return 2

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {}
    names = []
    attempted = failed = wrong = 0
    if not args.trace:
        setup_times, ref_times = measure_setup()
        out["setup_s"] = statistics.median(ref_times)
        names.append("setup_s")
        print(
            "setup_s %.6f s at reference speed, %.6f s measured (medians of %d cold starts of `mahlerkit corpus list`)"
            % (out["setup_s"], statistics.median(setup_times), len(setup_times))
        )
    for workload in selected:
        doc = run_worker(workload, args.seed, args.seconds, args.trace)
        a, f, w = counts(doc)
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
        if args.trace:
            metrics = per_layer(doc)
            print("\n".join(["workload %s, seed %d, traced" % (workload, args.seed)] + report_trace(workload, doc, metrics)))
        else:
            metrics = end_to_end(doc)
            print("\n".join(report_end_to_end(workload, doc, metrics)))
        prefix = "%s." % workload if args.workload == "all" else ""
        for name in PER_LAYER if args.trace else END_TO_END[1:]:
            out[prefix + name] = metrics[name]
            names.append(prefix + name)
    print(result_line(wrong == 0, attempted, failed, out, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
