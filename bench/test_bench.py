"""Tests of the benchmark itself: inputs, checks, metrics and tracing.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import json
from pathlib import Path

import pytest

import calibration
import jobs
import run
import tracing
import worker
import workloads
from mahlerkit import becker, jsonio, mahler
from mahlerkit.becker import NOT_REGULAR, Certificate

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["pipeline", "certify", "convert"])
def test_generator_is_deterministic(workload):
    gen = workloads.GENERATORS[workload]
    first = jsonio.dumps_canonical(gen(7, rounds=1))
    assert jsonio.dumps_canonical(gen(7, rounds=1)) == first
    assert jsonio.dumps_canonical(gen(8, rounds=1)) != first


@pytest.mark.parametrize("workload", ["pipeline", "certify"])
def test_generated_equations_are_primitive(workload):
    for job in workloads.GENERATORS[workload](7, rounds=1)[0]:
        if job["name"].startswith("seed"):
            assert workloads._primitive(jsonio.equation_from_json(job["equation"]).coeffs), job["name"]


def test_reference_time_scales_with_the_calibration():
    ref = calibration.REFERENCE_CALIBRATION_S
    assert calibration.scaled(1.0, [ref], [ref]) == pytest.approx(1.0)
    assert calibration.scaled(1.0, [2 * ref] * 2, [2 * ref] * 2) == pytest.approx(0.5)  # a host twice as slow
    # the median of the blocks around a job: one slow block does not move it
    assert calibration.scaled(0.3, [ref, 2 * ref, 2 * ref], [2 * ref, 9 * ref]) == pytest.approx(0.15)
    blocks = calibration.calibrate()
    assert len(blocks) == calibration.CALIBRATION_BLOCKS and all(0 < b < 1 for b in blocks)


def test_classic_reps_match_their_definitions():
    reps = workloads.classic_reps()

    def digits(n, k):
        out = []
        while n:
            out.append(n % k)
            n //= k
        return out

    def baum_sweet(n):
        blocks = bin(n)[2:].split("1") if n else []
        return int(all(len(b) % 2 == 0 for b in blocks))

    def stern(n):
        a, b = 1, 0  # s(n) by the fusc recurrence on the binary digits
        while n:
            if n & 1:
                b += a
            else:
                a += b
            n >>= 1
        return b

    expected = {
        "sum_of_digits_2": lambda n: sum(digits(n, 2)),
        "sum_of_digits_3": lambda n: sum(digits(n, 3)),
        "identity": lambda n: n,
        "stern": stern,
        "rudin_shapiro": lambda n: (-1) ** sum(1 for i in range(n.bit_length()) if (n >> i) & 3 == 3),
        "baum_sweet": baum_sweet,
        "thue_morse": lambda n: (-1) ** sum(digits(n, 2)),
    }
    for name, rep in reps.items():
        assert jobs.rep_values(rep, 64) == [expected[name](n) for n in range(64)], name


def _doc(jobs_list, wall=2.0):
    return {"jobs": jobs_list, "wall_s": wall, "calibration_s": [0.0035], "peak_rss_kb": 20480, "min_jobs": 30}


def _job(seconds, failure=None, decided=True):
    return {"input": "x", "seconds": seconds, "ref_seconds": seconds, "failure": failure, "reason": failure, "decided": decided}


def test_every_metric_is_printed_with_its_unit():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]

    doc = _doc([_job(0.1 * i) for i in range(1, 31)])
    metrics = dict(run.end_to_end(doc), setup_s=0.15)
    line = json.loads(run.result_line(True, 30, 0, metrics, run.END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {n: run.unit_of(n) for n in run.END_TO_END}
    assert metrics["job_tail_s"] == pytest.approx(2.0)  # 20th of 30: ten jobs beyond it
    longer = run.end_to_end(_doc([_job(0.1 * i) for i in range(1, 61)]))
    assert longer["job_tail_s"] == pytest.approx(4.0)  # the same percentile of 60
    report = "\n".join(run.report_end_to_end("certify", dict(doc, seed=1, round_size=3, inputs=3, budget_s=10.0), metrics))
    for name in run.END_TO_END[1:] + ("fail_ratio",):
        assert name in report
    assert "p66.7" in report


def test_planted_wrong_answers_are_failures():
    # a flipped verdict on an input that is regular by construction
    job = workloads.certify_inputs(3, rounds=1)[0][-1]
    assert job["regular"]
    eq, f = jobs.prepare_certify(job)
    honest = jobs.run_certify((eq, f))
    assert jobs.check_certify(job, honest)[0] is None
    flipped = Certificate(NOT_REGULAR, proposition="prop0", M=1, equation=eq)
    assert jobs.check_certify(job, (honest[0], flipped))[0] is not None

    # a flipped pipeline verdict on a corpus item
    pjob = workloads.pipeline_inputs(3, rounds=1)[0][4]
    assert pjob["name"] == "corpus:thue_morse"
    code, text = jobs.run_pipeline(jobs.prepare_pipeline(pjob))
    assert jobs.check_pipeline(pjob, (code, text))[0] is None
    report = json.loads(text)
    report["certificate"]["verdict"] = NOT_REGULAR
    assert jobs.check_pipeline(pjob, (code, json.dumps(report)))[0] is not None

    # a wrong answer counts in failed and makes the run incorrect
    doc = _doc([_job(0.1), _job(0.2, failure="wrong", decided=False), _job(0.3, failure="budget", decided=False)])
    assert run.counts(doc) == (3, 2, 1)
    assert run.end_to_end(doc)["fail_ratio"] == pytest.approx(2 / 3)


def test_traced_self_times_add_up(tmp_path, monkeypatch):
    originals = (mahler.guess, becker.pinned_relation_search, mahler.verify)
    monkeypatch.setitem(worker.MIN_ROUNDS, "convert", 1)
    doc = worker.run("convert", 5, 0.5, trace=True, spans_dir=tmp_path)
    t = doc["trace"]
    # self times telescope to the job spans' durations, up to rounding
    assert sum(t["self_s"].values()) == pytest.approx(t["job_span_s"], rel=1e-9)
    # the job spans and the interval timer agree within 5%
    assert t["job_span_s"] == pytest.approx(t["traced_s"], rel=0.05)
    assert t["calls"]["regular.rep_to_equation"] > 0 and t["calls"]["mahler.guess"] > 0
    assert (mahler.guess, becker.pinned_relation_search, mahler.verify) == originals
    spans = json.loads((tmp_path / "spans-convert-5.json").read_text())
    assert len(spans["start"]) == len(spans["end"]) == len(spans["parent"]) == t["spans"]


def test_tracer_replaces_every_binding_and_restores_them():
    tracer = tracing.Tracer()
    original = mahler.pinned_relation_search
    tracer.install()
    try:
        assert becker.pinned_relation_search is not original
        assert mahler.pinned_relation_search is becker.pinned_relation_search
    finally:
        tracer.uninstall()
    assert becker.pinned_relation_search is original and mahler.pinned_relation_search is original
