"""Self-tests of the benchmark: tiny smokes, the oracle, the refusals.

    python3 -m pytest perfbench -q

Not part of the repository's test suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

import hostspeed
import inputs
import run
import workloads
from repro.engine.compiled import CompiledSpanner

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = 0.6


@pytest.fixture(autouse=True)
def program_on_path(monkeypatch):
    """``repro serve`` subprocesses import the program from the checkout."""
    monkeypatch.setenv(
        "PYTHONPATH",
        os.pathsep.join(filter(None, [run.SOURCE, os.environ.get("PYTHONPATH")])),
    )


def started(name: str, seed: int = 3):
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    return workload


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_smoke(name):
    workload = started(name)
    try:
        report = workloads.untraced(workload, SMOKE_SECONDS)
    finally:
        workload.close()
    tally = report["phase"]["tally"]
    assert tally.attempted > 0
    assert (tally.errors, tally.wrong) == (0, 0), tally.examples
    for metric in ("docs_per_s", "latency_p50_ms", "latency_p95_ms", "peak_rss_mib"):
        value = report["metrics"][metric]
        assert math.isfinite(value) and value > 0, (metric, value)


@pytest.mark.parametrize("name", ["extract-logs", "serve-mixed"])
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    workload = started(name)
    try:
        report = workloads.traced(workload, 2 * SMOKE_SECONDS, tmp_path / "spans.jsonl")
    finally:
        workload.close()
    assert set(report["metrics"]) == set(workloads.LAYER_METRICS)
    assert report["metrics"]["engine.extract_ms_per_doc"] > 0
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert spans and set(spans[0]) == {"id", "name", "start", "end", "parent", "request"}
    assert report["metrics"]["trace.spans"] == len(spans)


def test_slices_state_times_for_the_reference_host(monkeypatch):
    def half_speed_host(every_cpu=False):  # twice the reference time
        time.sleep(0.01)
        return 2 * hostspeed.REFERENCE_S

    monkeypatch.setattr(hostspeed, "yardstick_s", half_speed_host)
    slices = hostspeed.Slices(0.2, slice_seconds=0.05)
    began, done = time.perf_counter(), []
    while not slices.over():
        done.append(slices.current())
        time.sleep(0.001)
        slices.tick()
    slices.finish()
    assert (slices.count, len(slices.yardsticks)) == (4, 5)
    assert sorted(set(done)) == [0, 1, 2, 3]
    # The yardsticks' own time is off the program's clock.
    assert slices.clock() - slices.start < time.perf_counter() - began - 0.04
    factor = 0.5 ** hostspeed.ELASTICITY
    assert slices.median_factor() == pytest.approx(factor)
    assert slices.scaled(0.01, 2) == pytest.approx(0.01 * factor)
    assert slices.scaled(math.inf, 2) == math.inf
    assert slices.rate([0] * 10 + [1] * 10 + [2] * 12 + [3] * 12) == pytest.approx(
        11 / 0.05 / factor
    )


def test_the_yardstick_visits_every_cpu_and_restores_affinity():
    allowed = os.sched_getaffinity(0)
    assert hostspeed.yardstick_s(every_cpu=True) > 0
    assert os.sched_getaffinity(0) == allowed


def test_oracle_catches_a_dropped_mapping(monkeypatch):
    workload = started("extract-logs")
    original = CompiledSpanner.extract

    def corrupted(self, document, spans=False):
        return original(self, document, spans=spans)[1:]

    monkeypatch.setattr(CompiledSpanner, "extract", corrupted)
    phase = workload.phase(SMOKE_SECONDS)
    assert phase["tally"].wrong == phase["tally"].attempted > 0


def test_oracle_catches_a_flipped_verdict(monkeypatch):
    workload = started("filter-logs")
    original = CompiledSpanner.matches_many

    def corrupted(self, documents):
        verdicts = original(self, documents)
        return [not verdicts[0], *verdicts[1:]]

    monkeypatch.setattr(CompiledSpanner, "matches_many", corrupted)
    phase = workload.phase(SMOKE_SECONDS)
    assert phase["tally"].wrong >= 1
    assert phase["latencies"][0] == math.inf  # a failed batch counts as infinitely slow


def test_oracle_checks_served_answers():
    doc = inputs.DocStream(1, 12, 12, "d").next()
    truth = inputs.FILTER.verdict(doc)

    class Client:
        def evaluate(self, pattern, text):
            return {"results": [{"error": None, "matches": not truth}]}

        def enumerate(self, pattern, text):
            return {"results": [{"error": None, "mappings": []}]}

    request = workloads.ServeWorkload.request
    assert request(Client(), ("evaluate", inputs.FILTER, doc)) == (False, None)
    assert request(Client(), ("enumerate", None, doc)) == (False, None)


def test_a_wrong_answer_fails_the_command(monkeypatch, capsys, tmp_path):
    record = {
        "setup_s": 0.5, "metrics": {"docs_per_s": 1.0}, "units": {}, "samples": {},
        "inputs": {}, "stamp": {}, "attempted": 10, "errors": 0, "wrong": 1,
        "examples": ["doc-1: wrong answer"],
    }
    monkeypatch.setattr(run, "child", lambda args, phase: dict(record))
    monkeypatch.setattr(run, "HERE", str(tmp_path))
    code = run.main(["--workload", "extract-logs", "--seed", "1", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert (last["correct"], last["failed"], last["attempted"]) == (False, 1, 10)


@pytest.mark.parametrize("variable", ["REPRO_FAULTS", "REPRO_NO_VECTOR", "REPRO_FLAT_STATE_LIMIT"])
def test_overrides_are_refused(monkeypatch, variable):
    monkeypatch.setenv(variable, "1")
    assert run.main(["--workload", "filter-logs", "--seed", "1", "--seconds", "1"]) == 2


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__")
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract-logs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_inputs_follow_the_seed():
    first = inputs.DocStream(7, 4, 20, "x").take(50)
    again = inputs.DocStream(7, 4, 20, "x").take(50)
    other = inputs.DocStream(8, 4, 20, "x").take(50)
    assert first == again and first != other
    filters = inputs.fresh_filters(7)
    assert len({f.pattern for f in filters}) == len(filters) == 580
    assert inputs.FILTER.pattern == inputs.FILTER_PATTERN not in {f.pattern for f in filters}


def test_a_timed_out_run_leaves_no_server_behind(monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT", 3)
    args = argparse.Namespace(workload="serve-mixed", seed=1, seconds=30, trace=0)
    with pytest.raises(SystemExit, match="timed out"):
        run.child(args, "run")
    survivors = subprocess.run(
        ["pgrep", "-f", "repro serve --port 0"], capture_output=True, text=True
    )
    assert survivors.returncode == 1, survivors.stdout
