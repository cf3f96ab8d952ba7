"""One workload in one fresh interpreter: set up, measure, check, report.

Started by ``run.py`` (never imported by it), with ``PYTHONPATH``
pointing at the checkout's ``src``::

    python3 perfbench/workloads.py --workload extract-logs --seed 1 \\
        --seconds 10 --trace 0 --phase run --t0 <time.monotonic()>

``--t0`` is the parent's monotonic clock just before it started this
process (``CLOCK_MONOTONIC`` is system-wide), so ``setup_s`` covers
interpreter start, ``import repro``, plan+compile, server start or pool
spawn, and warm-up.  ``--phase setup`` stops there and reports only
``setup_s``; ``--phase run`` goes on to the timed phase and prints one
JSON object: measurements, input record, host stamp, and the oracle's
tally.  Input generation and answer checking stay outside every measured
latency; the ``extract-logs`` and ``serve-mixed`` rates count answers per
second of the phase, which includes them (a small share that does not
depend on the program).

A timed phase is cut into slices with the host's speed timed between
them (``hostspeed.py``); every time and rate it reports is scaled to the
reference host speed, and the median scale factor is reported next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time

import hostspeed
import inputs
from hostspeed import Slices, program_peak_mib
from tracing import Tracer

from repro import api
from repro.engine.compiled import CompiledSpanner
from repro.plan import plan
from repro.service.evaluate import WorkerPool, evaluate_records
from repro.workloads import server_logs

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")

#: Lines per generated document (uniform): varied length, mean 12.
MIN_LINES, MAX_LINES = 4, 20
#: Documents per ``evaluate_records`` call in ``filter-logs``.
FILTER_WIDTH = 1024
#: ``serve-mixed`` traffic: a closed loop over this many connections.
CONNECTIONS = 2
EVALUATE_SHARE = 0.6
HOT_SHARE = 0.5
#: Hot documents; fewer than the engine's 64-entry index LRU.
HOT_DOCUMENTS = 32
#: Share of ``/evaluate`` requests whose pattern is new in the run …
FRESH_PATTERN_SHARE = 0.03
#: … until this many were sent.  Every run reaches the cap (one engine
#: costs the server ~350 KiB, so a throughput-dependent count would move
#: peak_rss_mib), and it stays far below the server's 128-engine cache,
#: so no fresh pattern evicts the two hot ones.
FRESH_PATTERN_LIMIT = 24
WARMUP_DOCUMENTS = 64
#: Batches per ``service.pool_*`` comparison in the traced run.
POOL_PROBE_BATCHES = 24
POOL_WORKERS = 2
#: Untraced/traced slice pairs of a traced run.
TRACE_PAIRS = 3
#: Fresh patterns planned for ``plan.*`` on ``serve-mixed``.
PLAN_SAMPLE = 20

#: Every per-layer metric with its unit; layers a workload does not
#: exercise report 0.
LAYER_METRICS = {
    "plan.plan_ms": "ms",
    "plan.compile_ms": "ms",
    "plan.states": "count",
    "engine.index_ms_per_doc": "ms",
    "engine.extract_ms_per_doc": "ms",
    "engine.verdict_us_per_doc": "us",
    "engine.candidates_per_mapping": "ratio",
    "engine.index_hit_ratio": "ratio",
    "engine.verdict_hit_ratio": "ratio",
    "engine.flat_states": "count",
    "engine.self_ms_per_doc": "ms",
    "service.self_ms_per_doc": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.pool_batch_ms": "ms",
    "service.inproc_batch_ms": "ms",
    "service.pool_overhead_ratio": "ratio",
    "service.pool_retries": "count",
    "service.shm_fallbacks": "count",
    "server.request_ms": "ms",
    "server.outside_ms": "ms",
    "server.dispatch_ms": "ms",
    "server.mean_batch_docs": "count",
    "server.compile_ms": "ms",
    "server.compiles": "count",
    "server.shed": "count",
    "server.errors": "count",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

_SEED_STRIDE = 10**6  # separates the warm-up/probe streams from the run's


# -- measurement helpers --------------------------------------------------------


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; failed operations enter as ``inf``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def peak_rss_mib(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def host_stamp(engine: CompiledSpanner) -> dict:
    from repro.engine.vector import batch_accept, vector_enabled

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "vector_engaged": bool(
            vector_enabled() and batch_accept(engine.tables, ["GET"]) is not None
        ),
    }


def plan_metrics(patterns) -> dict[str, float]:
    """``plan()`` and ``Plan.compile()`` per distinct pattern, fresh each."""
    plan_ms, compile_ms, states = [], [], []
    for pattern in patterns:
        start = time.perf_counter()
        planned = plan(pattern)
        plan_ms.append(1000 * (time.perf_counter() - start))
        start = time.perf_counter()
        engine = planned.compile()
        compile_ms.append(1000 * (time.perf_counter() - start))
        states.append(engine.tables.num_states)
    return {
        "plan.plan_ms": statistics.median(plan_ms),
        "plan.compile_ms": statistics.median(compile_ms),
        "plan.states": states[0],
    }


def cache_ratios(before: dict, after: dict) -> dict[str, float]:
    def ratio(kind: str) -> float:
        hits = after[f"{kind}_hits"] - before[f"{kind}_hits"]
        misses = after[f"{kind}_misses"] - before[f"{kind}_misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "engine.index_hit_ratio": ratio("index"),
        "engine.verdict_hit_ratio": ratio("verdict"),
    }


class Tally:
    """Operations attempted, errored, and answered wrongly in one phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.examples: list[str] = []

    def record(self, ok: bool, error: str | None, label: str) -> None:
        self.attempted += 1
        if error is not None:
            self.errors += 1
            note = f"{label}: error {error}"
        elif not ok:
            self.wrong += 1
            note = f"{label}: wrong answer"
        else:
            return
        if len(self.examples) < 5:
            self.examples.append(note)

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.errors += other.errors
        self.wrong += other.wrong
        self.examples = (self.examples + other.examples)[:5]


def check_extraction(doc: inputs.Doc, records) -> bool:
    return inputs.decoded_tuples(records) == inputs.expected_tuples(doc)


# -- extract-logs / corpus-pool -------------------------------------------------


class StreamWorkload:
    """One ``api.evaluate`` call over documents generated until a deadline."""

    def __init__(self, seed: int, workers: int) -> None:
        self.seed = seed
        self.workers = workers
        self.stream = inputs.DocStream(seed, MIN_LINES, MAX_LINES, "access")
        self.engine: CompiledSpanner | None = None

    def setup(self) -> None:
        self.engine = api.compile(server_logs.access_expression())
        warm = inputs.DocStream(
            self.seed + _SEED_STRIDE, MIN_LINES, MAX_LINES, "warm"
        ).take(WARMUP_DOCUMENTS)
        results = api.evaluate(
            self.engine, {d.doc_id: d.text for d in warm}, workers=self.workers
        )
        for doc, result in zip(warm, results):
            if not result.ok or not check_extraction(doc, result.mappings):
                raise RuntimeError(f"warm-up answer wrong for {doc.doc_id}")

    def patterns(self) -> list:
        return [server_logs.access_expression()]

    def phase(self, seconds: float, tracer: Tracer | None = None) -> dict:
        pulled: dict[str, tuple] = {}
        slices = Slices(seconds)

        def documents():
            while not slices.over():
                doc = self.stream.next()
                pulled[doc.doc_id] = (doc, slices.clock())
                yield doc.doc_id, doc.text

        results = iter(
            api.evaluate(server_logs.access_expression(), documents, workers=self.workers)
        )
        tally = Tally()
        answered, latencies, mappings, partial, size = [], [], 0, 0, 0
        while True:
            if tracer is None:
                result = next(results, None)
            else:
                with tracer.span("service.evaluate", request=len(answered)):
                    result = next(results, None)
            if result is None:
                break
            moment = slices.clock()
            # Checked as it arrives (tens of µs against milliseconds of
            # evaluation), so no run keeps its documents alive.
            doc, pulled_at = pulled.pop(result.doc_id)
            expected = inputs.expected_tuples(doc)
            ok = result.ok and inputs.decoded_tuples(result.mappings) == expected
            tally.record(ok, result.error, result.doc_id)
            answered.append(slices.current())
            latencies.append(moment - pulled_at if ok else math.inf)
            mappings += sum(expected.values())
            partial += sum(n for fields, n in expected.items() if None in fields)
            size += len(doc.text)
            slices.tick()
        slices.finish()
        tally.attempted += len(pulled)  # pulled but never answered
        tally.errors += len(pulled)
        return {
            "tally": tally,
            "docs_per_s": slices.rate(answered),
            "latencies": [slices.scaled(*pair) for pair in zip(latencies, answered)],
            "host_factor": slices.median_factor(),
            "docs": len(answered),
            "inputs": {
                "documents": tally.attempted,
                "bytes": size,
                "mappings": mappings,
                "partial_mapping_share": partial / max(1, mappings),
                "lines_per_document": [MIN_LINES, MAX_LINES],
                "workers": self.workers,
            },
        }

    def instrument(self, tracer: Tracer):
        """Spans around the engine calls behind each document's result.

        Engine calls inside pool workers are invisible from here; the
        pool boundary gets its own paired measurement (pool_probe).
        """
        stack = contextlib.ExitStack()
        if self.workers == 1:
            for method in ("extract", "index", "eval"):
                stack.enter_context(tracer.wrap(CompiledSpanner, method, f"engine.{method}"))
        return stack

    def snapshot(self) -> dict:
        return self.engine.cache_stats()

    def layers(self, tracer: Tracer, traced: list[dict], before: dict) -> dict:
        if self.workers > 1:
            return self.pool_probe()
        layer = cache_ratios(before, self.engine.cache_stats())
        totals = tracer.totals()
        docs = max(1, sum(phase["docs"] for phase in traced))
        layer["engine.index_ms_per_doc"] = 1000 * totals["engine.index"][1] / docs
        layer["engine.extract_ms_per_doc"] = (
            1000 * (totals["engine.extract"][1] - totals["engine.index"][1]) / docs
        )
        sample = inputs.DocStream(
            self.seed + 2 * _SEED_STRIDE, MIN_LINES, MAX_LINES, "probe"
        ).take(200)
        layer["engine.candidates_per_mapping"] = candidates_per_mapping(
            self.engine, sample
        )
        layer.update(self.pool_probe())
        return layer

    def pool_probe(self) -> dict[str, float]:
        """The same batches through ``WorkerPool.submit`` and in-process.

        Untraced and outside the traced phase: a paired side measurement
        of what shipping a batch to a worker process costs.
        """
        probe = inputs.DocStream(
            self.seed + 3 * _SEED_STRIDE, MIN_LINES, MAX_LINES, "pool"
        )
        inproc, pooled = [], []
        with WorkerPool(POOL_WORKERS) as pool:
            warm = [(d.doc_id, d.text) for d in probe.take(16)]
            pool.submit(self.engine, warm, kind="extract").result()
            for _ in range(POOL_PROBE_BATCHES):
                docs = probe.take(8)
                records = [(d.doc_id, d.text) for d in docs]
                start = time.perf_counter()
                local = evaluate_records(self.engine, records, kind="extract")
                inproc.append(time.perf_counter() - start)
                start = time.perf_counter()
                remote = pool.submit(self.engine, records, kind="extract").result()
                pooled.append(time.perf_counter() - start)
                for doc, mine, theirs in zip(docs, local, remote):
                    if mine != theirs or not check_extraction(doc, mine[1]):
                        raise RuntimeError(f"pool probe answer wrong for {doc.doc_id}")
            stats = pool.stats()
        pool_ms = 1000 * statistics.median(pooled)
        inproc_ms = 1000 * statistics.median(inproc)
        return {
            "service.pool_batch_ms": pool_ms,
            "service.inproc_batch_ms": inproc_ms,
            "service.pool_overhead_ratio": pool_ms / inproc_ms,
            "service.pool_retries": stats["resilience"]["retries"],
            "service.shm_fallbacks": stats["shm"].get("fallbacks", 0),
        }

    def flat_states(self) -> int:
        return self.engine.kernel_stats()["flat_states"]

    def rss(self) -> float:
        """This process, plus each worker counted at the largest worker peak."""
        own = program_peak_mib(peak_rss_mib())
        if self.workers == 1:
            return own
        worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return own + self.workers * worker

    def close(self) -> None:
        pass


def candidates_per_mapping(engine: CompiledSpanner, docs) -> float:
    """Σ_v |candidate spans of v| / |⟦A⟧_d| over a document sample."""
    candidates = outputs = 0
    for doc in docs:
        index = engine.index(doc.text)
        candidates += sum(len(index.candidate_spans(v)) for v in engine.variables)
        outputs += len(engine.mappings(doc.text))
    return candidates / max(1, outputs)


# -- filter-logs ----------------------------------------------------------------


class FilterWorkload:
    """Wide verdict batches through ``evaluate_records(kind="matches")``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.stream = inputs.DocStream(seed, MIN_LINES, MAX_LINES, "filter")
        self.engine: CompiledSpanner | None = None

    def setup(self) -> None:
        self.engine = api.compile(inputs.FILTER_PATTERN)
        warm = inputs.DocStream(self.seed + _SEED_STRIDE, MIN_LINES, MAX_LINES, "warm")
        tally = Tally()
        for _ in range(2):
            docs = warm.take(FILTER_WIDTH)
            self.batch(docs, [inputs.FILTER.verdict(d) for d in docs], tally)
        if tally.failed:
            raise RuntimeError(f"warm-up answers wrong: {tally.examples}")

    def patterns(self) -> list:
        return [inputs.FILTER_PATTERN]

    def batch(self, docs, truth, tally: Tally, tracer: Tracer | None = None) -> float:
        """Seconds in ``evaluate_records``; each verdict checked against
        ``truth``."""
        records = [(d.doc_id, d.text) for d in docs]
        start = time.perf_counter()
        if tracer is None:
            triples = evaluate_records(self.engine, records, kind="matches")
        else:
            with tracer.span("service.evaluate_records"):
                triples = evaluate_records(self.engine, records, kind="matches")
        elapsed = time.perf_counter() - start
        for doc, expected, (_, verdict, error) in zip(docs, truth, triples):
            tally.record(verdict == expected, error, doc.doc_id)
        return elapsed

    def phase(self, seconds: float, tracer: Tracer | None = None) -> dict:
        tally = Tally()
        batches, matches, size = [], 0, 0
        slices = Slices(seconds)
        while not slices.over():
            docs = self.stream.take(FILTER_WIDTH)
            truth = [inputs.FILTER.verdict(d) for d in docs]
            failed = tally.failed
            elapsed = self.batch(docs, truth, tally, tracer)
            batches.append((len(docs), elapsed, tally.failed == failed, slices.current()))
            matches += sum(truth)
            size += sum(len(d.text) for d in docs)
            slices.tick()
        slices.finish()
        scaled = [(n, slices.scaled(t, i), ok) for n, t, ok, i in batches]
        return {
            "tally": tally,
            "docs_per_s": statistics.median(n / t for n, t, _ in scaled),
            "latencies": [t if ok else math.inf for _, t, ok in scaled],
            "host_factor": slices.median_factor(),
            "docs": tally.attempted,
            "inputs": {
                "documents": tally.attempted,
                "bytes": size,
                "match_share": matches / max(1, tally.attempted),
                "lines_per_document": [MIN_LINES, MAX_LINES],
                "batch_width": FILTER_WIDTH,
            },
        }

    def instrument(self, tracer: Tracer):
        return tracer.wrap(CompiledSpanner, "matches_many", "engine.matches_many")

    def snapshot(self) -> dict:
        return self.engine.cache_stats()

    def layers(self, tracer: Tracer, traced: list[dict], before: dict) -> dict:
        layer = cache_ratios(before, self.engine.cache_stats())
        docs = max(1, sum(phase["docs"] for phase in traced))
        seconds_in_engine = tracer.totals()["engine.matches_many"][1]
        layer["engine.verdict_us_per_doc"] = 1e6 * seconds_in_engine / docs
        return layer

    def flat_states(self) -> int:
        return self.engine.kernel_stats()["flat_states"]

    def rss(self) -> float:
        return program_peak_mib(peak_rss_mib())

    def close(self) -> None:
        pass


# -- serve-mixed ----------------------------------------------------------------


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text exposition → ``{series: value}``."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


class ServeWorkload:
    """``repro serve`` in its own process, driven by a closed loop."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.process: subprocess.Popen | None = None
        self.stderr: list[str] = []
        self.clients: list = []
        self.hot = inputs.DocStream(
            seed + 4 * _SEED_STRIDE, MIN_LINES, MAX_LINES, "hot"
        ).take(HOT_DOCUMENTS, spread=True)
        self.fresh_docs = inputs.DocStream(seed, MIN_LINES, MAX_LINES, "serve")
        self.fresh_filters = inputs.fresh_filters(seed)[:FRESH_PATTERN_LIMIT]
        self.rng = random.Random(seed)
        self.numbers = itertools.count()
        self.engine: CompiledSpanner | None = None
        self.replay_engines: dict[str, CompiledSpanner] = {}

    def setup(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        address = None
        for line in self.process.stderr:
            self.stderr.append(line)
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                break
        if address is None:
            raise RuntimeError("server did not start: " + "".join(self.stderr))
        self._drainer = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drainer.start()
        host, port = address.rsplit(":", 1)
        self.clients = [api.connect(host, int(port)) for _ in range(CONNECTIONS)]
        for doc in self.hot:
            for planned in (("evaluate", inputs.FILTER, doc), ("enumerate", None, doc)):
                ok, error = self.request(self.clients[0], planned)
                if not ok:
                    raise RuntimeError(f"warm-up answer wrong for {doc.doc_id}: {error}")
        self.engine = api.compile(inputs.FILTER_PATTERN)  # for the host stamp

    def _drain_stderr(self) -> None:
        for line in self.process.stderr:
            if len(self.stderr) < 200:
                self.stderr.append(line)

    def patterns(self) -> list:
        fresh = inputs.fresh_filters(self.seed + 5 * _SEED_STRIDE)[:PLAN_SAMPLE]
        return [inputs.ACCESS_PATTERN, inputs.FILTER_PATTERN] + [f.pattern for f in fresh]

    def next_request(self) -> tuple:
        rng = self.rng
        kind = "evaluate" if rng.random() < EVALUATE_SHARE else "enumerate"
        hot = rng.random() < HOT_SHARE
        doc = rng.choice(self.hot) if hot else self.fresh_docs.next()
        line_filter = None
        if kind == "evaluate":
            line_filter = inputs.FILTER
            if rng.random() < FRESH_PATTERN_SHARE and self.fresh_filters:
                line_filter = self.fresh_filters.pop()
        return kind, line_filter, doc

    @staticmethod
    def send(client, planned: tuple) -> tuple[dict | None, str | None]:
        """One round trip: ``(reply, None)`` or ``(None, error)``."""
        kind, line_filter, doc = planned
        try:
            if kind == "evaluate":
                return client.evaluate(line_filter.pattern, doc.text), None
            return client.enumerate(inputs.ACCESS_PATTERN, doc.text), None
        except Exception as error:  # refused, 429/5xx, dropped connection
            return None, f"{type(error).__name__}: {error}"

    @staticmethod
    def check(planned: tuple, reply: dict) -> tuple[bool, str | None]:
        """The oracle's verdict on one reply: ``(ok, error)``."""
        kind, line_filter, doc = planned
        (result,) = reply["results"]
        if result["error"] is not None:
            return False, result["error"]
        if kind == "evaluate":
            return result["matches"] == line_filter.verdict(doc), None
        return check_extraction(doc, result["mappings"]), None

    @classmethod
    def request(cls, client, planned: tuple) -> tuple[bool, str | None]:
        reply, error = cls.send(client, planned)
        return (False, error) if error is not None else cls.check(planned, reply)

    def scrape(self) -> dict[str, float]:
        metrics = parse_metrics(self.clients[0].metrics_text())
        metrics["spanners_cached"] = self.clients[0].healthz()["spanners_cached"]
        return metrics

    def phase(self, seconds: float, tracer: Tracer | None = None) -> dict:
        lock = threading.Lock()
        # (number, planned, began, ended, reply, error, slice)
        log: list[tuple] = []
        # The server's threads run on every CPU, not only on this one.
        slices = Slices(seconds, every_cpu=True)

        def drive(client, until: float, index: int) -> None:
            while True:
                with lock:  # the request sequence is the seed's, whoever sends
                    if slices.clock() >= until:
                        return
                    number = next(self.numbers)
                    planned = self.next_request()
                began = slices.clock()
                if tracer is None:
                    reply, error = self.send(client, planned)
                else:
                    with tracer.span(f"client.{planned[0]}", request=number):
                        reply, error = self.send(client, planned)
                log.append((number, planned, began, slices.clock(), reply, error, index))

        # The loop pauses at each slice boundary (both connections idle)
        # while the host's speed is timed.
        while not slices.over():
            index, until = slices.current(), slices.slice_end()
            threads = [
                threading.Thread(target=drive, args=(c, until, index)) for c in self.clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            slices.tick()
        slices.finish()
        log.sort()
        tally = Tally()
        endpoints: dict[str, list[float]] = {"evaluate": [], "enumerate": []}
        hot = {id(d) for d in self.hot}
        hot_count = fresh_patterns = matches = size = 0
        for _, planned, began, ended, reply, error, index in log:
            kind, line_filter, doc = planned
            ok, error = (False, error) if error is not None else self.check(planned, reply)
            tally.record(ok, error, f"{kind} {doc.doc_id}")
            endpoints[kind].append(slices.scaled(ended - began if ok else math.inf, index))
            hot_count += id(doc) in hot
            if kind == "evaluate":
                fresh_patterns += line_filter is not inputs.FILTER
                matches += line_filter.verdict(doc)
            size += len(doc.text)
        requests = len(log)
        evaluates = len(endpoints["evaluate"])
        return {
            "tally": tally,
            "docs_per_s": slices.rate([entry[6] for entry in log]),
            "latencies": endpoints["evaluate"] + endpoints["enumerate"],
            "host_factor": slices.median_factor(),
            "endpoints": endpoints,
            "docs": requests,
            "log": log,
            "inputs": {
                "documents": requests,
                "bytes": size,
                "requests": {"evaluate": evaluates, "enumerate": requests - evaluates},
                "hot_share": hot_count / max(1, requests),
                "hot_documents": HOT_DOCUMENTS,
                "fresh_pattern_share": fresh_patterns / max(1, evaluates),
                "match_share": matches / max(1, evaluates),
                "connections": CONNECTIONS,
                "lines_per_document": [MIN_LINES, MAX_LINES],
            },
        }

    def instrument(self, tracer: Tracer):
        return contextlib.nullcontext()  # phase() records the client spans

    def snapshot(self) -> dict:
        return self.scrape()

    def layers(self, tracer: Tracer, traced: list[dict], before: dict) -> dict:
        """Server counters over the whole traced run (both kinds of slice),
        engine time from replaying the traced slices' documents."""
        after = self.scrape()

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        # The deltas include a few /metrics and /healthz scrapes.
        request_ms = 1000 * delta("repro_request_seconds_sum") / delta(
            "repro_request_seconds_count"
        )
        lookups = delta("repro_compile_seconds_count")
        log = [entry for phase in traced for entry in phase["log"]]
        round_trip_ms = 1000 * statistics.fmean(e[3] - e[2] for e in log)
        layer = self.replay(log, tracer)
        layer.update({
            "server.request_ms": request_ms,
            "server.outside_ms": round_trip_ms - request_ms,
            "server.dispatch_ms": request_ms - layer.pop("engine_ms_per_request"),
            "server.mean_batch_docs": delta("repro_batch_documents_sum")
            / max(1, delta("repro_batch_documents_count")),
            "server.compile_ms": 1000 * delta("repro_compile_seconds_sum") / max(1, lookups),
            "server.compiles": lookups,
            "server.shed": delta("repro_shed_total"),
            "server.errors": sum(
                value - before.get(name, 0.0)
                for name, value in after.items()
                if name.startswith("repro_errors_total")
            ),
            "service.cache_hit_ratio": 1 - delta("spanners_cached") / max(1, lookups),
        })
        return layer

    def replay(self, log, tracer: Tracer) -> dict[str, float]:
        """Engine time for the same documents, in request order, in-process.

        Private engines planned from the same pattern texts see the same
        document sequence as the server's engines (hot documents first,
        as in the warm-up), so their timings and cache counters stand in
        for the server's engine layer.
        """
        def engine(pattern: str) -> CompiledSpanner:
            if pattern not in self.replay_engines:
                self.replay_engines[pattern] = CompiledSpanner(plan=plan(pattern))
            return self.replay_engines[pattern]

        extract = engine(inputs.ACCESS_PATTERN)
        verdicts = engine(inputs.FILTER_PATTERN)
        for _, (kind, line_filter, _), *_ in log:
            if kind == "evaluate":
                engine(line_filter.pattern)
        for doc in self.hot:
            evaluate_records(verdicts, [("hot", doc.text)], kind="matches")
            evaluate_records(extract, [("hot", doc.text)], kind="extract")
        index_before = extract.cache_stats()
        verdict_before = verdicts.cache_stats()
        spent: dict[str, list[float]] = {"evaluate": [], "enumerate": []}
        for number, (kind, line_filter, doc), *_ in log:
            if kind == "evaluate":
                target, batch_kind = engine(line_filter.pattern), "matches"
            else:
                target, batch_kind = extract, "extract"
            with tracer.span(f"engine.{kind}", request=number):
                start = time.perf_counter()
                evaluate_records(target, [(doc.doc_id, doc.text)], kind=batch_kind)
                spent[kind].append(time.perf_counter() - start)
        every = spent["evaluate"] + spent["enumerate"]
        return {
            "engine.index_hit_ratio": cache_ratios(index_before, extract.cache_stats())[
                "engine.index_hit_ratio"
            ],
            "engine.verdict_hit_ratio": cache_ratios(verdict_before, verdicts.cache_stats())[
                "engine.verdict_hit_ratio"
            ],
            "engine.extract_ms_per_doc": 1000 * statistics.fmean(spent["enumerate"] or [0.0]),
            "engine.verdict_us_per_doc": 1e6 * statistics.fmean(spent["evaluate"] or [0.0]),
            "engine_ms_per_request": 1000 * statistics.fmean(every),
        }

    def flat_states(self) -> int:
        engine = self.replay_engines.get(inputs.ACCESS_PATTERN)
        return engine.kernel_stats()["flat_states"] if engine is not None else 0

    def rss(self) -> float:
        return peak_rss_mib(self.process.pid)

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._drainer.join(timeout=5)


WORKLOADS = {
    "extract-logs": lambda seed: StreamWorkload(seed, 1),
    "filter-logs": FilterWorkload,
    "serve-mixed": ServeWorkload,
    "corpus-pool": lambda seed: StreamWorkload(seed, POOL_WORKERS),
}


# -- reports --------------------------------------------------------------------


def latency_ms(values: list[float], share: float) -> float:
    value = percentile(values, share)
    return 1000 * value if math.isfinite(value) else sys.float_info.max


def untraced(workload, seconds: float) -> dict:
    phase = workload.phase(seconds)
    latencies = phase["latencies"]
    metrics = {
        "docs_per_s": phase["docs_per_s"],
        "latency_p50_ms": latency_ms(latencies, 0.50),
        "latency_p95_ms": latency_ms(latencies, 0.95),
        "peak_rss_mib": workload.rss(),
    }
    # p95 needs at least 10 samples beyond it.
    samples = {
        "latency": len(latencies),
        "p95_supported": len(latencies) >= 200,
        "host_factor": phase["host_factor"],
    }
    if "endpoints" in phase:
        metrics["req_per_s"] = phase["docs_per_s"]
        for endpoint, values in phase["endpoints"].items():
            metrics[f"{endpoint}_p50_ms"] = latency_ms(values, 0.50)
            metrics[f"{endpoint}_p95_ms"] = latency_ms(values, 0.95)
            samples[endpoint] = len(values)
    return {"phase": phase, "metrics": metrics, "samples": samples}


def traced(workload, seconds: float, trace_path) -> dict:
    """Untraced and traced slices alternate, so host drift hits both alike.

    End-to-end figures of the two kinds of slice give the tracing
    overhead; the spans of the traced slices give the per-layer metrics.
    """
    tracer = Tracer()
    plain, traced_phases = [], []
    before = workload.snapshot()
    for _ in range(TRACE_PAIRS):
        plain.append(workload.phase(seconds / (2 * TRACE_PAIRS)))
        with workload.instrument(tracer):
            traced_phases.append(workload.phase(seconds / (2 * TRACE_PAIRS), tracer))
    layer = dict.fromkeys(LAYER_METRICS, 0.0)
    layer.update(workload.layers(tracer, traced_phases, before))
    layer.update(plan_metrics(workload.patterns()))
    docs = max(1, sum(phase["docs"] for phase in traced_phases))
    for name, self_seconds in tracer.layer_self().items():
        if f"{name}.self_ms_per_doc" in layer:
            layer[f"{name}.self_ms_per_doc"] = 1000 * self_seconds / docs
    plain_rate = statistics.median(phase["docs_per_s"] for phase in plain)
    traced_rate = statistics.median(phase["docs_per_s"] for phase in traced_phases)
    layer["engine.flat_states"] = workload.flat_states()
    layer["trace.overhead_ratio"] = plain_rate / traced_rate - 1
    layer["trace.spans"] = len(tracer.spans)
    tracer.write(trace_path)
    tally = Tally()
    for phase in plain + traced_phases:  # every answer is checked
        tally.absorb(phase["tally"])
    return {
        "phase": {"tally": tally, "inputs": [p["inputs"] for p in plain + traced_phases]},
        "metrics": layer,
        "samples": {"untraced_docs_per_s": plain_rate, "traced_docs_per_s": traced_rate},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run"), default="run")
    parser.add_argument("--t0", type=float, default=None)
    args = parser.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0
    if args.phase == "run":  # only set-up-only processes give setup_s
        hostspeed.prepare()
    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        setup_s = time.monotonic() - t0
        if args.phase == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        os.makedirs(RESULTS, exist_ok=True)
        if args.trace:
            trace_path = os.path.join(
                RESULTS, f"spans-{args.workload}-seed{args.seed}.jsonl"
            )
            report = traced(workload, args.seconds, trace_path)
        else:
            report = untraced(workload, args.seconds)
        stamp = host_stamp(workload.engine)
    finally:
        workload.close()
    tally = report["phase"]["tally"]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "metrics": report["metrics"],
        "units": LAYER_METRICS if args.trace else {},
        "samples": report["samples"],
        "inputs": report["phase"]["inputs"],
        "stamp": stamp,
        "attempted": tally.attempted,
        "errors": tally.errors,
        "wrong": tally.wrong,
        "examples": tally.examples,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
