"""The repository benchmark: seeded workloads, end-to-end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload extract-logs --seed 1 --seconds 10 --trace 0

Each run starts its workload in fresh interpreters (``workloads.py``):
``SETUP_REPEATS`` that only set up, then one that sets up and measures.
``setup_s`` is the median over the set-up-only ones, each scaled to the
reference host speed by the yardstick timed just before and after it
(``hostspeed.py``; the measured phase is scaled slice by slice).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A wrong answer or an errored operation
makes the exit code 1; a refused environment or a missing program 2.
The full run record (seed, input properties, host stamp, every metric)
is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from hostspeed import factor, yardstick_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

WORKLOADS = ("extract-logs", "filter-logs", "serve-mixed", "corpus-pool")
SETUP_REPEATS = 5
#: Set-up (process start, imports, page faults) slows at least as much as
#: the yardstick when the host does: on the reference host about as its
#: power 1.5 between two host states; it is scaled by the plain ratio.
SETUP_ELASTICITY = 1.0
#: Seeds from here on are held out: never used while a change is written.
HELD_OUT_FROM = 1000
CHILD_TIMEOUT = 150

#: Units of everything a run prints; the end-to-end set is what
#: ``--trace 0`` reports (``BENCHMARK.json`` lists the same names).
END_TO_END = {
    "docs_per_s": "docs/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
SERVE_ONLY = {
    "req_per_s": "req/s",
    "evaluate_p50_ms": "ms",
    "evaluate_p95_ms": "ms",
    "enumerate_p50_ms": "ms",
    "enumerate_p95_ms": "ms",
}


def refused_environment(environ) -> list[str]:
    """Overrides that select a different program than the default one."""
    return sorted(
        name
        for name in environ
        if name.startswith(("REPRO_FAULT", "REPRO_NO_"))
        or name in ("REPRO_FLAT_STATE_LIMIT", "REPRO_NUMPY_INTERN_MIN", "REPRO_ARTIFACT_DIR")
    )


def child(args, phase: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SOURCE, *filter(None, [env.get("PYTHONPATH")])]
    )
    command = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--phase", phase,
        "--t0", repr(time.monotonic()),
    ]
    # Its own process group, so a timeout also stops the server or pool
    # workers the child started.
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:  # until the whole group has ended
            try:
                os.killpg(process.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        raise SystemExit(f"{args.workload} {phase} process timed out") from None
    if process.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"{args.workload} {phase} process exited {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def setup_s(args) -> float:
    """One fresh interpreter's set-up time, in reference seconds."""
    before = yardstick_s()
    seconds = child(args, "setup")["setup_s"]
    return seconds * factor(before, yardstick_s(), SETUP_ELASTICITY)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    refused = refused_environment(os.environ)
    if refused:
        print(f"refusing to run: {', '.join(refused)} set", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"no program to measure under {SOURCE}", file=sys.stderr)
        return 2

    setups = [] if args.trace else [setup_s(args) for _ in range(SETUP_REPEATS)]
    record = child(args, "run")
    metrics = dict(record["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    failed = record["errors"] + record["wrong"]
    attempted = record["attempted"]
    record.update(
        setup_runs=setups,
        failed_ratio=failed / attempted,
        held_out=args.seed >= HELD_OUT_FROM,
    )

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(
        HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    print(
        f"# {args.workload} seed={args.seed} held_out={record['held_out']} "
        f"trace={args.trace} -> {os.path.relpath(path, ROOT)}"
    )
    print(f"# host {json.dumps(record['stamp'], sort_keys=True)}")
    print(f"# inputs {json.dumps(record['inputs'], sort_keys=True)}")
    print(f"# samples {json.dumps(record['samples'], sort_keys=True)}")
    units = record["units"] if args.trace else {**END_TO_END, **SERVE_ONLY}
    for name, value in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {units.get(name, '')}".rstrip())
    print(f"failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for example in record["examples"]:
        print(f"# FAILED {example}")
    reported = {
        name: {"value": value, "unit": units.get(name, "")}
        for name, value in metrics.items()
        if args.trace or name in END_TO_END
    }
    print(json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
