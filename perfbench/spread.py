"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload serve-mixed --seeds 1-10 --seconds 10

Runs ``run.py`` once per seed and prints, per metric, the median and the
distance between the first and third quartile (``statistics.quantiles``,
``n=4``) as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  A spread above a third of its bound means the
benchmark is not steady enough to resolve that bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"] or result["failed"]:
            print(done.stdout + done.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        record = os.path.join(HERE, "results", f"{args.workload}-seed{seed}-trace0.json")
        with open(record, encoding="utf-8") as handle:
            host_factor = json.load(handle)["samples"]["host_factor"]
        figures = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(seed, figures, f"host_factor={host_factor:.4f}", flush=True)
    for name, series in sorted(values.items()):
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        flag = "" if spread < bounds[name] / 3 else "  <-- above a third of its bound"
        print(f"{args.workload} {name}: median {median:.6g} spread {spread:.3f} "
              f"(bound {bounds[name]}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
