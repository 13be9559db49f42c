#!/usr/bin/env python3
"""Run the benchmark over ten seeds and write a record of the results.

    python3 benchmark/record.py --out record.json

Run it from the root of a checkout.  For each workload it makes one untraced
``run.py`` run per seed 0-9, then one traced run on seed 0.  Per end-to-end
metric it records the ten values, their median and quartiles, and the spread
(third minus first quartile, over the median) that ``BENCHMARK.json``'s
bounds are judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import BENCHMARK, WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = list(range(10))


def run_once(workload, seed, trace, tmp: Path) -> dict:
    out = tmp / f"{workload}-{seed}-{trace}.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(out.read_text())
    result["run_wall_s"] = time.perf_counter() - start
    result["last_line"] = json.loads(proc.stdout.splitlines()[-1])
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    record = {"seconds": BENCHMARK["run_seconds"], "seeds": SEEDS, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            runs = [run_once(workload, s, 0, Path(tmp)) for s in SEEDS]
            traced = run_once(workload, SEEDS[0], 1, Path(tmp))
            metrics = {
                name: summarize([r["last_line"]["metrics"][name]["value"] for r in runs])
                for name in runs[0]["last_line"]["metrics"]
            }
            record["workloads"][workload] = {
                "end_to_end": metrics,
                "correct": all(r["correct"] for r in runs + [traced]),
                "attempted": sum(r["attempted"] for r in runs + [traced]),
                "failed": sum(r["failed"] for r in runs + [traced]),
                "runs": runs,
                "traced": traced,
            }
            for name, s in metrics.items():
                flag = "" if s["spread"] < bounds[name] / 3 else "  (>= bound/3)"
                print(f"{workload:12s} {name:14s} median {s['median']:10.5g} "
                      f"spread {s['spread']:.3f} bound {bounds[name]}{flag}", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
