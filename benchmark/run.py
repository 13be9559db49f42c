#!/usr/bin/env python3
"""Whole-process benchmark of the evs lab.

    python3 benchmark/run.py --workload run-evs-sfi|ablation|train|all \
        [--seed 0] [--seconds N] [--trace 0|1] [--out result.json]

Run it from the root of a checkout (the directory holding ``src/evs``).  Each
workload runs as child processes, one at a time, for ``--seconds`` (by
default ``run_seconds`` of ``BENCHMARK.json``); every child's outputs go
through the correctness gate.  ``--trace 0`` times the children from outside
and reports the end-to-end metrics over them (timings as the tenth percentile,
memory as the median).  ``--trace 1``
alternates untraced children with traced ones, which wrap the ``evs``
functions from ``benchmark/tracer.py``, and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  All outputs go to a temporary
directory under ``.bench_tmp/`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# The workloads run the default config, whose closed forms the gate checks.
T_I, T_V, N_V, ROUNDS = 20, 4, 2, 2
BLOCKS, SFI_LAYERS, TAP_KINDS, INJECTED_KINDS = 4, 2, 4, 3
DATASET_COUNT, TRAIN_BATCH = 93, 32
# 20 of the default 3500 steps: under a second per process on a 2-core box,
# so a 40 s run times some 40 processes.  Longer processes each straddle the
# host's fast and slow spells, which leaves fewer fast ones to measure.
TRAIN_STEPS = 20
ABLATION = {
    "t2i": T_I,
    "t2v": T_V,
    "iv": T_I + T_V,
    "vi": T_V + T_I,
    "evs": T_I + N_V,  # sdedit block: the block walks n_V of its t_V steps
    "iterated": ROUNDS * (T_I + T_V),
}
WORKLOADS = {
    # name: (expected NFE per item by pipeline, uses a dataset, uses the net)
    "run-evs-sfi": ({"evs": T_I + T_V + N_V}, True, True),
    "ablation": (ABLATION, True, False),
    "train": ({}, False, False),
}
CACHE_PUTS_PER_ITEM = T_V * BLOCKS * TAP_KINDS
CACHE_GETS_PER_ITEM = N_V * SFI_LAYERS * INJECTED_KINDS

DEFAULT_SEED = 0
# Seed-0 rows must match the committed reference to this relative tolerance;
# it admits a last-digit change in the CSV's 12 significant digits.
REF_RTOL = 1e-9
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150
SCORES = ("ms", "sc", "iq", "psnr", "overall")

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Printed in the table only: they apply to some workloads, and the JSON
# metrics must be the same on every workload.
SHOWN_UNITS = {**END_TO_END_UNITS, "train_steps_per_s": "1/s", "nfe_per_item": "count",
               "overall_mean": "score", "fail_rate": "ratio"}
EVAL_LAYERS = ("models.eps_spatial", "models.eps_temporal", "models.net_capture",
               "models.net_inject", "models.net_plain")
COUNTED_LAYERS = EVAL_LAYERS + ("diffusion.walk", "sfi.blended_attention", "metrics.score_video")
IO_COUNTED = ("io.read_latents", "io.write_latents", "io.write_json")


def _per_layer_units() -> dict[str, str]:
    units = {
        "cli.import_s": "s",
        "config.build_lab_s": "s",
        "bench.load_dataset_s": "s",
        "bench.load_or_init_net_s": "s",
    }
    for layer in COUNTED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for part in ("draw", "forward", "backward", "adam"):
        units[f"models.train.{part}_s"] = "s"
    units["models.train.loss_final"] = "mse"
    units.update({
        "sfi.invert.self_s": "s",
        "sfi.inject.self_s": "s",
        "sfi.cache.puts": "count",
        "sfi.cache.gets": "count",
        "sfi.cache.bytes": "B-computed",
        "sfi.cache.use_ratio": "ratio",
        "compose.pipeline.s": "s",
        "compose.pipeline.self_s": "s",
    })
    for name in IO_COUNTED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.bytes"] = "B"
        units[f"{name}.s"] = "s"
    units["io.write_metric_csv.s"] = "s"
    units["io.read_json.s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER_UNITS = _per_layer_units()


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


class Children:
    """Starts the benchmark's child processes and measures each from outside."""

    def __init__(self, root: Path, tmp: Path):
        self.log = tmp / "children.log"
        self.env = dict(os.environ)
        for var in ("EVS_SEED", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(var, None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        # Bytecode is cached once per run, inside the run's temporary directory.
        self.env["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")
        # One BLAS thread: on a small shared box a second thread spin-waits for
        # its sibling, which inflates and scatters CPU time without saving wall time.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.root = root

    def launch(self, args) -> tuple[int, float, float]:
        """Run ``python3 args...``; return (exit code, wall s, CPU s)."""
        start = time.perf_counter()
        with open(self.log, "ab") as log:
            proc = subprocess.Popen([sys.executable, *map(str, args)], env=self.env,
                                    cwd=self.root, stdout=log, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime

    def log_tail(self, lines=20) -> str:
        if not self.log.exists():
            return ""
        return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])


def commands(workload: str, dataset, out: Path, seed: int) -> list[list[str]]:
    if workload == "train":
        return [["train", "--out", str(out / "train"), "--set", f"train.steps={TRAIN_STEPS}",
                 "--set", f"train.batch_size={TRAIN_BATCH}", "--set", f"train.seed={seed}"]]
    cmds = []
    for pipeline in WORKLOADS[workload][0]:
        argv = ["run", pipeline, "--dataset", str(dataset), "--out", str(out / f"run_{pipeline}")]
        if workload == "ablation" and pipeline == "evs":
            argv += ["--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null"]
        cmds.append(argv)
    if workload == "ablation":
        manifests = [str(out / f"run_{p}" / "run_manifest.json") for p in ABLATION]
        cmds.append(["report", *manifests, "--out", str(out / "report")])
    return cmds


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


class Gate:
    """Counts attempted and failed operations and keeps the first few misses."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.first_rows: dict[str, list[str]] = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(what)
        return ok

    def outputs(self, out: Path) -> dict:
        """Check one workload process's outputs; return its per-item rows and train report."""
        from evs.io import csv_without_wall_time, read_json

        expected, _, _ = WORKLOADS[self.workload]
        rows_by_pipeline = {}
        for pipeline, nfe in expected.items():
            run_dir = out / f"run_{pipeline}"
            if not self.check((run_dir / "runs.csv").is_file(), f"{pipeline}: no runs.csv"):
                self.failed += DATASET_COUNT
                self.attempted += DATASET_COUNT
                continue
            lines = csv_without_wall_time(run_dir / "runs.csv").splitlines()
            reference = self._reference(pipeline)
            first = self.first_rows.setdefault(pipeline, lines)
            rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
            rows_by_pipeline[pipeline] = rows
            missing = DATASET_COUNT - len(rows)
            self.attempted += max(missing, 0)
            self.failed += max(missing, 0)
            for n, row in enumerate(rows):
                ok = _row_ok(row, nfe, run_dir, lines[n + 1], first, reference, n + 1)
                self.check(ok, f"{pipeline} item {row.get('seed')}: {lines[n + 1]}")
        report = None
        if self.workload == "ablation":
            summary = out / "report" / "summary.csv"
            self.check(summary.is_file() and len(summary.read_text().splitlines()) == 1 + len(ABLATION),
                       "ablation: summary.csv missing or incomplete")
        if self.workload == "train":
            manifest = out / "train" / "train_manifest.json"
            if self.check(manifest.is_file(), "train: no train_manifest.json"):
                report = read_json(manifest)["train_report"]
                self.check(math.isfinite(report["final_loss"])
                           and report["final_loss"] < report["initial_loss"],
                           f"train: loss {report}")
        return {"rows": rows_by_pipeline, "train_report": report}

    def _reference(self, pipeline):
        if self.seed != DEFAULT_SEED:
            return None
        return (REFERENCE / self.workload / f"{pipeline}.csv").read_text().splitlines()


def _row_ok(row: dict, nfe: int, run_dir: Path, line: str, first, reference, n: int) -> bool:
    """Exact NFE, finite scores and output, same row as the run's first process and
    (on the default seed) as the reference."""
    from evs.errors import ConfigError
    from evs.io import read_latents

    try:
        (video,) = read_latents(run_dir / f"item_{int(row['seed']):04d}.out.evslat")
        return (
            int(row["nfe_t2i"]) + int(row["nfe_t2v"]) == nfe
            and all(math.isfinite(float(row[m])) for m in SCORES)
            and video.size > 0 and math.isfinite(float(video.sum()))
            and line == first[n]
            and (reference is None or _rows_close(line, reference[n]))
        )
    except (OSError, ConfigError, ValueError, KeyError, IndexError):
        return False


def _rows_close(line: str, ref: str) -> bool:
    got, want = next(csv.reader([line])), next(csv.reader([ref]))
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if a == b:
            continue
        try:
            if not math.isclose(float(a), float(b), rel_tol=REF_RTOL, abs_tol=REF_RTOL):
                return False
        except ValueError:
            return False
    return True


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------


def layer_metrics(totals: dict, dump: dict, checked: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process, from its layer totals and counters."""
    counts = dump["counts"]

    def get(name, key):
        return float(totals.get(name, {}).get(key, 0.0))

    m = {
        "cli.import_s": float(dump["import_s"]),
        "config.build_lab_s": get("config.build_lab", "s"),
        "bench.load_dataset_s": get("bench.load_dataset", "s"),
        "bench.load_or_init_net_s": get("bench.load_or_init_net", "s"),
    }
    for layer in COUNTED_LAYERS:
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.self_s"] = get(layer, "self_s")
    steps = get("models.train.forward", "calls")
    for part in ("draw", "forward", "backward"):
        m[f"models.train.{part}_s"] = get(f"models.train.{part}", "s") / steps if steps else 0.0
    m["models.train.adam_s"] = get("models.train.loop", "self_s") / steps if steps else 0.0
    report = checked["train_report"]
    m["models.train.loss_final"] = float(report["final_loss"]) if report else 0.0
    puts = float(counts.get("sfi.cache.puts", 0))
    m.update({
        "sfi.invert.self_s": get("sfi.invert", "self_s"),
        "sfi.inject.self_s": get("sfi.inject", "self_s"),
        "sfi.cache.puts": puts,
        "sfi.cache.gets": float(counts.get("sfi.cache.gets", 0)),
        "sfi.cache.bytes": float(counts.get("sfi.cache.bytes", 0)),
        "sfi.cache.use_ratio": counts.get("sfi.cache.distinct_gets", 0) / puts if puts else 0.0,
    })
    pipelines = get("compose.pipeline", "calls")
    m["compose.pipeline.s"] = get("compose.pipeline", "s") / pipelines if pipelines else 0.0
    m["compose.pipeline.self_s"] = get("compose.pipeline", "self_s") / pipelines if pipelines else 0.0
    for name in IO_COUNTED:
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.bytes"] = float(counts.get(f"{name}.bytes", 0))
        m[f"{name}.s"] = get(name, "s")
    m["io.write_metric_csv.s"] = get("io.write_metric_csv", "s")
    m["io.read_json.s"] = get("io.read_json", "s")
    return m


def self_check(gate: Gate, totals: dict, m: dict, checked: dict):
    """The tracer must see every evaluation, cache access and step the program made."""
    rows = checked["rows"]
    nfe = sum(int(r["nfe_t2i"]) + int(r["nfe_t2v"]) for rs in rows.values() for r in rs)
    evals = sum(m[f"{layer}.calls"] for layer in EVAL_LAYERS)
    gate.check(evals == nfe, f"trace: {evals:g} wrapped evaluations, manifests count {nfe}")
    sfi_items = len(rows.get("evs", ())) if gate.workload == "run-evs-sfi" else 0
    gate.check(m["sfi.cache.puts"] == CACHE_PUTS_PER_ITEM * sfi_items
               and m["sfi.cache.gets"] == CACHE_GETS_PER_ITEM * sfi_items,
               f"trace: cache puts/gets {m['sfi.cache.puts']:g}/{m['sfi.cache.gets']:g} "
               f"for {sfi_items} items")
    steps = TRAIN_STEPS if gate.workload == "train" else 0
    calls = [totals.get(f"models.train.{p}", {}).get("calls", 0) for p in ("draw", "forward", "backward")]
    gate.check(calls == [steps] * 3, f"trace: train draw/forward/backward calls {calls}, steps {steps}")


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def machine_record(root: Path, env: dict, loadavg, dataset_sha: str | None) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "evs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": list(loadavg),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": env["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "dataset_manifest_sha256": dataset_sha,
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def fast(times) -> float:
    """The tenth percentile of a run's process times.

    Other tenants of a shared host only ever add time, in spells of seconds
    to minutes, so the run's faster processes measure the program and its
    median measures the host as well.
    """
    return statistics.quantiles(times, n=10)[0]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path, tmp: Path) -> dict:
    from tracer import layer_totals

    _, uses_dataset, uses_net = WORKLOADS[workload]
    loadavg = os.getloadavg()
    children = Children(root, tmp)
    gate = Gate(workload, seed)
    dataset = dataset_sha = None
    if uses_dataset:
        dataset = tmp / "dataset"
        code, *_ = children.launch(["-m", "evs.cli", "gen", "--out", dataset, "--seed", seed])
        if code != 0:
            raise RuntimeError(f"evs gen failed ({code}):\n{children.log_tail()}")
        dataset_sha = hashlib.sha256((dataset / "dataset_manifest.json").read_bytes()).hexdigest()
    record = machine_record(root, children.env, loadavg, dataset_sha)
    setup_args = [CHILD, "setup", dataset or "-", int(uses_net)]
    children.launch(setup_args)  # untimed warm-up: fills the bytecode cache

    untraced, traced, setups, layers = [], [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    repeat = 0
    while repeat < MIN_REPEATS or time.perf_counter() < deadline:
        for tracing in ((False, True) if trace else (False,)):
            out = tmp / f"out{repeat}{'t' if tracing else ''}"
            spans, rss_kb = tmp / "spans.json", tmp / "rss_kb"
            rss_kb.unlink(missing_ok=True)
            args = [CHILD, "run", json.dumps(commands(workload, dataset, out, seed)), rss_kb]
            code, wall, cpu = children.launch(args + ([spans] if tracing else []))
            rss = int(rss_kb.read_text()) / 1024.0 if rss_kb.exists() else math.nan
            if gate.check(code == 0, f"workload process exited {code}"):
                checked = gate.outputs(out)
                first = first or checked
                if tracing:
                    dump = json.loads(spans.read_text())
                    totals = layer_totals(dump["spans"])
                    m = layer_metrics(totals, dump, checked)
                    self_check(gate, totals, m, checked)
                    layers.append(m)
            else:
                print(children.log_tail(), file=sys.stderr)
            (traced if tracing else untraced).append((wall, cpu, rss))
            shutil.rmtree(out, ignore_errors=True)
        code, wall, _ = children.launch(setup_args)
        gate.check(code == 0, f"setup process exited {code}")
        setups.append(wall)
        repeat += 1

    med = statistics.median
    items = TRAIN_STEPS * TRAIN_BATCH if workload == "train" else DATASET_COUNT
    end_to_end = {
        "items_per_s": items / fast(w for w, _, _ in untraced),
        "setup_s": fast(setups),
        "cpu_s": fast(c for _, c, _ in untraced),
        "peak_rss_mb": med(r for _, _, r in untraced),
    }
    shown = dict(end_to_end)
    if workload == "train":
        shown["train_steps_per_s"] = end_to_end["items_per_s"] / TRAIN_BATCH
    elif first:
        rows = [r for rs in first["rows"].values() for r in rs]
        shown["nfe_per_item"] = sum(int(r["nfe_t2i"]) + int(r["nfe_t2v"]) for r in rows) / DATASET_COUNT
        shown["overall_mean"] = statistics.fmean(float(r["overall"]) for r in rows)
    shown["fail_rate"] = gate.failed / gate.attempted
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "processes": len(untraced),
        "setup_processes": len(setups),
        "samples": {"wall_s": [w for w, _, _ in untraced], "cpu_s": [c for _, c, _ in untraced],
                    "peak_rss_mb": [r for _, _, r in untraced], "setup_s": setups},
        "machine": record,
        "end_to_end": shown,
        "misses": gate.misses,
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
    }
    if trace:
        if not layers:
            raise RuntimeError(f"no traced {workload} process succeeded:\n{children.log_tail()}")
        per_layer = {k: med(m[k] for m in layers) for k in PER_LAYER_UNITS if k != "trace.overhead_s"}
        per_layer["trace.overhead_s"] = med(w for w, _, _ in traced) - med(w for w, _, _ in untraced)
        result["per_layer"] = per_layer
        result["traced_processes"] = len(traced)
    result["metrics"] = result["per_layer"] if trace else end_to_end
    return result


def print_table(result: dict):
    name = result["workload"]
    print(f"# {name}  seed {result['seed']}  {result['processes']} workload processes, "
          f"{result['setup_processes']} set-up processes")
    for key, value in result["end_to_end"].items():
        print(f"{name:12s} {key:28s} {value:14.6g} {SHOWN_UNITS[key]}")
    for key, value in result.get("per_layer", {}).items():
        print(f"{name:12s} {key:28s} {value:14.6g} {PER_LAYER_UNITS[key]}")
    for miss in result["misses"]:
        print(f"{name:12s} gate miss: {miss}")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with the machine record, here")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "evs" / "cli.py").is_file():
        print(f"no evs sources under {root / 'src'}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))

    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), root, tmp)
                   for n in names]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for result in results:
        print_table(result)
    if args.out:
        Path(args.out).write_text(json.dumps(results if len(results) > 1 else results[0],
                                             indent=2, sort_keys=True) + "\n")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {
        (f"{r['workload']}/{k}" if len(results) > 1 else k): {"value": v, "unit": units[k]}
        for r in results for k, v in r["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
