#!/usr/bin/env python3
"""Run one fixed set of evs commands and print a sha256 per output file, so
that two source trees can be compared for byte-identical outputs with `diff`.

The set: `gen` plain and styled (`--set dataset.styled=true`); all six
pipelines; `evs` with the sdedit block; `evs` at the corner
`t_T2V = t_I = 20`; `iterated` at three rounds, whose odd round count adds a
trailing spatial stage; `rerun` of the `evs` run; `sweep t_T2V`; `train` at
20 steps; `run evs`, `frontier` and `sweep gamma` with those weights
(`--set net.weights=...`), and `rerun` of that `run evs`, which reads the
weights again and checks their recorded sha256; and `report` over the six
pipeline runs.  Wall-clock
values are dropped before hashing (the `wall_time` CSV column and JSON key),
the output directory is written as `OUT` wherever a manifest records a path,
and an SVG is hashed without its `<metadata>` element, which holds the
sha256 of a manifest that carries both.

Usage:
  python scripts/output_digest.py --out DIR [--count 4] [--seed 0] > digest.txt
"""

import argparse
import contextlib
import hashlib
import json
import re
import sys
from pathlib import Path

from evs.bench import PIPELINES
from evs.cli import main as evs_main
from evs.io import csv_without_wall_time

def run(argv):
    code = evs_main([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


def commands(out: Path, count: int, seed: int) -> list[list]:
    ds, styled = out / "dataset", out / "styled"
    common = ["--seed", seed]
    weights = ["--set", f"net.weights={out / 'train' / 'net.evsnet'}"]
    cmds = [
        ["gen", "--out", ds, "--set", f"dataset.count={count}", *common],
        ["gen", "--out", styled, "--set", f"dataset.count={count}",
         "--set", "dataset.styled=true", *common],
    ]
    cmds += [["run", p, "--dataset", ds, "--out", out / f"run_{p}", *common] for p in PIPELINES]
    cmds += [
        ["run", "evs", "--dataset", ds, "--out", out / "run_evs_sdedit",
         "--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null", *common],
        ["run", "evs", "--dataset", ds, "--out", out / "run_evs_corner",
         "--set", "pipeline.t_T2V=20", *common],
        ["run", "iterated", "--dataset", ds, "--out", out / "run_iterated_3",
         "--set", "pipeline.rounds=3", *common],
        ["rerun", out / "run_evs" / "run_manifest.json", "--out", out / "rerun_evs"],
        ["sweep", "t_T2V", "--grid", "5,10,15,20", "--dataset", ds, "--out", out / "sweep", *common],
        ["train", "--out", out / "train", "--set", "train.steps=20", *common],
        ["run", "evs", "--dataset", ds, "--out", out / "run_evs_weights", *weights, *common],
        ["rerun", out / "run_evs_weights" / "run_manifest.json", "--out", out / "rerun_evs_weights"],
        ["frontier", "--dataset", styled, "--out", out / "frontier", *weights, *common],
        ["sweep", "gamma", "--grid", "0.0,0.5,1.0", "--dataset", ds, "--out", out / "sweep_gamma",
         *weights, *common],
        ["report", *(out / f"run_{p}" / "run_manifest.json" for p in PIPELINES),
         "--out", out / "report"],
    ]
    return cmds


def _normalized(value, out: str):
    if isinstance(value, dict):
        return {k: _normalized(v, out) for k, v in value.items() if k != "wall_time"}
    if isinstance(value, list):
        return [_normalized(v, out) for v in value]
    if isinstance(value, str):
        return value.replace(out, "OUT")
    return value


def digest(path: Path, out: str) -> str:
    if path.suffix == ".csv":
        data = csv_without_wall_time(path).encode()
    elif path.suffix == ".json":
        payload = _normalized(json.loads(path.read_text()), out)
        data = json.dumps(payload, sort_keys=True).encode()
    elif path.suffix == ".svg":
        data = re.sub(rb"<metadata>.*?</metadata>", b"", path.read_bytes(), flags=re.S)
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="empty or missing directory for the outputs")
    parser.add_argument("--count", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = Path(args.out).resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    with contextlib.redirect_stdout(sys.stderr):  # each command prints its output path
        for argv in commands(out, args.count, args.seed):
            run(argv)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{digest(path, str(out))}  {path.relative_to(out)}")


if __name__ == "__main__":
    main()
