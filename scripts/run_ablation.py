#!/usr/bin/env python3
"""Generate the degraded dataset, run every pipeline on it, and build the
summary report (per-pipeline means, overall ranking, speedup column).
`evs` runs the sdedit block on the analytic temporal model: the script
takes no trained weights, which the inversion+sfi block would need.

Usage:
  python scripts/run_ablation.py --out results/ablation [--count 93] [--seed 0]
"""

import argparse
import sys
from pathlib import Path

from evs.bench import PIPELINES
from evs.cli import main as evs_main


def run(argv):
    code = evs_main([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/ablation")
    parser.add_argument("--count", type=int, default=93)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = Path(args.out)

    run(["gen", "--out", out / "dataset", "--seed", args.seed,
         "--set", f"dataset.count={args.count}"])

    manifests = []
    for pipeline in PIPELINES:
        run_dir = out / f"run_{pipeline}"
        argv = ["run", pipeline, "--dataset", out / "dataset", "--out", run_dir,
                "--seed", args.seed]
        if pipeline == "evs":
            argv += ["--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null"]
        run(argv)
        manifests.append(run_dir / "run_manifest.json")

    run(["report", *manifests, "--out", out / "report"])
    print(f"summary: {out / 'report' / 'summary.csv'}")


if __name__ == "__main__":
    main()
