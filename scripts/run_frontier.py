#!/usr/bin/env python3
"""Refinement-mode frontier on styled off-prior inputs: noising-denoising
strengths versus selective feature injection operating points, plus the
dominance statistic.  The injection arm's net is trained with `evs train`
first, unless `--net` names existing weights.

Usage:
  python scripts/run_frontier.py --out results/frontier [--count 10] [--seed 0] [--net W]
"""

import argparse
import sys
from pathlib import Path

from evs.cli import main as evs_main


def run(argv):
    code = evs_main([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/frontier")
    parser.add_argument("--count", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--net", help="reuse existing weights instead of training")
    args = parser.parse_args()
    out = Path(args.out)

    run(["gen", "--out", out / "dataset", "--seed", args.seed,
         "--set", f"dataset.count={args.count}", "--set", "dataset.styled=true"])
    net = args.net
    if not net:
        run(["train", "--out", out / "net", "--seed", args.seed])
        net = out / "net" / "net.evsnet"
    run(["frontier", "--dataset", out / "dataset", "--out", out / "frontier",
         "--seed", args.seed, "--set", f"net.weights={net}"])
    print(f"frontier artifacts under {out / 'frontier'}")


if __name__ == "__main__":
    main()
