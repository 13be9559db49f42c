"""Command-line interface.

Subcommands: gen, run, rerun, sweep, frontier, report, train.  Each input
has one spelling: a config key (``--config``, ``--set``, ``--seed``) or an
argument of its subcommand.  Exit codes:

* 0 success;
* 2 usage (``UsageError``);
* 3 config: ``ConfigError``, ``ParameterError``, ``ShapeError``,
  ``CapabilityError`` and ``InjectionError`` (a setting asks for something
  the data or the model cannot give);
* 4 I/O (``OSError``);
* 5 numeric: ``NumericError`` and ``TrainingError`` (training diverged).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import bench
from .config import apply_set_overrides, resolve_config
from .errors import (
    CapabilityError,
    ConfigError,
    InjectionError,
    NumericError,
    ParameterError,
    ShapeError,
    TrainingError,
    UsageError,
)
from .io import read_json


def _add_common(parser, dataset=False):
    parser.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key, e.g. --set pipeline.t_V=6",
    )
    if dataset:
        parser.add_argument("--dataset", required=True, help="dataset directory from `evs gen`")


def _grid_value(token: str):
    """A ``--grid`` token as an int, or else a float."""
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    raise UsageError(f"--grid value {token!r} is not a number")


def _load_config(args) -> dict:
    overrides = read_json(args.config) if args.config else {}
    overrides = apply_set_overrides(overrides, args.set)
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = resolve_config(overrides)
    if cfg["net"]["weights"]:  # recorded as the dataset path is, so a rerun finds it from anywhere
        cfg["net"]["weights"] = str(Path(cfg["net"]["weights"]).resolve())
    return cfg


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged, and an
    ``append`` option copies its default list before adding to it."""
    parser = argparse.ArgumentParser(
        prog="evs",
        description="Two-model latent video refinement lab: datasets, pipelines, sweeps, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an input dataset (styled with --set dataset.styled=true)")
    _add_common(p)

    p = sub.add_parser("run", help="run one pipeline over a dataset")
    p.add_argument("pipeline", choices=bench.PIPELINES, help="pipeline name")
    _add_common(p, dataset=True)

    p = sub.add_parser("rerun", help="re-execute a recorded run on its unchanged dataset and weights")
    p.add_argument("manifest", help="run manifest JSON file")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("sweep", help="sweep one hyperparameter of the encapsulated pipeline")
    p.add_argument("axis", choices=bench.SWEEP_AXES)
    p.add_argument("--grid", required=True, help="comma-separated grid, e.g. 5,10,15,20")
    _add_common(p, dataset=True)

    p = sub.add_parser("frontier", help="compare temporal-block modes on styled inputs, given net.weights")
    _add_common(p, dataset=True)

    p = sub.add_parser("report", help="aggregate run manifests into a summary table")
    p.add_argument("manifests", nargs="+", help="run manifest JSON files")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the tapped temporal denoiser")
    _add_common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            path = bench.cmd_report(args.manifests, args.out)
        elif args.command == "rerun":
            path = bench.rerun_from_manifest(args.manifest, args.out)
        else:  # the commands that take a config: gen, run, sweep, frontier, train
            cfg = _load_config(args)
            if args.command == "gen":
                path = bench.cmd_gen(cfg, args.out)
            elif args.command == "run":
                path = bench.cmd_run(args.pipeline, cfg, args.dataset, args.out)
            elif args.command == "sweep":
                grid = [_grid_value(x) for x in args.grid.split(",") if x]
                path = bench.cmd_sweep(args.axis, grid, cfg, args.dataset, args.out)
            elif args.command == "frontier":
                path = bench.cmd_frontier(cfg, args.dataset, args.out)
            else:
                path = bench.cmd_train(cfg, args.out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ParameterError, ShapeError, CapabilityError, InjectionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (NumericError, TrainingError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 5
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
