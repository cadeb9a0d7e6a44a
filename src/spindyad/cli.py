"""Config-driven batch experiment runner.

Exit codes: 0 success, 2 configuration error, 3 simulation error,
4 fit error. On success the lines of the preset's summary file, below
its config echo, go to stderr. Flags override config values;
``--threads`` is accepted for existing scripts and has no effect.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import FitError
from .config import ConfigError, parse_config
from .engine import SimulationError
from .presets import run_preset

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_FIT = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindyad",
        description="Spin-dyad coherence simulator: run a preset experiment from a config file.",
    )
    parser.add_argument("--config", required=True, help="path to the experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument(
        "--trajectories", type=int, default=None, help="override the trajectory count"
    )
    parser.add_argument("--no-plot", action="store_true", help="skip SVG plot emission")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for existing scripts; no effect (trajectories run as one batch)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        out_dir = args.out if args.out is not None else cfg.text("output", "directory")
        plot = cfg.flag("output", "plot") and not args.no_plot
        summary = run_preset(cfg, out_dir, seed=args.seed, trajectories=args.trajectories, plot=plot)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitError as exc:
        print(f"error: fit: {exc}", file=sys.stderr)
        return EXIT_FIT
    except SimulationError as exc:
        print(f"error: simulation: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    sys.stderr.write(summary)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
