"""Recompute ``perfbench/reference.json``: each workload's physics outcomes at
its benchmark size, over many seeds, as the centre and spread of their log.

    python3 perfbench/calibrate.py

Run it again only when a workload's size or config changes; a change of
random stream alone must pass against the existing reference.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import sys

import checks
from run import HERE, WORK, call_preset
from workloads import WORKLOADS

# Calibration seeds; the benchmark runs use other seeds.
SEEDS = range(101, 121)


def main() -> int:
    reference = {}
    for wl in WORKLOADS.values():
        logs: dict[str, list[float]] = {}
        for seed in SEEDS:
            out = WORK / "calibrate" / wl.name
            res, err = call_preset(wl, out, seed, wl.trajectories)
            if res is None:
                print(f"{wl.name} seed {seed}: {err}", file=sys.stderr)
                return 1
            for name, value in checks.outcomes(wl.name, out).items():
                if not (math.isfinite(value) and value > 0):
                    print(f"{wl.name} seed {seed}: {name} = {value}", file=sys.stderr)
                    return 1
                logs.setdefault(name, []).append(math.log(value))
            shutil.rmtree(out)
        reference[wl.name] = {
            "trajectories": wl.trajectories,
            "seeds": [SEEDS[0], SEEDS[-1]],
            "outcomes": {
                name: {"log_center": statistics.fmean(v), "log_sd": statistics.stdev(v)}
                for name, v in logs.items()
            },
        }
        print(wl.name, json.dumps(reference[wl.name]["outcomes"]))
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
