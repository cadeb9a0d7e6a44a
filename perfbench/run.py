"""spindyad benchmark: preset calls timed end to end, plus a traced run per layer.

    python3 perfbench/run.py --workload zq_decay --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. Each preset call is a fresh interpreter
(``perfbench/call.py``), because a CLI user pays the cold costs on every
call. For ``--seconds`` the workload's preset is called again and again
with the workload seed; metrics are medians over those calls:

* ``setup_s``: import of ``spindyad`` plus ``config.parse_config``;
* ``wall_s``, ``cpu_s``: wall and user-plus-system CPU time of the
  ``run_preset`` call, artifact writing included;
* ``wall_rel``, ``cpu_rel``: the same over the time of a fixed numpy
  kernel run right after it in the same process. On a shared VM the
  machine's speed drifts by up to a third within minutes, moving every
  time above together; the ratios cancel much of that drift, so they are
  the figures ``BENCHMARK.json`` bounds, and the seconds are printed
  beside;
* ``peak_rss_mb``: peak resident memory of the call's process.

Every call's artifacts pass ``checks.problems``, whose physics outcomes
are compared with ``reference.json``; calls that raise or fail it count
as failed, and ``error_rate`` is failed over attempted. A workload size
that ``reference.json`` was not calibrated at fails the run. Every
call must write the same CSV bytes as the first one (same seed), and a
workload with ``check_threads`` is called once more at that thread count,
untimed, and must write the same bytes again.

With ``--trace 1`` traced calls alternate with plain ones: the traced
calls give the per-layer metrics (``layers.py``) and the ratio of their
wall time to the plain calls' is the trace overhead. The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics that ``BENCHMARK.json`` declares for the mode. Everything else,
the machine and the inputs included, is printed before it and written to
``perfbench/.work/<workload>/record.json``.

``--smoke`` runs every workload at a tiny trajectory count with every
check but the reference comparison, the determinism checks and a traced
call, to catch a broken harness in seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import CONFIRM_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
CALL_TIMEOUT_S = 150
MIN_PLAIN_CALLS = 3
SMOKE_PLAIN_CALLS = 2
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "wall_rel": "ratio", "cpu_rel": "ratio"}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _reference(wl: Workload, trajectories: int) -> dict | None:
    """Reference outcomes for the workload, or None if it was not
    calibrated at this size."""
    ref = json.loads((HERE / "reference.json").read_text()).get(wl.name)
    if ref is None or ref["trajectories"] != trajectories:
        return None
    return ref["outcomes"]


def call_preset(wl: Workload, out: Path, seed: int, trajectories: int, threads: int = 1,
                trace: Path | None = None, setup_only: bool = False) -> tuple[dict | None, str]:
    """One preset call in a fresh interpreter: its result, or None and why."""
    cmd = [sys.executable, str(HERE / "call.py"), "--config", wl.config]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--out", str(out), "--seed", str(seed), "--trajectories", str(trajectories),
                "--threads", str(threads)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    # the warm-up call caches bytecode for the timed ones, as an installed CLI has it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"call timed out after {CALL_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"call exited {proc.returncode}: {proc.stderr.strip()[-1500:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Call the workload's preset repeatedly and return the full record."""
    trajectories = wl.smoke_trajectories if smoke else wl.trajectories
    reference = None if smoke else _reference(wl, trajectories)
    min_plain = SMOKE_PLAIN_CALLS if smoke else MIN_PLAIN_CALLS
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_start = os.getloadavg()
    failures: list[str] = []  # one line per failed call or failed run-level check
    plain: list[dict] = []
    traced: list[dict] = []
    n_plain = n_traced = failed = 0

    run_failures = 0  # failed checks of the run as a whole
    if reference is None and not smoke:
        run_failures += 1
        failures.append(f"no reference outcomes for {trajectories} trajectories; run perfbench/calibrate.py")
    warm, err = call_preset(wl, work, seed, trajectories, setup_only=True)
    if warm is None:
        run_failures += 1
        failures.append(f"set-up call: {err}")
    first_out = None
    deadline = time.perf_counter() + seconds
    while not (time.perf_counter() >= deadline and n_plain >= min_plain and (n_traced or not trace)):
        kind = "traced" if trace and n_traced < n_plain else "plain"
        out = work / f"call{n_plain + n_traced}"
        spans = work / "spans.json" if kind == "traced" else None
        res, err = call_preset(wl, out, seed, trajectories, trace=spans)
        n_plain += kind == "plain"
        n_traced += kind == "traced"
        found = [err] if res is None else checks.problems(wl.name, out, reference)
        if res is not None and first_out is not None:
            diff = checks.csv_differences(first_out, out)
            if diff:
                found.append(f"same seed, CSV bytes differ from the first call: {diff}")
        if found:
            failed += 1
            failures.append(f"{kind} call {out.name}: " + "; ".join(found))
        elif kind == "plain":
            plain.append(res)
        else:
            res["layers"]["analysis.inf_lifetimes"] = checks.inf_lifetimes(wl.name, out)
            res["layers"]["output.bytes_written"] = checks.bytes_written(out)
            traced.append(res)
        if first_out is None and not found:
            first_out = out
        else:
            shutil.rmtree(out, ignore_errors=True)
    attempted = n_plain + n_traced

    if wl.check_threads:
        out = work / f"threads{wl.check_threads}"
        res, err = call_preset(wl, out, seed, trajectories, wl.check_threads)
        attempted += 1
        diff = None if res is None or first_out is None else checks.csv_differences(first_out, out)
        if res is None or first_out is None or diff:
            failed += 1
            failures.append(f"{out.name} call: {err or diff or 'no one-thread call to compare with'}")
        shutil.rmtree(out, ignore_errors=True)

    samples = {k: [r[k] for r in plain] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
    samples["wall_rel"] = [r["wall_s"] / r["probe_wall_s"] for r in plain]
    samples["cpu_rel"] = [r["cpu_s"] / r["probe_cpu_s"] for r in plain]
    record = {
        "workload": wl.name,
        "why": next(w["why"] for w in _spec()["workloads"] if w["name"] == wl.name),
        "inputs": {
            "config": wl.config,
            "seed": seed,
            "confirm_seed": CONFIRM_SEED,
            "trajectories": trajectories,
            "threads": 1,
            "check_threads": wl.check_threads,
            "seconds": seconds,
            "trace": trace,
            "smoke": smoke,
            "reference_checked": reference is not None,
        },
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            **(warm or {}).get("versions", {}),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
        "attempted": attempted,
        "samples": samples,
        "end_to_end": {k: _median(v) for k, v in samples.items()},
    }
    if traced:
        # times are medians; counts must repeat exactly and are taken as they are
        names = traced[0]["layers"].keys()
        layers = {k: _median([t["layers"][k] for t in traced]) if k.endswith("_s") else traced[0]["layers"][k]
                  for k in names}
        unequal = [k for k in names if not k.endswith("_s") and len({t["layers"][k] for t in traced}) > 1]
        if unequal:
            run_failures += 1
            failures.append(f"traced calls disagree on the counts {unequal}")
        layers["trace.overhead_ratio"] = _median([t["wall_s"] for t in traced]) / record["end_to_end"]["wall_s"]
        record["layers"] = layers
        record["traced_calls"] = len(traced)
    record["failed"] = min(failed + run_failures, attempted)
    record["failures"] = failures
    (work / "record.json").write_text(json.dumps(record, indent=1))
    return record


def _report(record: dict, spec: dict) -> None:
    inp, mach = record["inputs"], record["machine"]
    print(f"workload {record['workload']}: {record['why']}")
    print(f"  inputs: config={inp['config']} seed={inp['seed']} confirm_seed={inp['confirm_seed']} "
          f"trajectories={inp['trajectories']} threads={inp['threads']} check_threads={inp['check_threads']} "
          f"seconds={inp['seconds']}")
    print(f"  machine: nproc={mach['nproc']} python={mach['python']} numpy={mach.get('numpy')} "
          f"scipy={mach.get('scipy')} loadavg start={mach['loadavg_start']} end={mach['loadavg_end']}")
    for name, values in record["samples"].items():
        if values:
            print(f"  {name:<14} {statistics.median(values):.6g} {UNITS[name]}  (median of {len(values)} "
                  f"calls; min {min(values):.6g}, max {max(values):.6g})")
    rate = record["failed"] / record["attempted"]
    print(f"  {'error_rate':<14} {rate:.6g}  ({record['failed']} failed of {record['attempted']} attempted)")
    for f in record["failures"]:
        print(f"  FAILED {f}")
    if "layers" in record:
        print(f"  per-layer (median of {record['traced_calls']} traced calls):")
        for k, v in record["layers"].items():
            print(f"    {k:<42} {v:.6g}")


def _result_line(record: dict, spec: dict, trace: bool) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = record.get("layers", {}) if trace else record["end_to_end"]
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None or math.isnan(value):  # no valid call to measure
            return {"correct": False, "attempted": record["attempted"],
                    "failed": max(1, record["failed"]), "metrics": {}}
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def _missing_inputs(wl_names) -> list[str]:
    needed = [ROOT / "BENCHMARK.json", HERE / "reference.json", ROOT / "src" / "spindyad" / "__init__.py"]
    needed += [ROOT / WORKLOADS[n].config for n in wl_names]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload, tiny, no reference comparison")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    names = sorted(WORKLOADS) if args.smoke else [args.workload]
    missing = _missing_inputs(names)
    if missing:
        print(f"error: not a spindyad checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = _spec()

    if args.smoke:
        results = {}
        for name in names:
            record = run_workload(WORKLOADS[name], args.seed, 0.0, trace=True, smoke=True)
            _report(record, spec)
            results[name] = _result_line(record, spec, trace=True)
        ok = all(r["correct"] for r in results.values())
        print(json.dumps({"correct": ok, "workloads": results}))
        return 0 if ok else 1

    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, trace=bool(args.trace))
    _report(record, spec)
    result = _result_line(record, spec, trace=bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
