"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import checks
from tracer import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_self_time_is_duration_minus_children():
    # root 0..10 with children 1..4 and 5..8, and a grandchild 2..3 under
    # the first child
    spans = [
        (0, "root", 0.0, 10.0, -1),
        (1, "child", 1.0, 4.0, 0),
        (2, "child", 5.0, 8.0, 0),
        (3, "leaf", 2.0, 3.0, 1),
    ]
    per_name, uncovered = summarize(spans, (-1.0, 12.0))
    assert per_name["root"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert per_name["child"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}
    assert per_name["leaf"]["self_s"] == 1.0
    assert uncovered == 3.0


def test_wrap_records_parent_counters_and_counted_exceptions():
    class Flat(Exception):
        pass

    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1

    def outer(x):
        if x < 0:
            raise Flat
        return mod.inner(x) * 2

    mod.outer = outer
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner", after=lambda r: tracer.add("inner.sum", r))
    tracer.wrap(mod, "outer", lambda a, k: f"outer.{'neg' if a[0] < 0 else 'pos'}", raises=(Flat, "flat"))
    assert mod.outer(2) == 6
    with pytest.raises(Flat):
        mod.outer(-1)
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["inner"][4] == by_name["outer.pos"][0]
    assert by_name["outer.pos"][4] == -1
    assert tracer.counts == {"inner.sum": 3, "flat": 1}


def test_physics_checks_run_without_a_reference(tmp_path):
    (tmp_path / "zq_decay.csv").write_text("# config x\ntau_s,signal\n0,1\n")
    (tmp_path / "zq_decay_summary.txt").write_text("t2_zq_s = inf\n")
    assert checks.problems("zq_decay", tmp_path, None) == ["t2_zq_s is not finite"]
    (tmp_path / "electrometry.csv").write_text("# config x\neps_rms_V_per_m,t2_zq_s\n3e6,2e-5\n1e6,1e-5\n")
    (tmp_path / "electrometry_summary.txt").write_text("")
    assert checks.problems("electrometry", tmp_path, None) == ["T2_ZQ increases with eps_rms: [1e-05, 2e-05]"]


def test_smoke_mode_passes_and_reports_every_declared_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(result["workloads"]) == sorted(workloads)
    for name, res in result["workloads"].items():
        assert res["correct"] and res["failed"] == 0, name
        assert sorted(res["metrics"]) == sorted(declared), name
        # a declared metric reads nonzero on every workload; the parts
        # that some workload never calls stay in record.json only
        assert [k for k, m in res["metrics"].items() if m["value"] == 0] == [], name


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zq_decay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
