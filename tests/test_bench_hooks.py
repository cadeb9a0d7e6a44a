"""The names the benchmark harness in ``perfbench/`` wraps still exist.

``perfbench/layers.install`` replaces module attributes by name, so a
renamed or removed function breaks the benchmark, not the package. One
install runs on copies of the modules; the others wrap the real modules
for one traced preset run each and restore every attribute afterwards:
the wrapped samplers are on the call path, and every engine and linalg
counter ``BENCHMARK.json`` declares reads nonzero on each workload.
"""

import importlib
import json
import pkgutil
import time
import types
from pathlib import Path

import pytest

import spindyad
from spindyad import analysis, config, engine, presets, protocol, svg

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(spindyad.__path__) if not m.name.startswith("_")
)


def test_benchmark_wraps_existing_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    copies = [types.SimpleNamespace(**vars(m)) for m in (engine, presets, protocol, analysis, svg, config)]
    layers.install(tracer.Tracer(), *copies)
    assert hasattr(copies[3].fit_stretched_exponential, "__wrapped__")
    assert not hasattr(analysis.fit_stretched_exponential, "__wrapped__")


def traced_run(monkeypatch, out, name, trajectories):
    """Metrics of one preset run with the benchmark's wrappers on the real
    modules; every module attribute is restored afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    modules = (engine, presets, protocol, analysis, svg, config)
    saved = [(m, dict(vars(m))) for m in modules]
    cfg = config.parse_config(ROOT / "configs" / f"{name}.cfg")
    try:
        layers.install(tracer, *modules)
        start = time.perf_counter()
        presets.run_preset(cfg, out, seed=7, trajectories=trajectories, plot=False)
        metrics = layers.metrics(tracer, (start, time.perf_counter()))
    finally:
        for module, attrs in saved:
            for key, value in attrs.items():
                if getattr(module, key) is not value:
                    setattr(module, key, value)
    assert not hasattr(engine.propagate, "__wrapped__")
    return cfg, metrics


def test_traced_run_goes_through_the_wrapped_samplers(monkeypatch, tmp_path):
    """The benchmark's traced path: a 2-trajectory electrometry run with the
    wrappers on the real modules calls each wrapped sampler once per
    trajectory and sweep point."""
    cfg, metrics = traced_run(monkeypatch, tmp_path / "out", "electrometry", 2)
    points = len(cfg.sweep_values("efield", 0.0))
    assert points == 3
    assert metrics["noise.sample_magnetic.calls"] == 2 * points
    assert metrics["noise.sample_electric.calls"] == 2 * points
    assert not hasattr(engine.sample_magnetic_trajectory, "__wrapped__")


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_declared_engine_and_linalg_counters_are_nonzero(monkeypatch, tmp_path, name):
    """Every engine and linalg metric the benchmark declares reads nonzero
    on each workload's preset, traced at 2 trajectories."""
    _, metrics = traced_run(monkeypatch, tmp_path / "out", name, 2)
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    layer = [m for m in declared if m.startswith(("engine.", "linalg."))]
    assert len(layer) == 10
    assert {m: metrics[m] for m in layer if not metrics[m] > 0} == {}


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spindyad.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
