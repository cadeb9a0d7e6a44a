"""The names the benchmark harness in ``perfbench/`` wraps still exist.

``perfbench/layers.install`` replaces module attributes by name, so a
renamed or removed function breaks the benchmark, not the package. One
install runs on copies of the modules; another wraps the real modules
for one traced preset run and restores every attribute afterwards.
"""

import importlib
import pkgutil
import time
import types
from pathlib import Path

import pytest

import spindyad
from spindyad import analysis, config, engine, presets, protocol, svg

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
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


def test_traced_run_goes_through_the_wrapped_samplers(monkeypatch, tmp_path):
    """The benchmark's traced path: a 2-trajectory electrometry run with the
    wrappers on the real modules calls each wrapped sampler once per
    trajectory and sweep point."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    modules = (engine, presets, protocol, analysis, svg, config)
    saved = [(m, dict(vars(m))) for m in modules]
    cfg = config.parse_config(ROOT / "configs" / "electrometry.cfg")
    try:
        layers.install(tracer, *modules)
        start = time.perf_counter()
        presets.run_preset(cfg, tmp_path / "out", seed=7, trajectories=2, plot=False)
        metrics = layers.metrics(tracer, (start, time.perf_counter()))
    finally:
        for module, attrs in saved:
            for name, value in attrs.items():
                if getattr(module, name) is not value:
                    setattr(module, name, value)
    points = len(cfg.sweep_values("efield", 0.0))
    assert points == 3
    assert metrics["noise.sample_magnetic.calls"] == 2 * points
    assert metrics["noise.sample_electric.calls"] == 2 * points
    assert not hasattr(engine.sample_magnetic_trajectory, "__wrapped__")


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spindyad.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
