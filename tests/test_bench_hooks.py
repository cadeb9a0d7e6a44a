"""The names the benchmark harness in ``perfbench/`` wraps still exist.

``perfbench/layers.install`` replaces module attributes by name, so a
renamed or removed function breaks the benchmark, not the package. The
install runs here on copies of the modules; nothing real is patched.
"""

import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import spindyad
from spindyad import analysis, config, engine, presets, protocol, svg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spindyad.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
