"""One spindyad preset call in a fresh interpreter, as one ``spindyad --config``
call makes it, with its cost measured.

    python3 perfbench/call.py --config configs/zq_decay.cfg \
        --out OUT --seed 7 --trajectories 120 --threads 1 [--trace SPANS.json]

``--setup-only`` stops after the set-up (import and config parse); it
warms the bytecode and file caches. The last stdout line is a JSON object:
``setup_s`` (import of ``spindyad`` plus ``config.parse_config``),
``wall_s`` and ``cpu_s`` (user plus system CPU of all threads) of the
``presets.run_preset`` call, artifact writing included, ``peak_rss_mb`` of
this process, the wall and CPU time of a fixed numpy kernel run right
after it (``probe_*``), and the numpy and scipy versions. With
``--trace`` the functions of each layer are wrapped, every span is
written to the given file at the end, and the per-layer metrics are
added under ``layers`` in place of the probe times.
"""

from __future__ import annotations

import time

_t_start = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _probe() -> float:
    """A fixed numpy kernel independent of spindyad, timed right after the
    preset call in the same process: its time tracks the machine's speed
    at that moment (other tenants, clock), which the ratio to it cancels.
    It has two parts, because neighbours slow cache-resident and
    memory-bound code by different amounts: many numpy calls on small
    arrays, like the engine's, and hold-and-redraw passes over arrays
    larger than the cache, like the noise sampler's. It runs after the
    peak memory is read, so its arrays never count in it."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 25_000)
    rho = np.eye(4, dtype=complex) / 4.0
    acc = 0.0
    for k in range(2500):
        u = np.exp(-1j * np.cumsum(x * (k % 7))[-4:])
        rho = (u[:, None] * rho) * u.conj()[None, :]
        acc += float(np.real(np.trace(rho)))
    rng = np.random.default_rng(0)
    steps = np.arange(160_000)[:, None]
    for _ in range(12):
        u = rng.random((160_000, 6))
        hold = np.maximum.accumulate(np.where(u[:, :3] < 1e-3, steps, 0), axis=0)
        acc += float(np.cumsum(np.take_along_axis(u[:, 3:], hold, axis=0), axis=0)[-1, 0])
    return acc


def _timed_probe() -> tuple[float, float]:
    """Wall and CPU seconds of one ``_probe``."""
    c0 = time.process_time()
    w0 = time.perf_counter()
    _probe()
    return time.perf_counter() - w0, time.process_time() - c0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trajectories", type=int)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--trace", type=Path, help="write spans here and report per-layer metrics")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.trace is not None and args.threads != 1:
        ap.error("--trace needs --threads 1: the tracer keeps one stack of open spans")

    tracer = None
    if args.trace is not None:
        from tracer import Tracer

        tracer = Tracer()
    t_import = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    with tracer.span("setup.import") if tracer else nullcontext():
        import spindyad
        from spindyad import analysis, config, engine, presets, protocol, svg
    if Path(spindyad.__file__).resolve().parent != src / "spindyad":
        print(f"error: imported spindyad from {spindyad.__file__}, not from {src}", file=sys.stderr)
        return 2
    if tracer is not None:
        import layers

        layers.install(tracer, engine, presets, protocol, analysis, svg, config)

    cfg = config.parse_config(ROOT / args.config)
    t_setup = time.perf_counter()
    result = {"setup_s": t_setup - t_import}
    if not args.setup_only:
        c0 = time.process_time()
        w0 = time.perf_counter()
        presets.run_preset(
            cfg,
            args.out,
            seed=args.seed,
            trajectories=args.trajectories,
            threads=args.threads,
            plot=cfg.flag("output", "plot"),
        )
        w1 = time.perf_counter()
        result["wall_s"] = w1 - w0
        result["cpu_s"] = time.process_time() - c0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is None:
            result["probe_wall_s"], result["probe_cpu_s"] = _timed_probe()
        else:
            result["layers"] = layers.metrics(tracer, (_t_start, w1))
            tracer.write(args.trace)

    import numpy
    import scipy

    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
