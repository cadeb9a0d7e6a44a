"""Which spindyad functions the traced run wraps, and the per-layer metrics
derived from their spans and counters.

Each name is patched where its caller looks it up: ``engine`` imports the
noise samplers, ``assert_density_matrix`` and ``rotation_unitary`` by
name, and ``presets`` calls ``echo_coherence_time`` through its own module
globals, so those module attributes are the ones replaced. Nothing inside
the package changes.
"""

from __future__ import annotations

from tracer import Tracer, summarize

# Spans whose calls and self time are reported. ``engine.propagate`` is
# recorded as ``.diag`` or ``.dq`` by the call's ``sim.near_bm``. The sums
# ``noise.sample``, ``engine.propagate`` and ``analysis.fit`` are reported
# too: each part is 0 on some workload, their sum on none. Every metric is
# printed and kept in record.json; ``BENCHMARK.json`` declares only those
# that are nonzero on every workload.
SPANS = (
    "noise.sample_magnetic",
    "noise.sample_electric",
    "engine.run",
    "engine.propagate.diag",
    "engine.propagate.dq",
    "engine.sweep",
    "engine.trace_to_csv",
    "protocol.build",
    "protocol.rotation_unitary",
    "linalg.assert_density_matrix",
    "presets.echo_coherence_time",
    "presets.run_preset",
    "analysis.fit_stretched_exponential",
    "analysis.fit_envelope_decay",
    "svg.line_plot",
    "config.parse_config",
    "setup.import",
)

# Counters kept by the wrappers (exact counts, not times).
COUNTERS = (
    "noise.steps_sampled",
    "noise.bytes_materialized",
    "noise.useful_calls",
    "engine.run.one_traj_calls",
    "engine.delays",
    "engine.delays_noisy",
    "analysis.flat_traces",
)

_MAGNETIC_CHANNELS = 3  # global, local at S, local at S'
_ELECTRIC_CHANNELS = 3  # x, y, z


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer, engine, presets, protocol, analysis, svg, config) -> None:
    """Wrap the public functions of each layer in place."""

    def magnetic_before(args, kwargs):
        if _arg(args, kwargs, 0, "cfg").beta_rms > 0:
            tracer.add("noise.useful_calls")

    def magnetic_after(traj):
        tracer.add("noise.steps_sampled", traj.n_steps * _MAGNETIC_CHANNELS)
        tracer.add("noise.bytes_materialized", traj.beta_s.nbytes + traj.beta_s_prime.nbytes)

    def electric_before(args, kwargs):
        if _arg(args, kwargs, 0, "cfg").eps_rms > 0:
            tracer.add("noise.useful_calls")

    def electric_after(eps):
        tracer.add("noise.steps_sampled", eps.shape[0] * _ELECTRIC_CHANNELS)
        tracer.add("noise.bytes_materialized", eps.nbytes)

    def run_before(args, kwargs):
        if _arg(args, kwargs, 0, "exp").sim.n_trajectories == 1:
            tracer.add("engine.run.one_traj_calls")

    def propagate_before(args, kwargs):
        delays = [e for e in _arg(args, kwargs, 1, "program").elements if isinstance(e, protocol.Delay)]
        tracer.add("engine.delays", len(delays))
        tracer.add("engine.delays_noisy", sum(1 for d in delays if d.noisy))

    def propagate_name(args, kwargs):
        near = _arg(args, kwargs, 4, "sim").near_bm
        return "engine.propagate.dq" if near else "engine.propagate.diag"

    for module in (engine, presets):
        tracer.wrap(module, "sample_magnetic_trajectory", "noise.sample_magnetic", magnetic_before, magnetic_after)
    tracer.wrap(engine, "sample_electric_trajectory", "noise.sample_electric", electric_before, electric_after)
    tracer.wrap(engine, "run", "engine.run", run_before)
    tracer.wrap(engine, "propagate", propagate_name, propagate_before)
    tracer.wrap(engine, "sweep", "engine.sweep")
    tracer.wrap(engine, "trace_to_csv", "engine.trace_to_csv")
    tracer.wrap(engine, "rotation_unitary", "protocol.rotation_unitary")
    tracer.wrap(engine, "assert_density_matrix", "linalg.assert_density_matrix")
    for program in ("zq_chain", "hahn_echo", "deer"):
        tracer.wrap(protocol, program, "protocol.build")
    tracer.wrap(presets, "echo_coherence_time", "presets.echo_coherence_time")
    tracer.wrap(presets, "run_preset", "presets.run_preset")
    flat = (analysis.FlatTraceError, "analysis.flat_traces")
    tracer.wrap(analysis, "fit_stretched_exponential", "analysis.fit_stretched_exponential", raises=flat)
    tracer.wrap(analysis, "fit_envelope_decay", "analysis.fit_envelope_decay", raises=flat)
    tracer.wrap(svg, "line_plot", "svg.line_plot")
    tracer.wrap(config, "parse_config", "config.parse_config")


def metrics(tracer: Tracer, window: tuple[float, float]) -> dict[str, float]:
    """Flat per-layer metrics of one traced call, by name."""
    per_name, uncovered = summarize(tracer.spans, window)
    out: dict[str, float] = {}
    for name in SPANS:
        entry = per_name.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
    for key in COUNTERS:
        out[key] = tracer.counts.get(key, 0)
    for total, parts in (
        ("noise.sample", ("noise.sample_magnetic", "noise.sample_electric")),
        ("engine.propagate", ("engine.propagate.diag", "engine.propagate.dq")),
        ("analysis.fit", ("analysis.fit_stretched_exponential", "analysis.fit_envelope_decay")),
    ):
        out[f"{total}.calls"] = sum(out[f"{p}.calls"] for p in parts)
        out[f"{total}.self_s"] = sum(out[f"{p}.self_s"] for p in parts)
    samples = out["noise.sample_magnetic.calls"] + out["noise.sample_electric.calls"]
    out["noise.useful_share"] = out["noise.useful_calls"] / samples if samples else 0.0
    out["trace.uncovered_s"] = uncovered
    out["trace.window_s"] = window[1] - window[0]
    return out
