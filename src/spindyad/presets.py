"""Named experiment presets: one per supported measurement protocol.

Each preset run reads its settings from the config once, into one
experiment with no programs. The preset derives every engine run from it
and hands what to write to one artifact writer, which owns the output
format: CSV traces and tables, an optional SVG plot and a summary text
file. The CSV files are the data contract; every file
starts with a '#'-prefixed echo of the resolved configuration and seed.
The one table of presets, with the keys and the sweep variable each
reads, is ``_PRESETS`` at the end of this module.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import IO, Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import analysis, engine, model, protocol, svg
from .config import ConfigError, ExperimentConfig
from .engine import Experiment, SimConfig, SimulationError, TimeTrace
from .noise import FluctuatorConfig, sample_magnetic_trajectory
from .protocol import Target

__all__ = [
    "run_preset",
    "echo_coherence_time",
    "half_excess_detuning",
]


def _snap(t: float, dt: float) -> float:
    """Quantize a time to the propagation grid."""
    return max(0, int(round(t / dt))) * dt


def _experiment(cfg: ExperimentConfig, label: str) -> Experiment:
    """The one experiment of a preset run: the dyad, noise and simulation
    settings of ``cfg`` and the artifact label, with no programs.

    Every run of the preset is derived from it with
    :func:`dataclasses.replace`, so all of them share its store of noise
    draws: each stream is drawn once per preset run (sweep points,
    reference runs and fits render it at their own amplitudes).
    Seed and trajectory count come from ``cfg.resolved``, where
    :func:`run_preset` has applied any override. The ``[noise]`` section is
    one :class:`FluctuatorConfig`, and ``eps_rms = 0`` switches its electric
    channel off. Values the model classes reject (``xi = 2``, ``dt = 0 ns``,
    a seed outside [0, 2**64), no trajectories) are config errors, named by
    config key. ``params.j`` and ``params.theta`` are a pair: one alone is
    an error. :class:`~spindyad.model.DyadParams` checks its four
    frequencies as the config gives them, in Hz (2 pi changes no sign), so
    a rejected one is named in the config's unit; the experiment holds them
    in rad/s.
    """
    angular = ("delta", "gamma_e", "d_par", "ddelta_dT")
    kwargs = dict(zip(angular, (cfg.number("params", key.lower()) for key in angular)))
    if cfg.has("params", "j") != cfg.has("params", "theta"):
        raise ConfigError("params.j and params.theta are a pair: set both or neither")
    if cfg.has("params", "j"):
        kwargs["j_coupling"] = cfg.number("params", "j")
        kwargs["theta"] = cfg.number("params", "theta")
    for key in ("j_par", "j_perp"):
        if cfg.has("params", key):
            kwargs[key] = cfg.number("params", key)
    noise = ("beta_rms", "xi", "switch_rate", "eps_rms", "electric_rate")  # as FluctuatorConfig names them
    params = _built("params", model.DyadParams, **kwargs)
    return Experiment(
        params=replace(params, **{key: 2.0 * math.pi * getattr(params, key) for key in angular}),
        noise=_built("noise", FluctuatorConfig, **{key: cfg.number("noise", key) for key in noise}),
        sim=_built(
            "sim",
            SimConfig,
            n_trajectories=cfg.integer("sim", "trajectories"),
            dt=cfg.number("sim", "dt"),
            master_seed=cfg.integer("sim", "seed"),
            near_bm=cfg.flag("sim", "near_bm"),
            delta_b=cfg.number("sim", "delta_b"),
        ),
        label=label,
    )


def _built(section: str, cls: type, **kwargs):
    """``cls(**kwargs)``; a value it rejects is a config error named by
    ``section.key``, the key of the field its message starts with."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        msg = str(exc)
        name = re.match(r"\w*", msg).group()
        key = {"master_seed": "seed", "n_trajectories": "trajectories"}.get(name, name)  # SimConfig's two renames
        raise ConfigError(f"{section}.{key}{msg[len(name) :]}") from exc


def _text(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


class _Writer:
    """The one owner of the artifact format.

    Files are named ``<label><suffix>`` in the output directory. Every CSV
    and summary starts with the echo of the resolved configuration, one
    ``# config <section.key> = <value>`` line per key in sorted order,
    which makes each file reproducible on its own. Floats are written
    with ``.17g``, so they read back bit-exactly. ``summary_text`` keeps
    the summary's lines below the echo. The output directory is made when
    the first file is written, so a run that fails first leaves none; a
    file in its place is refused when the writer is made, before any run.
    A directory or file that cannot be made or written is a config error.
    """

    def __init__(self, cfg: ExperimentConfig, out: Path, label: str, plot: bool):
        if out.exists() and not out.is_dir():
            raise ConfigError(f"output directory {out} is not a directory")
        self.out = out
        self.label = label
        self.plots = plot
        self.echo = "".join(f"# config {k} = {cfg.resolved[k]}\n" for k in sorted(cfg.resolved))
        self.summary_text = ""

    @contextmanager
    def _path(self, suffix: str) -> Iterator[Path]:
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {self.out} cannot be made: {exc.strerror}") from exc
        path = self.out / f"{self.label}{suffix}"
        try:
            yield path
        except OSError as exc:
            raise ConfigError(f"output file {path} cannot be written: {exc.strerror}") from exc

    @contextmanager
    def _open(self, suffix: str) -> Iterator[IO[str]]:
        with self._path(suffix) as path, path.open("w") as fh:
            fh.write(self.echo)
            yield fh

    def trace(self, trace: TimeTrace, suffix: str = "", sweep_value=None, fit=None) -> None:
        """A trace CSV in the :func:`engine.trace_to_csv` format."""
        with self._open(f"{suffix}.csv") as fh:
            engine.trace_to_csv(trace, fh, sweep_value=sweep_value, fit=fit)

    def table(self, columns: list[str], rows, notes: Optional[dict] = None) -> None:
        """The preset's own ``<label>.csv``: ``# key = value`` notes, a
        header line and one line of numbers per row."""
        with self._open(".csv") as fh:
            for key, value in (notes or {}).items():
                fh.write(f"# {key} = {_text(value)}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    def summary(self, items: dict) -> None:
        """``<label>_summary.txt``: one ``key = value`` line per item."""
        self.summary_text = "".join(f"{key} = {_text(value)}\n" for key, value in items.items())
        with self._open("_summary.txt") as fh:
            fh.write(self.summary_text)

    def plot(self, xs, series, title: str, xlabel: str, ylabel: str) -> None:
        """``<label>.svg``, unless plots are switched off."""
        if self.plots:
            with self._path(".svg") as path:
                svg.line_plot(path, xs, series, title=title, xlabel=xlabel, ylabel=ylabel)

    def plot_signal(self, trace: TimeTrace, xlabel: str, time_factor: float = 1.0) -> None:
        """The readout signal against time_factor * the trace's times, in us."""
        xs = [time_factor * t * 1e6 for t in trace.times]
        self.plot(xs, [("signal", trace.signal_mean)], self.label, xlabel, "P(m_S = 0)")

    def plot_lifetimes(self, points, name: str, title: str, xlabel: str, x_scale=1.0) -> None:
        """T2 in us against the sweep value, over the points with a finite
        T2; no plot when there are none."""
        finite = [(x, t2) for x, t2 in points if math.isfinite(t2)]
        if finite:
            xs = [x * x_scale for x, _ in finite]
            self.plot(xs, [(name, [t2 * 1e6 for _, t2 in finite])], title, xlabel, "T2 (us)")


def _tau_grid(cfg: ExperimentConfig, dt: float) -> list[float]:
    """The distinct positive on-grid times of the ``tau_*`` axis, at
    least 8 of them."""
    start = cfg.number("sweep", "tau_start")
    stop = cfg.number("sweep", "tau_stop")
    count = cfg.integer("sweep", "tau_count")
    if stop <= start:
        raise ConfigError("tau grid needs tau_start < tau_stop")
    grid = sorted({_snap(t, dt) for t in cfg.axis(start, stop, count, "tau_") if _snap(t, dt) > 0})
    if len(grid) < 8:
        raise ConfigError("tau grid collapses below 8 distinct on-grid points; refine dt or bounds")
    return grid


def _echo_program_builder(
    cfg: ExperimentConfig, exp: Experiment, deer_mode: bool
) -> Callable[[float], protocol.PulseProgram]:
    """Near the anti-crossing one field addresses both spins, and the echo
    and the recoupled echo are the same program."""
    if exp.sim.near_bm:
        return partial(protocol.hahn_echo, target=Target.BOTH, shared_field=cfg.flag("sim", "shared_field"))
    if not cfg.is_default("sim", "shared_field"):
        raise ConfigError(f"sim.shared_field is read with sim.near_bm = true only, not by {cfg.preset} without it")
    return protocol.deer if deer_mode else protocol.hahn_echo


_ANCHORS = 22  # anchor delays of an echo coherence time

# contrasts within this of a window's largest tie, and the earliest delay
# wins: a plain echo's noise-free reference is 1 up to rounding residue
_CONTRAST_TIE = 1e-9


def echo_coherence_time(
    exp: Experiment,
    tau_max: float,
    tau_min: float = 0.3e-6,
    n_points: int = _ANCHORS,
) -> tuple[float, TimeTrace]:
    """Echo coherence time via a beat-anchored contrast envelope.

    Near the anti-crossing the averaged echo signal beats at the
    double-quantum gap, so the delay grid is anchored at beat antinodes
    of a noise-free reference trace and the fitted quantity is the
    contrast ratio (signal - 1/2) / (reference - 1/2), which isolates the
    decay envelope. Away from the anti-crossing the reference is flat at
    one and the procedure reduces to a plain stretched-exponential fit.

    Returns (t2, envelope_trace); t2 is inf when
    :func:`analysis.coherence_time` finds the decay unresolvable.
    The envelope trace's time axis is the total evolution time 2 tau.
    """
    windows = _anchor_windows(exp, tau_max, tau_min, n_points)
    return _envelope(exp, windows, engine.run(_noise_free(exp, windows)))


def _anchor_windows(exp: Experiment, tau_max: float, tau_min: float, n_points: int) -> list[list[float]]:
    """The on-grid candidate delays from each of ``n_points`` anchors over
    one scan of the fastest noise-free modulation; only dt, the couplings
    and ``sim.near_bm`` set them."""
    dt = exp.sim.dt
    p = exp.params
    anchors = np.geomspace(max(tau_min, dt), tau_max, n_points)
    # fastest coherent modulation of the noise-free response: the
    # double-quantum beat near the anti-crossing, the recoupled secular
    # modulation otherwise (plain echoes are unmodulated and scan trivially)
    if exp.sim.near_bm:
        f_fast = abs(p.j_par) / 2.0 + math.sqrt(2.0) * abs(p.j_perp)
    else:
        f_fast = abs(p.j_par)
    scan = 0.6 / f_fast if f_fast > 0 else 0.0
    return [sorted({_snap(t, dt) for t in np.linspace(a, a + scan, 12)}) for a in anchors]


def _noise_free(exp: Experiment, windows: list[list[float]]) -> Experiment:
    """The noise-free reference of ``exp``: one single-trajectory run over
    the delays of every window. The engine walks the delays' programs
    together, but each state evolves exactly as it would alone, and a
    shorter noise path is a bit-exact prefix of a longer one, so a
    delay's signal does not depend on which other delays share the run."""
    return replace(
        exp,
        noise=replace(exp.noise, beta_rms=0.0, eps_rms=0.0),
        sim=replace(exp.sim, n_trajectories=1),
        times=sorted(set().union(*windows)),
    )


def _envelope(exp: Experiment, windows: list[list[float]], clean: TimeTrace) -> tuple[float, TimeTrace]:
    """(t2, envelope) of :func:`echo_coherence_time` from the noise-free
    trace ``clean``: the noisy run at each window's delay of largest
    contrast (the earliest within ``_CONTRAST_TIE`` of it), its contrast
    ratio and the envelope fit."""
    reference = dict(zip(clean.times.tolist(), clean.signal_mean.tolist()))
    selected: dict[float, float] = {}
    for cand in windows:
        signal = np.array([reference[t] for t in cand])
        contrast = np.abs(signal - 0.5)
        k = int(np.argmax(contrast >= contrast.max() - _CONTRAST_TIE))
        if contrast[k] >= 0.3:
            selected[cand[k]] = float(signal[k])
    times = sorted(selected)
    contrast = np.array([selected[t] for t in times])
    if len(times) < 8:
        raise SimulationError("fewer than 8 usable echo delays; extend the tau range")
    trace = engine.run(replace(exp, times=times))
    ratio = (trace.signal_mean - 0.5) / (contrast - 0.5)
    sem = trace.signal_sem / np.abs(contrast - 0.5)
    # the quadratic mean frequency shift slowly slips the averaged beat
    # out of phase with the reference; once the contrast ratio swings
    # clearly negative the later samples carry no envelope information
    negative = np.flatnonzero(ratio < -np.maximum(0.1, 3.0 * sem))
    cut = int(negative[0]) if negative.size else len(ratio)
    if cut >= 8:
        times, ratio, sem = times[:cut], ratio[:cut], sem[:cut]
    env = TimeTrace(
        times=2.0 * np.asarray(times),
        signal_mean=ratio,
        signal_sem=sem,
        metadata=trace.metadata,
    )
    t2, _ = analysis.coherence_time(env, envelope=True)
    return t2, env


def _far_reference(exp: Experiment, tau_max: float, tau_min: float = 0.3e-6) -> float:
    """The far single-quantum reference T2 under the noise of ``exp``: a
    plain Hahn echo, the double-quantum term off, delays capped at 60 us."""
    far = replace(exp, sim=replace(exp.sim, near_bm=False), program_builder=protocol.hahn_echo)
    return echo_coherence_time(far, tau_max=min(tau_max, 60e-6), tau_min=tau_min)[0]


def _tau_zq(cfg: ExperimentConfig, exp: Experiment) -> float:
    """The zero-quantum conversion delay 1/(4 J_par), on the dt grid."""
    j_par = exp.params.j_par
    tau_zq = _snap(1.0 / (4.0 * j_par), exp.sim.dt) if j_par else 0.0
    if tau_zq == 0.0:
        raise ConfigError(f"{cfg.preset} needs j_par > 0 with 1/(4 j_par) of at least dt/2")
    return tau_zq


def _zq_program_builder(
    cfg: ExperimentConfig, exp: Experiment, echo: bool, theta: float = 0.0
) -> Callable[[float], protocol.PulseProgram]:
    return partial(
        protocol.zq_chain,
        _tau_zq(cfg, exp),
        echo=echo,
        theta=theta,
        j_par=exp.params.j_par,
        noise_scope=cfg.text("sim", "noise_during"),
    )


def _zq_experiment(cfg: ExperimentConfig, exp: Experiment, echo: bool) -> Experiment:
    builder = _zq_program_builder(cfg, exp, echo)
    return replace(exp, program_builder=builder, times=_tau_grid(cfg, exp.sim.dt))


def half_excess_detuning(values: list[float], etas: list[float]) -> float:
    """|delta B| where the enhancement excess eta - 1 first falls to half
    its zero-detuning value, by linear interpolation over |delta B|.

    An infinite eta counts as above half but gives no value to interpolate
    from: when the last point above half is infinite, the result is the
    first |delta B| at or below half, the upper end of the bracket."""
    pairs = sorted((abs(v), e) for v, e in zip(values, etas))
    if not pairs or pairs[0][0] != 0.0:
        raise ValueError("need a delta_b = 0 point to define the peak excess")
    peak = pairs[0][1] - 1.0
    if not math.isfinite(peak):
        raise ValueError("peak enhancement unresolved; extend the delay range")
    if peak <= 0:
        raise ValueError("no enhancement at zero detuning")
    cross = analysis.first_crossing([b for b, _ in pairs], [e - 1.0 for _, e in pairs], peak / 2.0)
    return math.inf if cross is None else cross


# ---------------------------------------------------------------------------
# preset implementations: each computes its results from the config and the
# preset run's experiment, from which it derives every run, and hands them to
# the writer
# ---------------------------------------------------------------------------


def _preset_levels(cfg, exp, w):
    params = exp.params
    if params.j_coupling is None and (params.j_par or params.j_perp):
        raise ConfigError("levels preset needs params.j and params.theta, not params.j_par and params.j_perp")
    if not cfg.text("sweep", "variable"):  # no sweep given: 0.8 .. 1.2 B_m
        b_m = model.anticrossing_field(params)
        values = list(np.linspace(0.8 * b_m, 1.2 * b_m, 401))
    else:
        values = cfg.sweep_values("field")
        if len(values) < 2:
            raise ConfigError(f"levels preset needs at least 2 b_field values, got {len(values)}")
        if any(b >= c for b, c in zip(values, values[1:])):
            need = "sweep.values strictly ascending" if cfg.has("sweep", "values") else "sweep.start below sweep.stop"
            raise ConfigError(f"levels preset needs {need}")
    diagram = model.level_diagram(params, values)
    cols = [f"branch{i}_rad_s" for i in range(6)] + [f"branch{i}_shifted_rad_s" for i in range(6)]
    w.table(
        ["b_tesla", *cols],
        ((b, *diagram.branches[k], *diagram.shifted[k]) for k, b in enumerate(diagram.b_values)),
        notes={"master_seed": exp.sim.master_seed},
    )
    w.plot(
        diagram.b_values * 1e3,
        [(f"level {i}", diagram.shifted[:, i] / (2 * math.pi * 1e9)) for i in range(6)],
        "Energy levels vs field (shifted)",
        "B (mT)",
        "E / 2pi (GHz)",
    )
    w.summary({"anticrossing_field_T": model.anticrossing_field(params)})


def _preset_echo(cfg, exp, w, deer_mode=False):
    taus = _tau_grid(cfg, exp.sim.dt)
    exp = replace(exp, program_builder=_echo_program_builder(cfg, exp, deer_mode), times=taus)
    # the envelope runs first: its last anchor window starts at max(taus), so
    # the main trace renders a prefix of its draws. When that window is
    # dropped for low contrast the main trace is the longer one, and each
    # stream is drawn again
    t2, env = echo_coherence_time(exp, tau_max=max(taus), tau_min=min(taus))
    trace = engine.run(exp)
    w.trace(trace)
    w.trace(env, "_envelope")
    w.plot_signal(trace, "total evolution time 2 tau (us)", time_factor=2.0)
    summary = {"protocol": "deer" if deer_mode else "hahn_echo"}
    if not math.isfinite(t2):
        summary["t2"] = "no decay resolvable"
    else:
        summary["t2_s"] = t2
    w.summary(summary)


def _preset_field_sweep(cfg, exp, w):
    tau_min, tau_max = (_snap(cfg.number("sweep", key), exp.sim.dt) for key in ("tau_start", "tau_stop"))
    if not 0 < tau_min < tau_max:
        raise ConfigError("field_sweep needs 0 < tau_start < tau_stop on the dt grid")
    values = cfg.sweep_values("field")
    if not exp.sim.near_bm:
        raise ConfigError("field_sweep expects sim.near_bm = true")
    named: dict[str, float] = {}  # each point by the suffix of its envelope CSV
    for db in values:
        if (name := f"_db_{db * 1e6:+.3f}uT") in named:
            raise ConfigError(f"sweep delta_b values {named[name]!r} T and {db!r} T both write {w.label}{name}.csv")
        named[name] = db
    exp = replace(exp, program_builder=_echo_program_builder(cfg, exp, deer_mode=False))
    # echo_coherence_time at every point: the anchor windows do not depend
    # on delta_b, so the noise-free references are one sweep over shared
    # programs; the noisy runs keep their order, so each stream is drawn once
    windows = _anchor_windows(exp, tau_max, tau_min, _ANCHORS)
    references = engine.sweep("delta_b", values, _noise_free(exp, windows))
    points = []
    for (name, db), clean in zip(named.items(), references):
        point = replace(exp, sim=replace(exp.sim, delta_b=float(db)))
        t2, env = _envelope(point, windows, clean)
        points.append((float(db), t2))
        w.trace(env, name, sweep_value=float(db))
    # the far reference runs last: the points' draws then cover its paths,
    # so each stream is drawn once (a longer path would redraw)
    t2_far = _far_reference(replace(exp, sim=replace(exp.sim, delta_b=0.0)), tau_max, tau_min)
    rows = [
        (db, t2, analysis.enhancement_ratio(t2, t2_far) if math.isfinite(t2) else math.inf)
        for db, t2 in points
    ]
    w.table(["delta_b_T", "t2_s", "eta"], rows, notes={"t2_far_s": t2_far})
    w.plot_lifetimes(
        [(db, t2) for db, t2, _ in rows],
        "T2",
        "Echo coherence time vs detuning",
        "delta B (uT)",
        x_scale=1e6,
    )
    summary = {"t2_far_s": t2_far, "points": len(rows)}
    try:
        summary["half_excess_detuning_T"] = half_excess_detuning(
            [r[0] for r in rows], [r[2] for r in rows]
        )
    except ValueError as exc:  # no zero-detuning point, or no resolved peak
        summary["half_excess_detuning"] = str(exc)
    w.summary(summary)


def _preset_pol_transfer(cfg, exp, w):
    tau_zq = _tau_zq(cfg, exp)
    prog = protocol.polarization_transfer(tau_zq, exp.params.j_par)
    quiet = FluctuatorConfig(beta_rms=0.0)
    traj = sample_magnetic_trajectory(quiet, prog.total_duration, exp.sim.dt, stream_id=0)
    rho = engine.propagate(engine.initial_state(), prog, exp.params, traj, exp.sim)
    fidelity = float(rho[2, 2].real)  # the population of |0,-1/2>
    w.summary({"tau_zq_s": tau_zq, "noise_free_fidelity": fidelity})


def _preset_zq_decay(cfg, exp, w):
    trace = engine.run(_zq_experiment(cfg, exp, echo=True))
    # the one lifetime outside analysis.coherence_time: its SEM floor can give inf
    # at 4 trajectories, where the benchmark's smoke check needs a finite t2_zq_s
    try:
        fit = analysis.fit_stretched_exponential(trace)
    except analysis.FlatTraceError:
        fit = None
    w.trace(trace, fit=fit)
    w.plot_signal(trace, "zero-quantum evolution time 2 tau~ (us)", time_factor=2.0)
    summary = {}
    if fit is None:
        summary["t2_zq"] = "no decay resolvable"
    else:
        summary["t2_zq_s"] = 2.0 * fit.t2  # trace axis is tau~, decay vs 2 tau~
        summary["stretch_n"] = fit.stretch_n
    w.summary(summary)


def _preset_xi_sweep(cfg, exp, w):
    values = cfg.sweep_values("none", 0.0, 1.0)
    exp = _zq_experiment(cfg, exp, echo=True)
    traces = engine.sweep("xi", values, exp)
    t2_sq = _far_reference(replace(exp, noise=replace(exp.noise, xi=0.0)), 60e-6)
    # the decay runs over the total evolution time 2 tau~
    points = [(v, 2.0 * analysis.coherence_time(tr)[0]) for v, tr in zip(values, traces)]
    w.table(["xi", "t2_zq_s"], points, notes={"t2_sq_reference_s": t2_sq})
    w.plot_lifetimes(points, "T2_ZQ", "Zero-quantum lifetime vs noise imbalance", "xi")
    w.summary({"t2_sq_reference_s": t2_sq})


def _preset_electrometry(cfg, exp, w):
    values = cfg.sweep_values("efield", 0.0)
    traces = engine.sweep("eps_rms", values, _zq_experiment(cfg, exp, echo=False))
    # no inversion pulse in this variant: evolution time equals the sweep axis
    points = [(v, analysis.coherence_time(tr)[0]) for v, tr in zip(values, traces)]
    w.table(["eps_rms_V_per_m", "t2_zq_s"], points)
    w.plot_lifetimes(points, "T2_ZQ", "Zero-quantum lifetime vs electric noise", "eps_rms (V/m)")
    w.summary({"points": len(points)})


def _preset_thermometry(cfg, exp, w):
    params, dt = exp.params, exp.sim.dt
    if params.ddelta_dT == 0.0:  # no temperature follows from a shift
        raise ConfigError("thermometry preset needs params.ddelta_dt nonzero")
    delta_temp = cfg.number("sweep", "delta_temp")
    delta_omega_true = model.thermal_shift(delta_temp, params)
    if cfg.has("sweep", "window"):
        window = cfg.number("sweep", "window")
    elif delta_omega_true != 0.0:
        window = 0.25 / abs(delta_omega_true)
    else:
        window = 5e-6
    times = sorted({_snap(t, dt) for t in np.linspace(window / 12, window, 12)})
    if len(times) < 4:
        raise ConfigError("thermometry window too short for the dt grid")
    builder = _zq_program_builder(cfg, exp, echo=False, theta=math.pi / 2)
    trace = engine.run(replace(exp, program_builder=builder, times=times, delta_temp=delta_temp))
    delta_omega_est = analysis.slope_frequency(trace, window)
    delta_temp_est = analysis.temperature_shift(delta_omega_est, params)
    w.trace(trace)
    w.plot_signal(trace, "tau~ (us)")
    w.summary(
        {
            "delta_omega_true_rad_s": delta_omega_true,
            "delta_omega_est_rad_s": delta_omega_est,
            "delta_temp_true_K": delta_temp,
            "delta_temp_est_K": delta_temp_est,
        }
    )


def _preset_custom(cfg, exp, w):
    path = cfg.text("experiment", "program")
    if not path:
        raise ConfigError("custom preset needs experiment.program = <file>")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read program file {path}: {exc}") from exc
    try:
        prog = protocol.program_from_text(text)
    except ValueError as exc:  # names the line it cannot parse
        raise ConfigError(f"program file {path}: {exc}") from exc
    # the program is fixed: a single averaged point on a dummy sweep axis
    trace = engine.run(replace(exp, program_builder=lambda _t: prog, times=[0.0]))
    w.trace(trace)
    w.summary({"signal_mean": trace.signal_mean[0], "signal_sem": trace.signal_sem[0]})


class _Preset(NamedTuple):
    """A preset's runner, the keys it ``reads`` and the one sweep.variable
    whose axis it parses, "" for none. ``run_preset`` refuses a non-default
    [noise], [sim], tau_*, delta_temp, window or program key outside
    ``reads``. Outside the rule: [params], one description of the dyad (the
    rotating frame drops params.delta: physics, not a config mistake);
    [output] and experiment.label, which say where artifacts go; the sweep
    axis keys, which have rules of their own."""

    run: Callable[[ExperimentConfig, Experiment, _Writer], None]
    reads: tuple[str, ...]
    variable: str = ""
    optional: bool = False  # it also runs with sweep.variable unset


# every engine run reads these, a sweep its swept key too: the axis overrides
# it, but a config may set it (configs/electrometry.cfg sets noise.eps_rms)
_ENGINE = tuple(f"noise.{k}" for k in ("beta_rms", "xi", "switch_rate", "eps_rms", "electric_rate"))
_ENGINE += tuple(f"sim.{k}" for k in ("trajectories", "dt", "seed", "near_bm", "delta_b"))
_TAU = ("sweep.tau_start", "sweep.tau_stop", "sweep.tau_count", "sweep.tau_spacing")
_ECHO, _ZQ = (*_ENGINE, *_TAU, "sim.shared_field"), (*_ENGINE, *_TAU, "sim.noise_during")

_PRESETS = {
    "levels": _Preset(_preset_levels, ("sim.seed",), "b_field", optional=True),  # the master_seed note
    "echo": _Preset(_preset_echo, _ECHO),
    "deer": _Preset(partial(_preset_echo, deer_mode=True), _ECHO),
    "field_sweep": _Preset(_preset_field_sweep, (*_ENGINE, *_TAU[:2], "sim.shared_field"), "delta_b"),
    "pol_transfer": _Preset(_preset_pol_transfer, ("sim.dt", "sim.near_bm", "sim.delta_b")),
    "zq_decay": _Preset(_preset_zq_decay, _ZQ),
    "xi_sweep": _Preset(_preset_xi_sweep, _ZQ, "xi"),
    "electrometry": _Preset(_preset_electrometry, _ZQ, "eps_rms"),
    "thermometry": _Preset(_preset_thermometry, (*_ENGINE, "sim.noise_during", "sweep.delta_temp", "sweep.window")),
    "custom": _Preset(_preset_custom, (*_ENGINE, "experiment.program")),
}


def run_preset(
    cfg: ExperimentConfig,
    out_dir: str | Path,
    seed: Optional[int] = None,
    trajectories: Optional[int] = None,
    threads: int = 1,
    plot: bool = True,
) -> str:
    """Execute a preset, write its artifacts under ``out_dir`` and return
    the lines of its summary file below the config echo. ``out_dir`` is
    made when the first artifact is written; a config error leaves none.
    An ``out_dir`` that is a file is a config error before any run.

    ``seed`` and ``trajectories`` override the config; they are written
    into a copy of ``cfg.resolved``, so the config echo records them and
    ``cfg`` itself is left as it was.
    ``threads`` is accepted for existing callers and ignored: all
    trajectories of a run are propagated as one batch.
    """
    if cfg.preset not in _PRESETS:
        raise ConfigError(f"unknown preset {cfg.preset!r}; expected one of {tuple(_PRESETS)}")
    preset, variable = _PRESETS[cfg.preset], cfg.text("sweep", "variable")
    if variable != preset.variable and not (preset.optional and variable == ""):
        if preset.variable and not preset.optional:
            raise ConfigError(f"{cfg.preset} preset needs sweep.variable = {preset.variable}")
        swept = preset.variable or "no variable"
        raise ConfigError(f"{cfg.preset} preset sweeps {swept}, not sweep.variable = {variable}")
    ranged = cfg.has("sweep", "start") or cfg.has("sweep", "stop") or cfg.integer("sweep", "count")
    if not variable and (ranged or cfg.has("sweep", "values")):
        raise ConfigError("sweep.values, start, stop and count need sweep.variable")
    if not ranged and not cfg.is_default("sweep", "spacing"):
        raise ConfigError("sweep.spacing is read with sweep.start, stop and count only")
    for key in cfg.resolved:
        readers = [name for name, other in _PRESETS.items() if key in other.reads]
        if readers and key not in preset.reads and not cfg.is_default(*key.split(".")):
            *others, last = readers
            names = f"{', '.join(others)} and {last} presets" if others else f"{last} preset"
            raise ConfigError(f"{key} is read by the {names} only, not by {cfg.preset}")
    cfg = replace(cfg, resolved=dict(cfg.resolved))
    cfg.resolved["sim.seed"] = str(cfg.integer("sim", "seed") if seed is None else seed)
    if trajectories is not None:
        cfg.resolved["sim.trajectories"] = str(trajectories)
    label = cfg.text("experiment", "label") or cfg.preset
    if "/" in label or os.sep in label:
        raise ConfigError(f"experiment.label must be a file name, got {label!r}")
    exp = _experiment(cfg, label)
    writer = _Writer(cfg, Path(out_dir), label, plot)
    preset.run(cfg, exp, writer)
    return writer.summary_text
