"""Preset orchestration: artifact generation at smoke scale."""

import importlib.util
import math
import re
from collections import Counter
from pathlib import Path

import pytest

from spindyad.cli import EXIT_CONFIG, EXIT_OK, main
from spindyad.presets import half_excess_detuning

COMMON = """
[params]
j_par = {j} kHz
j_perp = {j} kHz

[noise]
beta_rms = 1 uT
xi = 0

[sim]
trajectories = {traj}
seed = 11
{sim_extra}

[output]
plot = {plot}
"""


def run_cfg(tmp_path, body, name="smoke.cfg", extra_args=()):
    path = tmp_path / name
    path.write_text(body)
    out = tmp_path / "out"
    code = main(["--config", str(path), "--out", str(out), *extra_args])
    # every CSV and summary echoes the config, without the removed field key
    for artifact in (a for a in out.glob("*") if a.suffix in (".csv", ".txt")):
        echo = [l for l in artifact.read_text().splitlines() if l.startswith("# config ")]
        assert echo and not any(l.startswith("# config params.b_field") for l in echo)
    return code, out


# the deer config of the smoke test below, which tools/byte_matrix.py runs too
DEER_FAR = (
    "schema = 1\n[experiment]\npreset = deer\nlabel = deer_far\n"
    + COMMON.format(j=150, traj=24, sim_extra="", plot="true")
    + "\n[sweep]\ntau_start = 0.5 us\ntau_stop = 30 us\ntau_count = 10\n"
)


class TestEchoPresets:
    def test_deer_far_field(self, tmp_path):
        code, out = run_cfg(tmp_path, DEER_FAR)
        assert code == EXIT_OK
        assert (out / "deer_far.csv").exists()
        assert (out / "deer_far_envelope.csv").exists()
        assert (out / "deer_far.svg").exists()

    def test_echo_at_anticrossing(self, tmp_path):
        body = (
            "[experiment]\npreset = echo\nlabel = echo_bm\n"
            + COMMON.format(j=150, traj=24, sim_extra="near_bm = true", plot="false")
            + "\n[sweep]\ntau_start = 0.5 us\ntau_stop = 40 us\ntau_count = 10\n"
        )
        code, out = run_cfg(tmp_path, "schema = 1\n" + body)
        assert code == EXIT_OK
        summary = (out / "echo_bm_summary.txt").read_text()
        assert "t2" in summary

    @pytest.mark.parametrize("shared_field", ["false", "true"])
    def test_deer_at_anticrossing_writes_the_echo(self, tmp_path, shared_field):
        # near B_m one field addresses both spins, so both presets run the
        # Hahn echo on both spins; delays up to 300 us keep 8 usable ones
        # under the shared-field scaling
        lines = {}
        for preset in ("echo", "deer"):
            sim_extra = f"near_bm = true\nshared_field = {shared_field}"
            body = (
                f"schema = 1\n[experiment]\npreset = {preset}\nlabel = bm\n"
                + COMMON.format(j=150, traj=8, sim_extra=sim_extra, plot="false")
                + "\n[sweep]\ntau_start = 0.5 us\ntau_stop = 300 us\ntau_count = 10\n"
            )
            (tmp_path / preset).mkdir()
            code, out = run_cfg(tmp_path / preset, body)
            assert code == EXIT_OK
            lines[preset] = {
                name: [l for l in (out / name).read_text().splitlines() if not l.startswith("#")]
                for name in ("bm.csv", "bm_envelope.csv", "bm_summary.txt")
            }
        echo, deer = lines["echo"].pop("bm_summary.txt"), lines["deer"].pop("bm_summary.txt")
        assert lines["echo"] == lines["deer"]
        assert (echo[0], deer[0]) == ("protocol = hahn_echo", "protocol = deer")
        assert echo[1:] == deer[1:]

    def test_field_sweep(self, tmp_path):
        body = (
            "[experiment]\npreset = field_sweep\nlabel = fs\n"
            + COMMON.format(j=750, traj=30, sim_extra="near_bm = true", plot="false")
            + "\n[sweep]\nvariable = delta_b\nvalues = 0T, 8uT\n"
            + "tau_start = 0.5 us\ntau_stop = 120 us\n"
        )
        code, out = run_cfg(tmp_path, "schema = 1\n" + body)
        assert code == EXIT_OK
        text = (out / "fs.csv").read_text()
        rows = [l for l in text.splitlines() if l and not l.startswith(("#", "delta_b"))]
        assert len(rows) == 2
        assert (out / "fs_db_+0.000uT.csv").exists()
        assert (out / "fs_db_+8.000uT.csv").exists()

    def test_field_sweep_requires_near_bm(self, tmp_path):
        body = (
            "[experiment]\npreset = field_sweep\nlabel = fs\n"
            + COMMON.format(j=750, traj=8, sim_extra="near_bm = false", plot="false")
            + "\n[sweep]\nvariable = delta_b\nvalues = 0T\n"
        )
        code, _ = run_cfg(tmp_path, "schema = 1\n" + body)
        assert code == 2


class TestZeroQuantumPresets:
    def test_xi_sweep(self, tmp_path):
        body = (
            "[experiment]\npreset = xi_sweep\nlabel = xs\n"
            + COMMON.format(j=50, traj=20, sim_extra="", plot="false")
            + "\n[sweep]\nvariable = xi\nvalues = 0.25, 1.0\n"
            + "tau_start = 1 us\ntau_stop = 120 us\ntau_count = 10\n"
        )
        code, out = run_cfg(tmp_path, "schema = 1\n" + body)
        assert code == EXIT_OK
        text = (out / "xs.csv").read_text()
        assert "t2_sq_reference_s" in text
        rows = [l for l in text.splitlines() if l and not l.startswith(("#", "xi"))]
        assert len(rows) == 2

    def test_electrometry(self, tmp_path):
        body = (
            "[experiment]\npreset = electrometry\nlabel = el\n"
            + COMMON.format(
                j=50, traj=16, sim_extra="noise_during = evolution", plot="false"
            )
            + "\n[sweep]\nvariable = eps_rms\nvalues = 3000000 V_per_m, 10000000 V_per_m\n"
            + "tau_start = 1 us\ntau_stop = 120 us\ntau_count = 10\n"
        )
        code, out = run_cfg(tmp_path, "schema = 1\n" + body)
        assert code == EXIT_OK
        rows = [
            l
            for l in (out / "el.csv").read_text().splitlines()
            if l and not l.startswith(("#", "eps_rms"))
        ]
        t2s = [float(r.split(",")[1]) for r in rows]
        assert t2s[0] > t2s[1]

    def test_thermometry(self, tmp_path):
        body = (
            "[experiment]\npreset = thermometry\nlabel = th\n"
            + COMMON.format(
                j=50, traj=8, sim_extra="noise_during = evolution", plot="false"
            )
            + "\n[sweep]\ndelta_temp = -0.13467 K\n"
        )
        code, out = run_cfg(tmp_path, "schema = 1\n" + body)
        assert code == EXIT_OK
        summary = (out / "th_summary.txt").read_text()
        est = float(
            [l for l in summary.splitlines() if l.startswith("delta_omega_est")][0].split("=")[1]
        )
        assert est == pytest.approx(2 * math.pi * 1e4, rel=0.05)

    def test_electrometry_electric_stream_follows_master_seed(self, tmp_path, monkeypatch):
        # without [noise] eps_rms the sweep switches the electric channel on
        # itself; the engine keys its streams by the master seed
        from spindyad import engine

        seen = []
        real_sample = engine.sample_electric_trajectory

        def recording_sample(cfg, duration, dt, stream_id, draws=None, seed=0):
            seen.append(seed)
            return real_sample(cfg, duration, dt, stream_id, draws=draws, seed=seed)

        monkeypatch.setattr(engine, "sample_electric_trajectory", recording_sample)
        body = (
            "schema = 1\n[experiment]\npreset = electrometry\nlabel = el\n"
            + COMMON.format(j=50, traj=2, sim_extra="noise_during = evolution", plot="false")
            + "\n[sweep]\nvariable = eps_rms\nvalues = 10000000 V_per_m\n"
            + "tau_start = 1 us\ntau_stop = 40 us\ntau_count = 9\n"
        )
        streams = {}
        for seed in (5, 6):
            seen.clear()
            code, _ = run_cfg(tmp_path, body, extra_args=["--seed", str(seed)])
            assert code == EXIT_OK
            streams[seed] = set(seen)
        assert streams == {5: {5}, 6: {6}}

    def test_electrometry_reports_no_lifetime_at_slow_time_bound(self, tmp_path):
        # at 8 trajectories the weakest field's fit runs to the slow-time
        # bound, 50 x 400 us; that is an unresolved decay, not a lifetime
        config = Path(__file__).resolve().parent.parent / "configs" / "electrometry.cfg"
        out = tmp_path / "out"
        argv = ["--config", str(config), "--out", str(out), "--seed", "3",
                "--trajectories", "8", "--no-plot"]
        assert main(argv) == EXIT_OK
        rows = [
            l
            for l in (out / "electrometry.csv").read_text().splitlines()
            if l and not l.startswith(("#", "eps_rms"))
        ]
        t2s = [float(r.split(",")[1]) for r in rows]
        assert len(t2s) == 3
        assert math.inf in t2s
        assert not any(math.isfinite(t2) and t2 >= 49 * 400e-6 for t2 in t2s)

    def test_zq_decay_trajectory_override(self, tmp_path):
        body = (
            "[experiment]\npreset = zq_decay\nlabel = zq\n"
            + COMMON.format(j=50, traj=500, sim_extra="", plot="false").replace("xi = 0", "xi = 1.0")
            + "\n[sweep]\ntau_start = 1 us\ntau_stop = 60 us\ntau_count = 10\n"
        )
        code, out = run_cfg(tmp_path, "schema = 1\n" + body, extra_args=["--trajectories", "10"])
        assert code == EXIT_OK
        text = (out / "zq.csv").read_text()
        assert "# config sim.trajectories = 10" in text


ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


class TestNoiseDraws:
    """A preset run draws each noise stream once and renders it for every
    run that reads it."""

    def draws_per_stream(self, tmp_path, monkeypatch, name, stores=None, body=None):
        """Philox draws per (seed, stream, domain) of the shipped config
        ``name``, or of ``body`` when given; ``stores`` collects the draw
        store of every engine run (held, so no id is reused)."""
        from spindyad import engine, noise

        counts = Counter()
        real = noise._stream_rng
        real_signals = engine._signals

        def counting(seed, stream_id, domain):
            counts[seed, stream_id, domain] += 1
            return real(seed, stream_id, domain)

        def signals(exp, *layout):
            if stores is not None:
                stores.append(exp.draws)
            return real_signals(exp, *layout)

        monkeypatch.setattr(noise, "_stream_rng", counting)
        monkeypatch.setattr(engine, "_signals", signals)
        config = CONFIGS / f"{name}.cfg"
        if name == "deer" or body is not None:
            config = tmp_path / f"{name}.cfg"
            config.write_text(DEER_FAR if body is None else body)
        args = ["--config", str(config), "--out", str(tmp_path / "out")]
        assert main([*args, "--trajectories", "2", "--seed", "7", "--no-plot"]) == EXIT_OK
        return counts

    @pytest.mark.parametrize(
        "name",
        [
            "echo_anticrossing",
            "echo_reference",
            "electrometry",
            "field_sweep",
            "thermometry",
            "xi_sweep",
            "zq_decay",
            "deer",
        ],
    )
    def test_each_stream_is_drawn_once(self, tmp_path, monkeypatch, name):
        # every shipped config that samples noise, and the deer smoke config;
        # all runs of the preset read one store
        stores = []
        counts = self.draws_per_stream(tmp_path, monkeypatch, name, stores)
        assert counts and set(counts.values()) == {1}
        assert len({id(store) for store in stores}) == 1

    def test_electrometry_draws_each_stream_once(self, tmp_path, monkeypatch):
        # three eps_rms points, each reading a magnetic and an electric
        # stream per trajectory: 12 draws if each run drew its own
        counts = self.draws_per_stream(tmp_path, monkeypatch, "electrometry")
        assert sorted(counts) == [(7, i, d) for i in (0, 1) for d in (0, 1)]
        assert sum(counts.values()) == 4

    def test_field_sweep_draws_each_stream_once(self, tmp_path, monkeypatch):
        # the nine detuning points and the far reference read the same
        # magnetic streams over their own delays (20 draws if each run drew
        # its own); the far reference runs last, on paths no longer than the
        # points', so no stream is redrawn
        counts = self.draws_per_stream(tmp_path, monkeypatch, "field_sweep")
        assert counts == {(7, 0, 0): 1, (7, 1, 0): 1}

    def test_xi_sweep_from_zero_draws_each_stream_once(self, tmp_path, monkeypatch):
        # xi = 0 renders only the global channel, but its draw holds the
        # local channels that xi = 0.5 and 1 render too (a store of only
        # the rendered channels draws each stream twice); the far
        # reference reads shorter paths
        shipped = (CONFIGS / "xi_sweep.cfg").read_text()
        body = shipped.replace("values = 0.1, 0.25, 0.5, 0.75, 1.0", "values = 0, 0.5, 1.0")
        assert body != shipped
        counts = self.draws_per_stream(tmp_path, monkeypatch, "xi_sweep", body=body)
        assert counts == {(7, 0, 0): 1, (7, 1, 0): 1}


class TestAnchorScans:
    """Near the anti-crossing noise is read from the draw store, and
    field_sweep builds its anchor-scan programs once for all points."""

    @pytest.mark.parametrize("name", ["echo_anticrossing", "field_sweep"])
    def test_near_bm_runs_render_no_dense_path(self, tmp_path, monkeypatch, name):
        from spindyad import engine, noise

        near, rendered = [], Counter()
        real_run, real_render = engine.run, noise._render

        def run(exp, *layout):
            near.append(exp.sim.near_bm)
            try:
                return real_run(exp, *layout)
            finally:
                near.pop()

        def render(*args):
            if near[-1]:
                raise AssertionError("a near-B_m run rendered a dense path")
            rendered[near[-1]] += 1
            return real_render(*args)

        monkeypatch.setattr(engine, "run", run)
        monkeypatch.setattr(noise, "_render", render)
        args = ["--config", str(CONFIGS / f"{name}.cfg"), "--out", str(tmp_path / "out")]
        assert main([*args, "--trajectories", "2", "--seed", "7", "--no-plot"]) == EXIT_OK
        # field_sweep's far reference runs off the anti-crossing at xi = 0 and
        # renders the one field both sites see once for each of its two
        # trajectories
        assert rendered == ({False: 2} if name == "field_sweep" else {})

    def test_field_sweep_builds_each_anchor_program_once(self, tmp_path, monkeypatch):
        # the nine points' noise-free scans read the same delays: 9 builds of
        # each at one scan per point
        from spindyad import engine, protocol

        scans, taus = [], []
        real_hahn = protocol.hahn_echo

        def scanning(real, position):  # of the experiment among the arguments
            def call(*args):
                exp = args[position]
                scans.append(exp.sim.near_bm and exp.noise.beta_rms == 0.0)
                try:
                    return real(*args)
                finally:
                    scans.pop()

            return call

        def hahn_echo(tau, *args, **kwargs):
            if scans and scans[-1]:
                taus.append(tau)
            return real_hahn(tau, *args, **kwargs)

        monkeypatch.setattr(engine, "run", scanning(engine.run, 0))
        monkeypatch.setattr(engine, "sweep", scanning(engine.sweep, 2))
        monkeypatch.setattr(protocol, "hahn_echo", hahn_echo)
        args = ["--config", str(CONFIGS / "field_sweep.cfg"), "--out", str(tmp_path / "out")]
        assert main([*args, "--trajectories", "2", "--seed", "7", "--no-plot"]) == EXIT_OK
        assert len(set(taus)) > 200
        assert len(taus) == len(set(taus))


class TestEchoCoherenceTime:
    def test_recoupled_protocol_matches_echo_lifetime_far_from_anticrossing(self):
        # away from the anti-crossing the recoupled (partner-inverted)
        # protocol is modulated at the secular coupling but decays with
        # the same lifetime as the plain echo
        import numpy as np

        from spindyad.engine import Experiment, SimConfig
        from spindyad.model import DyadParams
        from spindyad.noise import FluctuatorConfig
        from spindyad.presets import echo_coherence_time
        from spindyad.protocol import deer, hahn_echo

        params = DyadParams(j_par=0.15e6, j_perp=0.15e6)
        noise = FluctuatorConfig(beta_rms=1e-6, xi=0.0, switch_rate=1e5)
        sim = SimConfig(n_trajectories=300, dt=1e-8, master_seed=5)
        t2 = {}
        for name, builder in (("hahn", hahn_echo), ("deer", lambda tau: deer(tau))):
            exp = Experiment(
                params=params,
                noise=noise,
                sim=sim,
                program_builder=builder,
                times=[0.0],
                label=name,
            )
            t2[name], env = echo_coherence_time(exp, tau_max=40e-6)
            assert np.all(np.isfinite(env.signal_mean))
        assert t2["deer"] == pytest.approx(t2["hahn"], rel=0.25)

    def test_a_contrast_tie_takes_the_earliest_delay(self, monkeypatch):
        # a plain echo's noise-free reference is 1 up to rounding residue:
        # residue that grows with the delay must not move the envelope off
        # each window's first delay, its anchor
        import numpy as np

        from spindyad import engine, presets
        from spindyad.engine import Experiment, SimConfig, TimeTrace
        from spindyad.model import DyadParams
        from spindyad.noise import FluctuatorConfig
        from spindyad.protocol import hahn_echo

        exp = Experiment(
            params=DyadParams(j_par=0.15e6, j_perp=0.15e6),
            noise=FluctuatorConfig(beta_rms=1e-6, xi=0.0, switch_rate=1e5),
            sim=SimConfig(n_trajectories=4, dt=1e-8, master_seed=5),
            program_builder=hahn_echo,
            times=[0.0],
        )
        windows = presets._anchor_windows(exp, 20e-6, 0.3e-6, presets._ANCHORS)
        times = np.array(sorted(set().union(*windows)))
        clean = TimeTrace(times, 1.0 + np.arange(times.size) * 2.0**-52, np.zeros(times.size))
        runs = []
        real_run = engine.run
        monkeypatch.setattr(engine, "run", lambda e: runs.append(list(e.times)) or real_run(e))
        presets._envelope(exp, windows, clean)
        assert runs == [sorted({w[0] for w in windows})]

    def test_anchor_scan_is_one_noise_free_run(self, monkeypatch):
        from spindyad import engine
        from spindyad.engine import Experiment, SimConfig
        from spindyad.model import DyadParams
        from spindyad.noise import FluctuatorConfig
        from spindyad.presets import echo_coherence_time
        from spindyad.protocol import Target, hahn_echo

        calls = []
        real_run = engine.run

        def counting_run(exp):
            calls.append(exp)
            return real_run(exp)

        monkeypatch.setattr(engine, "run", counting_run)
        exp = Experiment(
            params=DyadParams(j_par=0.75e6, j_perp=0.75e6),
            noise=FluctuatorConfig(beta_rms=1e-6, xi=0.0, switch_rate=1e5),
            sim=SimConfig(n_trajectories=4, dt=1e-8, master_seed=3, near_bm=True),
            program_builder=lambda tau: hahn_echo(tau, target=Target.BOTH),
            times=[0.0],
        )
        echo_coherence_time(exp, tau_max=20e-6)
        assert len(calls) == 2
        scan, noisy = calls
        assert scan.sim.n_trajectories == 1 and scan.noise.beta_rms == 0.0
        assert scan.noise.eps_rms == 0.0 and len(scan.times) > 22
        assert noisy.sim.n_trajectories == 4 and noisy.noise.beta_rms == 1e-6


class TestRegistry:
    @pytest.mark.parametrize(
        "preset,variable", [("field_sweep", "delta_b"), ("xi_sweep", "xi"), ("electrometry", "eps_rms")]
    )
    def test_wrong_sweep_variable_is_2(self, tmp_path, capsys, preset, variable):
        body = (
            f"[experiment]\npreset = {preset}\nlabel = w\n"
            + COMMON.format(j=50, traj=4, sim_extra="near_bm = true", plot="false")
            + "\n[sweep]\nvariable = tau\nvalues = 1 us\n"
        )
        code, _ = run_cfg(tmp_path, "schema = 1\n" + body)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: config: {preset} preset needs sweep.variable = {variable}\n"

    def test_shipped_and_matrix_configs_set_only_keys_their_preset_reads(self, tmp_path):
        # the byte matrix and the benchmark run these: none may hit the rule
        from spindyad.config import parse_config
        from spindyad.presets import _PRESETS

        spec = importlib.util.spec_from_file_location("byte_matrix", ROOT / "tools" / "byte_matrix.py")
        matrix = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(matrix)
        bodies = {p.stem: p.read_text() for p in CONFIGS.glob("*.cfg")} | matrix.EXTRA_CONFIGS
        assert len(bodies) == 11
        declared = set().union(*(p.reads for p in _PRESETS.values()))
        for name, body in bodies.items():
            (tmp_path / f"{name}.cfg").write_text(body)
            cfg = parse_config(tmp_path / f"{name}.cfg")
            unread = declared - set(_PRESETS[cfg.preset].reads)
            assert [k for k in sorted(unread) if not cfg.is_default(*k.split("."))] == [], name

    def test_schema_doc_table_is_what_each_preset_reads(self):
        # docs/config-schema.txt's table, its groups expanded, against _PRESETS
        from spindyad.presets import _PRESETS

        text = (ROOT / "docs" / "config-schema.txt").read_text()
        table = text.split("\nKeys each preset reads\n")[1].split("\nArtifacts\n")[0]
        rows, name = {}, None
        for line in table.splitlines():
            if row := re.match(r"  (\S+(?:, \S+)*)\s{2,}(\S.*)$", line):
                name, items = row.group(1), row.group(2)
                rows[name] = items
            elif name and line.startswith(" " * 16) and line.strip():
                rows[name] += " " + line.strip()
            else:
                name = None
        groups = {k: v for k, v in rows.items() if k.isupper()}

        def expand(items):
            for item in items.split(", "):
                yield from expand(groups[item]) if item in groups else (item,)

        documented = {
            preset: sorted(expand(items))
            for names, items in rows.items()
            if names not in groups
            for preset in names.split(", ")
        }
        assert documented == {name: sorted(p.reads) for name, p in _PRESETS.items()}


class TestRunPreset:
    def test_overrides_leave_the_callers_config_as_it_was(self, tmp_path):
        from spindyad.config import parse_config
        from spindyad.presets import run_preset

        cfg = parse_config(CONFIGS / "thermometry.cfg")
        before = dict(cfg.resolved)
        run_preset(cfg, tmp_path / "first", seed=5, trajectories=3, plot=False)
        assert cfg.resolved == before
        run_preset(cfg, tmp_path / "second", plot=False)
        echo = (tmp_path / "second" / "thermometry.csv").read_text()
        assert f"# config sim.seed = {before['sim.seed']}\n" in echo
        assert f"# config sim.trajectories = {before['sim.trajectories']}\n" in echo


    def test_config_defaults_are_the_library_defaults(self, tmp_path):
        # the defaults are written twice, as class fields and as schema text
        from spindyad.config import parse_config
        from spindyad.engine import SimConfig
        from spindyad.model import DyadParams
        from spindyad.noise import FluctuatorConfig
        from spindyad.presets import _experiment

        path = tmp_path / "bare.cfg"
        path.write_text("[experiment]\npreset = zq_decay\n")
        exp = _experiment(parse_config(path), "bare")
        assert (exp.params, exp.noise, exp.sim) == (DyadParams(), FluctuatorConfig(), SimConfig())


class TestHalfExcessDetuning:
    def test_interpolated_crossing(self):
        db = [0.0, 2e-6, 4e-6, 8e-6]
        eta = [21.0, 16.0, 6.0, 2.0]
        # peak excess 20 -> half 10, crossed between 2 and 4 uT
        cross = half_excess_detuning(db, eta)
        assert 2e-6 < cross < 4e-6

    def test_requires_zero_point(self):
        with pytest.raises(ValueError, match="delta_b = 0"):
            half_excess_detuning([1e-6, 2e-6], [5.0, 3.0])

    def test_no_enhancement(self):
        with pytest.raises(ValueError, match="no enhancement"):
            half_excess_detuning([0.0, 2e-6], [0.9, 0.8])

    def test_infinite_point_above_half_gives_the_bracket_end(self):
        # peak excess 2 -> half 1; the eta = inf point has no value to
        # interpolate from, so the crossing is the next point's |delta B|
        assert half_excess_detuning([0, 1e-6, 2e-6], [3.0, math.inf, 1.5]) == 2e-6

    def test_never_crossing(self):
        assert half_excess_detuning([0.0, 4e-6], [11.0, 10.0]) == math.inf
