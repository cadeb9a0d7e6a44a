"""Trajectory propagation, averaging, determinism, and convergence."""

import io
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from spindyad import engine, model
from spindyad.analysis import FitResult
from spindyad.engine import (
    Experiment,
    SimConfig,
    SimulationError,
    TimeTrace,
    initial_state,
    propagate,
    run,
    sweep,
    trace_to_csv,
    zq_state,
)
from spindyad.linalg import reduced_operators
from spindyad.model import DyadParams
from spindyad.noise import FluctuatorConfig, sample_magnetic_trajectory
from spindyad.protocol import (
    Axis,
    Delay,
    PulseProgram,
    Repump,
    Rotation,
    Target,
    hahn_echo,
    rotation_unitary,
    zq_block,
    zq_chain,
)

# the explain phase runs only after a failure, and can report an error of
# its own in place of the falsifying example
NO_EXPLAIN = tuple(p for p in Phase if p is not Phase.explain)

DT = 1e-8
J_PAR = 50e3
PARAMS = DyadParams(j_par=J_PAR, j_perp=J_PAR)
QUIET = FluctuatorConfig(beta_rms=0.0, xi=0.0, switch_rate=1e5)
NOISY = FluctuatorConfig(beta_rms=1e-6, xi=0.5, switch_rate=1e5)


def quiet_traj(duration):
    return sample_magnetic_trajectory(QUIET, duration, DT, 0)


class TestPropagate:
    def test_empty_program_returns_state(self):
        sim = SimConfig(n_trajectories=1, dt=DT)
        rho0 = initial_state()
        rho = propagate(rho0, PulseProgram(()), PARAMS, quiet_traj(0.0), sim)
        assert np.array_equal(rho, rho0)

    def test_transfer_reaches_initialized_state(self):
        from spindyad.protocol import polarization_transfer

        sim = SimConfig(n_trajectories=1, dt=DT)
        tau = 1.0 / (4 * J_PAR)
        prog = polarization_transfer(tau, J_PAR)
        rho = propagate(initial_state(), prog, PARAMS, quiet_traj(prog.total_duration), sim)
        assert float(np.real(rho[2, 2])) >= 0.999

    def test_zq_state_preserved_under_strong_global_noise(self):
        # exact commutation: shared-field noise of any amplitude leaves the
        # protected state untouched over 200 us
        cfg = FluctuatorConfig(beta_rms=100e-6, xi=0.0, switch_rate=1e5)
        traj = sample_magnetic_trajectory(cfg, 200e-6, 1e-9, 7, seed=42)
        sim = SimConfig(n_trajectories=1, dt=1e-9)
        prog = zq_block(200e-6, echo=False)
        rho = propagate(zq_state(), prog, PARAMS, traj, sim)
        assert np.max(np.abs(rho - zq_state())) < 1e-9

    def test_trajectory_shorter_than_program(self):
        sim = SimConfig(n_trajectories=1, dt=DT)
        prog = PulseProgram((Delay(2e-6),))
        with pytest.raises(SimulationError, match="shorter"):
            propagate(initial_state(), prog, PARAMS, quiet_traj(1e-6), sim)

    @pytest.mark.parametrize("near_bm", [False, True])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_short_path_raises_before_its_spans_are_read(self, near_bm, noisy):
        # a span the path cannot give must not surface as a KeyError; in the
        # two-delay program the first delay fits and the second ends at 70
        sim = SimConfig(n_trajectories=1, dt=DT, near_bm=near_bm)
        traj = engine.NoiseTrajectory(DT, np.full(50, 1e-7), np.full(50, -1e-7))
        for delays, need in (((100,), 100), ((30, 40), 70)):
            prog = PulseProgram(tuple(Delay(n * DT, noisy=noisy) for n in delays))
            with pytest.raises(SimulationError, match=rf"\(50 steps\) shorter than program \(needs {need}\)"):
                propagate(initial_state(), prog, PARAMS, traj, sim)

    @pytest.mark.parametrize("sim_dt", [2 * DT, DT / 2])
    def test_path_on_another_step_rejected(self, sim_dt):
        # a 200-step path at 10 ns is not propagated as if it were on sim.dt
        traj = sample_magnetic_trajectory(NOISY, 200 * DT, DT, 0)
        sim = SimConfig(n_trajectories=1, dt=sim_dt)
        prog = PulseProgram((Delay(100 * sim_dt),))
        with pytest.raises(SimulationError, match=f"dt = {DT:.6g} s, but sim.dt = {sim_dt:.6g} s"):
            propagate(initial_state(), prog, PARAMS, traj, sim)

    def test_off_grid_delay_rejected(self):
        sim = SimConfig(n_trajectories=1, dt=DT)
        prog = PulseProgram((Delay(1.23456e-8),))
        with pytest.raises(SimulationError, match="multiple"):
            propagate(initial_state(), prog, PARAMS, quiet_traj(1e-6), sim)

    def test_noise_free_delay_ignores_fields(self):
        ops = reduced_operators()
        n = 500
        cfg = FluctuatorConfig(beta_rms=50e-6, xi=1.0, switch_rate=1e5)
        traj = sample_magnetic_trajectory(cfg, n * DT, DT, 0, seed=9)
        sim = SimConfig(n_trajectories=1, dt=DT)
        params = DyadParams(j_par=0.0, j_perp=0.0)
        u = np.kron(np.eye(2), np.array([[1, -1j], [-1j, 1]]) / math.sqrt(2))
        rho0 = u @ initial_state() @ u.conj().T  # coherent superposition
        rho = propagate(rho0, PulseProgram((Delay(n * DT, noisy=False),)), params, traj, sim)
        assert np.max(np.abs(rho - rho0)) < 1e-12
        rho_noisy = propagate(rho0, PulseProgram((Delay(n * DT, noisy=True),)), params, traj, sim)
        assert np.max(np.abs(rho_noisy - rho0)) > 1e-3
        del ops

    def test_validation_catches_corruption(self):
        sim = SimConfig(n_trajectories=1, dt=DT)
        bad = initial_state() * 1.5
        with pytest.raises(AssertionError):
            propagate(bad, PulseProgram(()), PARAMS, quiet_traj(0.0), sim)


class TestSimConfig:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_outside_64_bits_rejected(self, seed):
        # a stream key holds 64 bits: a seed outside them would wrap onto another
        with pytest.raises(ValueError, match=r"master_seed must be in \[0, 2\*\*64\)"):
            SimConfig(master_seed=seed)


class TestRun:
    def _experiment(self, noise=NOISY, n_traj=20, times=(1e-6, 2e-6, 4e-6), **kw):
        sim = SimConfig(n_trajectories=n_traj, dt=DT, master_seed=5)
        return Experiment(
            params=PARAMS,
            noise=noise,
            sim=sim,
            program_builder=lambda tau: hahn_echo(tau),
            times=list(times),
            **kw,
        )

    def test_single_trajectory_zero_noise_equals_propagate(self):
        ops = reduced_operators()
        exp = self._experiment(noise=QUIET, n_traj=1)
        trace = run(exp)
        for t, s in zip(trace.times, trace.signal_mean):
            prog = hahn_echo(t)
            rho = propagate(
                initial_state(),
                prog,
                PARAMS,
                quiet_traj(prog.total_duration),
                exp.sim,
            )
            assert s == pytest.approx(float(np.real(np.trace(rho @ ops.proj_ms0))), abs=1e-12)
        assert np.all(trace.signal_sem == 0.0)

    def test_seed_changes_trace(self):
        exp = self._experiment(n_traj=8)
        other = Experiment(**{**exp.__dict__, "sim": SimConfig(n_trajectories=8, dt=DT, master_seed=6)})
        assert not np.array_equal(run(exp).signal_mean, run(other).signal_mean)

    def test_echo_refocuses_when_quiet(self):
        # zero noise and zero detuning: every echo returns the full signal
        exp = self._experiment(noise=QUIET, n_traj=1, times=(1e-6, 3e-6, 7e-6))
        trace = run(exp)
        assert np.max(np.abs(trace.signal_mean - 1.0)) < 1e-9

    def test_purity_of_averaged_state_non_increasing(self):
        # ensemble purity decays monotonically (within statistics) under
        # dephasing noise; probe via per-time averaged states
        sim = SimConfig(n_trajectories=64, dt=DT, master_seed=3)
        noise = FluctuatorConfig(beta_rms=2e-6, xi=1.0, switch_rate=1e5)
        durations = [0.0, 2e-6, 6e-6, 14e-6]
        u = np.kron(np.eye(2), np.array([[1, -1j], [-1j, 1]]) / math.sqrt(2))
        rho0 = u @ initial_state() @ u.conj().T
        purities = []
        for d in durations:
            acc = np.zeros((4, 4), dtype=complex)
            for i in range(sim.n_trajectories):
                traj = sample_magnetic_trajectory(noise, max(d, DT), DT, i)
                rho = propagate(rho0, PulseProgram((Delay(d),)), PARAMS, traj, sim)
                acc += rho
            acc /= sim.n_trajectories
            purities.append(float(np.real(np.trace(acc @ acc))))
        # averaged coherences carry O(1/sqrt(N)) residuals, so purity can
        # fluctuate upward by O(1/N) once fully dephased
        stat_tol = 3.0 / sim.n_trajectories
        assert all(b <= a + stat_tol for a, b in zip(purities, purities[1:]))

    def test_derived_experiment_shares_the_store(self, monkeypatch):
        from spindyad import noise

        exp = self._experiment(n_traj=6)
        run(exp)
        calls = []
        real = noise._stream_rng
        monkeypatch.setattr(noise, "_stream_rng", lambda *args: calls.append(args) or real(*args))
        louder = replace(NOISY, beta_rms=2e-6)
        derived = run(replace(exp, noise=louder))
        assert calls == []
        fresh = run(self._experiment(noise=louder, n_traj=6))
        assert len(calls) == 6
        assert np.array_equal(derived.signal_mean, fresh.signal_mean)
        assert np.array_equal(derived.signal_sem, fresh.signal_sem)

    def test_dt_bound_enforced(self):
        noise = FluctuatorConfig(beta_rms=5e-4, xi=0.0, switch_rate=1e5)
        exp = self._experiment(noise=noise, n_traj=1)
        with pytest.raises(SimulationError, match="eigenfrequency"):
            run(exp)

    def test_zero_amplitude_samples_nothing(self, monkeypatch):
        # a run with every amplitude zero reads and reduces no path, and its
        # noisy delays keep the bits of the same programs' noise-free ones
        def no_sampling(*args, **kwargs):
            raise AssertionError("a zero-amplitude channel was sampled")

        for name in ("sample_magnetic_trajectory", "sample_electric_trajectory", "held_fields", "_dq_spans"):
            monkeypatch.setattr(engine, name, no_sampling)

        def noise_free(tau):
            elements = hahn_echo(tau).elements
            return PulseProgram(tuple(replace(e, noisy=False) if isinstance(e, Delay) else e for e in elements))

        for near_bm in (False, True):
            exp = self._experiment(noise=QUIET, n_traj=3)
            exp = replace(exp, sim=replace(exp.sim, near_bm=near_bm))
            _, signals = engine._signals(exp)
            assert np.all(signals == signals[:, :1])
            assert np.array_equal(signals, engine._signals(replace(exp, program_builder=noise_free))[1])
        with pytest.raises(SimulationError, match="zero-amplitude"):
            run(self._experiment(n_traj=3))

    def test_one_propagate_call_per_walk(self, monkeypatch):
        # the three echo programs share one skeleton: one walk over them all
        calls = []
        real = engine.propagate

        def counting(rho0, program, *args, **kwargs):
            rho = real(rho0, program, *args, **kwargs)
            calls.append(rho.shape)
            return rho

        monkeypatch.setattr(engine, "propagate", counting)
        run(self._experiment(n_traj=20))
        assert calls == [(3, 20, 4, 4)]

    @pytest.mark.parametrize("near_bm", [False, True])
    def test_walk_checks_every_trajectory(self, near_bm):
        sim = SimConfig(n_trajectories=5, dt=DT, near_bm=near_bm)
        prog = PulseProgram((Delay(100 * DT),))
        coeffs = model.frame_coefficients(PARAMS, sim.delta_b, near_bm, 0.0)
        (walk,), spans, n_steps = engine._walks([prog], DT, 5)
        assert (spans, n_steps) == ([(0, 100)], 100)
        batch = engine._reduce([(None, None, None)] * 5, 5, DT, spans, coeffs)
        assert list(batch.spans) == [(0, 100)]
        if near_bm:
            batch.spans[(0, 100)][3] *= 1.5  # no longer unitary for trajectory 3
        else:
            batch.spans[(0, 100)][3, 0] = np.nan  # a NaN field sum for trajectory 3
        message = r"program 0, trajectory 3: state invariants violated after element Delay\(steps \[0, 100\), noisy=True\)"
        with pytest.raises(SimulationError, match=message):
            propagate(initial_state(), walk, PARAMS, batch, sim)

    def _rotation_walk(self):
        """A rotation then a delay, walked over two quiet trajectories."""
        sim = SimConfig(n_trajectories=2, dt=DT)
        prog = PulseProgram((Rotation(Target.SPIN_S, Axis.X, math.pi / 2), Delay(10 * DT)))
        (walk,), spans, _ = engine._walks([prog], DT, 2)
        coeffs = model.frame_coefficients(PARAMS, sim.delta_b, False, 0.0)
        batch = engine._reduce([(None, None, None)] * 2, 2, DT, spans, coeffs)
        return walk, batch, sim

    ROTATION_FAILED = (
        r"^program 0, trajectory 0: state invariants violated after element "
        r"Rotation\(target=<Target.SPIN_S: 's'>, axis=<Axis.X: 'x'>, angle=1.5707963267948966, "
        r"shared_field=False\): "
    )

    def test_non_unitary_rotation_names_the_rotation_and_both_deviations(self, monkeypatch):
        monkeypatch.setattr(engine, "rotation_unitary", lambda rot: 1.1 * rotation_unitary(rot))
        walk, batch, sim = self._rotation_walk()
        message = self.ROTATION_FAILED + r"\|trace - 1\| = 0.21, max \|rho - rho\^dagger\| = \S+$"
        with pytest.raises(SimulationError, match=message):
            propagate(initial_state(), walk, PARAMS, batch, sim)

    @pytest.mark.parametrize(
        "fault,deviations",
        [
            # imaginary diagonal entries of zero sum: the trace stays 1
            ({(0, 0): 1e-6j, (2, 2): -1e-6j}, r"\|trace - 1\| = 0, max \|rho - rho\^dagger\| = 2e-06$"),
            # 0 * nan is nan: the identity spreads it over row 1 and column 2
            ({(1, 2): np.nan}, r"\|trace - 1\| = nan, max \|rho - rho\^dagger\| = nan$"),
        ],
    )
    def test_state_fault_after_a_rotation_names_it(self, monkeypatch, fault, deviations):
        # the identity rotation keeps the one fault of the walk's initial
        # state, which propagate does not check
        monkeypatch.setattr(engine, "rotation_unitary", lambda rot: np.eye(4))
        rho0 = initial_state().astype(complex)
        for at, value in fault.items():
            rho0[at] += value
        walk, batch, sim = self._rotation_walk()
        with pytest.raises(SimulationError, match=self.ROTATION_FAILED + deviations):
            propagate(rho0, walk, PARAMS, batch, sim)

    def test_field_both_sites_see_is_summed_once(self, monkeypatch):
        # an electrometry-like run at xi = 0: per trajectory one sum of the
        # shared magnetic field, one of eps_z, and the span table of
        # distinct copies of the shared field
        sums, reduced = [], []
        real_sums, real_reduce = engine._span_sums, engine._reduce

        def reducing(paths, *args):
            paths = list(paths)
            reduced.append((paths, args))
            return real_reduce(iter(paths), *args)

        monkeypatch.setattr(engine, "_span_sums", lambda *a: sums.append(a) or real_sums(*a))
        monkeypatch.setattr(engine, "_reduce", reducing)
        noise = FluctuatorConfig(beta_rms=1e-6, xi=0.0, eps_rms=1e4)
        run(self._experiment(noise=noise, n_traj=2))
        assert len(sums) == 2 * 2
        ((paths, args),) = reduced
        assert all(beta is beta_p for beta, beta_p, _ in paths)
        shared = real_reduce(iter(paths), *args)
        distinct = real_reduce(((b, b.copy(), e) for b, _, e in paths), *args)
        assert list(shared.spans) == list(distinct.spans)
        assert all(np.array_equal(shared.spans[s], distinct.spans[s]) for s in shared.spans)

    def test_dq_spans_read_a_shared_field_once(self, monkeypatch):
        # a field both sites see is one pair, read once per chunk; a copy of
        # it is read again and gives the same propagators
        glob = (np.array([0, 7, 19]), np.array([1e-6, -2e-6, 0.5e-6]))
        eps_z = (np.array([0, 11]), np.array([3e4, -1e4]))
        other = (np.array([0, 3]), np.array([-1e-6, 2e-6]))
        copy = tuple(x.copy() for x in glob)
        c = model.frame_coefficients(PARAMS, 0.0, True, 0.0)
        k0, k1 = np.array([0, 5, 10]), np.array([30, 12, 20])
        reads = []
        real = engine._offset_pairs
        monkeypatch.setattr(engine, "_offset_pairs", lambda *a: reads.append(a) or real(*a))
        shared = engine._dq_spans([(glob, glob, eps_z), (other, other, eps_z)], k0, k1, c, DT)
        assert len(reads) == 2
        distinct = engine._dq_spans([(glob, copy, eps_z), (other, other, eps_z)], k0, k1, c, DT)
        assert len(reads) == 2 + 3
        assert np.array_equal(shared, distinct)

    @pytest.mark.parametrize("near_bm", [False, True])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_empty_delay_leaves_its_programs_states_as_they_were(self, near_bm, noisy):
        # the empty-delay programs walk no element, so a coherent state
        # comes back bit for bit; the 7-step delay moves it
        sim = SimConfig(n_trajectories=2, dt=DT, near_bm=near_bm)
        programs = [PulseProgram((Delay(n * DT, noisy=noisy),)) for n in (0, 7, 0)]
        walks, spans, _ = engine._walks(programs, DT, 2)
        assert [w.index.tolist() for w in walks] == [[0, 2], [1]]
        assert walks[0].elements == ()
        coeffs = model.frame_coefficients(PARAMS, sim.delta_b, near_bm, 0.0)
        batch = engine._reduce([(None, None, None)] * 2, 2, DT, spans, coeffs)
        u = rotation_unitary(Rotation(Target.SPIN_S, Axis.X, math.pi / 2))
        rho0 = u @ initial_state() @ u.conj().T
        rho = np.empty((3, 2, 4, 4), dtype=complex)
        for walk in walks:
            rho[walk.index] = propagate(rho0, walk, PARAMS, batch, sim)
        assert all(np.array_equal(r, rho0) for r in rho[[0, 2]].reshape(-1, 4, 4))
        assert (np.abs(rho[1] - rho0).max(axis=(-2, -1)) > 1e-3).all()

    def test_bad_initial_state_fails_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise RuntimeError("noise was sampled")

        monkeypatch.setattr(engine, "sample_magnetic_trajectory", no_sampling)
        monkeypatch.setattr(engine, "sample_electric_trajectory", no_sampling)
        rho0 = initial_state().astype(complex)
        rho0[0, 1] = 0.1j  # not Hermitian
        monkeypatch.setattr(engine, "initial_state", lambda: rho0)
        with pytest.raises(SimulationError, match="density matrix not Hermitian"):
            run(self._experiment(n_traj=3))

    def test_dq_work_does_not_grow_with_trajectories_and_spans(self, monkeypatch):
        counts = {}

        def counting(name):
            real = getattr(engine, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(engine, name, wrapper)

        counting("_dq_segment_unitaries")
        counting("assert_density_matrix")
        for n_traj, n_times in ((8, 22), (2, 8)):
            counts.clear()
            exp = self._experiment(n_traj=n_traj, times=np.arange(1, n_times + 1) * 0.25e-6)
            run(replace(exp, sim=replace(exp.sim, near_bm=True)))
            # one check of rho0 and one of the final stack of the one walk
            assert counts == {"_dq_segment_unitaries": 1, "assert_density_matrix": 2}

    def test_near_bm_without_j_perp_never_forms_a_dq_block(self, monkeypatch):
        # g = 2 pi j_perp sqrt(2) = 0 sends every delay, noisy or not, down
        # the diagonal path: _dq_segment_unitaries only ever sees g != 0
        calls = []
        real = engine._dq_segment_unitaries
        monkeypatch.setattr(engine, "_dq_segment_unitaries", lambda *a: calls.append(a) or real(*a))
        exp = self._experiment(n_traj=8)
        exp = replace(
            exp,
            program_builder=lambda tau: hahn_echo(tau) + PulseProgram((Delay(tau, noisy=False),)),
            sim=replace(exp.sim, delta_b=20e-6),
        )
        uncoupled = replace(exp, params=DyadParams(j_par=J_PAR, j_perp=0.0))
        far = run(uncoupled)
        near = run(replace(uncoupled, sim=replace(uncoupled.sim, near_bm=True)))
        assert calls == []
        assert np.array_equal(near.signal_mean, far.signal_mean)
        assert np.array_equal(near.signal_sem, far.signal_sem)
        run(replace(exp, sim=replace(exp.sim, near_bm=True)))  # j_perp != 0: the wrapper counts
        assert len(calls) == 2  # the noisy spans' blocks and the noise-free delay

    def test_metadata_echoes_settings(self):
        exp = self._experiment(n_traj=4)
        trace = run(exp)
        assert trace.metadata["n_trajectories"] == 4
        assert trace.metadata["xi"] == NOISY.xi
        assert trace.metadata["master_seed"] == 5


def frozen_dq_segment_unitaries(a, b, jpar_w, g_dq, t):
    """The engine's dense (n, 4, 4) segment exponential as first written,
    kept verbatim so that the reference below reads no engine code."""
    n = len(t)
    # diagonal energies: E(mt, mp) = a mt + b mp + jpar_w mt mp
    e1 = 0.5 * (-a + b) - 0.25 * jpar_w
    e2 = 0.5 * (a - b) - 0.25 * jpar_w
    mean = 0.25 * jpar_w  # (E0 + E3) / 2
    half_gap = 0.5 * (a + b)  # (E0 - E3) / 2
    omega = np.hypot(half_gap, g_dq)
    phase = np.exp(-1j * mean * t)
    c = np.cos(omega * t)
    s = np.sin(omega * t) / omega
    u = np.zeros((n, 4, 4), dtype=complex)
    u[:, 1, 1] = np.exp(-1j * e1 * t)
    u[:, 2, 2] = np.exp(-1j * e2 * t)
    u[:, 0, 0] = phase * (c - 1j * half_gap * s)
    u[:, 3, 3] = phase * (c + 1j * half_gap * s)
    u[:, 0, 3] = phase * (-1j * g_dq * s)
    u[:, 3, 0] = u[:, 0, 3]
    return u


def frozen_dq_propagator(path, k0, k1, c, dt):
    """The per-(path, span) double-quantum propagator as first written:
    the span's constant-noise segments of a dense path, multiplied one
    after the other as 4x4 matrices."""
    beta, beta_p, eps_z = (None if x is None else x[k0:k1] for x in path)
    change = np.zeros(k1 - k0 - 1, dtype=bool)
    for x in (beta, beta_p, eps_z):
        if x is not None:
            change |= np.diff(x) != 0
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    lengths = np.diff(np.concatenate((starts, [k1 - k0])))
    zero = np.zeros(starts.size)
    a = c.a0 + c.k_beta * (zero if beta is None else beta[starts])
    if eps_z is not None:
        a = a + c.k_eps * eps_z[starts]
    b = c.b0 + c.k_beta * (zero if beta_p is None else beta_p[starts])
    units = frozen_dq_segment_unitaries(a, b, c.j, c.g, lengths * dt)
    u_total = units[0]
    for i in range(1, units.shape[0]):
        u_total = units[i] @ u_total
    return u_total


def dense(u):
    """A compact (..., 6) unitary as its (..., 4, 4) matrix."""
    out = np.zeros(u.shape[:-1] + (4, 4), dtype=complex)
    for k, (i, j) in enumerate(((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0))):
        out[..., i, j] = u[..., k]
    return out


@st.composite
def dq_batches(draw):
    """Random piecewise-constant paths and noisy spans over a few shared
    boundaries: overlapping spans, one-step spans, spans ending on the last
    step, and switches on span boundaries."""
    n_steps = draw(st.integers(1, 80))
    cuts = sorted(draw(st.sets(st.integers(0, n_steps - 1), min_size=1, max_size=5)) | {n_steps})
    pairs = st.tuples(st.sampled_from(cuts), st.sampled_from(cuts)).filter(lambda s: s[0] < s[1])
    one_step = st.integers(0, n_steps - 1).map(lambda k: (k, k + 1))
    spans = draw(st.lists(st.one_of(pairs, one_step), min_size=1, max_size=8, unique=True))
    switch = st.one_of(st.sampled_from(cuts), st.integers(1, n_steps))
    level = st.one_of(st.sampled_from([0.0, 1e-6, -1e-6]), st.floats(-3e-6, 3e-6))

    def field():
        steps = sorted(draw(st.sets(switch, max_size=12)) - {0, n_steps})
        values = draw(st.lists(level, min_size=len(steps) + 1, max_size=len(steps) + 1))
        return np.repeat(values, np.diff([0, *steps, n_steps]))

    paths = [
        tuple(None if draw(st.booleans()) else field() for _ in range(3))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return n_steps, sorted(spans), paths


# A span of at most 80 steps has at most 80 segments; the serial product and
# the engine's prefix products round each entry by about 1e-16 per product,
# so they may differ by a few 1e-14 (the worst of 600 examples: 2.2e-15).
DQ_BLOCK_TOL = 1e-13


@settings(derandomize=True, phases=NO_EXPLAIN, deadline=None, max_examples=200)
@given(
    batch=dq_batches(),
    delta_b=st.sampled_from([0.0, 2e-6, -7e-6]),
    thermal=st.sampled_from([0.0, 3e4]),
    chunk=st.sampled_from([1, 5, engine._SEGMENT_CHUNK]),
)
def test_dq_blocks_match_the_frozen_propagator(batch, delta_b, thermal, chunk):
    _, spans, paths = batch
    params = DyadParams(j_par=0.75e6, j_perp=0.75e6)
    c = model.frame_coefficients(params, delta_b, True, thermal)
    with mock.patch.object(engine, "_SEGMENT_CHUNK", chunk):
        reduced = engine._reduce((engine._pairs(p) for p in paths), len(paths), DT, spans, c)
    whole = engine._reduce((engine._pairs(p) for p in paths), len(paths), DT, spans, c)
    # in a run every path has the same live fields, and then a chunk changes no bit
    alike = len({tuple(x is None for x in p) for p in paths}) == 1
    assert sorted(reduced.spans) == spans
    for (k0, k1), u in reduced.spans.items():
        assert u.shape == (len(paths), 6)
        assert np.array_equal(u, whole.spans[(k0, k1)]) or not alike
        for i, path in enumerate(paths):
            frozen = frozen_dq_propagator(path, k0, k1, c, DT)
            assert np.max(np.abs(dense(u[i]) - frozen)) <= DQ_BLOCK_TOL


def frozen_noisy_spans(programs, dt):
    """The per-program walk's span finder as it was before programs were
    walked together, kept verbatim with the walk below."""
    spans = set()
    longest = 0
    for prog in programs:
        k = 0
        for elem in prog.elements:
            if isinstance(elem, Delay):
                n = engine._delay_steps(elem, dt)
                if elem.noisy and n:
                    spans.add((k, k + n))
                k += n
        longest = max(longest, k)
    return sorted(spans), longest


def frozen_reduce(paths, n, n_steps, dt, spans, c):
    """The noise reduction with a dict of prefix sums keyed by step; the
    double-quantum blocks are the engine's, checked on their own above.
    A run with no live field reduces no path: its delays are noise-free."""
    paths = list(paths)
    live = any(x is not None for path in paths for x in path)
    spans = [s for s in spans if s[1] <= n_steps]
    steps = np.array(sorted({k for s in spans for k in s}) if c.g == 0.0 else [], dtype=int)
    pos = steps > 0
    sums = np.zeros((n, 3, steps.size))
    for i, path in enumerate(paths):
        for q, x in enumerate(path):
            if x is not None and pos.any():
                sums[i, q, pos] = np.cumsum(x[: steps[-1]])[steps[pos] - 1]
    prefix = {int(k): sums[:, :, m] for m, k in enumerate(steps)}
    blocks = {}
    if c.g != 0.0 and spans and live:
        blocks = engine._reduce((engine._pairs(p) for p in paths), n, dt, spans, c).spans
    return n, dt, n_steps, prefix, blocks, live


def frozen_delay(rho, elem, batch, k0, c):
    _, dt, n_steps, prefix, blocks, live = batch
    noisy = elem.noisy and live
    n = engine._delay_steps(elem, dt)
    k1 = k0 + n
    assert k1 <= n_steps
    if n == 0:
        return rho, k0
    if c.g == 0.0:
        if noisy:
            sum_beta, sum_beta_p, sum_eps_z = (prefix[k1] - prefix[k0]).T[..., None]
        else:
            sum_beta = sum_beta_p = sum_eps_z = 0.0
        a_int = dt * (n * c.a0) + dt * (c.k_beta * sum_beta + c.k_eps * sum_eps_z)
        b_int = dt * (n * c.b0) + dt * c.k_beta * sum_beta_p
        phases = a_int * engine._Z_TILDE + b_int * engine._Z_PRIME + c.j * n * dt * engine._Z_ZZ
        u_diag = np.exp(-1j * phases)
        return (u_diag[..., :, None] * rho) * u_diag.conj()[..., None, :], k1
    if noisy:
        u = blocks[(k0, k1)].T
    else:
        u = engine._dq_segment_unitaries(c.a0, c.b0, c.j, c.g, np.array([n * dt]))
    return engine._dq_apply(u, rho), k1


def frozen_propagate(rho0, program, batch, c):
    """One program walked on its own over the stack of all trajectories."""
    rho = np.repeat(np.asarray(rho0, dtype=complex)[None], batch[0], axis=0)
    k = 0
    for elem in program.elements:
        if isinstance(elem, Delay):
            rho, k = frozen_delay(rho, elem, batch, k, c)
        elif isinstance(elem, Rotation):
            u = rotation_unitary(elem)
            rho = u @ rho @ u.conj().T
        else:
            rho = engine._repump_state(rho)
    return rho


ROTATIONS = (
    Rotation(Target.SPIN_S, Axis.X, math.pi / 2),
    Rotation(Target.SPIN_S_PRIME, Axis.Y, -math.pi / 3),
    Rotation(Target.BOTH, Axis.X, math.pi, shared_field=True),
)


@st.composite
def mixed_runs(draw):
    """Programs of one to three skeletons (noisy and noise-free delays,
    rotations, repumps; a skeleton after the first is a new one or the
    first with its noisy flags and rotations redrawn), delays of zero and more steps,
    and one noise path per trajectory over the longest program."""
    kind = st.one_of(st.sampled_from([True, False]), st.sampled_from(ROTATIONS), st.just(Repump()))
    same = {bool: st.booleans(), Rotation: st.sampled_from(ROTATIONS), Repump: st.just(Repump())}
    skeletons = [draw(st.lists(kind, max_size=5))]
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            skeletons.append(draw(st.lists(kind, max_size=5)))
        else:
            skeletons.append([draw(same[type(e)]) for e in skeletons[0]])
    length = st.one_of(st.just(0), st.integers(1, 3), st.integers(0, 40))

    def program(skeleton):
        return PulseProgram(
            tuple(Delay(draw(length) * DT, noisy=e) if isinstance(e, bool) else e for e in skeleton)
        )

    picks = draw(st.lists(st.integers(0, len(skeletons) - 1), min_size=3, max_size=8))
    programs = [program(skeletons[i]) for i in picks]
    n_steps = frozen_noisy_spans(programs, DT)[1]
    n_traj = draw(st.integers(1, 3))
    level = st.one_of(st.just(0.0), st.floats(-1, 1))

    def field(scale):
        steps = sorted(k for k in draw(st.sets(st.integers(1, n_steps + 1), max_size=6)) if k < n_steps)
        values = draw(st.lists(level, min_size=len(steps) + 1, max_size=len(steps) + 1))
        return scale * np.repeat(values, np.diff([0, *steps, n_steps]))

    magnetic, electric = draw(st.booleans()), draw(st.booleans())
    paths = [
        (
            field(2e-6) if magnetic else None,
            field(2e-6) if magnetic else None,
            field(3e4) if electric else None,
        )
        for _ in range(n_traj)
    ]
    return programs, paths


@settings(derandomize=True, phases=NO_EXPLAIN, deadline=None, max_examples=200)
@given(
    run=mixed_runs(),
    near_bm=st.booleans(),
    delta_b=st.sampled_from([0.0, 2e-6, -7e-6]),
    delta_temp=st.sampled_from([0.0, 0.4]),
    cap=st.sampled_from([1, 3, engine._WALK_STATES]),
)
def test_stacked_walk_keeps_the_frozen_bits(run, near_bm, delta_b, delta_temp, cap):
    """Every program's final states from the stacked walks of ``_signals``
    equal, bit for bit, those of the program walked on its own."""
    programs, paths = run
    n_traj = len(paths)
    params = DyadParams(j_par=0.75e6, j_perp=0.75e6)
    u = np.kron(np.eye(2), np.array([[1, -1j], [-1j, 1]]) / math.sqrt(2))
    rho0 = u @ initial_state() @ u.conj().T
    magnetic, electric = paths[0][0] is not None, paths[0][2] is not None
    exp = Experiment(
        params=params,
        noise=FluctuatorConfig(
            beta_rms=1e-6 if magnetic else 0.0, xi=0.5, eps_rms=1e4 if electric else 0.0
        ),
        sim=SimConfig(n_trajectories=n_traj, dt=DT, near_bm=near_bm, delta_b=delta_b),
        program_builder=lambda t: programs[int(t)],
        times=[float(k) for k in range(len(programs))],
        delta_temp=delta_temp,
    )
    states, walks = {}, []
    real = engine.propagate

    def recording(rho0, walk, *args, **kwargs):
        rho = real(rho0, walk, *args, **kwargs)
        walks.append(len(walk.index))
        states.update(zip(walk.index.tolist(), rho))
        return rho

    def magnetic_path(cfg, duration, dt, stream_id, draws=None, seed=0):
        beta, beta_p, _ = paths[stream_id]
        return engine.NoiseTrajectory(dt, beta, beta_p)

    def electric_path(cfg, duration, dt, stream_id, draws=None, seed=0):
        return paths[stream_id][2]

    def held_path(cfg, duration, dt, stream_id, draws=None, seed=0):
        return engine._pairs(paths[stream_id])

    with mock.patch.multiple(
        engine,
        _WALK_STATES=cap,
        initial_state=lambda: rho0,
        propagate=recording,
        sample_magnetic_trajectory=magnetic_path,
        sample_electric_trajectory=electric_path,
        held_fields=held_path,
    ):
        _, signals = engine._signals(exp)
    assert sorted(states) == list(range(len(programs)))
    assert all(p * n_traj <= max(cap, n_traj) for p in walks)
    c = model.frame_coefficients(params, delta_b, near_bm, exp.thermal_shift)
    spans, n_steps = frozen_noisy_spans(programs, DT)
    batch = frozen_reduce(iter(paths), n_traj, n_steps, DT, spans, c)
    proj0 = reduced_operators().proj_ms0
    for k, prog in enumerate(programs):
        rho = frozen_propagate(rho0, prog, batch, c)
        assert np.array_equal(states[k], rho)
        assert np.array_equal(signals[k], np.real(np.trace(rho @ proj0, axis1=-2, axis2=-1)))


class TestAnticrossingBeating:
    def test_beat_sits_at_dq_gap_scale(self):
        # the noise-free echo response at the anti-crossing oscillates on
        # the scale set by the double-quantum hybridization; check the
        # zero-crossing density against that scale without pinning an
        # exact value
        j = 0.15e6
        params = DyadParams(j_par=j, j_perp=j)
        sim = SimConfig(n_trajectories=1, dt=DT, master_seed=1, near_bm=True)
        quiet = FluctuatorConfig(beta_rms=0.0, xi=0.0, switch_rate=1e5)
        taus = [round(t / DT) * DT for t in np.linspace(0.05e-6, 25e-6, 400)]
        exp = Experiment(
            params=params,
            noise=quiet,
            sim=sim,
            program_builder=lambda tau: hahn_echo(tau, Target.BOTH),
            times=taus,
        )
        trace = run(exp)
        dev = trace.signal_mean - 0.5
        crossings = int(np.count_nonzero(np.diff(np.sign(dev)) != 0))
        span = 2 * (taus[-1] - taus[0])
        f_scale = j / 2 + math.sqrt(2) * j  # fastest beat component
        expected = 2 * f_scale * span
        assert expected / 3 < crossings < expected * 3
        assert np.min(dev) < -0.2 and np.max(dev) > 0.2  # full-depth beating


class TestStepHalving:
    @pytest.mark.parametrize("near_bm", [False, True])
    def test_refined_noise_path_reproduces_signal(self, near_bm):
        # the propagator is exact for piecewise-constant noise, so
        # re-propagating the same noise path on a half step must agree
        ops = reduced_operators()
        params = DyadParams(j_par=0.75e6, j_perp=0.75e6)
        sim = SimConfig(n_trajectories=1, dt=DT, near_bm=near_bm, delta_b=2e-6)
        sim_fine = SimConfig(n_trajectories=1, dt=DT / 2, near_bm=near_bm, delta_b=2e-6)
        noise = FluctuatorConfig(beta_rms=1e-6, xi=0.5, switch_rate=1e5)
        prog = hahn_echo(4e-6, Target.BOTH if near_bm else Target.SPIN_S)
        diffs = []
        for i in range(50):
            traj = sample_magnetic_trajectory(noise, prog.total_duration, DT, i, seed=8)
            rho_a = propagate(initial_state(), prog, params, traj, sim)
            rho_b = propagate(initial_state(), prog, params, traj.refined(2), sim_fine)
            sa = float(np.real(np.trace(rho_a @ ops.proj_ms0)))
            sb = float(np.real(np.trace(rho_b @ ops.proj_ms0)))
            diffs.append(abs(sa - sb))
        assert max(diffs) < 1e-4

    def test_zq_chain_step_halving(self):
        ops = reduced_operators()
        sim = SimConfig(n_trajectories=1, dt=DT)
        sim_fine = SimConfig(n_trajectories=1, dt=DT / 2)
        tau = 1.0 / (4 * J_PAR)
        prog = zq_chain(tau, 20e-6, echo=True, theta=0.0, j_par=J_PAR)
        noise = FluctuatorConfig(beta_rms=1e-6, xi=0.7, switch_rate=1e5)
        for i in range(20):
            traj = sample_magnetic_trajectory(noise, prog.total_duration, DT, i, seed=2)
            sa = np.real(
                np.trace(propagate(initial_state(), prog, PARAMS, traj, sim) @ ops.proj_ms0)
            )
            sb = np.real(
                np.trace(
                    propagate(initial_state(), prog, PARAMS, traj.refined(2), sim_fine)
                    @ ops.proj_ms0
                )
            )
            assert abs(sa - sb) < 1e-4


class TestSweep:
    def _zq_experiment(self, **kw):
        tau = 1.0 / (4 * J_PAR)
        sim = SimConfig(n_trajectories=8, dt=DT, master_seed=2)
        return Experiment(
            params=PARAMS,
            noise=NOISY,
            sim=sim,
            program_builder=lambda tt: zq_chain(tau, tt, echo=True, theta=0.0, j_par=J_PAR),
            times=[5e-6, 10e-6],
            **kw,
        )

    def test_single_point_sweep_equals_run(self):
        exp = self._zq_experiment()
        res = sweep("xi", [NOISY.xi], exp)
        direct = run(exp)
        assert len(res) == 1
        assert np.array_equal(res[0].signal_mean, direct.signal_mean)

    def test_sweep_draws_each_stream_once_and_keeps_the_bits(self, monkeypatch):
        # xi = 0 reads only the global channel, yet its draw holds the
        # local channels too, so xi = 0.5 and xi = 1 read that draw
        from spindyad import noise

        calls = []
        real = noise._stream_rng
        monkeypatch.setattr(noise, "_stream_rng", lambda *args: calls.append(args) or real(*args))
        exp = self._zq_experiment()
        xis = [0.0, 0.5, 1.0]
        res = sweep("xi", xis, exp)
        assert len(calls) == exp.sim.n_trajectories
        for xi, trace in zip(xis, res):
            # a freshly built experiment, with a store of its own
            fresh = run(replace(self._zq_experiment(), noise=replace(NOISY, xi=xi)))
            assert np.array_equal(trace.signal_mean, fresh.signal_mean)
            assert np.array_equal(trace.signal_sem, fresh.signal_sem)

    def test_xi_sweep_applies_value(self):
        exp = self._zq_experiment()
        res = sweep("xi", [0.0, 1.0], exp)
        assert res[0].metadata["xi"] == 0.0
        assert res[1].metadata["xi"] == 1.0

    def test_unknown_variable(self):
        for variable in ("frequency", "beta_rms", "tau_tilde"):
            with pytest.raises(ValueError, match="unknown sweep variable"):
                sweep(variable, [1.0], self._zq_experiment())

    def test_sweep_builds_each_program_once(self):
        # no swept variable changes a program: one build per time, and an
        # unknown variable is refused before any build
        built = []
        tau = 1.0 / (4 * J_PAR)
        builder = lambda tt: built.append(tt) or zq_chain(tau, tt, echo=True, theta=0.0, j_par=J_PAR)
        exp = replace(self._zq_experiment(), program_builder=builder)
        with pytest.raises(ValueError, match="unknown sweep variable"):
            sweep("beta_rms", [1e-6], exp)
        assert built == []
        for variable, values in (("xi", [0.0, 0.5, 1.0]), ("delta_b", [0.0, 2e-6]), ("eps_rms", [0.0, 1e6])):
            built.clear()
            assert len(sweep(variable, values, exp)) == len(values)
            assert built == list(exp.times)

    @pytest.mark.parametrize("near_bm", [False, True])
    def test_delta_b_sweep_keeps_the_bits_of_run(self, near_bm):
        params = DyadParams(j_par=0.75e6, j_perp=0.75e6)
        exp = Experiment(
            params=params,
            noise=FluctuatorConfig(beta_rms=1e-6, xi=0.3, switch_rate=1e5, eps_rms=1e6, electric_rate=1e5),
            sim=SimConfig(n_trajectories=5, dt=DT, master_seed=4, near_bm=near_bm),
            program_builder=lambda tau: hahn_echo(tau, Target.BOTH),
            times=[0.5e-6, 1.5e-6, 4e-6],
        )
        values = [-8e-6, 0.0, 3e-6]
        for value, trace in zip(values, sweep("delta_b", values, exp)):
            alone = run(replace(exp, sim=replace(exp.sim, delta_b=value)))
            assert trace.metadata == alone.metadata and trace.metadata["delta_b"] == value
            assert np.array_equal(trace.signal_mean, alone.signal_mean)
            assert np.array_equal(trace.signal_sem, alone.signal_sem)

    def test_eps_sweep_with_channel(self):
        exp = replace(self._zq_experiment(), noise=replace(NOISY, eps_rms=1e6, electric_rate=1e5))
        res = sweep("eps_rms", [1e6, 2e6], exp)
        assert res[1].metadata["eps_rms"] == 2e6


class TestTraceCsv:
    def test_header_and_rows(self):
        trace = TimeTrace(
            times=np.array([1e-6, 2e-6]),
            signal_mean=np.array([1.0, 0.5]),
            signal_sem=np.array([0.0, 0.01]),
            metadata={"master_seed": 7, "xi": 0.5},
        )
        buf = io.StringIO()
        fit = FitResult(
            t2=2e-5, stretch_n=1.0, amplitude=0.5, offset=0.5, residual_rms=0.0, converged=True
        )
        trace_to_csv(trace, buf, sweep_value=0.25, fit=fit)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# master_seed = 7"
        assert lines[1] == "# xi = 0.5"
        assert lines[2] == "sweep_value,time_s,signal_mean,signal_sem"
        assert lines[3].startswith("0.25,9.9999999999999995e-07,1,")
        assert lines[-1].startswith("# fit: t2 = 2.0000000000000002e-05")

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            TimeTrace(times=np.array([1.0]), signal_mean=np.array([1.0, 2.0]), signal_sem=np.array([0.0]))
        with pytest.raises(ValueError):
            TimeTrace(times=np.array([1.0]), signal_mean=np.array([1.0]), signal_sem=np.array([-0.1]))
