"""The fast engine against an independent reference and analytic limits.

The reference propagator is deliberately naive: for every dt step it
exponentiates the full frame generator of ``model.sim_frame_hamiltonian``
at that step's noise fields, applies rotations through
``protocol.rotation_unitary`` and does its own repump as an explicit
partial trace. It uses none of the engine's delay paths (prefix sums of
the noise, closed-form double-quantum blocks), so agreement checks those
paths rather than the engine against itself.
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from spindyad import engine
from spindyad.engine import Experiment, SimConfig, _max_eigenfrequency, propagate, run
from spindyad.linalg import expm_hermitian, reduced_operators
from spindyad.model import DyadParams, frame_coefficients, sim_frame_hamiltonian
from spindyad.noise import (
    FluctuatorConfig,
    NoiseTrajectory,
    partition,
    sample_electric_trajectory,
    sample_magnetic_trajectory,
)
from spindyad.protocol import (
    Axis,
    Delay,
    PulseProgram,
    Repump,
    Rotation,
    Target,
    hahn_echo,
    rotation_unitary,
    zq_chain,
)

# the explain phase runs only after a failure, and can report an error of
# its own in place of the falsifying example
NO_EXPLAIN = tuple(p for p in Phase if p is not Phase.explain)

DT = 5e-8
SQRT3 = math.sqrt(3.0)
SETTINGS = settings(derandomize=True, phases=NO_EXPLAIN, deadline=None, max_examples=60)


def reference_repump(rho):
    """|0><0| on the spin-1 times the partner's reduced state, index by
    index: basis state 2 p + t has partner index p (slow) and fictitious
    spin index t, with t = 0 the m_S = 0 level."""
    out = np.zeros((4, 4), dtype=complex)
    for p in range(2):
        for q in range(2):
            out[2 * p, 2 * q] = rho[2 * p, 2 * q] + rho[2 * p + 1, 2 * q + 1]
    return out


def reference_propagate(rho0, program, params, traj, sim, thermal_shift):
    eps_z = np.zeros(traj.n_steps) if traj.eps_z is None else traj.eps_z
    rho = np.array(rho0, dtype=complex)
    k = 0
    for elem in program.elements:
        if isinstance(elem, Delay):
            for _ in range(int(round(elem.duration / traj.dt))):
                fields = (traj.beta_s[k], traj.beta_s_prime[k], eps_z[k]) if elem.noisy else (0, 0, 0)
                h = sim_frame_hamiltonian(
                    params, sim.delta_b, fields[0], fields[1], sim.near_bm,
                    eps_z=fields[2], thermal_shift=thermal_shift,
                )
                u = expm_hermitian(h, traj.dt)
                rho = u @ rho @ u.conj().T
                k += 1
        elif isinstance(elem, Rotation):
            u = rotation_unitary(elem)
            rho = u @ rho @ u.conj().T
        else:
            rho = reference_repump(rho)
    return rho


def held_path(rng, n, scale):
    """A piecewise-constant path: each step redraws with probability 0.3."""
    switch = rng.random(n) < 0.3
    switch[:1] = True
    idx = np.maximum.accumulate(np.where(switch, np.arange(n), 0))
    return rng.uniform(-scale, scale, n)[idx]


rotations = st.builds(
    Rotation,
    target=st.sampled_from(Target),
    axis=st.sampled_from(Axis),
    angle=st.floats(-2 * math.pi, 2 * math.pi),
    shared_field=st.booleans(),
)
delays = st.builds(
    lambda n, noisy: Delay(n * DT, noisy=noisy), st.integers(0, 12), st.booleans()
)
programs = st.lists(st.one_of(rotations, delays, st.just(Repump())), min_size=1, max_size=8)


@SETTINGS
@given(
    elements=programs,
    seed=st.integers(0, 2**32 - 1),
    near_bm=st.booleans(),
    electric=st.booleans(),
    j_par=st.floats(-1e6, 1e6),
    j_perp=st.floats(-1e6, 1e6),
    delta_b=st.floats(-50e-6, 50e-6),
    thermal_shift=st.floats(-2e6, 2e6),
)
def test_engine_matches_reference(
    elements, seed, near_bm, electric, j_par, j_perp, delta_b, thermal_shift
):
    rng = np.random.default_rng(seed)
    program = PulseProgram(elements)
    n = int(round(program.total_duration / DT)) + 3
    traj = NoiseTrajectory(
        dt=DT,
        beta_s=held_path(rng, n, 3e-6),
        beta_s_prime=held_path(rng, n, 3e-6),
        eps_z=held_path(rng, n, 1e7) if electric else None,
    )
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0)
    params = DyadParams(j_par=j_par, j_perp=j_perp)
    sim = SimConfig(n_trajectories=1, dt=DT, near_bm=near_bm, delta_b=delta_b)
    fast = propagate(rho0, program, params, traj, sim, thermal_shift=thermal_shift)
    slow = reference_propagate(rho0, program, params, traj, sim, thermal_shift)
    assert np.max(np.abs(fast - slow)) < 1e-10


def test_long_dq_spans_match_reference():
    """Near the anti-crossing at J = 0.75 MHz, paths redrawn every few
    steps over 1600 steps: delays and noisy spans of hundreds of segments,
    spans that start late in a path and overlap, through ``propagate`` and
    through ``_reduce`` of two paths at once, against the per-step
    reference at the bound of the test above."""
    rng = np.random.default_rng(32)
    n = 1600
    params = DyadParams(j_par=0.75e6, j_perp=0.75e6)
    sim = SimConfig(n_trajectories=2, dt=DT, near_bm=True, delta_b=3e-6)
    thermal_shift = 4e4
    trajs = [
        NoiseTrajectory(
            dt=DT,
            beta_s=held_path(rng, n, 3e-6),
            beta_s_prime=held_path(rng, n, 3e-6),
            eps_z=held_path(rng, n, 1e7),
        )
        for _ in range(2)
    ]
    assert all(np.count_nonzero(np.diff(t.beta_s)) > 400 for t in trajs)
    program = PulseProgram((
        Rotation(Target.BOTH, Axis.X, math.pi / 2),
        Delay(700 * DT),
        Rotation(Target.BOTH, Axis.X, math.pi),
        Delay(800 * DT),
        Delay(50 * DT, noisy=False),
        Rotation(Target.SPIN_S, Axis.Y, math.pi / 2),
    ))
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0)
    fast = propagate(rho0, program, params, trajs[0], sim, thermal_shift=thermal_shift)
    slow = reference_propagate(rho0, program, params, trajs[0], sim, thermal_shift)
    assert np.max(np.abs(fast - slow)) < 1e-10

    spans = [(0, 1600), (900, 1600), (1000, 1500), (1200, 1600), (1499, 1500)]
    c = frame_coefficients(params, sim.delta_b, True, thermal_shift)
    pairs = [engine._pairs((t.beta_s, t.beta_s_prime, t.eps_z)) for t in trajs]
    batch = engine._reduce(pairs, 2, DT, spans, c)
    for i, traj in enumerate(trajs):
        steps = [
            expm_hermitian(
                sim_frame_hamiltonian(
                    params, sim.delta_b, traj.beta_s[k], traj.beta_s_prime[k], True,
                    eps_z=traj.eps_z[k], thermal_shift=thermal_shift,
                ),
                DT,
            )
            for k in range(n)
        ]
        for k0, k1 in spans:
            u = np.eye(4, dtype=complex)
            for k in range(k0, k1):
                u = steps[k] @ u
            compact = batch.spans[(k0, k1)][i]
            fast = np.zeros((4, 4), dtype=complex)
            for value, (r, col) in zip(compact, ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0))):
                fast[r, col] = value
            assert np.max(np.abs(fast - u)) < 1e-10


@SETTINGS
@given(
    beta_rms=st.floats(0.0, 20e-6),
    xi=st.floats(0.0, 1.0),
    eps_rms=st.one_of(st.just(0.0), st.floats(0.0, 1e8)),
    near_bm=st.booleans(),
    j_par=st.floats(-1e6, 1e6),
    j_perp=st.floats(-1e6, 1e6),
    delta_b=st.floats(-50e-6, 50e-6),
    thermal_shift=st.floats(-2e6, 2e6),
)
def test_dt_bound_covers_noise_support(
    beta_rms, xi, eps_rms, near_bm, j_par, j_perp, delta_b, thermal_shift
):
    """The bound on the generator's eigenfrequencies holds at every corner
    of the uniform noise support, where the extreme eigenvalues sit."""
    params = DyadParams(j_par=j_par, j_perp=j_perp)
    noise = FluctuatorConfig(beta_rms=beta_rms, xi=xi, eps_rms=eps_rms)
    coeffs = frame_coefficients(params, delta_b, near_bm, thermal_shift)
    bound = _max_eigenfrequency(coeffs, noise)
    g_max, l_max = (SQRT3 * s for s in partition(xi, beta_rms))
    e_max = SQRT3 * eps_rms
    largest = 0.0
    for sg in (-1, 1):
        for sl in (-1, 1):
            for slp in (-1, 1):
                for se in (-1, 1):
                    h = sim_frame_hamiltonian(
                        params, delta_b, sg * g_max + sl * l_max, sg * g_max + slp * l_max,
                        near_bm, eps_z=se * e_max, thermal_shift=thermal_shift,
                    )
                    largest = max(largest, float(np.max(np.abs(np.linalg.eigvalsh(h)))))
    assert largest <= bound * (1 + 1e-12)


@pytest.mark.parametrize("xi", [0.0, 0.3])
def test_quasi_static_free_induction_decay(xi):
    """With J_par = 0 and a redraw rate far below 1/t, a pi/2 - t - pi/2
    sequence on spin S averages cos(|g|(beta_g + beta_l) t) over two
    independent uniform fields: 1/2 (1 - sinc(sqrt3 |g| s_g t) sinc(sqrt3 |g| s_l t))."""
    params = DyadParams(j_par=0.0, j_perp=0.0)
    noise = FluctuatorConfig(beta_rms=1e-6, xi=xi, switch_rate=1.0)
    half_pi = Rotation(Target.SPIN_S, Axis.X, math.pi / 2)
    times = [i * 1e-6 for i in range(1, 11)]
    exp = Experiment(
        params,
        noise,
        SimConfig(n_trajectories=2000, dt=1e-7, master_seed=3),
        lambda t: PulseProgram([half_pi, Delay(t), half_pi]),
        times,
    )
    trace = run(exp)
    sig_g, sig_l = partition(xi, noise.beta_rms)
    t = np.asarray(times)
    sinc = lambda s: np.sinc(SQRT3 * params.gamma_e * s * t / math.pi)
    expected = 0.5 * (1.0 - sinc(sig_g) * sinc(sig_l))
    z = (trace.signal_mean - expected) / trace.signal_sem
    assert np.max(np.abs(z)) <= 4.0


def resampled_signals(exp):
    """Per-trajectory readout from ``propagate`` on each trajectory's own
    noise path, sampled again from the streams ``run`` keys it to."""
    programs = [exp.program_builder(t) for t in exp.times]
    dt = exp.sim.dt
    duration = max(int(round(p.total_duration / dt)) for p in programs) * dt
    seed = exp.sim.master_seed
    proj0 = reduced_operators().proj_ms0
    out = np.empty((len(programs), exp.sim.n_trajectories))
    for i in range(exp.sim.n_trajectories):
        traj = sample_magnetic_trajectory(exp.noise, duration, dt, i, seed=seed)
        traj.eps_z = sample_electric_trajectory(exp.noise, duration, dt, i, seed=seed)
        for k, prog in enumerate(programs):
            rho = propagate(
                engine.initial_state(), prog, exp.params, traj, exp.sim, thermal_shift=exp.thermal_shift
            )
            out[k, i] = np.real(np.trace(rho @ proj0))
    return out


@pytest.mark.parametrize("near_bm", [False, True])
def test_run_is_propagate_per_trajectory(near_bm):
    """``run`` walks all trajectories as one stack; its per-trajectory
    signals equal ``propagate`` on each trajectory's own path, the unit the
    reference test checks. Bit for bit on the diagonal path; the
    double-quantum path multiplies the same matrices in a stack."""
    j_par = 0.75e6 if near_bm else 50e3
    params = DyadParams(j_par=j_par, j_perp=j_par)
    if near_bm:
        builder = lambda t: hahn_echo(t, Target.BOTH)
        times = [1e-6, 2.5e-6, 4e-6]
    else:
        tau_zq = round(1.0 / (4 * j_par) / 1e-8) * 1e-8
        builder = lambda t: zq_chain(tau_zq, t, echo=True, j_par=j_par)
        times = [1e-6, 3e-6, 8e-6]
    exp = Experiment(
        params,
        FluctuatorConfig(beta_rms=1e-6, xi=0.4, switch_rate=2e5, eps_rms=3e6, electric_rate=2e5),
        SimConfig(n_trajectories=6, dt=1e-8, master_seed=11, near_bm=near_bm, delta_b=2e-6),
        builder,
        times,
        delta_temp=0.0 if near_bm else 0.5,
    )
    _, batched = engine._signals(exp)
    single = resampled_signals(exp)
    if near_bm:
        assert np.max(np.abs(batched - single)) <= 1e-14
    else:
        assert exp.thermal_shift != 0.0
        assert np.array_equal(batched, single)
    assert np.ptp(batched, axis=1).max() > 1e-3  # the trajectories differ
