"""Acceptance suite: one test per top-level criterion, each printing a
single pass/fail line (run with -s to see them live).

Exact algebraic identities are checked at tight tolerances; the
trajectory-averaged reproductions use the pinned desk-scale settings
(1 uT rms noise, 100 kHz fluctuators, at least 500 trajectories) with
banded tolerances, since the reference results are themselves
simulations without published seeds.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from spindyad import analysis, protocol
from spindyad.analysis import FlatTraceError, fit_stretched_exponential
from spindyad.cli import EXIT_OK, main
from spindyad.engine import (
    Experiment,
    SimConfig,
    TimeTrace,
    initial_state,
    propagate,
    run,
    zq_state,
)
from spindyad.linalg import expm_hermitian, reduced_operators
from spindyad.model import (
    DEFAULT_DELTA,
    DyadParams,
    anticrossing_field,
    coupling_from_distance,
    level_diagram,
    reduced_hamiltonian,
    sim_frame_hamiltonian,
)
from spindyad.noise import (
    FluctuatorConfig,
    NoiseTrajectory,
    empirical_xi,
    sample_magnetic_trajectory,
)
from spindyad.presets import echo_coherence_time
from spindyad.protocol import (
    Axis,
    Delay,
    PulseProgram,
    Rotation,
    Target,
    coc_closed_form,
    deer,
    hahn_echo,
    polarization_transfer,
    zq_block,
    zq_chain,
    zq_readout,
)

DT = 1e-8
SEED = 20260808
OPS = reduced_operators()

J_WEAK = 50e3
TAU_ZQ = 1.0 / (4.0 * J_WEAK)  # 5 us, on grid
PARAMS_WEAK = DyadParams(j_par=J_WEAK, j_perp=J_WEAK)
NOISE_1UT = FluctuatorConfig(beta_rms=1e-6, xi=0.0, switch_rate=1e5)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def snap(t: float) -> float:
    return max(1, int(round(t / DT))) * DT


def quiet_trajectory(duration: float) -> NoiseTrajectory:
    cfg = FluctuatorConfig(beta_rms=0.0, xi=0.0, switch_rate=1e5)
    return sample_magnetic_trajectory(cfg, duration, DT, 0)


def noise_free(rho0, program, params=PARAMS_WEAK, thermal_shift=0.0):
    sim = SimConfig(n_trajectories=1, dt=DT)
    traj = quiet_trajectory(program.total_duration)
    return propagate(rho0, program, params, traj, sim, thermal_shift=thermal_shift)


def static_imbalance_trajectory(duration, beta, beta_prime):
    n = int(round(duration / DT))
    return NoiseTrajectory(dt=DT, beta_s=np.full(n, beta), beta_s_prime=np.full(n, beta_prime))


def t2_from_trace(trace: TimeTrace, time_factor: float) -> float:
    scaled = TimeTrace(
        times=time_factor * trace.times,
        signal_mean=trace.signal_mean,
        signal_sem=trace.signal_sem,
    )
    try:
        return fit_stretched_exponential(scaled).t2
    except FlatTraceError:
        return math.inf


@pytest.fixture(scope="module")
def t2_sq_reference():
    """Far-from-anti-crossing echo lifetime, the shared baseline for the
    enhancement and zero-quantum comparisons (independent of the dipolar
    coupling, which the echo refocuses)."""
    exp = Experiment(
        params=DyadParams(j_par=0.15e6, j_perp=0.15e6),
        noise=NOISE_1UT,
        sim=SimConfig(n_trajectories=500, dt=DT, master_seed=SEED, near_bm=False),
        program_builder=lambda tau: hahn_echo(tau),
        times=[0.0],
        label="sq_reference",
    )
    t2, _ = echo_coherence_time(exp, tau_max=40e-6)
    assert math.isfinite(t2)
    return t2


class TestCriterion1ProtocolAlgebra:
    def test_exact_identities(self):
        ok = True
        details = []

        # (a) polarization transfer: intermediate and final states
        prog = polarization_transfer(TAU_ZQ, J_WEAK)
        rho_half = noise_free(initial_state(), PulseProgram(prog.elements[:4]))
        mid_expect = OPS.identity / 4.0 + OPS.tilde_x @ OPS.prime_z
        dev_mid = float(np.max(np.abs(rho_half - mid_expect)))
        rho_init = noise_free(initial_state(), prog)
        fidelity = float(np.real(rho_init[2, 2]))
        ok &= dev_mid < 1e-10 and fidelity >= 0.999
        details.append(f"transfer fidelity {fidelity:.6f}, mid-state dev {dev_mid:.1e}")

        # (b) conversion block equals its closed form
        h_free = sim_frame_hamiltonian(PARAMS_WEAK)
        u = np.eye(4, dtype=complex)
        for el in hahn_echo(TAU_ZQ, Target.BOTH).elements:
            if isinstance(el, Delay):
                u = expm_hermitian(h_free, el.duration) @ u
            elif isinstance(el, Rotation):
                u = protocol.rotation_unitary(el) @ u
        ref = coc_closed_form(TAU_ZQ, J_WEAK)
        u = u * np.exp(-1j * np.angle(np.trace(ref.conj().T @ u)))
        dev_coc = float(np.max(np.abs(u - ref)))
        ok &= dev_coc < 1e-10
        details.append(f"conversion-unitary dev {dev_coc:.1e}")

        # (c) protected-coherence commutator vanishes
        comm = OPS.zq_antisym @ OPS.zz - OPS.zz @ OPS.zq_antisym
        dev_comm = float(np.max(np.abs(comm)))
        ok &= dev_comm < 1e-14
        details.append(f"commutator {dev_comm:.1e}")

        # (d) static-imbalance quadrature rotations
        beta = 0.4e-6
        n = 1500
        tau = n * DT
        ang = PARAMS_WEAK.gamma_e * beta * tau
        sim = SimConfig(n_trajectories=1, dt=DT)
        traj = static_imbalance_trajectory(tau, beta, 0.0)
        rho = propagate(zq_state(), zq_block(tau, echo=False), PARAMS_WEAK, traj, sim)
        expect = (
            OPS.identity / 4.0
            + math.cos(ang) * OPS.zq_antisym
            + math.sin(ang) * OPS.zq_sym
            - OPS.zz
        )
        dev_rot = float(np.max(np.abs(rho - expect)))
        # I/4 + zq_sym/2 has eigenvalues 0, 1/4, 1/4 and 1/2: a state
        rho_sym = propagate(
            np.eye(4, dtype=complex) / 4.0 + OPS.zq_sym / 2.0,
            PulseProgram((Delay(tau),)),
            PARAMS_WEAK,
            traj,
            sim,
        )
        expect_sym = (
            np.eye(4) / 4.0 + (math.cos(ang) * OPS.zq_sym - math.sin(ang) * OPS.zq_antisym) / 2.0
        )
        dev_rot = max(dev_rot, float(np.max(np.abs(rho_sym - expect_sym))))
        ok &= dev_rot < 1e-10
        details.append(f"quadrature-rotation dev {dev_rot:.1e}")

        # (e) echo at equal delays recovers the zero-delay signal
        def echoed_signal(n1, n2):
            prog = (
                PulseProgram(
                    (Delay(n1 * DT), Rotation(Target.BOTH, Axis.X, math.pi), Delay(n2 * DT))
                )
                + zq_readout(TAU_ZQ, noisy=False)
            )
            traj = static_imbalance_trajectory(prog.total_duration, 0.8e-6, 0.0)
            rho = propagate(zq_state(), prog, PARAMS_WEAK, traj, sim)
            return float(np.real(np.trace(rho @ OPS.proj_ms0)))

        dev_echo = abs(echoed_signal(1200, 1200) - echoed_signal(0, 0))
        ok &= dev_echo < 1e-6
        details.append(f"echo recovery dev {dev_echo:.1e}")

        report(1, ok, "; ".join(details))
        assert ok

class TestCriterion2FieldIndependence:
    def test_gap_constant_over_field(self):
        p = DyadParams(j_par=J_WEAK, j_perp=J_WEAK)
        gaps = []
        for b in np.linspace(0.0, 0.2, 81):
            d = np.real(np.diag(reduced_hamiltonian(p, include_dq=False, b_field=b)))
            gaps.append(d[1] - d[2])
        gaps = np.asarray(gaps)
        rel_var = float(np.max(np.abs(gaps - gaps[0])) / abs(gaps[0]))
        expected = DEFAULT_DELTA - math.pi * J_WEAK
        ok = rel_var < 1e-12 and gaps[0] == pytest.approx(expected, rel=1e-12)
        report(2, ok, f"relative gap variation {rel_var:.2e} over [0, 0.2] T")
        assert ok


class TestCriterion3Anticrossing:
    def test_gap_minimum_and_flat_branches(self):
        p = DyadParams(j_coupling=0.2e6, theta=math.pi / 2)  # J_perp = -0.15 MHz
        b_m = anticrossing_field(p)
        step = 0.2e-6
        b_vals = b_m + step * np.arange(-400, 401)
        gaps = []
        for b in b_vals:
            vals = np.sort(np.linalg.eigvalsh(reduced_hamiltonian(p, True, b_field=b)))
            gaps.append(vals[2] - vals[1])
        b_min = float(b_vals[int(np.argmin(gaps))])
        loc_ok = abs(b_min - b_m) <= step

        h = 1e-3
        shifted = level_diagram(p, np.linspace(b_m - h, b_m + h, 41)).shifted
        mid = shifted[len(shifted) // 2]
        lower = np.argsort(mid)[:4]
        slopes = (shifted[-1, lower] - shifted[0, lower]) / (2 * h)
        slope_max = float(np.max(np.abs(slopes)))
        slope_ok = slope_max < 1e-6 * DEFAULT_DELTA
        ok = loc_ok and slope_ok
        report(
            3,
            ok,
            f"gap minimum off by {abs(b_min - b_m) * 1e9:.2f} nT (step {step * 1e9:.0f} nT), "
            f"max lower-branch slope {slope_max:.2e} rad/s/T vs {1e-6 * DEFAULT_DELTA:.2e}",
        )
        assert ok


class TestCriterion4CouplingDistance:
    def test_reference_separations(self):
        j4 = coupling_from_distance(4e-9)
        j10 = coupling_from_distance(10e-9)
        ok = abs(j4 / 0.75e6 - 1.0) <= 0.15 and abs(j10 / 50e3 - 1.0) <= 0.15
        report(4, ok, f"J(4 nm) = {j4 / 1e6:.3f} MHz, J(10 nm) = {j10 / 1e3:.1f} kHz")
        assert ok


class TestCriterion5AnticrossingProtection:
    def test_enhancement_window_and_protocol_coincidence(self, t2_sq_reference):
        start = time.monotonic()
        t2_far = t2_sq_reference

        def t2_at(j, delta_b):
            params = DyadParams(j_par=j, j_perp=j)
            exp = Experiment(
                params=params,
                noise=NOISE_1UT,
                sim=SimConfig(
                    n_trajectories=500, dt=DT, master_seed=SEED, near_bm=True, delta_b=delta_b
                ),
                program_builder=lambda tau: hahn_echo(tau, Target.BOTH),
                times=[0.0],
                label=f"bm_echo_j{j:g}_db{delta_b:g}",
            )
            t2, _ = echo_coherence_time(exp, tau_max=400e-6, n_points=20)
            return t2

        eta_015 = t2_at(0.15e6, 0.0) / t2_far
        etas = {db: t2_at(0.75e6, db) / t2_far for db in (0.0, 2e-6, 4e-6, 8e-6)}
        peak_excess = etas[0.0] - 1.0
        enhancement_ok = all(math.isfinite(eta) and eta > 1.0 for eta in (eta_015, etas[0.0]))

        # protection window: half-excess crossing within a factor of two
        # of the nominal 4 uT width
        ex2, ex8 = etas[2e-6] - 1.0, etas[8e-6] - 1.0
        window_ok = ex8 <= 0.5 * peak_excess and ex2 > 0.0
        half_cross = None
        prev_db, prev_ex = 0.0, peak_excess
        for db in (2e-6, 4e-6, 8e-6):
            ex = etas[db] - 1.0
            if ex <= 0.5 * peak_excess:
                frac = (prev_ex - 0.5 * peak_excess) / (prev_ex - ex)
                half_cross = prev_db + frac * (db - prev_db)
                break
            prev_db, prev_ex = db, ex
        window_ok &= half_cross is not None and 1e-6 <= half_cross <= 8e-6

        # the recoupled echo coincides with the Hahn echo on both spins: the
        # partner's pi/2 pulses act on its unpolarized initial state and
        # after the readout, and its pi pulse commutes with the spin-1's.
        # Noisy, near and far from the anti-crossing, on traces that move
        taus = sorted({snap(t) for t in np.geomspace(1e-6, 60e-6, 10)})
        coincide_dev, spans = 0.0, []
        for near_bm in (True, False):
            base = dict(
                params=DyadParams(j_par=0.75e6, j_perp=0.75e6),
                noise=replace(NOISE_1UT, xi=0.3),
                sim=SimConfig(n_trajectories=50, dt=DT, master_seed=SEED, near_bm=near_bm),
                times=taus,
            )
            hahn_trace = run(Experiment(program_builder=lambda tau: hahn_echo(tau, Target.BOTH), **base))
            deer_trace = run(Experiment(program_builder=deer, **base))
            dev = np.abs(hahn_trace.signal_mean - deer_trace.signal_mean)
            coincide_dev = max(coincide_dev, float(np.max(dev)))
            spans += [float(np.ptp(tr.signal_mean)) for tr in (hahn_trace, deer_trace)]
        coincide_ok = coincide_dev <= 1e-12 and min(spans) > 0.1

        elapsed = time.monotonic() - start
        ok = enhancement_ok and window_ok and coincide_ok and elapsed < 600
        report(
            5,
            ok,
            f"eta(0) = {etas[0.0]:.1f} @ 0.75 MHz, {eta_015:.1f} @ 0.15 MHz; "
            f"half-excess at {0.0 if half_cross is None else half_cross * 1e6:.1f} uT; "
            f"protocols coincide (max dev {coincide_dev:.2e}, min span {min(spans):.2f}); "
            f"{elapsed:.0f} s",
        )
        assert ok


class TestCriterion6ZeroQuantumLifetimes:
    def _zq_experiment(self, xi, beta_rms=1e-6, noise_scope="all", echo=True):
        noise = FluctuatorConfig(beta_rms=beta_rms, xi=xi, switch_rate=1e5)
        return Experiment(
            params=PARAMS_WEAK,
            noise=noise,
            sim=SimConfig(n_trajectories=500, dt=DT, master_seed=SEED),
            program_builder=lambda tt: zq_chain(
                TAU_ZQ, tt, echo=echo, theta=0.0, j_par=J_WEAK, noise_scope=noise_scope
            ),
            times=[0.0],
            label=f"zq_xi{xi:g}",
        )

    def test_protection_and_gradiometry(self, t2_sq_reference):
        start = time.monotonic()

        # exact flatness for shared noise of arbitrary amplitude, probed on
        # the protected stage itself (preparation and conversion noise-free)
        times = sorted({snap(t) for t in np.linspace(5e-6, 100e-6, 20)})
        flat_devs = []
        for beta in (1e-6, 100e-6):
            exp = replace(
                self._zq_experiment(0.0, beta_rms=beta, noise_scope="evolution"),
                times=times,
            )
            trace = run(exp)
            flat_devs.append(float(np.max(trace.signal_mean) - np.min(trace.signal_mean)))
        flat_ok = all(d < 1e-6 for d in flat_devs)

        # gradiometer response: lifetime monotone non-increasing in the
        # local-noise fraction
        xis = (0.1, 0.25, 0.5, 0.75, 1.0)
        times = sorted({snap(t) for t in np.geomspace(1e-6, 250e-6, 20)})
        t2s = []
        for xi in xis:
            trace = run(replace(self._zq_experiment(xi), times=times))
            t2s.append(t2_from_trace(trace, time_factor=2.0))
        monotone_ok = all(b <= a for a, b in zip(t2s, t2s[1:]))

        # weakly imbalanced noise keeps the dyad alive longer than the
        # single-quantum echo reference
        exceed_ok = all(
            t2 > t2_sq_reference for t2, xi in zip(t2s, xis) if xi <= 0.25
        )

        elapsed = time.monotonic() - start
        ok = flat_ok and monotone_ok and exceed_ok and elapsed < 600
        t2_list = ", ".join(
            f"{xi:g}: {t2 * 1e6:.1f} us" for xi, t2 in zip(xis, t2s)
        )
        report(
            6,
            ok,
            f"flat devs {flat_devs[0]:.1e}/{flat_devs[1]:.1e}; T2_ZQ {{{t2_list}}} "
            f"vs reference {t2_sq_reference * 1e6:.1f} us; {elapsed:.0f} s",
        )
        assert ok


class TestCriterion7SensingModalities:
    def test_electrometry(self):
        start = time.monotonic()
        times = sorted({snap(t) for t in np.geomspace(1e-6, 400e-6, 18)})

        def t2_for(eps_rms, beta_rms):
            noise = FluctuatorConfig(
                beta_rms=beta_rms, xi=0.0, switch_rate=1e5, eps_rms=eps_rms, electric_rate=1e5
            )
            exp = Experiment(
                params=PARAMS_WEAK,
                noise=noise,
                sim=SimConfig(n_trajectories=400, dt=DT, master_seed=SEED),
                program_builder=lambda tt: zq_chain(
                    TAU_ZQ, tt, echo=False, theta=0.0, j_par=J_WEAK, noise_scope="evolution"
                ),
                times=times,
                label=f"electrometry_{eps_rms:g}",
            )
            return t2_from_trace(run(exp), time_factor=1.0)

        t2_eps = [t2_for(e, 1e-6) for e in (1e6, 3e6, 1e7)]
        decreasing_ok = t2_eps[0] > t2_eps[1] > t2_eps[2]
        t2_b1 = t2_for(0.0, 1e-6)
        t2_b2 = t2_for(0.0, 2e-6)
        # with the magnetic channel shared, doubling its amplitude leaves
        # the (unresolvable) decay unchanged
        invariant_ok = (math.isinf(t2_b1) and math.isinf(t2_b2)) or t2_b1 == pytest.approx(
            t2_b2, rel=0.1
        )
        elapsed = time.monotonic() - start
        ok = decreasing_ok and invariant_ok and elapsed < 600
        report(
            7,
            ok,
            "electrometry T2 [us]: "
            + ", ".join("inf" if math.isinf(t) else f"{t * 1e6:.1f}" for t in t2_eps)
            + f"; beta-doubling outcome {t2_b1} vs {t2_b2}; {elapsed:.0f} s",
        )
        assert ok

    def test_thermometry(self):
        start = time.monotonic()
        d_omega = 2 * math.pi * 1e4
        delta_temp = d_omega / PARAMS_WEAK.ddelta_dT
        window = 0.25 / d_omega
        times = sorted({snap(t) for t in np.linspace(window / 12, window, 12)})
        exp = Experiment(
            params=PARAMS_WEAK,
            noise=NOISE_1UT,
            sim=SimConfig(n_trajectories=100, dt=DT, master_seed=SEED),
            program_builder=lambda tt: zq_chain(
                TAU_ZQ, tt, echo=False, theta=math.pi / 2, j_par=J_WEAK, noise_scope="evolution"
            ),
            times=times,
            delta_temp=delta_temp,
            label="thermometry",
        )
        trace = run(exp)
        d_omega_est = analysis.slope_frequency(trace, window=window)
        freq_ok = abs(d_omega_est - d_omega) <= 0.02 * d_omega
        # temperature round trip for two different configured sensitivities
        temp_ok = True
        for sens in (PARAMS_WEAK.ddelta_dT, 2 * math.pi * 31e3):
            true_dt = d_omega / sens
            est_dt = analysis.temperature_shift(d_omega_est, DyadParams(ddelta_dT=sens))
            temp_ok &= abs(est_dt - true_dt) <= 0.02 * abs(true_dt)
        elapsed = time.monotonic() - start
        ok = freq_ok and temp_ok and elapsed < 600
        report(
            7,
            ok,
            f"thermometry d_omega {d_omega_est:.1f} vs {d_omega:.1f} rad/s "
            f"({abs(d_omega_est / d_omega - 1) * 100:.2f}%); round trips within 2%; {elapsed:.0f} s",
        )
        assert ok


class TestCriterion8Statistics:
    def test_noise_statistics_and_reproducibility(self, tmp_path):
        start = time.monotonic()

        # channel rms and switch count over 10 ms
        cfg = FluctuatorConfig(beta_rms=1e-6, xi=1.0, switch_rate=1e5)
        sq, n_tot, switches = 0.0, 0, 0
        streams = 60
        for s in range(streams):
            traj = sample_magnetic_trajectory(cfg, 1e-2, DT, s, seed=SEED)
            sq += float(np.sum(traj.beta_s**2))
            n_tot += traj.n_steps
            switches += int(np.count_nonzero(np.diff(traj.beta_s)))
        rms = math.sqrt(sq / n_tot)
        rms_ok = abs(rms / 1e-6 - 1.0) < 0.05
        switch_ok = abs(switches / (streams * 1e5 * 1e-2) - 1.0) < 0.05

        # empirical local-noise fraction
        xi_ok = True
        for xi in (0.0, 0.5, 1.0):
            c = FluctuatorConfig(beta_rms=1e-6, xi=xi, switch_rate=1e5)
            est = np.mean(
                [empirical_xi(sample_magnetic_trajectory(c, 1e-2, DT, s, seed=SEED)) for s in range(3)]
            )
            xi_ok &= abs(est - xi) <= 0.05

        # byte-identical CSV across thread counts
        cfg_text = (
            "schema = 1\n[experiment]\npreset = zq_decay\nlabel = det\n"
            "[params]\nj_par = 50 kHz\nj_perp = 50 kHz\n"
            "[noise]\nbeta_rms = 1 uT\nxi = 0.5\n"
            "[sim]\ntrajectories = 12\nseed = 7\n"
            "[sweep]\ntau_start = 1 us\ntau_stop = 40 us\ntau_count = 9\n"
            "[output]\nplot = false\n"
        )
        cfg_path = tmp_path / "det.cfg"
        cfg_path.write_text(cfg_text)
        outs = []
        for threads, sub in (("1", "t1"), ("6", "t6")):
            out = tmp_path / sub
            assert (
                main(["--config", str(cfg_path), "--out", str(out), "--threads", threads])
                == EXIT_OK
            )
            outs.append((out / "det.csv").read_bytes())
        thread_ok = outs[0] == outs[1]

        # step halving leaves the averaged signals unchanged (propagation
        # is exact for piecewise-constant noise); spot signals from both
        # protocol families
        diffs = []
        params_bm = DyadParams(j_par=0.75e6, j_perp=0.75e6)
        for near_bm, params, prog in (
            (False, PARAMS_WEAK, hahn_echo(6e-6)),
            (True, params_bm, hahn_echo(6e-6, Target.BOTH)),
            (False, PARAMS_WEAK, zq_chain(TAU_ZQ, 20e-6, echo=True, j_par=J_WEAK)),
        ):
            sim = SimConfig(n_trajectories=1, dt=DT, near_bm=near_bm)
            sim_fine = SimConfig(n_trajectories=1, dt=DT / 2, near_bm=near_bm)
            noise = FluctuatorConfig(beta_rms=1e-6, xi=0.5, switch_rate=1e5)
            acc_a = acc_b = 0.0
            n_traj = 40
            for i in range(n_traj):
                traj = sample_magnetic_trajectory(noise, prog.total_duration, DT, i, seed=SEED)
                rho_a = propagate(initial_state(), prog, params, traj, sim)
                rho_b = propagate(initial_state(), prog, params, traj.refined(2), sim_fine)
                acc_a += float(np.real(np.trace(rho_a @ OPS.proj_ms0)))
                acc_b += float(np.real(np.trace(rho_b @ OPS.proj_ms0)))
            diffs.append(abs(acc_a - acc_b) / n_traj)
        halving_ok = max(diffs) < 1e-4

        # synthetic stretched-exponential recovery
        rng = np.random.default_rng(SEED)
        t = np.linspace(0.5e-6, 80e-6, 60)
        clean = 0.5 + 0.5 * np.exp(-((t / 20e-6) ** 1.5))
        trace = TimeTrace(
            times=t,
            signal_mean=clean + rng.normal(0.0, 0.01, size=t.size),
            signal_sem=np.full(t.size, 0.01),
        )
        fit = fit_stretched_exponential(trace)
        fit_ok = abs(fit.t2 / 20e-6 - 1.0) <= 0.05 and abs(fit.stretch_n - 1.5) <= 0.1

        elapsed = time.monotonic() - start
        ok = rms_ok and switch_ok and xi_ok and thread_ok and halving_ok and fit_ok
        report(
            8,
            ok,
            f"rms {rms * 1e6:.3f} uT, switches/expected {switches / (streams * 1e3):.3f}, "
            f"xi within 0.05: {xi_ok}, thread-identical CSV: {thread_ok}, "
            f"max halving dev {max(diffs):.1e}, fit T2 {fit.t2 * 1e6:.2f} us "
            f"n {fit.stretch_n:.2f}; {elapsed:.0f} s",
        )
        assert ok
