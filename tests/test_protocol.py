"""Pulse programs: composition identities and preset protocols.

The expected intermediate states of the polarization transfer and the
conversion block are frozen as literal matrices in the reduced ordering
|0,+1/2>, |-1,+1/2>, |0,-1/2>, |-1,-1/2> (worked out by hand from the
product-operator transformation rules).
"""

import math
import re
import warnings

import numpy as np
import pytest

from spindyad.engine import SimConfig, initial_state, propagate, zq_state
from spindyad.linalg import reduced_operators
from spindyad.model import DyadParams
from spindyad.noise import FluctuatorConfig, NoiseTrajectory, sample_magnetic_trajectory
from spindyad.protocol import (
    Axis,
    Delay,
    PulseProgram,
    Repump,
    Rotation,
    Target,
    coc_closed_form,
    deer,
    hahn_echo,
    polarization_transfer,
    program_from_text,
    program_to_text,
    rotation_unitary,
    zq_block,
    zq_chain,
    zq_readout,
)

DT = 1e-8
J_PAR = 50e3
TAU = 1.0 / (4.0 * J_PAR)  # 5 us, on the dt grid
PARAMS = DyadParams(j_par=J_PAR, j_perp=J_PAR)
SIM = SimConfig(n_trajectories=1, dt=DT, near_bm=False)

# state after the first transfer half: I/4 + Tx Pz
STATE_HALF = np.array(
    [
        [0.25, 0.25, 0.0, 0.0],
        [0.25, 0.25, 0.0, 0.0],
        [0.0, 0.0, 0.25, -0.25],
        [0.0, 0.0, -0.25, 0.25],
    ],
    dtype=complex,
)

# state right after the (pi/2)y pulse: I/4 - Tz Px
STATE_MID = np.array(
    [
        [0.25, 0.0, -0.25, 0.0],
        [0.0, 0.25, 0.0, 0.25],
        [-0.25, 0.0, 0.25, 0.0],
        [0.0, 0.25, 0.0, 0.25],
    ],
    dtype=complex,
)

# state after the full transfer, before the repump: I/4 - Pz/2
STATE_END = np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex)

# initialized state after the repump: |0,-1/2><0,-1/2|
STATE_INIT = np.zeros((4, 4), dtype=complex)
STATE_INIT[2, 2] = 1.0

# zero-quantum state after conversion: (I + 4(TxPy - TyPx) - 4 TzPz)/4
STATE_ZQ = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, -0.5j, 0.0],
        [0.0, 0.5j, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)


def quiet_trajectory(duration: float) -> NoiseTrajectory:
    cfg = FluctuatorConfig(beta_rms=0.0, xi=0.0, switch_rate=1e5)
    return sample_magnetic_trajectory(cfg, duration, DT, 0)


def run_noise_free(rho0, program, params=PARAMS):
    traj = quiet_trajectory(program.total_duration)
    return propagate(rho0, program, params, traj, SIM)


def static_trajectory(duration: float, beta: float, beta_prime: float) -> NoiseTrajectory:
    n = int(round(duration / DT))
    return NoiseTrajectory(
        dt=DT, beta_s=np.full(n, beta), beta_s_prime=np.full(n, beta_prime)
    )


class TestRotationUnitary:
    def test_double_pi_is_identity(self):
        u = rotation_unitary(Rotation(Target.BOTH, Axis.X, math.pi))
        assert np.max(np.abs(u @ u - np.eye(4))) < 1e-15

    def test_shared_field_scales_partner(self):
        theta = 1.3
        u = rotation_unitary(Rotation(Target.BOTH, Axis.X, theta, shared_field=True))
        u_t = rotation_unitary(Rotation(Target.SPIN_S, Axis.X, theta))
        u_p = rotation_unitary(Rotation(Target.SPIN_S_PRIME, Axis.X, theta / math.sqrt(2)))
        assert np.max(np.abs(u - u_p @ u_t)) < 1e-15

    def test_phase_shift_rotates_zq_quadratures(self):
        ops = reduced_operators()
        u = rotation_unitary(Rotation(Target.SPIN_S, Axis.Z, math.pi / 2))
        rotated = u @ ops.zq_antisym @ u.conj().T
        assert np.max(np.abs(rotated - ops.zq_sym)) < 1e-14

    def test_negative_angle_inverts(self):
        u = rotation_unitary(Rotation(Target.SPIN_S, Axis.X, 0.7))
        v = rotation_unitary(Rotation(Target.SPIN_S, Axis.X, -0.7))
        assert np.max(np.abs(u @ v - np.eye(4))) < 1e-15


class TestPolarizationTransfer:
    def test_intermediate_state_after_first_half(self):
        prog = polarization_transfer(TAU, J_PAR)
        half = PulseProgram(prog.elements[:4])
        rho = run_noise_free(initial_state(), half)
        assert np.max(np.abs(rho - STATE_HALF)) < 1e-10

    def test_state_after_mixing_pulse(self):
        prog = polarization_transfer(TAU, J_PAR)
        mid = PulseProgram(prog.elements[:5])
        rho = run_noise_free(initial_state(), mid)
        assert np.max(np.abs(rho - STATE_MID)) < 1e-10

    def test_partner_fully_polarized_before_repump(self):
        prog = polarization_transfer(TAU, J_PAR)
        pre = PulseProgram(prog.elements[:-1])
        rho = run_noise_free(initial_state(), pre)
        assert np.max(np.abs(rho - STATE_END)) < 1e-10

    def test_final_initialized_state(self):
        rho = run_noise_free(initial_state(), polarization_transfer(TAU, J_PAR))
        fidelity = float(np.real(rho[2, 2]))
        assert fidelity >= 0.999
        assert np.max(np.abs(rho - STATE_INIT)) < 1e-10

    def test_no_transfer_without_coupling(self):
        ops = reduced_operators()
        params = DyadParams(j_par=0.0, j_perp=0.0)
        rho = run_noise_free(initial_state(), polarization_transfer(TAU), params)
        assert abs(np.trace(rho @ ops.prime_z)) < 1e-12

    def test_detuned_timing_warns(self):
        with pytest.warns(UserWarning, match="partial"):
            polarization_transfer(TAU * 1.05, J_PAR)

    def test_matched_timing_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            polarization_transfer(TAU, J_PAR)


class TestCoherenceOrderConversion:
    def _composed_unitary(self, program):
        from spindyad.linalg import expm_hermitian
        from spindyad.model import sim_frame_hamiltonian

        h_free = sim_frame_hamiltonian(PARAMS)
        u = np.eye(4, dtype=complex)
        for el in program.elements:
            if isinstance(el, Delay):
                u = expm_hermitian(h_free, el.duration) @ u
            elif isinstance(el, Rotation):
                u = rotation_unitary(el) @ u
        return u

    def test_matches_closed_form(self):
        u = self._composed_unitary(hahn_echo(TAU, Target.BOTH))
        ref = coc_closed_form(TAU, J_PAR)
        phase = np.trace(ref.conj().T @ u)
        u_aligned = u * np.exp(-1j * np.angle(phase))
        assert np.max(np.abs(u_aligned - ref)) < 1e-10

    def test_initialized_state_becomes_zq_coherence(self):
        rho = run_noise_free(STATE_INIT, hahn_echo(TAU, Target.BOTH))
        assert np.max(np.abs(rho - STATE_ZQ)) < 1e-10
        assert np.max(np.abs(rho - zq_state())) < 1e-10

    def test_longitudinal_order_invariant(self):
        ops = reduced_operators()
        u = self._composed_unitary(hahn_echo(TAU, Target.BOTH))
        moved = u @ ops.zz @ u.conj().T
        assert np.max(np.abs(moved - ops.zz)) < 1e-10

    def test_protected_commutator(self):
        ops = reduced_operators()
        comm = ops.zq_antisym @ ops.zz - ops.zz @ ops.zq_antisym
        assert np.max(np.abs(comm)) < 1e-14


class TestZeroQuantumBlock:
    def test_global_noise_leaves_state_unchanged(self):
        for beta in (1e-6, 5e-4):
            n = 2000
            traj = static_trajectory(n * DT, beta, beta)
            rho = propagate(zq_state(), zq_block(n * DT, echo=False), PARAMS, traj, SIM)
            assert np.max(np.abs(rho - zq_state())) < 1e-12

    def test_static_imbalance_rotates_quadratures(self):
        ops = reduced_operators()
        beta = 0.4e-6
        n = 1500
        tau = n * DT
        traj = static_trajectory(tau, beta, 0.0)
        rho = propagate(zq_state(), zq_block(tau, echo=False), PARAMS, traj, SIM)
        ang = PARAMS.gamma_e * beta * tau
        expect = (
            np.eye(4) / 4.0
            + math.cos(ang) * ops.zq_antisym
            + math.sin(ang) * ops.zq_sym
            - ops.zz
        )
        assert np.max(np.abs(rho - expect)) < 1e-10

    def test_sym_quadrature_counter_rotates(self):
        # operator probe, not a physical state: skip state validation
        ops = reduced_operators()
        beta = 0.4e-6
        n = 1500
        tau = n * DT
        rho0 = np.eye(4, dtype=complex) / 4.0 + ops.zq_sym
        traj = static_trajectory(tau, beta, 0.0)
        rho = propagate(
            rho0, PulseProgram((Delay(tau),)), PARAMS, traj, SIM, validate=False
        )
        ang = PARAMS.gamma_e * beta * tau
        expect = (
            np.eye(4) / 4.0 + math.cos(ang) * ops.zq_sym - math.sin(ang) * ops.zq_antisym
        )
        assert np.max(np.abs(rho - expect)) < 1e-10

    def test_asymmetric_echo_depends_on_time_difference(self):
        ops = reduced_operators()
        beta = 0.6e-6
        n1, n2 = 900, 400
        prog = PulseProgram(
            (Delay(n1 * DT), Rotation(Target.BOTH, Axis.X, math.pi), Delay(n2 * DT))
        )
        traj = static_trajectory((n1 + n2) * DT, beta, 0.0)
        rho = propagate(zq_state(), prog, PARAMS, traj, SIM)
        ang = PARAMS.gamma_e * beta * (n1 - n2) * DT
        expect = (
            np.eye(4) / 4.0
            - math.cos(ang) * ops.zq_antisym
            + math.sin(ang) * ops.zq_sym
            - ops.zz
        )
        assert np.max(np.abs(rho - expect)) < 1e-10

    def test_echo_refocuses_at_equal_delays(self):
        beta = 0.6e-6
        n = 700
        prog = zq_block(n * DT, echo=True)
        traj = static_trajectory(2 * n * DT, beta, 0.0)
        rho = propagate(zq_state(), prog, PARAMS, traj, SIM)
        ops = reduced_operators()
        expect = np.eye(4) / 4.0 - ops.zq_antisym - ops.zz
        assert np.max(np.abs(rho - expect)) < 1e-10

    def test_readout_even_in_time_difference(self):
        ops = reduced_operators()
        beta = 0.6e-6

        def signal(n1, n2):
            prog = (
                PulseProgram(
                    (Delay(n1 * DT), Rotation(Target.BOTH, Axis.X, math.pi), Delay(n2 * DT))
                )
                + zq_readout(TAU, noisy=False)
            )
            traj = static_trajectory(prog.total_duration, beta, 0.0)
            rho = propagate(zq_state(), prog, PARAMS, traj, SIM)
            return float(np.real(np.trace(rho @ ops.proj_ms0)))

        assert signal(1100, 500) == pytest.approx(signal(500, 1100), abs=1e-10)

    def test_theta_pre_rotation(self):
        ops = reduced_operators()
        prog = zq_block(0.0, echo=False, theta=math.pi / 2)
        traj = quiet_trajectory(0.0)
        rho = propagate(zq_state(), prog, PARAMS, traj, SIM)
        expect = np.eye(4) / 4.0 + ops.zq_sym - ops.zz
        assert np.max(np.abs(rho - expect)) < 1e-12


class TestZqReadout:
    def test_inverse_of_conversion(self):
        rho = run_noise_free(zq_state(), zq_readout(TAU))
        ops = reduced_operators()
        assert np.max(np.abs(rho - STATE_INIT)) < 1e-9
        assert float(np.real(np.trace(rho @ ops.proj_ms0))) == pytest.approx(1.0, abs=1e-9)

    def test_sym_quadrature_undetectable(self):
        # operator probe, not a physical state: skip state validation
        ops = reduced_operators()
        rho0 = np.eye(4, dtype=complex) / 4.0 + ops.zq_sym
        prog = zq_readout(TAU)
        traj = quiet_trajectory(prog.total_duration)
        rho = propagate(rho0, prog, PARAMS, traj, SIM, validate=False)
        signal = float(np.real(np.trace(rho @ ops.proj_ms0)))
        assert signal == pytest.approx(0.5, abs=1e-10)

    def test_thermometry_small_angle_signal(self):
        # theta = pi/2 chain under a pure thermal shift: the net signal is
        # 1/2 - sin(d_omega tau)/2, slope -d_omega/2 in the population
        ops = reduced_operators()
        d_omega = 2 * math.pi * 1e4
        for n in (100, 300, 500):
            tau = n * DT
            prog = zq_block(tau, echo=False, theta=math.pi / 2) + zq_readout(
                TAU, noisy=False
            )
            traj = quiet_trajectory(prog.total_duration)
            rho = propagate(
                zq_state(), prog, PARAMS, traj, SIM, thermal_shift=d_omega
            )
            signal = float(np.real(np.trace(rho @ ops.proj_ms0)))
            assert signal == pytest.approx(0.5 - 0.5 * math.sin(d_omega * tau), abs=1e-10)


class TestPresetShapes:
    def test_hahn_timing(self):
        prog = hahn_echo(3e-6)
        assert prog.total_duration == pytest.approx(6e-6)
        angles = [e.angle for e in prog.elements if isinstance(e, Rotation)]
        assert angles == [math.pi / 2, math.pi, math.pi / 2]

    def test_noise_free_echo_differs_only_in_its_delays(self):
        noisy, quiet = hahn_echo(TAU, Target.BOTH), hahn_echo(TAU, Target.BOTH, noisy=False)
        assert [e for e in quiet.elements if isinstance(e, Delay)] == [Delay(TAU, noisy=False)] * 2
        swap = lambda e: Delay(e.duration, noisy=False) if isinstance(e, Delay) else e
        assert quiet.elements == tuple(map(swap, noisy.elements))

    def test_deer_adds_partner_inversion(self):
        prog = deer(3e-6)
        partner = [
            e
            for e in prog.elements
            if isinstance(e, Rotation) and e.target is Target.SPIN_S_PRIME
        ]
        assert len(partner) == 1
        assert partner[0].angle == pytest.approx(math.pi)

    def test_uncoupled_deer_equals_hahn_response(self):
        ops = reduced_operators()
        params = DyadParams(j_par=0.0, j_perp=0.0)
        sig = []
        for prog in (hahn_echo(4e-6), deer(4e-6)):
            rho = run_noise_free(initial_state(), prog, params)
            sig.append(float(np.real(np.trace(rho @ ops.proj_ms0))))
        assert sig[0] == pytest.approx(sig[1], abs=1e-12)

    def test_deer_modulation_at_coupling_frequency(self):
        # recoupled secular interaction modulates the echo at pi J 2 tau
        ops = reduced_operators()
        for n in (200, 500, 800, 1100):
            tau = n * DT
            rho = run_noise_free(initial_state(), deer(tau))
            sig = float(np.real(np.trace(rho @ ops.proj_ms0)))
            expect = 0.5 + 0.5 * math.cos(2 * math.pi * J_PAR * tau)
            assert sig == pytest.approx(expect, abs=1e-9)

    def test_zq_chain_composition(self):
        prog = zq_chain(TAU, 20e-6, echo=True, theta=0.0, j_par=J_PAR)
        assert prog.total_duration == pytest.approx(8 * TAU + 40e-6)
        assert sum(isinstance(e, Repump) for e in prog.elements) == 1

    def test_zq_chain_scope_validation(self):
        with pytest.raises(ValueError, match="noise_scope"):
            zq_chain(TAU, 1e-6, noise_scope="sometimes")

    def test_evolution_scope_marks_delays(self):
        prog = zq_chain(TAU, 20e-6, echo=False, noise_scope="evolution")
        delays = [e for e in prog.elements if isinstance(e, Delay)]
        noisy = [d for d in delays if d.noisy]
        assert len(noisy) == 1
        assert noisy[0].duration == pytest.approx(20e-6)


class TestSerialization:
    def test_round_trip(self):
        prog = zq_chain(TAU, 7e-6, echo=True, theta=0.3, j_par=J_PAR)
        text = program_to_text(prog)
        assert program_from_text(text) == prog

    def test_shared_flag_round_trip(self):
        prog = hahn_echo(2e-6, Target.BOTH, shared_field=True)
        assert program_from_text(program_to_text(prog)) == prog

    def test_noisefree_flag_round_trip(self):
        prog = PulseProgram((Delay(1e-6, noisy=False), Repump()))
        assert program_from_text(program_to_text(prog)) == prog

    def test_parse_error_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            program_from_text("repump\nwobble 3\n")

    @pytest.mark.parametrize(
        "line",
        [
            "delay 5e-06 noise-free",
            "delay 5e-06 noisefree noisefree",
            "delay",
            "delay nan",
            "delay -inf",
            "rotation both x 1.57 sharde",
            "rotation both x 1.57 shared 2",
            "rotation both x",
            "rotation both x inf",
            "rotation sideways x 1.57",
            "rotation both w 1.57",
            "repump now please",
        ],
    )
    def test_token_outside_the_grammar_names_its_line(self, line):
        with pytest.raises(ValueError, match=re.escape(f"line 2: cannot parse {line!r}")):
            program_from_text(f"repump\n{line}\nrepump\n")

    def test_delay_must_be_finite_and_nonnegative(self):
        for duration in (math.nan, math.inf, -1e-9):
            with pytest.raises(ValueError, match="must be finite and >= 0"):
                Delay(duration)
