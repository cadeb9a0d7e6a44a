"""Hamiltonian construction, anti-crossing location, level diagrams."""

import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from spindyad import model
from spindyad.config import parse_config
from spindyad.linalg import FullOperators, SpinKind, reduced_operators, spin_operators
from spindyad.model import (
    DEFAULT_DELTA,
    DEFAULT_GAMMA_E,
    DyadParams,
    anticrossing_field,
    coupling_from_distance,
    distance_from_coupling,
    full_hamiltonian,
    j_par_from_geometry,
    j_perp_from_geometry,
    level_diagram,
    reduced_hamiltonian,
    sim_frame_hamiltonian,
)

GAMMA = DEFAULT_GAMMA_E
DELTA = DEFAULT_DELTA


def oracle_full_hamiltonian(delta, gamma, b, j, theta):
    """Independent 6x6 assembly from explicit matrix elements.

    Basis |m_S, m_p> with m_S in (+1, 0, -1) slow and m_p in (+1/2, -1/2)
    fast; ladder elements written out literally, no shared code path with
    the package builders.
    """
    ms_vals = (1.0, 0.0, -1.0)
    mp_vals = (0.5, -0.5)
    states = [(ms, mp) for ms in ms_vals for mp in mp_vals]
    idx = {s: i for i, s in enumerate(states)}
    h = np.zeros((6, 6), dtype=complex)
    for ms, mp in states:
        i = idx[(ms, mp)]
        h[i, i] += delta * ms**2 + gamma * b * (ms + mp)

    def s1_ladder(m_from, up):
        m_to = m_from + (1 if up else -1)
        if abs(m_to) > 1:
            return None, 0.0
        return m_to, math.sqrt(2.0 - m_from * (m_from + (1 if up else -1)))

    def sh_ladder(m_from, up):
        m_to = m_from + (1 if up else -1)
        if abs(m_to) > 0.5:
            return None, 0.0
        return m_to, 1.0

    two_pi_j = 2 * math.pi * j
    czz = 1.0 - 3.0 * math.cos(theta) ** 2
    for ms, mp in states:
        i = idx[(ms, mp)]
        # secular zz
        h[i, i] += two_pi_j * czz * ms * mp
        # flip-flop: -(czz/4)(S+P- + S-P+)
        for up in (True, False):
            ms2, amp_s = s1_ladder(ms, up)
            mp2, amp_p = sh_ladder(mp, not up)
            if ms2 is not None and mp2 is not None:
                h[idx[(ms2, mp2)], i] += -0.25 * two_pi_j * czz * amp_s * amp_p
        # single-quantum: -(3/4) sin(2 theta) [(S+ + S-) Pz + Sz (P+ + P-)]
        for up in (True, False):
            ms2, amp_s = s1_ladder(ms, up)
            if ms2 is not None:
                h[idx[(ms2, mp)], i] += -0.75 * two_pi_j * math.sin(2 * theta) * amp_s * mp
            mp2, amp_p = sh_ladder(mp, up)
            if mp2 is not None:
                h[idx[(ms, mp2)], i] += -0.75 * two_pi_j * math.sin(2 * theta) * ms * amp_p
        # double-quantum: -(3/4) sin^2 theta (S+P+ + S-P-)
        for up in (True, False):
            ms2, amp_s = s1_ladder(ms, up)
            mp2, amp_p = sh_ladder(mp, up)
            if ms2 is not None and mp2 is not None:
                h[idx[(ms2, mp2)], i] += -0.75 * two_pi_j * math.sin(theta) ** 2 * amp_s * amp_p
    return h


class TestFullHamiltonian:
    def test_crystal_field_only_spectrum(self):
        p = DyadParams(j_coupling=0.0, theta=0.0)
        vals = np.sort(np.linalg.eigvalsh(full_hamiltonian(p, b_field=0.0)))
        assert np.allclose(vals, [0.0, 0.0, DELTA, DELTA, DELTA, DELTA], rtol=1e-12)

    @pytest.mark.parametrize("b", [10e-3, 30e-3, 60e-3])
    def test_protected_gap_field_independent(self, b):
        # E(|-1,+1/2>) - E(|0,-1/2>) stays at the crystal-field splitting
        p = DyadParams(j_coupling=0.0, theta=0.0)
        h = full_hamiltonian(p, b_field=b)
        diag = np.real(np.diag(h))
        gap = diag[4] - diag[3]  # |-1,+1/2> minus |0,-1/2>
        assert gap == pytest.approx(DELTA, rel=1e-12)

    def test_spectrum_matches_independent_oracle(self):
        j, theta, b = 0.5e6, math.pi / 4, 20e-3
        p = DyadParams(j_coupling=j, theta=theta)
        h = full_hamiltonian(p, b_field=b)
        h_oracle = oracle_full_hamiltonian(DELTA, GAMMA, b, j, theta)
        vals = np.linalg.eigvalsh(h)
        vals_oracle = np.linalg.eigvalsh(h_oracle)
        assert np.max(np.abs(vals - vals_oracle)) < 1e-9 * np.max(np.abs(vals_oracle))

    def test_hermitian(self):
        p = DyadParams(j_coupling=1e6, theta=0.7)
        h = full_hamiltonian(p, b_field=51e-3)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12 * np.max(np.abs(h))

    def test_projections_only_rejected(self):
        p = DyadParams(j_par=5e4, j_perp=5e4)
        with pytest.raises(ValueError, match="j_coupling and theta"):
            full_hamiltonian(p, b_field=51e-3)


class TestReducedHamiltonian:
    def test_uncoupled_gap_is_crystal_field(self):
        p = DyadParams(j_par=0.0, j_perp=0.0)
        for b in (0.0, 25e-3, 0.1):
            h = reduced_hamiltonian(p, include_dq=True, b_field=b)
            diag = np.real(np.diag(h))
            assert diag[1] - diag[2] == pytest.approx(DELTA, rel=1e-12)

    def test_gap_carries_secular_shift(self):
        # hand evaluation of the four diagonal entries gives
        # E2 - E3 = Delta - pi J_par at every field
        jpar = 80e3
        p = DyadParams(j_par=jpar, j_perp=0.0)
        for b in (0.0, 37e-3, 0.19):
            h = reduced_hamiltonian(p, include_dq=False, b_field=b)
            diag = np.real(np.diag(h))
            assert diag[1] - diag[2] == pytest.approx(DELTA - math.pi * jpar, rel=1e-12)

    def test_field_independence_invariant(self):
        p = DyadParams(j_par=50e3, j_perp=50e3)
        gaps = []
        for b in np.linspace(0.0, 0.2, 41):
            diag = np.real(np.diag(reduced_hamiltonian(p, include_dq=False, b_field=b)))
            gaps.append(diag[1] - diag[2])
        gaps = np.asarray(gaps)
        assert np.max(np.abs(gaps - gaps[0])) < 1e-12 * abs(gaps[0])

    def test_diagonal_matches_full_manifold_up_to_constant(self):
        j, theta, b = 0.4e6, 0.9, 47e-3
        p = DyadParams(j_coupling=j, theta=theta)
        full_diag = np.real(np.diag(full_hamiltonian(p, b_field=b)))
        reduced_diag = np.real(np.diag(reduced_hamiltonian(p, include_dq=False, b_field=b)))
        manifold = full_diag[[2, 4, 3, 5]]  # reduced ordering within the full basis
        shifts = manifold - reduced_diag
        assert np.max(np.abs(shifts - shifts[0])) < 1e-9 * max(1.0, abs(shifts[0]))

    def test_dq_gap_at_anticrossing(self):
        jperp = 0.15e6
        p = DyadParams(j_par=0.1e6, j_perp=jperp)
        b_m = anticrossing_field(p)
        vals = np.sort(np.linalg.eigvalsh(reduced_hamiltonian(p, include_dq=True, b_field=b_m)))
        # outer pair hybridizes: middle two eigenvalues split by the full gap
        gap = vals[2] - vals[1]
        assert gap == pytest.approx(2 * abs(2 * math.pi * jperp * math.sqrt(2)), rel=1e-9)


class TestSimFrame:
    def test_pure_coupling_limit(self):
        p = DyadParams(j_par=50e3, j_perp=50e3)
        ops = reduced_operators()
        h = sim_frame_hamiltonian(p, 0.0, 0.0, 0.0, near_bm=False)
        assert np.max(np.abs(h - 2 * math.pi * 50e3 * ops.zz)) < 1e-9

    def test_global_noise_commutes_with_protected_coherence(self):
        p = DyadParams(j_par=50e3, j_perp=50e3)
        ops = reduced_operators()
        for b in (1e-6, 3e-4):
            h = sim_frame_hamiltonian(p, 0.0, b, b, near_bm=False)
            comm = h @ ops.zq_antisym - ops.zq_antisym @ h
            assert np.max(np.abs(comm)) < 1e-9 * np.max(np.abs(h))

    def test_electric_and_thermal_terms(self):
        # the axial field enters as -d_par eps_z Tz (the identity part of
        # the projected coupling dropped), the thermal shift as d_omega Tz
        p = DyadParams(j_par=50e3, j_perp=50e3)
        ops = reduced_operators()
        e, w = 2.5e6, -3e5
        h = sim_frame_hamiltonian(p, eps_z=e, thermal_shift=w) - sim_frame_hamiltonian(p)
        expected = (-p.d_par * e + w) * ops.tilde_z
        assert np.max(np.abs(h - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_near_anticrossing_gap(self):
        jperp = 0.75e6
        p = DyadParams(j_par=0.75e6, j_perp=jperp)
        h = sim_frame_hamiltonian(p, 0.0, 0.0, 0.0, near_bm=True)
        vals = np.sort(np.linalg.eigvalsh(h))
        # the coupling exceeds the secular splitting here, so the
        # hybridized pair is the outermost one
        assert vals[3] - vals[0] == pytest.approx(
            2 * abs(2 * math.pi * jperp * math.sqrt(2)), rel=1e-9
        )


class TestFrameChange:
    """The lab-frame generator at B_m + dB and the rotating-frame one at dB
    differ by ((pi J_par - Delta)/2)(Tz - Pz), which commutes with the
    frame generator: the frame change both builders rest on."""

    P = DyadParams(j_coupling=0.4e6, theta=0.9)  # J_par and J_perp both nonzero

    @pytest.mark.parametrize("near_bm", [False, True])
    @pytest.mark.parametrize("delta_b", [0.0, 2e-6, -50e-6])
    def test_lab_minus_frame_generator(self, delta_b, near_bm):
        ops = reduced_operators()
        lab = reduced_hamiltonian(self.P, near_bm, b_field=anticrossing_field(self.P) + delta_b)
        frame = sim_frame_hamiltonian(self.P, delta_b, near_bm=near_bm)
        offset = (math.pi * self.P.j_par - self.P.delta) / 2
        z_diff = ops.tilde_z - ops.prime_z
        assert np.max(np.abs(lab - frame - offset * z_diff)) <= 1e-12 * abs(offset)
        assert np.max(np.abs(z_diff @ frame - frame @ z_diff)) == 0.0


class TestCoupling:
    def test_strong_coupling_separation(self):
        assert coupling_from_distance(4e-9) == pytest.approx(0.75e6, rel=0.15)

    def test_weak_coupling_separation(self):
        assert coupling_from_distance(10e-9) == pytest.approx(50e3, rel=0.15)

    @pytest.mark.parametrize("r", [2e-9, 5e-9, 20e-9])
    def test_round_trip(self, r):
        assert distance_from_coupling(coupling_from_distance(r)) == pytest.approx(r, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            coupling_from_distance(0.0)
        with pytest.raises(ValueError):
            distance_from_coupling(-1.0)


class TestAnticrossing:
    def test_uncoupled_value(self):
        p = DyadParams(j_par=0.0, j_perp=0.0)
        assert anticrossing_field(p) == pytest.approx(DELTA / (2 * GAMMA), rel=1e-15)
        assert anticrossing_field(p) == pytest.approx(51.2e-3, rel=1e-2)

    def test_secular_shift(self):
        jpar = 2e5
        p = DyadParams(j_par=jpar, j_perp=1e5)
        assert anticrossing_field(p) == pytest.approx(
            (DELTA + math.pi * jpar) / (2 * GAMMA), rel=1e-15
        )

    def test_gap_minimum_coincides_with_formula(self):
        p = DyadParams(j_par=0.15e6, j_perp=0.15e6)
        b_m = anticrossing_field(p)
        step = 2e-7
        b_vals = b_m + step * np.arange(-400, 401)
        gaps = []
        for b in b_vals:
            vals = np.sort(np.linalg.eigvalsh(reduced_hamiltonian(p, True, b_field=b)))
            gaps.append(vals[2] - vals[1])
        b_min = b_vals[int(np.argmin(gaps))]
        assert abs(b_min - b_m) <= step


class TestLevelDiagram:
    def test_shift_is_half_gamma_b(self):
        p = DyadParams(j_coupling=0.2e6, theta=math.pi / 2)
        b_vals = np.linspace(45e-3, 58e-3, 7)
        d = level_diagram(p, b_vals)
        recovered = d.shifted - 0.5 * GAMMA * b_vals[:, None]
        scale = np.max(np.abs(d.branches))
        assert np.max(np.abs(recovered - d.branches)) < 1e-12 * scale

    def test_uncoupled_branches_cross_at_bm(self):
        p = DyadParams(j_coupling=0.0, theta=0.0)
        b_m = anticrossing_field(p)
        step = 1e-5
        b_vals = b_m + step * np.arange(-5, 6)
        d = level_diagram(p, b_vals)
        # two branches degenerate exactly at the crossing field
        mid = d.branches[5]
        pairgap = np.min(np.abs(np.subtract.outer(mid, mid) + np.eye(6)))
        assert pairgap < 1e-6 * DELTA

    def test_coupled_diagram_has_avoided_crossing(self):
        p = DyadParams(j_coupling=0.2e6, theta=math.pi / 2)  # j_perp = -0.15 MHz
        b_m = anticrossing_field(p)
        b_vals = np.linspace(b_m - 1e-3, b_m + 1e-3, 201)
        d = level_diagram(p, b_vals)
        sorted_e = np.sort(d.branches, axis=1)
        gaps = sorted_e[:, 2] - sorted_e[:, 1]
        assert np.min(gaps) > 0.5 * 2 * abs(2 * math.pi * p.j_perp * math.sqrt(2))

    def test_shifted_lower_branches_flat_at_bm(self):
        # with the double-quantum coupling on, all four lower branches have
        # zero slope at the anti-crossing once the +|g|B/2 shift is applied.
        # A wide symmetric stencil averages over the residual displacement
        # of the true crossing by spectator-state level repulsion (~1e-11 T).
        p = DyadParams(j_coupling=0.2e6, theta=math.pi / 2)
        b_m = anticrossing_field(p)
        h = 1e-3
        b_vals = np.linspace(b_m - h, b_m + h, 41)
        shifted = level_diagram(p, b_vals).shifted
        mid = len(b_vals) // 2
        order = np.argsort(shifted[mid])
        lower = order[:4]
        slopes = (shifted[-1, lower] - shifted[0, lower]) / (2 * h)
        assert np.max(np.abs(slopes)) < 1e-6 * DELTA
        upper = order[4:]
        up_slopes = (shifted[-1, upper] - shifted[0, upper]) / (2 * h)
        assert np.min(np.abs(up_slopes)) > 1e3 * 1e-6 * DELTA

    def test_uncoupled_sorted_envelopes_flat_at_bm(self):
        # without coupling the crossing pair's sorted envelopes still have
        # zero symmetric-difference slope at the crossing field
        p = DyadParams(j_coupling=0.0, theta=0.0)
        b_m = anticrossing_field(p)
        h = 5e-6
        b_vals = np.array([b_m - h, b_m, b_m + h])
        sorted_e = np.sort(level_diagram(p, b_vals).shifted, axis=1)
        slopes = (sorted_e[2, :4] - sorted_e[0, :4]) / (2 * h)
        assert np.max(np.abs(slopes)) < 1e-6 * DELTA

    def test_rejects_unsorted_fields(self):
        p = DyadParams(j_coupling=0.0, theta=0.0)
        with pytest.raises(ValueError):
            level_diagram(p, [2e-3, 1e-3])


class TestAssignmentMatchesScipy:
    @pytest.mark.parametrize("size", [4, 6])
    def test_random_cost_matrices(self, size):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(size)
        for k in range(500):
            # overlaps in [0, 1] as level_diagram makes them, and signed costs
            cost = -rng.uniform(size=(size, size)) if k % 2 else rng.normal(size=(size, size))
            rows, cols = optimize.linear_sum_assignment(cost)
            assert np.array_equal(rows, np.arange(size))
            assert np.array_equal(model._best_assignment(cost), cols)

    def test_levels_config_window(self):
        optimize = pytest.importorskip("scipy.optimize")
        cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "levels.cfg")
        p = DyadParams(j_coupling=cfg.number("params", "j"), theta=cfg.number("params", "theta"))
        b_vals = cfg.sweep_values("field")
        ours = level_diagram(p, b_vals)
        assert np.any(np.diff(ours.shifted, axis=1) < 0)  # branches cross here
        with mock.patch.object(model, "_best_assignment", lambda c: optimize.linear_sum_assignment(c)[1]):
            theirs = level_diagram(p, b_vals)
        assert np.array_equal(ours.branches, theirs.branches)
        assert np.array_equal(ours.shifted, theirs.shifted)


# the literature-typical transverse electric coupling of an NV spin-1 (rad/s per V/m)
D_PERP = 2 * math.pi * 0.17


def projected_electric_term(p, ex, ey, ez):
    """The spin-1 electric coupling d_par ez (Sz^2 - 2/3) - d_perp [ex (SxSy
    + SySx) + ey (Sx^2 - Sy^2)] in the 6-level space, restricted to the
    reduced {m_S = 0, -1} manifold in reduced order."""
    s = spin_operators(SpinKind.SPIN_ONE)
    h1 = p.d_par * ez * (s.z @ s.z - (2.0 / 3.0) * np.eye(3)) - D_PERP * (
        ex * (s.x @ s.y + s.y @ s.x) + ey * (s.x @ s.x - s.y @ s.y)
    )
    idx = FullOperators.reduced_indices
    return np.kron(h1, np.eye(2))[np.ix_(idx, idx)]


class TestElectricThermal:
    """The electric and thermal terms of the frame generator, which takes
    the axial field eps_z and the thermal shift d_omega."""

    P = DyadParams(j_par=50e3, j_perp=50e3)
    FIELDS = np.random.default_rng(2).uniform(-5e6, 5e6, size=(10, 3))  # V/m

    def frame(self, **kwargs):
        return sim_frame_hamiltonian(self.P, 3e-6, near_bm=True, **kwargs)

    def test_reduced_axial_term(self):
        # the generator's eps_z term is the projected 6-level coupling, up
        # to a multiple of the identity
        for ex, ey, ez in self.FIELDS:
            diff = self.frame(eps_z=ez) - self.frame() - projected_electric_term(self.P, ex, ey, ez)
            scale = self.P.d_par * abs(ez)
            assert np.max(np.abs(diff - diff[0, 0] * np.eye(4))) < 1e-9 * scale

    def test_reduced_transverse_vanishes(self):
        # the transverse terms connect m_S = +1 and -1 only, so the reduced
        # manifold sees none of them
        for ex, ey, _ in self.FIELDS:
            assert np.max(np.abs(projected_electric_term(self.P, ex, ey, 0.0))) == 0.0

    def test_thermal_definition(self):
        ops = reduced_operators()
        for w in (-3e5, 1.0, 7e4):
            diff = self.frame(thermal_shift=w) - self.frame()
            assert np.max(np.abs(diff - w * ops.tilde_z)) < 1e-9 * abs(w)


class TestGeometry:
    def test_magic_angle_kills_secular_part(self):
        theta = math.acos(1.0 / math.sqrt(3.0))
        assert j_par_from_geometry(1e6, theta) == pytest.approx(0.0, abs=1e-9)

    def test_axial_geometry_kills_dq_part(self):
        assert j_perp_from_geometry(1e6, 0.0) == 0.0

    def test_inconsistent_projections_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            DyadParams(j_coupling=1e6, theta=0.5, j_par=1e6)

    def test_coupling_alone_rejected(self):
        with pytest.raises(ValueError, match="^j_coupling and theta are a pair: set both or neither$"):
            DyadParams(j_coupling=2e5)

    def test_theta_alone_rejected(self):
        with pytest.raises(ValueError, match="^j_coupling and theta are a pair: set both or neither$"):
            DyadParams(theta=1.0)

    def test_consistent_projections_accepted(self):
        j, theta = 1e6, 0.5
        p = DyadParams(
            j_coupling=j,
            theta=theta,
            j_par=j_par_from_geometry(j, theta),
            j_perp=j_perp_from_geometry(j, theta),
        )
        assert p.j_par == pytest.approx(j_par_from_geometry(j, theta))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DyadParams(delta=-1.0)
        with pytest.raises(ValueError):
            DyadParams(gamma_e=0.0)
