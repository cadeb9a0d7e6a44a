"""Hamiltonians, level diagrams, and couplings of the spin dyad.

The physical system is a spin-1 with a crystal-field splitting (an NV
center in the reference configuration) dipolar-coupled to a spin-1/2
paramagnet (a P1 center), with the static field along the crystal axis.

Unit policy: every frequency-like quantity stored in :class:`DyadParams`
is angular (rad/s), except the dipolar couplings ``j_coupling``,
``j_par`` and ``j_perp`` which are cyclic (Hz) because they always enter
the Hamiltonians through explicit 2*pi*J factors. Configuration files
accept Hz/kHz/MHz/GHz and convert at the boundary, so no 2*pi ambiguity
survives inside the package.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .linalg import full_operators, reduced_operators, require_hermitian

__all__ = [
    "MU0",
    "HBAR",
    "DEFAULT_DELTA",
    "DEFAULT_GAMMA_E",
    "DyadParams",
    "LevelDiagram",
    "j_par_from_geometry",
    "j_perp_from_geometry",
    "full_hamiltonian",
    "reduced_hamiltonian",
    "FrameCoefficients",
    "frame_coefficients",
    "sim_frame_hamiltonian",
    "coupling_from_distance",
    "distance_from_coupling",
    "anticrossing_field",
    "level_diagram",
    "thermal_shift",
]

MU0 = 1.25663706212e-6  # vacuum permeability, T^2 m^3 / J
HBAR = 1.054571817e-34  # reduced Planck constant, J s

# Standard room-temperature values for an NV-like spin-1; the crystal
# field and gyromagnetic ratio are config defaults, overridable
# everywhere.
DEFAULT_DELTA = 2 * math.pi * 2.87e9  # rad/s
DEFAULT_GAMMA_E = 2 * math.pi * 28.025e9  # rad/s per tesla

# Electric and thermal susceptibilities of the spin-1 ground state.
# These are externally sourced, literature-typical NV numbers (axial
# electric coupling, thermal shift of the crystal field at room
# temperature); no quantitative result in this package depends on their
# absolute values and they are plain config inputs. The transverse
# electric terms vanish on the simulated {m_S = 0, -1} manifold.
DEFAULT_D_PAR = 2 * math.pi * 3.5e-3  # rad/s per (V/m)
DEFAULT_DDELTA_DT = -2 * math.pi * 74.2e3  # rad/s per kelvin


def j_par_from_geometry(j_coupling: float, theta: float) -> float:
    """Secular (longitudinal) dipolar projection J(1 - 3 cos^2 theta)."""
    return j_coupling * (1.0 - 3.0 * math.cos(theta) ** 2)


def j_perp_from_geometry(j_coupling: float, theta: float) -> float:
    """Double-quantum dipolar projection -(3/4) J sin^2 theta."""
    return -0.75 * j_coupling * math.sin(theta) ** 2


@dataclass(frozen=True)
class DyadParams:
    """Physical constants and couplings of the dyad.

    Attributes:
        delta: crystal-field splitting (rad/s), > 0.
        gamma_e: magnitude of the electronic gyromagnetic ratio
            (rad/s per tesla), > 0.
        j_par: secular dipolar coupling J_par (Hz). Derived from
            (j_coupling, theta) when left as None.
        j_perp: double-quantum dipolar coupling J_perp (Hz). Derived from
            (j_coupling, theta) when left as None.
        j_coupling: bare dipolar amplitude J (Hz), optional.
        theta: angle between the inter-spin vector and the field (rad),
            optional; set both j_coupling and theta or neither.
        d_par: axial electric coupling of the spin-1 (rad/s per V/m).
        ddelta_dT: thermal shift of the crystal field (rad/s per kelvin).

    When both the projections and (j_coupling, theta) are supplied they
    must agree; figure-style parameter sets that pin J_par and J_perp
    independently should simply leave j_coupling/theta unset.
    """

    delta: float = DEFAULT_DELTA
    gamma_e: float = DEFAULT_GAMMA_E
    j_par: Optional[float] = None
    j_perp: Optional[float] = None
    j_coupling: Optional[float] = None
    theta: Optional[float] = None
    d_par: float = DEFAULT_D_PAR
    ddelta_dT: float = DEFAULT_DDELTA_DT

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not self.gamma_e > 0:
            raise ValueError(f"gamma_e must be positive, got {self.gamma_e}")
        if (self.j_coupling is None) != (self.theta is None):
            raise ValueError("j_coupling and theta are a pair: set both or neither")
        geometry = self.j_coupling is not None  # else uncoupled
        for name, from_geometry in (("j_par", j_par_from_geometry), ("j_perp", j_perp_from_geometry)):
            value = from_geometry(self.j_coupling, self.theta) if geometry else 0.0
            given = getattr(self, name)
            if given is None:
                object.__setattr__(self, name, value)
            elif geometry and abs(given - value) > 1e-9 * max(abs(value), abs(given), 1e-30):
                raise ValueError(
                    f"{name}={given} inconsistent with geometry value {value} from (j_coupling, theta)"
                )


def full_hamiltonian(p: DyadParams, b_field: float) -> NDArray:
    """Full 6-dim Hamiltonian: crystal field, Zeeman terms, and the
    complete dipolar interaction (secular and non-secular), at the static
    field ``b_field`` (tesla) along the crystal axis.

    The dipolar part uses the bare amplitude and geometry (J, theta); a
    parameter set built directly from projections can only be used here
    when both projections are zero.
    """
    ops = full_operators()
    h = p.delta * (ops.s_z @ ops.s_z) + p.gamma_e * b_field * (ops.s_z + ops.p_z)
    if p.j_coupling is None:  # then theta is None too: DyadParams checks the pair
        if p.j_par or p.j_perp:
            raise ValueError(
                "full_hamiltonian needs j_coupling and theta; only the secular "
                "projections were supplied"
            )
        return h
    th = p.theta
    flip_flop = ops.s_plus @ ops.p_minus + ops.s_minus @ ops.p_plus
    single_q = (ops.s_plus + ops.s_minus) @ ops.p_z + ops.s_z @ (ops.p_plus + ops.p_minus)
    double_q = ops.s_plus @ ops.p_plus + ops.s_minus @ ops.p_minus
    h_d = 2 * math.pi * p.j_coupling * (
        j_par_from_geometry(1.0, th) * (ops.s_z @ ops.p_z - 0.25 * flip_flop)
        - 0.75 * math.sin(2 * th) * single_q
        + j_perp_from_geometry(1.0, th) * double_q
    )
    h = h + h_d
    require_hermitian(h, name="full Hamiltonian")
    return h


def reduced_hamiltonian(
    p: DyadParams, include_dq: bool = True, *, b_field: float
) -> NDArray:
    """Secular 4-dim Hamiltonian on the {m_S = 0, -1} manifold.

    H = (|g|B - Delta) Tz + (|g|B - pi J_par) Pz + 2 pi J_par Tz Pz
        [+ 2 pi J_perp sqrt(2) (T+P+ + T-P-) when include_dq]

    with T the fictitious spin-1/2 and P the partner spin. Terms
    proportional to the identity are dropped. The double-quantum term is
    secular only near the level anti-crossing; ``include_dq=False`` gives
    the far-from-anti-crossing form.
    """
    h = _generator(
        p.gamma_e * b_field - p.delta,
        p.gamma_e * b_field - math.pi * p.j_par,
        frame_coefficients(p, near_bm=include_dq),
    )
    require_hermitian(h, name="reduced Hamiltonian")
    return h


@dataclass(frozen=True)
class FrameCoefficients:
    """The numbers (rad/s) of the frame generator H = a Tz + b Pz + j TzPz
    + g (T+P+ + T-P-), with a and b from the fields (:meth:`ab`)."""

    a0: float  # static Tz coefficient: |g| dB + thermal shift
    b0: float  # static Pz coefficient: |g| dB
    j: float  # 2 pi J_par
    g: float  # 2 pi J_perp sqrt(2) when near the anti-crossing, else 0
    k_beta: float  # coupling of the noise fields beta, beta' (rad/s per tesla)
    k_eps: float  # coupling of the axial electric field eps_z (rad/s per V/m)

    def ab(self, beta=0.0, beta_prime=0.0, eps_z=0.0) -> tuple:
        """a = a0 + k_beta beta + k_eps eps_z and b = b0 + k_beta beta' under
        the fields, elementwise for arrays."""
        return self.a0 + self.k_beta * beta + self.k_eps * eps_z, self.b0 + self.k_beta * beta_prime


def frame_coefficients(
    p: DyadParams, delta_b: float = 0.0, near_bm: bool = False, thermal_shift: float = 0.0
) -> FrameCoefficients:
    """Coefficients of :func:`sim_frame_hamiltonian`, the engine's generator."""
    return FrameCoefficients(
        a0=p.gamma_e * delta_b + thermal_shift,
        b0=p.gamma_e * delta_b,
        j=2 * math.pi * p.j_par,
        g=2 * math.pi * p.j_perp * math.sqrt(2.0) if near_bm else 0.0,
        k_beta=p.gamma_e,
        k_eps=-p.d_par,
    )


def sim_frame_hamiltonian(
    p: DyadParams,
    delta_b: float = 0.0,
    beta: float = 0.0,
    beta_prime: float = 0.0,
    near_bm: bool = False,
    eps_z: float = 0.0,
    thermal_shift: float = 0.0,
) -> NDArray:
    """Generator used by the engine in the doubly rotating frame.

    In the frame resonant with both spins the large static splittings
    drop out and only the detuning from the operating point, the noise
    fields, the axial electric field, the thermal crystal-field shift and
    the dipolar terms remain:

    H = (|g|(dB + beta) - d_par eps_z + d_omega) Tz + |g|(dB + beta') Pz
        + 2 pi J_par Tz Pz [+ 2 pi J_perp sqrt(2) (T+P+ + T-P-) when near_bm]

    ``delta_b`` is the detuning from resonance (B - B_m for runs near the
    anti-crossing, zero otherwise) and ``thermal_shift`` is d_omega, see
    :func:`thermal_shift`.
    """
    c = frame_coefficients(p, delta_b, near_bm, thermal_shift)
    return _generator(*c.ab(beta, beta_prime, eps_z), c)


def _generator(a: float, b: float, c: FrameCoefficients) -> NDArray:
    """a Tz + b Pz + j TzPz + g (T+P+ + T-P-) with j and g from ``c``: the
    operator form of both the lab-frame and the rotating-frame generator."""
    ops = reduced_operators()
    return (
        a * ops.tilde_z
        + b * ops.prime_z
        + c.j * ops.zz
        + c.g * (ops.tilde_plus @ ops.prime_plus + ops.tilde_minus @ ops.prime_minus)
    )


def coupling_from_distance(distance: float, gamma_e: float = DEFAULT_GAMMA_E) -> float:
    """Dipolar amplitude J (Hz) at inter-spin separation r (m).

    2 pi J = mu0 gamma_e^2 hbar / (4 pi r^3), with gamma_e angular.
    Around 4 nm this gives J of order 1 MHz, falling off as 1/r^3.
    """
    if not distance > 0:
        raise ValueError(f"distance must be positive, got {distance}")
    return MU0 * gamma_e**2 * HBAR / (8 * math.pi**2 * distance**3)


def distance_from_coupling(j_coupling: float, gamma_e: float = DEFAULT_GAMMA_E) -> float:
    """Inverse of :func:`coupling_from_distance`."""
    if not j_coupling > 0:
        raise ValueError(f"coupling must be positive, got {j_coupling}")
    return (MU0 * gamma_e**2 * HBAR / (8 * math.pi**2 * j_coupling)) ** (1.0 / 3.0)


def anticrossing_field(p: DyadParams) -> float:
    """Field B_m (tesla) where the outer pair of the reduced manifold
    becomes degenerate: |g| B_m = (Delta + pi J_par) / 2."""
    return (p.delta + math.pi * p.j_par) / (2.0 * p.gamma_e)


@dataclass(frozen=True)
class LevelDiagram:
    """Adiabatically-continued eigenvalue branches versus field.

    ``branches[k, i]`` is the energy (rad/s) of branch ``i`` at
    ``b_values[k]``; ``shifted`` is the same branches plus |g|B/2, see
    :func:`level_diagram`.
    """

    b_values: NDArray
    branches: NDArray
    shifted: NDArray

    def __post_init__(self):
        if self.branches.shape[0] != len(self.b_values):
            raise ValueError("branch rows must match b_values")


@functools.lru_cache(maxsize=None)
def _permutations(n: int) -> tuple[NDArray, NDArray]:
    """All orderings of range(n) in ``itertools`` order, and each as the
    flat indices (row, column) it selects from an n x n matrix."""
    perms = np.array(list(itertools.permutations(range(n))))
    perms.setflags(write=False)  # rows are handed out, and the table is shared
    return perms, np.arange(n) * n + perms


def _best_assignment(cost: NDArray) -> NDArray:
    """The column of each row in the cheapest one-to-one assignment of a
    square cost matrix: the best of all n! orderings, the first on a tie.
    For the 6x6 level overlaps it picks what SciPy 1.17's
    ``linear_sum_assignment`` picks."""
    perms, flat = _permutations(len(cost))
    return perms[np.argmin(cost.ravel()[flat].sum(axis=1))]


def level_diagram(p: DyadParams, b_values: Sequence[float]) -> LevelDiagram:
    """Eigenvalues of the full Hamiltonian over a field sweep.

    Branches are continued adiabatically by maximal eigenvector overlap
    between adjacent field steps; raw sorted eigenvalues would swap
    branches at crossings and corrupt the diagram. Levels go to branches
    by a search over all 720 orderings of the six levels
    (:func:`_best_assignment`), which matches SciPy 1.17's
    ``linear_sum_assignment``.

    The shifted branches add +|g|B/2 to every level. This is the uniform
    shift that makes all four lower branches field-independent near the
    anti-crossing (the two zero-quantum-pair branches exactly, the two
    hybridized branches at the anti-crossing point): the lower-manifold
    energies are Delta/2 - |g|B/2 + (|g|B - Delta) mt + |g|B mp, so
    +|g|B/2 cancels the only term that is not paired between the two
    anti-crossing partners.
    """
    b_values = np.asarray(b_values, dtype=float)
    if b_values.size == 0:
        raise ValueError("b_values must be nonempty")
    if np.any(np.diff(b_values) <= 0):
        raise ValueError("b_values must be strictly ascending")
    dim = 6
    branches = np.empty((b_values.size, dim))
    prev_vecs = None
    for k, b in enumerate(b_values):
        evals, vecs = np.linalg.eigh(full_hamiltonian(p, b_field=b))
        if prev_vecs is not None:
            cost = -np.abs(prev_vecs.conj().T @ vecs)
            # maximize total overlap with the previous step's branches
            perm = _best_assignment(cost)
            evals = evals[perm]
            vecs = vecs[:, perm]
        branches[k] = evals
        prev_vecs = vecs
    shifted = branches + 0.5 * p.gamma_e * b_values[:, None]
    return LevelDiagram(b_values=b_values, branches=branches, shifted=shifted)


def thermal_shift(delta_temp: float, p: DyadParams) -> float:
    """Thermal shift of the crystal field d_omega = (dDelta/dT) dT (rad/s)."""
    return p.ddelta_dT * delta_temp
