"""Pulse-sequence representation and the preset protocols.

A :class:`PulseProgram` is an ordered list of instantaneous rotations,
phase shifts (z rotations), optical repump events, and free-evolution
delays. Pulses are ideal and instantaneous: all noise acts only during
delays, which is also how the trajectory-averaging engine treats them.

Rotation convention: a rotation element with angle ``a`` about axis ``n``
applies the unitary U = exp(-i a S_n) to its target spin(s), and states
transform as rho -> U rho U^dag. Under this convention the presets below
reproduce, step by step, the known closed forms of the polarization
transfer, the coherence-order conversion, and the zero-quantum evolution
rules (see the tests for the frozen intermediate states).

Shared-field scaling: near the level anti-crossing both spins are
resonant with one microwave field, and the spin-1 two-level transition
couples sqrt(2) more strongly than the bare spin-1/2, so a rotation by
``a`` of the fictitious spin comes with a rotation ``a/sqrt(2)`` of the
partner. Rotation elements with ``target=BOTH`` and ``shared_field=True``
apply exactly that scaling.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .linalg import expm_hermitian, reduced_operators

__all__ = [
    "Target",
    "Axis",
    "Rotation",
    "Delay",
    "Repump",
    "PulseElement",
    "PulseProgram",
    "rotation_unitary",
    "hahn_echo",
    "deer",
    "polarization_transfer",
    "coc_closed_form",
    "zq_block",
    "zq_readout",
    "zq_chain",
    "program_to_text",
    "program_from_text",
]


class Target(enum.Enum):
    SPIN_S = "s"
    SPIN_S_PRIME = "s_prime"
    BOTH = "both"


class Axis(enum.Enum):
    X = "x"
    Y = "y"
    Z = "z"


@dataclass(frozen=True)
class Rotation:
    """Instantaneous rotation of one or both spins.

    ``angle`` is in radians and may be negative (phase-inverted pulse).
    ``shared_field`` only matters for ``target=BOTH``: the partner spin
    then receives angle/sqrt(2) instead of the full angle.
    """

    target: Target
    axis: Axis
    angle: float
    shared_field: bool = False

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError(f"rotation angle must be finite, got {self.angle}")


@dataclass(frozen=True)
class Delay:
    """Free evolution for ``duration`` seconds; noisy delays pick up the
    sampled fluctuator fields, noise-free ones evolve under the static
    generator only."""

    duration: float
    noisy: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError(f"delay duration must be finite and >= 0, got {self.duration}")


@dataclass(frozen=True)
class Repump:
    """Optical reset of the spin-1 into m_S = 0, preserving the reduced
    state of the partner spin: rho -> |0><0| (x) Tr_S(rho)."""


PulseElement = Union[Rotation, Delay, Repump]


@dataclass(frozen=True)
class PulseProgram:
    """Ordered pulse sequence; two programs with the same elements are equal."""

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))

    @property
    def total_duration(self) -> float:
        """Sum of all delays; pulses are instantaneous."""
        return sum(e.duration for e in self.elements if isinstance(e, Delay))

    def __add__(self, other: "PulseProgram") -> "PulseProgram":
        return PulseProgram(self.elements + other.elements)


def _half_spin_rotation(axis: Axis, angle: float) -> NDArray:
    """exp(-i angle s_axis) for a single spin-1/2 factor."""
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    if axis is Axis.X:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if axis is Axis.Y:
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[np.exp(-1j * angle / 2.0), 0.0], [0.0, np.exp(1j * angle / 2.0)]])


@lru_cache(maxsize=None)
def rotation_unitary(rot: Rotation) -> NDArray:
    """4-dim unitary of a rotation element in the reduced basis."""
    angle_tilde = 0.0
    angle_prime = 0.0
    if rot.target in (Target.SPIN_S, Target.BOTH):
        angle_tilde = rot.angle
    if rot.target is Target.SPIN_S_PRIME:
        angle_prime = rot.angle
    elif rot.target is Target.BOTH:
        angle_prime = rot.angle / math.sqrt(2.0) if rot.shared_field else rot.angle
    u_t = _half_spin_rotation(rot.axis, angle_tilde)
    u_p = _half_spin_rotation(rot.axis, angle_prime)
    u = np.kron(u_p, u_t)  # partner spin is the slow index
    u.setflags(write=False)
    return u


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def hahn_echo(
    tau: float,
    target: Target = Target.SPIN_S,
    shared_field: bool = False,
    noisy: bool = True,
) -> PulseProgram:
    """(pi/2)x - tau - (pi)x - tau - (pi/2)x on ``target``.

    Away from the anti-crossing the pulses address the spin-1 alone;
    at the anti-crossing a single excitation field covers both species,
    so build with ``target=BOTH`` there (scaled by ``shared_field``).
    ``noisy=False`` makes both delays noise-free. On both spins, unscaled,
    it is the coherence-order conversion of :func:`zq_chain`, equal away
    from the anti-crossing to :func:`coc_closed_form` up to a global phase.
    """
    return PulseProgram(
        (
            Rotation(target, Axis.X, math.pi / 2, shared_field),
            Delay(tau, noisy),
            Rotation(target, Axis.X, math.pi, shared_field),
            Delay(tau, noisy),
            Rotation(target, Axis.X, math.pi / 2, shared_field),
        )
    )


def deer(tau: float) -> PulseProgram:
    """Hahn echo on the spin-1 with a pi pulse on the partner at the
    midpoint, recoupling the secular dipolar interaction.

    At the anti-crossing the two species share the excitation field, so
    the midpoint collapses into one pulse on both spins: build
    ``hahn_echo(tau, Target.BOTH)`` there.
    """
    return PulseProgram(
        (
            Rotation(Target.SPIN_S, Axis.X, math.pi / 2),
            Delay(tau),
            Rotation(Target.SPIN_S, Axis.X, math.pi),
            Rotation(Target.SPIN_S_PRIME, Axis.X, math.pi),
            Delay(tau),
            Rotation(Target.SPIN_S, Axis.X, math.pi / 2),
        )
    )


def polarization_transfer(
    tau_zq: float, j_par: float | None = None, noisy: bool = True
) -> PulseProgram:
    """Transfer the optically-prepared spin-1 polarization to the partner.

    Timing tau_zq = 1/(4 J_par) makes the transfer exact. The midpoint
    inversion pulses refocus static field offsets within each half while
    letting the dipolar coupling act; pulse phases are fixed to the
    conventional choice whose noise-free composition walks through

        I/4 + Tz/2  ->  I/4 + Tx Pz  ->  I/4 - Tz Px  ->  I/4 - Pz/2

    and ends, after the repump, in the pure state |0,-1/2><0,-1/2|.
    """
    if j_par is not None and j_par != 0.0:
        detune = abs(4.0 * j_par * tau_zq - 1.0)
        if detune > 0.01:
            warnings.warn(
                f"tau_zq deviates from 1/(4 J_par) by {detune * 100:.1f}%; "
                f"polarization transfer will be partial",
                stacklevel=2,
            )
    return PulseProgram(
        (
            Rotation(Target.BOTH, Axis.X, math.pi / 2),
            Delay(tau_zq, noisy),
            Rotation(Target.BOTH, Axis.Y, math.pi),
            Delay(tau_zq, noisy),
            Rotation(Target.BOTH, Axis.Y, math.pi / 2),
            Delay(tau_zq, noisy),
            Rotation(Target.BOTH, Axis.Y, math.pi),
            Delay(tau_zq, noisy),
            Rotation(Target.SPIN_S_PRIME, Axis.X, math.pi / 2),
            Repump(),
        )
    )


def coc_closed_form(tau_zq: float, j_par: float) -> NDArray:
    """Analytic conversion unitary exp(-i 2 pi J_par Ty Py 2 tau_zq)."""
    ops = reduced_operators()
    angle = 2.0 * math.pi * j_par * 2.0 * tau_zq
    return expm_hermitian(angle * (ops.tilde_y @ ops.prime_y), 1.0)  # t = 1: any sign of J_par


def zq_block(
    tau_tilde: float, echo: bool = False, theta: float = 0.0, noisy: bool = True
) -> PulseProgram:
    """Zero-quantum free evolution, optionally echoed and phase-rotated.

    An optional z rotation of the spin-1 by ``theta`` first (the
    composite-pulse phase shift used to switch between relaxometry and
    frequency-sensing variants), then a free delay of ``tau_tilde``;
    with ``echo`` a pi pulse on both spins and a second identical delay
    follow, refocusing static site imbalance.
    """
    elements: list[PulseElement] = []
    if theta != 0.0:
        elements.append(Rotation(Target.SPIN_S, Axis.Z, theta))
    elements.append(Delay(tau_tilde, noisy))
    if echo:
        elements.append(Rotation(Target.BOTH, Axis.X, math.pi))
        elements.append(Delay(tau_tilde, noisy))
    return PulseProgram(tuple(elements))


def zq_readout(tau_zq: float, noisy: bool = True) -> PulseProgram:
    """Zero- to single-quantum conversion: the exact inverse of the
    conversion block, realized with phase-inverted pulses on the partner
    spin so the composed unitary is exp(+i 2 pi J_par Ty Py 2 tau_zq).

    The protected coherence maps back to (Tz - Pz)/2 and is then read
    out as the m_S = 0 population; the orthogonal zero-quantum quadrature
    is left unchanged and contributes nothing to that population.
    """
    return PulseProgram(
        (
            Rotation(Target.SPIN_S, Axis.X, math.pi / 2),
            Rotation(Target.SPIN_S_PRIME, Axis.X, -math.pi / 2),
            Delay(tau_zq, noisy),
            Rotation(Target.SPIN_S, Axis.X, math.pi),
            Rotation(Target.SPIN_S_PRIME, Axis.X, -math.pi),
            Delay(tau_zq, noisy),
            Rotation(Target.SPIN_S, Axis.X, math.pi / 2),
            Rotation(Target.SPIN_S_PRIME, Axis.X, -math.pi / 2),
        )
    )


def zq_chain(
    tau_zq: float,
    tau_tilde: float,
    echo: bool = True,
    theta: float = 0.0,
    j_par: float | None = None,
    noise_scope: str = "all",
) -> PulseProgram:
    """Full protocol: polarization transfer, conversion, zero-quantum
    evolution, and back-conversion for readout.

    ``noise_scope`` selects which delays see the sampled noise:
    "all" (the realistic protocol) or "evolution" (noise only during the
    zero-quantum delay, isolating the protected-evolution stage).
    """
    if noise_scope not in ("all", "evolution"):
        raise ValueError(f"unknown noise_scope {noise_scope!r}")
    aux_noisy = noise_scope == "all"
    return (
        polarization_transfer(tau_zq, j_par, noisy=aux_noisy)
        + hahn_echo(tau_zq, Target.BOTH, noisy=aux_noisy)
        + zq_block(tau_tilde, echo=echo, theta=theta, noisy=True)
        + zq_readout(tau_zq, noisy=aux_noisy)
    )


# ---------------------------------------------------------------------------
# text serialization (one element per line)
# ---------------------------------------------------------------------------

def program_to_text(prog: PulseProgram) -> str:
    """Serialize as one element per line:

    rotation <target> <axis> <angle_rad> [shared]
    delay <seconds> [noisefree]
    repump
    """
    lines = []
    for e in prog.elements:
        if isinstance(e, Rotation):
            parts = ["rotation", e.target.value, e.axis.value, f"{e.angle:.17g}"]
            if e.shared_field:
                parts.append("shared")
            lines.append(" ".join(parts))
        elif isinstance(e, Delay):
            parts = ["delay", f"{e.duration:.17g}"]
            if not e.noisy:
                parts.append("noisefree")
            lines.append(" ".join(parts))
        elif isinstance(e, Repump):
            lines.append("repump")
        else:
            raise TypeError(f"unknown element {e!r}")
    return "\n".join(lines) + "\n"


def program_from_text(text: str) -> PulseProgram:
    """Parse the serialization produced by :func:`program_to_text`; the
    result equals the program that was serialized. A line with a token
    outside that grammar, or a value its element refuses, is an error
    naming the line."""
    elements: list[PulseElement] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *args = line.lower().split()
        try:
            if kind == "rotation" and len(args) in (3, 4) and args[3:] in ([], ["shared"]):
                elements.append(Rotation(Target(args[0]), Axis(args[1]), float(args[2]), len(args) == 4))
            elif kind == "delay" and len(args) in (1, 2) and args[1:] in ([], ["noisefree"]):
                elements.append(Delay(float(args[0]), noisy=len(args) == 1))
            elif kind == "repump" and not args:
                elements.append(Repump())
            else:
                raise KeyError(kind)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}") from exc
    return PulseProgram(tuple(elements))
