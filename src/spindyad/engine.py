"""Piecewise-constant propagation and trajectory-averaged experiments.

The engine works in the doubly rotating frame resonant with both spins,
under the generator of :func:`spindyad.model.sim_frame_hamiltonian`: the
detuning from the operating point, the sampled magnetic and axial
electric noise fields, the thermal shift, the secular dipolar coupling
and, near the level anti-crossing, the static double-quantum term. Its
coefficients come from :func:`spindyad.model.frame_coefficients` once
per run, and its noise batch carries them; this module only propagates.

During a delay the noise is piecewise constant on the trajectory's step
grid, so the exact propagator factorizes over constant-noise segments:

* away from the anti-crossing the generator is diagonal and the whole
  delay reduces to integrated phases, evaluated in O(1) from the noise
  path's field sums over the delay;
* near the anti-crossing the generator has one 2x2 block coupling the
  outer pair of states, exponentiated in closed form per segment; a
  propagator is held as its diagonal and its two entries off it, and
  multiplied and applied to the states entry by entry.

Both paths are exact for piecewise-constant noise (no step-splitting
error), which is what the step-halving convergence check relies on.

:func:`run` checks the initial state once, then samples one trajectory's
noise at a time (none in a run with no live channel, whose noisy delays
are walked noise-free), to the end of the run's longest program,
reduces it to what it gives each noisy delay, and drops it: the field
sums of a dense path, or near the anti-crossing the constant-noise
segments, read from each field's redraw steps and values with no dense
path rendered; a field both sites see (xi = 0) is rendered, summed or
read once. Every noisy delay reads one table keyed by its span.
Near the anti-crossing the noisy-delay propagators of the whole run are
built in one pass (a large run in chunks of paths): every path is cut
into its segments at once, every segment is exponentiated at once, each
path's prefix products come from one log-depth scan, and a delay from
step k0 to k1 is P(k1) P(k0)^dagger; the number of numpy calls does not
grow with the number of segments.

The programs of a run are then grouped by skeleton (element kinds,
rotations and noisy flags; a zero-step delay changes no state and is
left out), and :func:`propagate` walks each group once over the
(programs, trajectories, 4, 4) stack of states, in walks of about
``_WALK_STATES`` states. A walk holds each of its programs' (first step,
end step) rows, one per nonempty delay; its noise-free double-quantum
delays are exponentiated in one call. Every state of the stack starts as
the initial state; until a walk's first noisy delay every trajectory
holds the same states, so the stack holds one, and that delay broadcasts
it to all. A rotation is the two matrix products ``np.einsum`` makes of
it over the whole stack; the readout reads only the diagonal. After every
element the walk checks every state's trace and Hermiticity, and after
its last element their positivity, by the one rule of
:func:`spindyad.linalg.density_failure`; a failing state is named by its
program's index in the run, its trajectory and the element. Each state
evolves exactly as it would alone, so the stack changes no bit.
:func:`sweep` builds the programs and their walks once for all its runs:
no variable it sweeps changes a program.
:func:`propagate` also takes one program and one dense noise path,
checks the path's length, and gives the final 4x4 state.

Noise draws: every path is read from the ``Experiment.draws`` store.
Each experiment makes its own, and every experiment derived from it with
:func:`dataclasses.replace` shares it, so the runs of a preset or a
:func:`sweep` draw each stream once. This module keeps no draw between
calls.

Determinism: per-trajectory noise streams are keyed by the master seed
and the trajectory index, and the stack and the mean/standard-error
reduction keep that order, so results are a pure function of the master
seed; what a store gives has the bits of a fresh draw.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import IO, Callable, Iterable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from . import model
from .analysis import FitResult, TimeTrace
from .linalg import assert_density_matrix, density_failure, reduced_operators
from .model import DyadParams, FrameCoefficients
from .noise import (
    FluctuatorConfig,
    NoiseDraws,
    NoiseTrajectory,
    held_fields,
    sample_electric_trajectory,
    sample_magnetic_trajectory,
)
from .protocol import Delay, PulseProgram, Repump, Rotation, rotation_unitary

__all__ = [
    "SimConfig",
    "TimeTrace",
    "Experiment",
    "SimulationError",
    "initial_state",
    "zq_state",
    "propagate",
    "run",
    "sweep",
    "trace_to_csv",
]


class SimulationError(RuntimeError):
    """Raised when propagation preconditions or sanity checks fail."""


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo execution settings.

    ``delta_b``, finite, is the static detuning from the operating field (tesla);
    ``near_bm`` keeps the double-quantum coupling active, valid for
    detunings of at most ~100 uT from the anti-crossing. ``master_seed``,
    in [0, 2**64), keys every noise stream of a run.
    """

    n_trajectories: int = 500
    dt: float = 1e-8
    master_seed: int = 1
    near_bm: bool = False
    delta_b: float = 0.0

    def __post_init__(self):
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if not math.isfinite(self.delta_b):
            raise ValueError(f"delta_b must be finite, got {self.delta_b}")
        if self.near_bm and abs(self.delta_b) > 100e-6:
            warnings.warn(
                f"near_bm with |delta_b| = {abs(self.delta_b):.3g} T exceeds the "
                f"~100 uT regime where the static double-quantum term is valid",
                stacklevel=2,
            )


def initial_state() -> NDArray:
    """Optically initialized dyad: |0><0| on the spin-1 manifold with an
    unpolarized partner, I/4 + Tz/2."""
    ops = reduced_operators()
    return np.asarray(ops.identity / 4.0 + ops.tilde_z / 2.0)


def zq_state() -> NDArray:
    """Ideal zero-quantum state after initialization and conversion:
    (I + 4(TxPy - TyPx) - 4 TzPz) / 4."""
    ops = reduced_operators()
    return np.asarray(ops.identity / 4.0 + ops.zq_antisym - ops.zz)


def _rotate(u: NDArray, rho: NDArray) -> NDArray:
    """u rho u^dagger for every state of a (..., 4, 4) stack, as the two
    matrix products ``np.einsum("ij,...jk,kl->...il", u, rho, u^dagger)``
    makes of it (numpy 2.4, along its optimized path): the states
    transposed, as one (states x 4, 4) matrix, times u^T, then that product
    transposed back times u^dagger. The operands keep einsum's layouts, so
    the bits are einsum's."""
    x = np.matmul(rho.swapaxes(-1, -2).reshape(-1, 4), u.T).reshape(rho.shape)
    return np.matmul(x.swapaxes(-1, -2).reshape(-1, 4), u.conj().T).reshape(rho.shape)


def _repump_state(rho: NDArray) -> NDArray:
    """rho -> |0><0|_S (x) Tr_S(rho) in the reduced ordering (partner slow),
    for every state of a (..., 4, 4) stack."""
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))  # indices (..., p1, t1, p2, t2)
    rho_p = np.einsum("...iaja->...ij", r)  # trace over the fictitious spin
    proj0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    return np.kron(rho_p, proj0)


def _max_eigenfrequency(c: FrameCoefficients, noise: FluctuatorConfig) -> float:
    """Bound on |eigenvalue| of the frame generator over the noise support (rad/s).

    Every eigenvalue is a diagonal energy a mt + b mp + j mt mp or, in the
    double-quantum block, j/4 +- hypot((a + b)/2, g).
    """
    beta_max, eps_max = noise.bounds
    a_max = abs(c.a0) + abs(c.k_beta) * beta_max + abs(c.k_eps) * eps_max
    b_max = abs(c.b0) + abs(c.k_beta) * beta_max
    return 0.5 * (a_max + b_max) + 0.25 * abs(c.j) + abs(c.g)


def _check_dt_bound(dt: float, omega_max: float) -> None:
    # twenty steps per cycle of the fastest eigenfrequency
    f_max = omega_max / (2.0 * math.pi)
    if f_max > 0 and dt > 1.0 / (20.0 * f_max):
        raise SimulationError(
            f"dt = {dt:.3g} s does not resolve the fastest eigenfrequency "
            f"{f_max:.3g} Hz; need dt <= {1.0 / (20.0 * f_max):.3g} s"
        )


def _dq_segment_unitaries(
    a: NDArray, b: NDArray, jpar_w: float, g_dq: float, t: NDArray
) -> NDArray:
    """exp(-i H t) for 4-dim generators with one 2x2 block, compact.

    ``a`` and ``b`` are Tz / Pz coefficients (rad/s), per segment or one
    for all, ``t`` the segment durations; ``g_dq != 0`` (callers enter only
    then, so hypot((a + b)/2, g_dq) > 0) connects basis states 0 and 3.
    Returns a (6, ...) array broadcast over the three: the diagonal of
    each unitary, then its entries (0, 3) and (3, 0), the only ones off it.
    """
    # diagonal energies: E(mt, mp) = a mt + b mp + jpar_w mt mp
    e1 = 0.5 * (-a + b) - 0.25 * jpar_w
    e2 = 0.5 * (a - b) - 0.25 * jpar_w
    mean = 0.25 * jpar_w  # (E0 + E3) / 2
    half_gap = 0.5 * (a + b)  # (E0 - E3) / 2
    omega = np.hypot(half_gap, g_dq)
    phase = np.exp(-1j * mean * t)
    c = np.cos(omega * t)
    s = np.sin(omega * t) / omega
    u00, u33 = phase * (c - 1j * half_gap * s), phase * (c + 1j * half_gap * s)
    off = phase * (-1j * g_dq * s)
    return np.stack(np.broadcast_arrays(u00, np.exp(-1j * e1 * t), np.exp(-1j * e2 * t), u33, off, off))


# A compact unitary (:func:`_dq_segment_unitaries`) u is U = D + O: D holds
# the diagonal u[:4], O the two entries (u03, u30) = u[4:]. O takes state 3
# to 0 and 0 to 3, so rows (or columns) ::3, states 0 and 3, mix with rows
# ::-3, the same two swapped; the products below are written out entry by
# entry on that rule.
_DQ_IDENTITY = np.array([1, 1, 1, 1, 0, 0], dtype=complex)


def _dq_product(x: NDArray, y: NDArray) -> NDArray:
    """The product x y of compact unitaries (6, ...)."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    np.multiply(x[:4], y[:4], out=out[:4])
    out[::3] += x[4:] * y[5:3:-1]
    np.multiply(x[::3], y[4:], out=out[4:])
    out[4:] += x[4:] * y[3::-3]
    return out


def _dq_apply(u: NDArray, rho: NDArray) -> NDArray:
    """U rho U^dagger for compact ``u`` (6, ...) over a (..., 4, 4) stack of
    states, entry by entry: rows and then columns scaled by the diagonal,
    rows and columns 0 and 3 mixed by the off-diagonal pair."""
    d = np.moveaxis(u[:4], 0, -1)
    o = np.moveaxis(u[4:], 0, -1)
    x = d[..., :, None] * rho
    x[..., ::3, :] += o[..., :, None] * rho[..., ::-3, :]
    out = x * d.conj()[..., None, :]
    out[..., :, ::3] += x[..., :, ::-3] * o.conj()[..., None, :]
    return out


# diagonals of Tz, Pz and TzPz in the reduced basis
_Z_TILDE, _Z_PRIME, _Z_ZZ = (
    np.real(np.diag(getattr(reduced_operators(), op))) for op in ("tilde_z", "prime_z", "zz")
)

# The three fields of one noise path that the engine reads (beta_s,
# beta_s', eps_z), None for a field that is zero: (steps, values) pairs
# (:func:`noise.held_fields`) near the anti-crossing, their dense renders
# (the samplers) off it.
_Fields = tuple[Optional[NDArray | tuple], ...]


def _delay_steps(elem: Delay, dt: float) -> int:
    n = int(round(elem.duration / dt))
    if abs(n * dt - elem.duration) > 1e-6 * dt:
        raise SimulationError(f"delay {elem.duration:.6g} s is not a multiple of dt = {dt:.3g} s")
    return n


def _pairs(path: tuple) -> _Fields:
    """A dense path's fields as the (steps, values) pairs the
    double-quantum reduction reads: the steps where each field changes
    value (step 0 always), found with one ``np.diff`` scan per field."""

    def pair(x: NDArray) -> tuple:
        steps = np.flatnonzero(np.diff(x, prepend=np.nan) != 0)
        return steps, x[steps]

    return tuple(None if x is None else pair(x) for x in path)


def _offset_pairs(column: Sequence, stride: int) -> tuple[NDArray, NDArray]:
    """One field of a chunk of paths as one (steps, values) pair: path p's
    steps offset by p x stride and cut below stride, a path without the
    field held at 0."""
    steps, values = zip(*((np.zeros(1, dtype=int), np.zeros(1)) if f is None else f for f in column))
    offset = np.repeat(np.arange(len(column)) * stride, [x.size for x in steps])
    steps, values = np.concatenate(steps), np.concatenate(values)
    keep = steps < stride
    return steps[keep] + offset[keep], values[keep]


def _dq_spans(paths: Sequence[_Fields], k0: NDArray, k1: NDArray, c: FrameCoefficients, dt: float) -> NDArray:
    """exp(-i H t) over every noisy span [k0, k1) of a chunk of paths of
    (steps, values) pairs, compact: a (spans, paths, 6) array.

    All paths are cut at once, path p's steps offset by p x stride, at
    step 0, every span boundary and every redraw of a live field; a
    segment reads each field at its start, a field every path shares with
    an earlier one (beta_s' at xi = 0) once. One log-depth scan gives each
    path's prefix products P, and a span is P(k1) P(k0)^dagger."""
    n, stride = len(paths), int(k1.max()) + 1
    columns = list(zip(*paths))
    live = [q for q, col in enumerate(columns) if any(f is not None for f in col)]
    origins = np.arange(n) * stride
    first = {q: next(r for r in live if all(f is g for f, g in zip(columns[q], columns[r]))) for q in live}
    pairs = {q: _offset_pairs(columns[q], stride) for q in live if first[q] == q}
    points = [steps for steps, _ in pairs.values()]
    points.append((origins[:, None] + np.concatenate(([0], k0, k1))).ravel())
    cuts = np.sort(np.concatenate(points))
    starts, lengths = cuts[:-1], np.diff(cuts)
    # a repeated cut starts an empty segment, and a path's last span end none
    keep = (lengths > 0) & ((starts + 1) % stride != 0)
    starts, lengths = starts[keep], lengths[keep]
    values = {q: v[np.searchsorted(steps, starts, side="right") - 1] for q, (steps, v) in pairs.items()}
    zero = np.zeros(starts.size)  # a field that is not live; adding k_eps * 0 keeps a's bits
    a, b = c.ab(*(values.get(first.get(q), zero) for q in range(3)))
    u = _dq_segment_unitaries(a, b, c.j, c.g, lengths * dt)
    # prefix products: after the pass at distance d, each segment holds the
    # product of its path's last 2d segments up to it, the latest leftmost
    pos = np.arange(starts.size) - np.searchsorted(starts, origins)[starts // stride]
    d = 1
    while d <= pos.max():
        np.copyto(u[:, d:], _dq_product(u[:, d:], u[:, :-d]), where=pos[d:] >= d)
        d *= 2
    ends = starts + lengths
    p1 = u[:, np.searchsorted(ends, (k1[:, None] + origins).ravel())]
    p0 = u[:, np.searchsorted(ends, (k0[:, None] + origins).ravel())]
    p0[:, np.repeat(k0 == 0, n)] = _DQ_IDENTITY[:, None]
    p0_dagger = p0[[0, 1, 2, 3, 5, 4]].conj()  # u03 and u30 swap places
    return _dq_product(p1, p0_dagger).T.reshape(k0.size, n, 6)


@dataclass(frozen=True)
class _NoiseBatch:
    """What ``n`` noise paths give each noisy delay of a set of programs.

    ``spans[(k0, k1)]`` holds it for the delay from step k0 to k1: each
    path's field sums (beta_s, beta_s', eps_z) as an (n, 3) array or, with
    the double-quantum block active, each path's compact propagator as an
    (n, 6) array (:func:`_dq_segment_unitaries`) built under ``coeffs``
    from the paths' (steps, values) pairs by :func:`_dq_spans`, in chunks
    of at most about ``_SEGMENT_CHUNK`` segments; every path covered every
    span. With every amplitude zero no path is read, ``spans`` is None and
    every delay is walked noise-free. Every walk over the batch runs under
    ``coeffs``; :func:`run` checks the initial state.
    """

    n: int
    dt: float
    coeffs: FrameCoefficients
    spans: Optional[dict]


# segments held at once; every path of a run has the same live fields, so a
# chunk changes no bit. Full-size peak RSS of field_sweep / echo_anticrossing
# on 2 vCPUs, at equal wall time: 49.3 / 45.1 MB at 1 << 12, 49.2 / 47.8 at
# 1 << 14, 60.1 / 60.8 at 1 << 16
_SEGMENT_CHUNK = 1 << 12

# states (programs x trajectories) one walk holds: without a cap the shipped
# full-size configs (400-500 trajectories) peaked 5-7 MB higher
_WALK_STATES = 1 << 10


def _span_sums(x: NDArray, k0: NDArray, k1: NDArray) -> NDArray:
    """One field's sum over each span [k0, k1), from its cumsum with a
    leading zero, which is freed before the next path is sampled."""
    sums = np.zeros(k1.max(initial=0) + 1)
    np.cumsum(x[: sums.size - 1], out=sums[1:])
    return sums[k1] - sums[k0]


def _reduce(
    paths: Iterable[_Fields],
    n: int,
    dt: float,
    spans: Sequence[tuple[int, int]],
    c: FrameCoefficients,
) -> _NoiseBatch:
    """Reduce ``n`` noise paths, one at a time, to the span table of the
    noisy delays ``spans``; every path must reach the last span's end. Its
    fields are dense arrays, or (steps, values) pairs when ``c.g != 0``, a
    chunk of paths at a time; a field that is an earlier one of its path
    (beta_s' at xi = 0) is summed once and its column copied."""
    dq = c.g != 0.0
    k0, k1 = np.array(spans, dtype=int).reshape(-1, 2).T
    table = np.zeros((len(spans), n, 6 if dq else 3), dtype=complex if dq else float)
    pending, held, done = [], 0, 0
    for i, path in enumerate(paths):
        if not dq:
            for q, x in enumerate(path):
                if x is not None:
                    r = next(r for r, y in enumerate(path) if y is x)  # the first field that is x
                    table[:, i, q] = table[:, i, r] if r < q else _span_sums(x, k0, k1)
        elif spans:
            pending.append(path)
            redraws = {id(f): f[0].size for f in path if f is not None}  # a shared field counts once
            held += 2 * len(spans) + sum(redraws.values())
            if held >= _SEGMENT_CHUNK or i + 1 == n:
                table[:, done : i + 1] = _dq_spans(pending, k0, k1, c, dt)
                pending, held, done = [], 0, i + 1
        del path  # no path outlives its reduction, or its chunk's
    return _NoiseBatch(n, dt, c, dict(zip(spans, table)))


@dataclass(frozen=True)
class _Walk:
    """Programs of one skeleton (element kinds, rotations and noisy flags
    once zero-step delays are left out), walked together: ``elements`` is
    that skeleton, read from the first program, ``steps[p, d]`` the (first
    step, end step) of program p's delay d, and ``index[p]``, all a walk
    keeps of program p, its position among the run's programs."""

    elements: tuple
    steps: NDArray
    index: NDArray


def _walks(programs: Sequence[PulseProgram], dt: float, n: int) -> tuple[list[_Walk], list[tuple[int, int]], int]:
    """The programs grouped by skeleton, in walks of about ``_WALK_STATES``
    states over ``n`` trajectories; the sorted (first step, end step) of
    every noisy delay; and the longest program, in steps. A zero-step delay
    leaves every state as it is, so no skeleton holds one. Every delay is
    checked to lie on the dt grid, so every program does."""
    groups: dict = {}  # skeleton -> (its elements, [(program index, its delays' steps)])
    spans, longest = set(), 0
    for k, prog in enumerate(programs):
        elements, lengths, step = [], [], 0  # step: where the next delay starts
        for e in prog.elements:
            if isinstance(e, Delay):
                if not (m := _delay_steps(e, dt)):
                    continue
                if e.noisy:
                    spans.add((step, step + m))
                lengths.append(m)
                step += m
            elements.append(e)
        skeleton = tuple((Delay, e.noisy) if isinstance(e, Delay) else e for e in elements)
        groups.setdefault(skeleton, (tuple(elements), []))[1].append((k, lengths))
        longest = max(longest, step)
    size = max(1, _WALK_STATES // n)
    walks = []
    for elements, members in groups.values():
        for i in range(0, len(members), size):
            index, rows = zip(*members[i : i + size])
            n_steps = np.array(rows, dtype=int).reshape(len(index), -1)
            end = n_steps.cumsum(axis=1)
            steps = np.stack((end - n_steps, end), axis=-1)
            walks.append(_Walk(elements, steps, np.array(index)))
    return walks, sorted(spans), longest


def _delay(rho: NDArray, noisy: bool, steps: NDArray, batch: _NoiseBatch) -> NDArray:
    """One delay of every program of a walk: ``rho`` is the (programs, n,
    4, 4) stack, or (programs, 1, 4, 4) before the walk's first noisy delay,
    which broadcasts it to all n paths, and ``steps`` each program's (k0,
    k1), a key of the span table; no delay of a walk is empty."""
    c, dt = batch.coeffs, batch.dt
    k0, k1 = steps.T
    n = k1 - k0
    if noisy:  # what the n paths give each program's delay
        noise = np.stack([batch.spans[s] for s in zip(k0.tolist(), k1.tolist())])
    if c.g == 0.0:
        # diagonal generator: integrate the phases over the whole delay
        if noisy:  # each sum a (programs, n, 1) column
            sum_beta, sum_beta_p, sum_eps_z = np.moveaxis(noise, -1, 0)[..., None]
        else:
            sum_beta = sum_beta_p = sum_eps_z = 0.0
        n = n[:, None, None]
        a_int = dt * (n * c.a0) + dt * (c.k_beta * sum_beta + c.k_eps * sum_eps_z)
        b_int = dt * (n * c.b0) + dt * c.k_beta * sum_beta_p
        phases = a_int * _Z_TILDE + b_int * _Z_PRIME + c.j * n * dt * _Z_ZZ
        u_diag = np.exp(-1j * phases)
        return (u_diag[..., :, None] * rho) * u_diag.conj()[..., None, :]
    # active double-quantum block: compact unitaries, applied entry by entry
    if noisy:
        u = np.moveaxis(noise, -1, 0)
    else:
        u = _dq_segment_unitaries(c.a0, c.b0, c.j, c.g, n[:, None] * dt)
    return _dq_apply(u, rho)


def _check_invariants(rho: NDArray, walk: _Walk, j: int) -> None:
    """Unit trace and Hermiticity of every state of the stack after the
    walk's element ``j`` and, after its last, positivity
    (:func:`~spindyad.linalg.density_failure`); a failing state is named
    by its program's index in the run, its trajectory and the element, a
    delay by the failing program's steps."""
    failure = density_failure(rho, positivity=j == len(walk.elements) - 1)
    if failure is not None:
        (p, i), what = failure
        elem = walk.elements[j]
        if isinstance(elem, Delay):
            k0, k1 = walk.steps[p, sum(isinstance(e, Delay) for e in walk.elements[:j])]
            elem = f"Delay(steps [{k0}, {k1}), noisy={elem.noisy})"
        raise SimulationError(
            f"program {walk.index[p]}, trajectory {i}: state invariants violated after element {elem}: {what}"
        )


def propagate(
    rho0: NDArray,
    program: PulseProgram | _Walk,
    params: DyadParams,
    traj: NoiseTrajectory | _NoiseBatch,
    sim: SimConfig,
    thermal_shift: float = 0.0,
) -> NDArray:
    """Propagate a state through a pulse program under sampled noise.

    Two shapes: a program and one noise path, on the ``sim.dt`` grid and
    at least as long as the program (checked before it is reduced), give
    the final 4x4 state under the frame of ``params``, ``sim`` and
    ``thermal_shift``; a walk (:func:`_walks`) and the batch :func:`run`
    reduces its trajectories to give the (programs, n, 4, 4) stack under
    the batch's frame. Every state starts as ``rho0``. Delays advance through
    the step grid (noise suppressed for noise-free delays but time still
    elapsing); rotations and repump events apply instantaneously between
    steps, a rotation as :func:`_rotate`. The stack is (programs, 1, 4, 4)
    until the first noisy delay broadcasts it to all n trajectories; with
    none walked (or no path read), the final states are broadcast after
    their check. Every state's trace and Hermiticity are checked after
    every element, and its positivity once, after the last
    (:func:`_check_invariants`); a walk with no element checks nothing,
    its states being ``rho0``. A single path's ``rho0`` is checked before
    the walk (an ``AssertionError``), and :func:`run` checks a batch's
    once per run. A failing state in the walk is a
    :class:`SimulationError` that names its program's index in the run,
    its trajectory (0 before the first noisy delay) and the element.
    """
    if isinstance(traj, NoiseTrajectory):
        if not math.isclose(traj.dt, sim.dt, rel_tol=1e-12):
            raise SimulationError(f"noise path dt = {traj.dt:.6g} s, but sim.dt = {sim.dt:.6g} s")
        assert_density_matrix(rho0)
        (program,), spans, need = _walks([program], traj.dt, 1)
        if need > traj.n_steps:
            raise SimulationError(
                f"noise trajectory ({traj.n_steps} steps) shorter than program (needs {need})"
            )
        coeffs = model.frame_coefficients(params, sim.delta_b, sim.near_bm, thermal_shift)
        path = (traj.beta_s, traj.beta_s_prime, traj.eps_z)
        batch = _reduce([_pairs(path) if coeffs.g != 0.0 else path], 1, traj.dt, spans, coeffs)
    else:
        batch = traj
    rho = np.broadcast_to(np.asarray(rho0, dtype=complex), (len(program.index), 1, 4, 4)).copy()
    d = 0
    for j, elem in enumerate(program.elements):
        if isinstance(elem, Delay):
            noisy = elem.noisy and batch.spans is not None  # a zero-amplitude run read no path
            rho = _delay(rho, noisy, program.steps[:, d], batch)
            d += 1
        elif isinstance(elem, Rotation):
            rho = _rotate(rotation_unitary(elem), rho)
        elif isinstance(elem, Repump):
            rho = _repump_state(rho)
        else:
            raise SimulationError(f"unknown program element {elem!r}")
        _check_invariants(rho, program, j)
    if rho.shape[1] < batch.n:  # no noisy delay was walked
        rho = np.broadcast_to(rho, (rho.shape[0], batch.n, 4, 4)).copy()
    return rho if traj is batch else rho[0, 0]


@dataclass(frozen=True)
class Experiment:
    """One trajectory-averaged experiment: a family of programs over the
    swept evolution times, plus all physical and noise settings.

    ``program_builder`` maps a sweep time (s) to the pulse program run at
    that point; ``delta_temp`` injects a thermal crystal-field shift.
    ``noise`` sets every noise channel, keyed by ``sim.master_seed``.
    Without a builder and times an experiment holds only the settings: a
    preset builds one such and derives each of its runs from it, and
    :func:`run` rejects it as it is.
    ``draws`` is the store every noise path of a run is rendered from.
    Each experiment built here makes its own; one derived from it with
    :func:`dataclasses.replace` shares it, so the runs that read the same
    streams draw each once. It changes no result, so it takes no part in
    comparisons.
    """

    params: DyadParams
    noise: FluctuatorConfig
    sim: SimConfig
    program_builder: Optional[Callable[[float], PulseProgram]] = None
    times: Sequence[float] = ()
    delta_temp: float = 0.0
    label: str = ""
    draws: NoiseDraws = field(default_factory=NoiseDraws, compare=False, repr=False)

    @property
    def thermal_shift(self) -> float:
        return model.thermal_shift(self.delta_temp, self.params)


def _layout(exp: Experiment) -> tuple:
    """The sweep times of ``exp`` and :func:`_walks` of its programs at
    them; only the builder, times, dt and trajectory count set it."""
    times = np.asarray(list(exp.times), dtype=float)
    if times.size == 0:
        raise ValueError("experiment has no sweep times")
    programs = [exp.program_builder(float(t)) for t in times]
    return times, *_walks(programs, exp.sim.dt, exp.sim.n_trajectories)


def _signals(exp: Experiment, layout: Optional[tuple] = None) -> tuple[NDArray, NDArray]:
    """The sweep times and the readout of every trajectory at each of them,
    shaped (times, trajectories), over ``layout`` (:func:`_layout`).

    Every run starts from :func:`initial_state`, checked once, before any
    noise is sampled.
    Trajectory i's noise is read from stream (master seed, i) of
    ``exp.draws``, reduced at once to what the programs' noisy delays read
    of it, and dropped; a field with zero amplitude is not sampled, and
    with the double-quantum block active none is rendered: it is read as
    (steps, values) pairs. A run whose every amplitude is zero reads and
    reduces no path, and walks its noisy delays noise-free. The programs
    are grouped by skeleton, and each group is walked once (in walks of
    about ``_WALK_STATES`` states) over the stack of its programs and all
    trajectories, with one :func:`propagate` call per walk.
    """
    times, walks, spans, max_steps = _layout(exp) if layout is None else layout
    dt = exp.sim.dt
    n_traj = exp.sim.n_trajectories
    coeffs = model.frame_coefficients(exp.params, exp.sim.delta_b, exp.sim.near_bm, exp.thermal_shift)
    _check_dt_bound(dt, _max_eigenfrequency(coeffs, exp.noise))
    rho0 = initial_state()
    noise, duration = exp.noise, max_steps * dt
    draws, seed = exp.draws, exp.sim.master_seed

    def fields(i: int) -> _Fields:
        if coeffs.g != 0.0:
            return held_fields(noise, duration, dt, i, draws=draws, seed=seed)
        beta = beta_p = eps_z = None
        if noise.beta_rms > 0:
            traj = sample_magnetic_trajectory(noise, duration, dt, i, draws=draws, seed=seed)
            beta, beta_p = traj.beta_s, traj.beta_s_prime
        if noise.eps_rms > 0:
            eps_z = sample_electric_trajectory(noise, duration, dt, i, draws=draws, seed=seed)
        return beta, beta_p, eps_z

    try:
        assert_density_matrix(rho0)
        paths = (fields(i) for i in range(n_traj))
        live = noise.beta_rms > 0 or noise.eps_rms > 0
        batch = _reduce(paths, n_traj, dt, spans, coeffs) if live else _NoiseBatch(n_traj, dt, coeffs, None)
        signals = np.empty((times.size, n_traj))
        proj0 = np.real(np.diagonal(reduced_operators().proj_ms0))  # Tr(rho P0) reads the diagonal
        for walk in walks:
            rho = propagate(rho0, walk, exp.params, batch, exp.sim)
            signals[walk.index] = rho.real.diagonal(axis1=-2, axis2=-1) @ proj0
    except (ValueError, AssertionError) as exc:  # an under-resolved switch rate, a bad state
        raise SimulationError(str(exc)) from exc
    return times, signals


def run(exp: Experiment, layout: Optional[tuple] = None) -> TimeTrace:
    """Execute an experiment and average the readout over trajectories.

    The readout observable is the fractional population of m_S = 0,
    Tr(rho P0). The reported uncertainty is the standard error of the
    per-trajectory signals (zero for a single trajectory). All
    trajectories run as one batch. :func:`sweep` passes the ``layout``
    it built once for all its runs; None builds it here.
    """
    times, signals = _signals(exp, layout)
    n_traj = exp.sim.n_trajectories
    mean = signals.mean(axis=1)
    if n_traj > 1:
        sem = signals.std(axis=1, ddof=1) / math.sqrt(n_traj)
    else:
        sem = np.zeros_like(mean)
    metadata = {
        "label": exp.label,
        "master_seed": exp.sim.master_seed,
        "n_trajectories": n_traj,
        "dt": exp.sim.dt,
        "near_bm": exp.sim.near_bm,
        "delta_b": exp.sim.delta_b,
        "beta_rms": exp.noise.beta_rms,
        "xi": exp.noise.xi,
        "switch_rate": exp.noise.switch_rate,
        "j_par": exp.params.j_par,
        "j_perp": exp.params.j_perp,
        "delta_temp": exp.delta_temp,
        "eps_rms": exp.noise.eps_rms,
    }
    return TimeTrace(times, mean, sem, metadata=metadata)


def _apply_variable(exp: Experiment, variable: str, value: float) -> Experiment:
    if variable == "delta_b":
        return replace(exp, sim=replace(exp.sim, delta_b=value))
    return replace(exp, noise=replace(exp.noise, **{variable: value}))


def sweep(variable: str, values: Sequence[float], exp: Experiment) -> list[TimeTrace]:
    """Run one experiment per value of ``variable``, xi, eps_rms or
    delta_b, and return their traces in the order of ``values``, each
    with the bits of :func:`run` at its value. None of the three changes
    a program, so the programs and their walks are built once, after the
    variable is checked. The runs share ``exp.draws``, so every stream
    is drawn once for the sweep."""
    if variable not in ("xi", "eps_rms", "delta_b"):
        raise ValueError(f"unknown sweep variable {variable!r}; sweep covers xi, eps_rms and delta_b")
    layout = _layout(exp)
    return [run(_apply_variable(exp, variable, float(v)), layout) for v in values]


def trace_to_csv(
    trace: TimeTrace,
    stream: IO[str],
    sweep_value: float | None = None,
    fit: Optional[FitResult] = None,
) -> None:
    """Write a trace as CSV with a '#'-prefixed metadata header and an
    optional fit-result footer."""
    for key in sorted(trace.metadata):
        stream.write(f"# {key} = {trace.metadata[key]}\n")
    stream.write("sweep_value,time_s,signal_mean,signal_sem\n")
    sv = "" if sweep_value is None else f"{sweep_value:.17g}"
    for t, m, s in zip(trace.times, trace.signal_mean, trace.signal_sem):
        stream.write(f"{sv},{t:.17g},{m:.17g},{s:.17g}\n")
    if fit is not None:
        stream.write(
            f"# fit: t2 = {fit.t2:.17g}, stretch_n = {fit.stretch_n:.17g}, "
            f"amplitude = {fit.amplitude:.17g}, offset = {fit.offset:.17g}, "
            f"residual_rms = {fit.residual_rms:.17g}, converged = {fit.converged}\n"
        )
