"""Stochastic fluctuator trajectories for magnetic and electric noise.

Each noise channel is a random telegraph-like fluctuator: it holds its
value and, once per propagation step of length dt, redraws it with
probability p = switch_rate * dt from a zero-mean uniform distribution.
The uniform support is [-sqrt(3) sigma, +sqrt(3) sigma] so that the
stationary root-mean-square equals the configured sigma exactly.

The magnetic field seen by the two spins is split into a shared (global)
channel and two independent site-local channels,

    beta(t)  = beta_g(t) + beta_l(t)
    beta'(t) = beta_g(t) + beta_l'(t)

with the power split controlled by the gradiometer parameter xi:
local rms = sqrt(xi) * beta_rms, global rms = sqrt(1 - xi) * beta_rms,
which keeps the per-site rms at beta_rms for every xi and makes the
time-average definition

    xi = <(beta - beta')^2> / (<beta^2> + <beta'^2>)

come out at the configured value.

Reproducibility: each stream is a pure function of (master seed,
trajectory, domain). Streams use the counter-based Philox generator keyed
by (seed, stream_id) with a domain tag in the counter block, so results
are bit-identical no matter how trajectories are scheduled, and a longer
trajectory is a bit-exact extension of a shorter one with the same key
(draws are consumed strictly in step order). The draw reads Philox's raw
64-bit integers: it compares them with an integer threshold and makes a
uniform only where a channel redraws, as ``(x >> 11) * 2**-53``, which
is how ``Generator.random`` makes its doubles, so every stream has the
bits it had when drawn as floats. Sampling has three stages:

* the *draw* (:func:`_draw`): each of a stream's three channels' redraw
  steps and raw uniforms;
* the *pairs*: each field of a trajectory (beta_s, beta_s', eps_z) as a
  (steps, values) pair, held at values[i] from steps[i] on, or None when
  it is zero (:func:`held_fields`, which the double-quantum engine path
  reads as they are);
* the *render*: a pair repeated into its dense per-step path, which the
  samplers return read-only; a field the two sites share (xi = 0) is one
  pair, rendered once and returned for both.

Every draw goes through a :class:`NoiseDraws` store: the caller's (each
``spindyad.engine.Experiment`` owns one, shared by the experiments
derived from it), or a throwaway one for a call that passes none. The
store draws every channel of each stream once, redraws it only for a
longer length, and serves it to every run that reads it; what it gives
has the bits of a fresh draw. No draw outlives the store, and the
module holds none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox
from numpy.typing import NDArray

__all__ = [
    "FluctuatorConfig",
    "NoiseTrajectory",
    "NoiseDraws",
    "partition",
    "sample_magnetic_trajectory",
    "sample_electric_trajectory",
    "held_fields",
    "empirical_xi",
]

_SQRT3 = math.sqrt(3.0)

# Philox counter-domain tags keep the magnetic and electric streams of a
# given (seed, stream_id) statistically independent.
_DOMAIN_MAGNETIC = 0
_DOMAIN_ELECTRIC = 1

_CHANNELS = 3  # per stream: global, local at S, local at S'; eps_z reads channel 2

DEFAULT_SWITCH_RATE = 1e5  # Hz; comparable to |g| beta_rms at 1 uT


@dataclass(frozen=True)
class FluctuatorConfig:
    """Settings of every noise channel; the samplers take the seed.

    Attributes:
        beta_rms: total per-site rms magnetic field (tesla), finite and >= 0.
        xi: fraction of the magnetic noise power that is site-local, in [0, 1].
        switch_rate: magnetic fluctuator redraw rate (Hz), > 0.
        eps_rms: rms axial electric field eps_z (V/m), finite and >= 0; 0 is off.
        electric_rate: electric fluctuator redraw rate (Hz), > 0.
    """

    beta_rms: float = 1e-6
    xi: float = 0.0
    switch_rate: float = DEFAULT_SWITCH_RATE
    eps_rms: float = 0.0
    electric_rate: float = DEFAULT_SWITCH_RATE

    def __post_init__(self):
        if not 0 <= self.beta_rms < math.inf:
            raise ValueError(f"beta_rms must be finite and >= 0, got {self.beta_rms}")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError(f"xi must be in [0, 1], got {self.xi}")
        if not self.switch_rate > 0:
            raise ValueError(f"switch_rate must be > 0, got {self.switch_rate}")
        if not 0 <= self.eps_rms < math.inf:
            raise ValueError(f"eps_rms must be finite and >= 0, got {self.eps_rms}")
        if not self.electric_rate > 0:
            raise ValueError(f"electric_rate must be > 0, got {self.electric_rate}")

    @property
    def bounds(self) -> tuple[float, float]:
        """The largest |beta_s| (and |beta_s'|) and |eps_z| a draw can hold:
        a channel's half-width sqrt(3) sigma, and a site's field the sum of
        the global channel and its local one."""
        glob, loc = partition(self.xi, self.beta_rms)
        return _SQRT3 * glob + _SQRT3 * loc, _SQRT3 * self.eps_rms


@dataclass
class NoiseTrajectory:
    """Piecewise-constant sampled noise over a protocol's duration.

    ``beta_s`` and ``beta_s_prime`` are per-step fields (tesla) at the
    two spin sites; ``eps_z`` is an optional per-step axial electric
    field (V/m).
    """

    dt: float
    beta_s: NDArray
    beta_s_prime: NDArray
    eps_z: Optional[NDArray] = None

    @property
    def n_steps(self) -> int:
        return self.beta_s.shape[0]

    def __post_init__(self):
        if self.beta_s.shape != self.beta_s_prime.shape:
            raise ValueError("beta_s and beta_s_prime must have equal length")
        if self.eps_z is not None and self.eps_z.shape != self.beta_s.shape:
            raise ValueError(f"eps_z must have shape ({self.n_steps},)")

    def refined(self, factor: int) -> "NoiseTrajectory":
        """Same physical noise path represented on a grid dt/factor, for an
        integer factor >= 1 (each step becomes ``factor`` steps).

        Values are held constant across the finer steps, so propagating
        the refined trajectory must reproduce the original signal; this
        is the step-size convergence check.
        """
        if not (isinstance(factor, (int, np.integer)) and factor >= 1):
            raise ValueError(f"factor must be an integer >= 1, got {factor!r}")
        rep = lambda a: np.repeat(a, factor, axis=0)
        return NoiseTrajectory(
            dt=self.dt / factor,
            beta_s=rep(self.beta_s),
            beta_s_prime=rep(self.beta_s_prime),
            eps_z=None if self.eps_z is None else rep(self.eps_z),
        )


def partition(xi: float, beta_rms: float) -> tuple[float, float]:
    """Split the per-site rms into (global, local) channel rms values.

    Returns (beta_global_rms, beta_local_rms) with
    global^2 + local^2 = beta_rms^2.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must be in [0, 1], got {xi}")
    return beta_rms * math.sqrt(1.0 - xi), beta_rms * math.sqrt(xi)


def _stream_rng(seed: int, stream_id: int, domain: int) -> Generator:
    key = np.array([np.uint64(seed), np.uint64(stream_id)], dtype=np.uint64)
    counter = np.array([0, 0, 0, domain], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=key))


def _switch_threshold(p_switch: float) -> np.uint64:
    """The raw integer x below which the uniform ``Generator.random``
    makes of it, m * 2**-53 with m = x >> 11, is below ``p_switch``: for an
    integer m that holds exactly when m < ceil(p_switch * 2**53)."""
    return np.uint64(math.ceil(p_switch * 2**53)) << np.uint64(11)


def _draw(
    seed: int, stream_id: int, domain: int, n_steps: int, p_switch: float
) -> list[tuple[NDArray, NDArray]]:
    """The redraw steps and raw uniforms of every channel of one stream.

    One (n_steps, 2 * _CHANNELS) block of raw Philox integers is drawn row
    by row (step-major), so a longer draw extends a shorter one
    bit-exactly. Channel j redraws at step 0 (stationary start) and at
    every later step where the uniform of column j is below ``p_switch``,
    taking the uniform of column _CHANNELS + j. Uniforms are made only at
    those steps, with the bits ``Generator.random`` would give them; the
    block is dropped on return.
    """
    x = _stream_rng(seed, stream_id, domain).bit_generator.random_raw(max(n_steps, 1) * 2 * _CHANNELS)
    x = x.reshape(-1, 2 * _CHANNELS)
    below = _switch_threshold(p_switch)
    out = []
    for j in range(_CHANNELS):
        starts = np.concatenate(([0], np.flatnonzero(x[1:n_steps, j] < below) + 1))
        out.append((starts, (x[starts, _CHANNELS + j] >> np.uint64(11)) * 2.0**-53))
    return out


def _held(starts: NDArray, uniforms: NDArray, n_steps: int, sigma: float) -> tuple[NDArray, NDArray]:
    """The redraw steps before ``n_steps`` of one drawn channel and the
    value at rms ``sigma`` it holds from each on: its path as a (steps,
    values) pair. No value is -0.0."""
    k = np.searchsorted(starts, n_steps)  # the redraws before step n_steps
    return starts[:k], (2.0 * uniforms[:k] - 1.0) * (_SQRT3 * sigma)


def _render(pair: Optional[tuple], n_steps: int) -> NDArray:
    """The (n_steps,) path of a (steps, values) pair, zeros for None,
    marked read-only."""
    x = np.zeros(n_steps) if pair is None else np.repeat(pair[1], np.diff(pair[0], append=n_steps))
    x.setflags(write=False)
    return x


class NoiseDraws:
    """The draws of the streams one caller reads many times.

    A sweep reads the same streams at several amplitudes and lengths;
    this store draws each stream once, every channel of it, at the
    longest length asked so far, and keeps only the channels' redraw
    steps and uniforms (about ``p_switch * n_steps`` per channel). Only a
    longer request redraws a stream: the old draw is a prefix of the new
    one, so every read keeps the bits of a fresh draw. The store lives
    as long as its owner keeps it; nothing is cached between callers.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[int, list[tuple[NDArray, NDArray]]]] = {}

    def get(
        self, seed: int, stream_id: int, domain: int, n_steps: int, p_switch: float
    ) -> list[tuple[NDArray, NDArray]]:
        """The draw of every channel of a stream, at least ``n_steps`` long."""
        key = (seed, domain, stream_id, p_switch)
        length, drawn = self._entries.get(key, (-1, None))
        if length < n_steps:
            drawn = _draw(seed, stream_id, domain, n_steps, p_switch)
            self._entries[key] = (n_steps, drawn)
        return drawn


def _n_steps(duration: float, dt: float) -> int:
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError(f"duration must be finite and >= 0, got {duration}")
    return int(round(duration / dt))


def _check_step(switch_rate: float, dt: float) -> float:
    p = switch_rate * dt
    if p > 0.5:
        raise ValueError(
            f"switch probability per step r*dt = {p:.3g} > 0.5; the noise "
            f"model is under-resolved, reduce dt"
        )
    return p


def _add(x: Optional[tuple], y: Optional[tuple]) -> Optional[tuple]:
    """The sum of two (steps, values) paths, on the union of their steps;
    None is a zero path. A value is never -0.0, so adding a zero path
    would keep the other's bits: it is left out."""
    if x is None or y is None:
        return y if x is None else x
    steps = np.union1d(x[0], y[0])
    at = lambda f: f[1][np.searchsorted(f[0], steps, side="right") - 1]
    return steps, at(x) + at(y)


def _magnetic(
    cfg: FluctuatorConfig, n_steps: int, dt: float, stream_id: int, draws: Optional[NoiseDraws], seed: int
) -> tuple[Optional[tuple], Optional[tuple]]:
    """The pairs of beta_s and beta_s', None when beta_rms is 0: channel 0
    of the magnetic stream (global) plus channel 1 or 2 (local at S or
    S'). A channel with zero amplitude builds no pair, so at xi = 0 both
    are the one global pair."""
    if cfg.beta_rms == 0:
        return None, None
    p = _check_step(cfg.switch_rate, dt)
    drawn = (NoiseDraws() if draws is None else draws).get(seed, stream_id, _DOMAIN_MAGNETIC, n_steps, p)
    sig_g, sig_l = partition(cfg.xi, cfg.beta_rms)
    glob, loc, loc_prime = (
        _held(*d, n_steps, s) if s else None for d, s in zip(drawn, (sig_g, sig_l, sig_l))
    )
    return _add(glob, loc), _add(glob, loc_prime)


def _electric(
    cfg: FluctuatorConfig, n_steps: int, dt: float, stream_id: int, draws: Optional[NoiseDraws], seed: int
) -> Optional[tuple]:
    """The pair of eps_z, None when eps_rms is 0: channel 2 of the electric
    stream (switches in uniform column 2, values in column 5)."""
    if cfg.eps_rms == 0:
        return None
    p = _check_step(cfg.electric_rate, dt)
    drawn = (NoiseDraws() if draws is None else draws).get(seed, stream_id, _DOMAIN_ELECTRIC, n_steps, p)
    return _held(*drawn[2], n_steps, cfg.eps_rms)


def sample_magnetic_trajectory(
    cfg: FluctuatorConfig,
    duration: float,
    dt: float,
    stream_id: int,
    draws: Optional[NoiseDraws] = None,
    seed: int = 0,
) -> NoiseTrajectory:
    """Sample beta(t), beta'(t) for one trajectory: the rendered pairs of
    :func:`held_fields`, read-only. Where the two sites see one field (xi
    = 0, or beta_rms = 0) it is rendered once and ``beta_s_prime`` is
    ``beta_s``. Bit-identical for identical (seed, stream_id, cfg,
    duration, dt), with or without ``draws``; ``seed`` is the master seed
    in [0, 2**64), ``stream_id`` the trajectory index.
    """
    n_steps = _n_steps(duration, dt)
    beta, beta_p = _magnetic(cfg, n_steps, dt, stream_id, draws, seed)
    beta_s = _render(beta, n_steps)
    beta_s_prime = beta_s if beta_p is beta else _render(beta_p, n_steps)
    return NoiseTrajectory(dt=dt, beta_s=beta_s, beta_s_prime=beta_s_prime)


def sample_electric_trajectory(
    cfg: FluctuatorConfig,
    duration: float,
    dt: float,
    stream_id: int,
    draws: Optional[NoiseDraws] = None,
    seed: int = 0,
) -> NDArray:
    """Sample the (n_steps,) axial electric field path eps_z, keyed like
    the magnetic path: the rendered pair of :func:`held_fields`, read-only."""
    n_steps = _n_steps(duration, dt)
    return _render(_electric(cfg, n_steps, dt, stream_id, draws, seed), n_steps)


def held_fields(
    cfg: FluctuatorConfig,
    duration: float,
    dt: float,
    stream_id: int,
    draws: Optional[NoiseDraws] = None,
    seed: int = 0,
) -> tuple[Optional[tuple], Optional[tuple], Optional[tuple]]:
    """The fields (beta_s, beta_s', eps_z) of one trajectory as (steps,
    values) pairs, None where zero: held at values[i] from steps[i] on,
    steps[i] a redraw of a live channel."""
    n_steps = _n_steps(duration, dt)
    args = (n_steps, dt, stream_id, draws, seed)
    return (*_magnetic(cfg, *args), _electric(cfg, *args))


def empirical_xi(traj: NoiseTrajectory) -> float:
    """Time-average estimate of the gradiometer parameter from a sampled
    trajectory: <(beta - beta')^2> / (<beta^2> + <beta'^2>)."""
    if traj.n_steps == 0:
        raise ValueError("trajectory is empty")
    num = float(np.mean((traj.beta_s - traj.beta_s_prime) ** 2))
    den = float(np.mean(traj.beta_s**2) + np.mean(traj.beta_s_prime**2))
    if den == 0.0:
        return 0.0
    return num / den
