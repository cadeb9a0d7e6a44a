"""Coherence-time fits and frequency/temperature extraction from a
:class:`TimeTrace`, the averaged signal that :mod:`spindyad.engine` returns.

Coherence times are defined through a stretched-exponential envelope

    signal(t) = offset + amplitude * exp(-(t / T2)^n),

fitted by variable projection: for a trial (T2, n) the offset and
amplitude follow from a closed-form weighted linear solve, and a bounded
derivative-free simplex refines (T2, n) only; the sums of the linear
solve that do not depend on (T2, n) are taken once per fit. The simplex
is an in-house Nelder-Mead (:func:`_minimize`) on Python floats, NaN
values ordered as numpy orders them, that reproduces SciPy 1.17's
bounded ``minimize(method="Nelder-Mead")`` bit for bit. Times are
normalized to the last sample and the signal to its endpoint span before
fitting, so the fit is exactly equivariant under time rescaling and
affine signal transforms. This fit and :func:`slope_frequency` weight by
1/sem^2 only when no SEM is below the residue floor ``_SEM_FLOOR``.

A trace whose total signal range stays below the resolution floor (three
times the median standard error, or an absolute 1e-6 for deterministic
traces) is a protected-state outcome, not a fit failure; it raises
:class:`FlatTraceError` with the message "no decay resolvable".
:func:`coherence_time` is the one rule that turns a fit into a lifetime,
or into inf when the decay is not resolvable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import numpy.ma  # noqa: F401  np.median imports it on first call; load it with the package
from numpy.typing import NDArray

from .model import DyadParams

__all__ = [
    "TimeTrace",
    "FitResult",
    "FlatTraceError",
    "FitError",
    "fit_stretched_exponential",
    "fit_envelope_decay",
    "coherence_time",
    "enhancement_ratio",
    "first_crossing",
    "slope_frequency",
    "temperature_shift",
]

STRETCH_BOUNDS = (0.5, 3.0)
FLAT_FLOOR = 1e-6
_MAX_ITER = 500
_TOL = 1e-10
# slow-time bound of a fit, and the T2 from which a fit counts as pushed
# to it, both in units of the observation window
_T2_MAX = 50.0
_T2_RESOLVED = 49.0
_LOWER = (1e-3, STRETCH_BOUNDS[0])
_UPPER = (_T2_MAX, STRETCH_BOUNDS[1])
_SEM_FLOOR = 1e-12  # a population's standard error below this is rounding residue


class FitError(RuntimeError):
    """Fit could not be set up (too few points, degenerate data)."""


class FlatTraceError(FitError):
    """Trace shows no resolvable decay; the protected-state signature."""


@dataclass(frozen=True)
class TimeTrace:
    """Averaged readout signal versus evolution time; ``metadata`` holds the run's settings and label."""

    times: NDArray
    signal_mean: NDArray
    signal_sem: NDArray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        m = np.asarray(self.signal_mean, dtype=float)
        s = np.asarray(self.signal_sem, dtype=float)
        if not (t.shape == m.shape == s.shape):
            raise ValueError("times, signal_mean, signal_sem must have equal length")
        if np.any(s < 0):
            raise ValueError("signal_sem must be >= 0")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "signal_mean", m)
        object.__setattr__(self, "signal_sem", s)


@dataclass(frozen=True)
class FitResult:
    """Stretched-exponential fit parameters.

    ``t2`` is the 1/e time of the envelope (seconds), ``stretch_n`` the
    stretch exponent, ``converged`` whether the simplex terminated within
    its iteration cap.
    """

    t2: float
    stretch_n: float
    amplitude: float
    offset: float
    residual_rms: float
    converged: bool

    def __post_init__(self):
        if not self.t2 > 0:
            raise ValueError(f"t2 must be positive, got {self.t2}")
        lo, hi = STRETCH_BOUNDS
        if not lo <= self.stretch_n <= hi:
            raise ValueError(f"stretch_n outside [{lo}, {hi}]: {self.stretch_n}")
        if self.residual_rms < 0:
            raise ValueError("residual_rms must be >= 0")


def _projector(y: NDArray, w: NDArray) -> Callable[[NDArray], tuple[float, float, float]]:
    """Weighted least-squares solve of y ~ offset + amplitude * basis as a
    function of the basis, which returns (offset, amplitude, weighted
    residual sum of squares); the sums over (y, w) alone are taken once."""
    sw = float(np.sum(w))
    sy = float(np.sum(w * y))

    def project(basis: NDArray) -> tuple[float, float, float]:
        # ndarray.sum is np.sum's reduction without its dispatch per call
        wb = w * basis
        sb = float(wb.sum())
        sbb = float((wb * basis).sum())
        sby = float((wb * y).sum())
        det = sw * sbb - sb * sb
        if abs(det) < 1e-30:
            # basis numerically constant: amplitude unidentifiable
            offset, amp = sy / sw, 0.0
        else:
            offset = (sbb * sy - sb * sby) / det
            amp = (sw * sby - sb * sy) / det
        resid = y - offset - amp * basis
        return offset, amp, float((w * resid * resid).sum())

    return project


def first_crossing(x: Sequence[float], y: Sequence[float], level: float) -> Optional[float]:
    """The x at which ``y`` first falls to ``level`` or below after its
    first point, by linear interpolation from the point before; the
    crossing point's own x when the point before holds the same value or is
    infinite, and None when nothing crosses."""
    below = np.flatnonzero(np.asarray(y) <= level)
    below = below[below > 0]
    if below.size == 0:
        return None
    k = int(below[0])
    y0, y1 = y[k - 1], y[k]
    if y1 == y0 or math.isinf(y0):
        return float(x[k])
    return float(x[k - 1] + (level - y0) / (y1 - y0) * (x[k] - x[k - 1]))


def _initial_t2(t: NDArray, y: NDArray) -> float:
    """First crossing of the 1/e level of a decay normalized from one
    toward zero, or the last time when it does not cross."""
    cross = first_crossing(t, y, 1.0 / math.e)
    return float(t[-1]) if cross is None else cross


def _prepare(
    trace: TimeTrace, decay: Callable[[NDArray], float]
) -> tuple[NDArray, NDArray, NDArray, float]:
    """Checks shared by both fitters; returns (t / t_last, signal, sem, t_last).

    Raises :class:`FitError` for fewer than 8 points or times that do not
    extend past zero, and :class:`FlatTraceError` when ``decay(signal)``
    stays below the resolution floor.
    """
    t, y, sem = trace.times, trace.signal_mean, trace.signal_sem
    if t.size < 8:
        raise FitError(f"need at least 8 time points, got {t.size}")
    if decay(y) < max(3.0 * float(np.median(sem)), FLAT_FLOOR):
        raise FlatTraceError("no decay resolvable")
    t_scale = float(t[-1])
    if not t_scale > 0:
        raise FitError("times must extend past zero")
    return t / t_scale, y, sem, t_scale


def _minimize(objective: Callable[[tuple[float, float]], float], t2_0: float) -> tuple[float, float, bool]:
    """Bounded simplex over (T2 / t_last, n); returns (t2, n, converged).

    T2 is bounded to (1e-3 .. 50) x the observation window: a fit pushed
    to the upper bound means "slower than resolvable here". The simplex
    is Nelder & Mead, Comput. J. 7, 308 (1965), step for step as SciPy
    1.17's ``_minimize_neldermead`` runs it with bounds and fixed
    coefficients (reflection 1, expansion 2, contraction and shrink 1/2),
    so fits are bit-identical to SciPy's ``optimize.minimize(...,
    method="Nelder-Mead")``. It runs on Python floats, term for term in
    SciPy's order, and passes the objective a (t2, n) tuple; NaN values
    sort last and fail the convergence test, as numpy orders them.
    ``converged`` means the ``xatol``/``fatol`` test stopped it before
    ``_MAX_ITER`` iterations.
    """

    def vertex(a: float, b: float) -> tuple[float, tuple[float, float]]:
        x = min(max(a, _LOWER[0]), _UPPER[0]), min(max(b, _LOWER[1]), _UPPER[1])
        return objective(x), x

    def nan_last(v: tuple[float, tuple[float, float]]) -> tuple[bool, float]:
        return v[0] != v[0], v[0]

    t2 = min(max(t2_0, 1e-3), _T2_MAX)
    # default initial simplex: each coordinate in turn scaled by 1 + 0.05
    # (no coordinate can be 0), reflected into the box where it overshoots
    t2_up = (1 + 0.05) * t2
    t2_up = 2 * _T2_MAX - t2_up if t2_up > _T2_MAX else t2_up
    sim = sorted([vertex(t2, 1.0), vertex(t2_up, 1.0), vertex(t2, 1 + 0.05)], key=nan_last)
    iterations = 1
    while iterations < _MAX_ITER:
        (f0, (a0, b0)), (f1, (a1, b1)), (f2, (a2, b2)) = sim
        if all(abs(d) <= _TOL for d in (a1 - a0, b1 - b0, a2 - a0, b2 - b0, f0 - f1, f0 - f2)):
            break
        xa, xb = (a0 + a1) / 2, (b0 + b1) / 2
        xr = vertex(2 * xa - a2, 2 * xb - b2)
        if xr[0] < f0:  # expand
            xe = vertex(3 * xa - 2 * a2, 3 * xb - 2 * b2)
            sim[2] = xe if xe[0] < xr[0] else xr
        elif xr[0] < f1:  # reflect
            sim[2] = xr
        else:
            if xr[0] < f2:  # contract outside
                xc = vertex(1.5 * xa - 0.5 * a2, 1.5 * xb - 0.5 * b2)
                accept = xc[0] <= xr[0]
            else:  # contract inside
                xc = vertex(0.5 * xa + 0.5 * a2, 0.5 * xb + 0.5 * b2)
                accept = xc[0] < f2
            if accept:
                sim[2] = xc
            else:  # shrink toward the best vertex
                sim[1] = vertex(a0 + 0.5 * (a1 - a0), b0 + 0.5 * (b1 - b0))
                sim[2] = vertex(a0 + 0.5 * (a2 - a0), b0 + 0.5 * (b2 - b0))
        iterations += 1
        sim.sort(key=nan_last)
    t2_hat, n_hat = sim[0][1]
    return t2_hat, n_hat, iterations < _MAX_ITER


def fit_stretched_exponential(trace: TimeTrace) -> FitResult:
    """Fit offset + amplitude * exp(-(t/T2)^n) to a time trace.

    Weighted by 1/sem^2 when no standard error is below ``_SEM_FLOOR``,
    the rounding-residue floor, unweighted otherwise. Raises
    :class:`FlatTraceError` when the total signal range is below the
    resolution floor and :class:`FitError` for fewer than 8 points.
    """
    ts, y, sem, t_scale = _prepare(trace, lambda y: float(np.max(y) - np.min(y)))
    # normalize the signal by its endpoint span
    y_off = float(y[-1])
    y_span = float(y[0] - y[-1])
    if y_span == 0.0:
        y_span = float(np.max(y) - np.min(y))
    ys = (y - y_off) / y_span
    if np.all(sem >= _SEM_FLOOR):
        w = (y_span / sem) ** 2
        w = w / np.max(w)
    else:
        w = np.ones_like(ys)

    project = _projector(ys, w)

    def objective(x: tuple[float, float]) -> float:
        t2, n = x
        return project(np.exp(-np.power(ts / t2, n)))[2]

    t2_hat, n_hat, converged = _minimize(objective, _initial_t2(ts, ys))
    basis = np.exp(-np.power(ts / t2_hat, n_hat))
    off_hat, amp_hat, _ = project(basis)
    resid = ys - off_hat - amp_hat * basis
    return FitResult(
        t2=float(t2_hat * t_scale),
        stretch_n=float(n_hat),
        amplitude=float(amp_hat * y_span),
        offset=float(off_hat * y_span + y_off),
        residual_rms=float(np.sqrt(np.mean(resid**2)) * abs(y_span)),
        converged=converged,
    )


def fit_envelope_decay(trace: TimeTrace) -> FitResult:
    """Fit exp(-(t/T2)^n) to a normalized contrast envelope.

    The envelope starts at one and decays toward zero by construction,
    so amplitude and offset are pinned rather than fitted; this removes
    the degenerate scaled-power-law family that a free-amplitude
    stretched fit slides into on flat-then-falling data. Unweighted:
    envelope points carry systematic reference-tracking error that
    per-point standard errors do not represent.
    """
    ts, y, _, t_scale = _prepare(trace, lambda y: 1.0 - float(np.min(y)))

    def objective(x: tuple[float, float]) -> float:
        t2, n = x
        resid = y - np.exp(-np.power(ts / t2, n))
        return float((resid * resid).sum())

    t2_hat, n_hat, converged = _minimize(objective, _initial_t2(ts, y))
    resid = y - np.exp(-np.power(ts / t2_hat, n_hat))
    return FitResult(
        t2=float(t2_hat * t_scale),
        stretch_n=float(n_hat),
        amplitude=1.0,
        offset=0.0,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        converged=converged,
    )


def coherence_time(trace: TimeTrace, envelope: bool = False) -> tuple[float, Optional[FitResult]]:
    """The coherence time of a trace, and the fit it was read from.

    Fits with :func:`fit_envelope_decay` when ``envelope`` is set and
    with :func:`fit_stretched_exponential` otherwise. The lifetime is
    inf, meaning "no decay resolvable", when

    * the trace is flat (no fit: ``(inf, None)``);
    * the decay amplitude is below three times the median standard
      error, a noise artifact of a nearly flat trace; or
    * the fit ran to the slow-time bound, a decay slower than the
      observation window resolves.
    """
    fitter = fit_envelope_decay if envelope else fit_stretched_exponential
    try:
        fit = fitter(trace)
    except FlatTraceError:
        return math.inf, None
    amp_floor = 3.0 * float(np.median(trace.signal_sem))
    if abs(fit.amplitude) < amp_floor or fit.t2 >= _T2_RESOLVED * float(trace.times[-1]):
        return math.inf, fit
    return fit.t2, fit


def enhancement_ratio(t2_m: float, t2_sq: float) -> float:
    """Coherence-lifetime enhancement near the anti-crossing relative to
    the far-field single-quantum reference."""
    if not (t2_m > 0 and t2_sq > 0):
        raise ValueError("coherence times must be positive")
    return t2_m / t2_sq


def slope_frequency(trace: TimeTrace, window: float) -> float:
    """Frequency shift from the early-time slope of a sensing trace.

    The trace holds the fractional m_S = 0 population; it is first mapped
    to the net two-spin signal Sigma = (signal - 1/2) / 2, whose
    small-angle form is -d_omega * t / 4, and the shift is recovered as
    -4 times the linear slope of Sigma, weighted by 1/sem^2 unless a
    standard error in the window is below ``_SEM_FLOOR``. The caller must
    keep |d_omega| * window below ~0.3 for the small-angle form to hold.
    """
    t, y, sem = trace.times, trace.signal_mean, trace.signal_sem
    mask = t <= window * (1.0 + 1e-12)
    if int(np.count_nonzero(mask)) < 4:
        raise FitError(
            f"slope window {window:.3g} s contains {int(np.count_nonzero(mask))} "
            f"points; need at least 4"
        )
    tw = t[mask]
    sigma = (y[mask] - 0.5) / 2.0
    if np.all(sem[mask] >= _SEM_FLOOR):
        w = 1.0 / sem[mask] ** 2
        w = w / np.max(w)
    else:
        w = np.ones_like(tw)
    if np.ptp(tw) == 0:
        raise FitError("slope window has no time spread")
    _, slope, _ = _projector(sigma, w)(tw)
    return -4.0 * slope


def temperature_shift(delta_omega: float, params: DyadParams) -> float:
    """Temperature change from an observed frequency shift:
    dT = d_omega / (dDelta/dT), the sensitivity being ``params.ddelta_dT``."""
    if params.ddelta_dT == 0.0:
        raise ValueError("ddelta_dT must be nonzero")
    return delta_omega / params.ddelta_dT
