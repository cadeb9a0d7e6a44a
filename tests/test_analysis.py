"""Stretched-exponential fitting and sensing-signal extraction."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from spindyad import analysis
from spindyad.analysis import (
    FLAT_FLOOR,
    STRETCH_BOUNDS,
    FitError,
    FitResult,
    FlatTraceError,
    coherence_time,
    enhancement_ratio,
    fit_envelope_decay,
    first_crossing,
    fit_stretched_exponential,
    slope_frequency,
    temperature_shift,
)
from spindyad.engine import TimeTrace
from spindyad.model import DyadParams

# the explain phase runs only after a failure, and can report an error of
# its own in place of the falsifying example
NO_EXPLAIN = tuple(p for p in Phase if p is not Phase.explain)


def make_trace(times, signal, sem=None):
    times = np.asarray(times, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if sem is None:
        sem = np.zeros_like(signal)
    return TimeTrace(times=times, signal_mean=signal, signal_sem=np.asarray(sem, dtype=float))


def stretched(t, t2, n, amp=0.5, off=0.5):
    return off + amp * np.exp(-((np.asarray(t) / t2) ** n))


class TestStretchedFit:
    def test_recovers_synthetic_noisy_decay(self):
        rng = np.random.default_rng(4)
        t = np.linspace(0.5e-6, 80e-6, 60)
        clean = stretched(t, 20e-6, 1.5)
        noisy = clean + rng.normal(0.0, 0.01, size=t.size)
        fit = fit_stretched_exponential(make_trace(t, noisy, np.full(t.size, 0.01)))
        assert fit.t2 == pytest.approx(20e-6, rel=0.05)
        assert fit.stretch_n == pytest.approx(1.5, abs=0.1)

    def test_exact_recovery_of_pure_exponential(self):
        t = np.linspace(1e-6, 100e-6, 40)
        fit = fit_stretched_exponential(make_trace(t, stretched(t, 15e-6, 1.0)))
        assert fit.t2 == pytest.approx(15e-6, rel=1e-6)
        assert fit.stretch_n == pytest.approx(1.0, abs=1e-6)
        assert fit.amplitude == pytest.approx(0.5, rel=1e-6)
        assert fit.offset == pytest.approx(0.5, rel=1e-6)
        assert fit.converged

    def test_flat_trace_is_protected_outcome(self):
        t = np.linspace(1e-6, 100e-6, 20)
        with pytest.raises(FlatTraceError, match="no decay resolvable"):
            fit_stretched_exponential(make_trace(t, np.full(t.size, 0.75)))

    def test_sub_sem_variation_is_flat(self):
        rng = np.random.default_rng(5)
        t = np.linspace(1e-6, 100e-6, 20)
        wiggle = 0.5 + 0.001 * rng.normal(size=t.size)
        with pytest.raises(FlatTraceError):
            fit_stretched_exponential(make_trace(t, wiggle, np.full(t.size, 0.01)))

    def test_too_few_points(self):
        t = np.linspace(1e-6, 10e-6, 5)
        with pytest.raises(FitError, match="at least 8"):
            fit_stretched_exponential(make_trace(t, stretched(t, 5e-6, 1.0)))

    def test_time_scale_equivariance(self):
        t = np.linspace(1e-6, 60e-6, 30)
        y = stretched(t, 12e-6, 1.7)
        base = fit_stretched_exponential(make_trace(t, y))
        for c in (2.0, 8.0):
            scaled = fit_stretched_exponential(make_trace(c * t, y))
            assert scaled.t2 == pytest.approx(c * base.t2, rel=1e-12)
            assert scaled.stretch_n == pytest.approx(base.stretch_n, rel=1e-12)

    def test_amplitude_affine_equivariance(self):
        t = np.linspace(1e-6, 60e-6, 30)
        y = stretched(t, 12e-6, 1.3)
        base = fit_stretched_exponential(make_trace(t, y))
        moved = fit_stretched_exponential(make_trace(t, 3.0 * y - 0.8))
        assert moved.t2 == pytest.approx(base.t2, rel=1e-9)
        assert moved.stretch_n == pytest.approx(base.stretch_n, rel=1e-9)
        assert moved.amplitude == pytest.approx(3.0 * base.amplitude, rel=1e-9)
        assert moved.offset == pytest.approx(3.0 * base.offset - 0.8, rel=1e-9)

    def test_rising_trace_fits_negative_amplitude(self):
        t = np.linspace(1e-6, 60e-6, 30)
        y = 0.5 - 0.5 * np.exp(-((t / 9e-6) ** 1.2))
        fit = fit_stretched_exponential(make_trace(t, y))
        assert fit.t2 == pytest.approx(9e-6, rel=1e-5)
        assert fit.amplitude == pytest.approx(-0.5, rel=1e-5)

    def test_sem_weighting_downweights_tail(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0.5e-6, 80e-6, 60)
        clean = stretched(t, 20e-6, 1.5)
        sem = np.where(t > 50e-6, 0.2, 0.005)
        noisy = clean + rng.normal(0.0, 1.0, size=t.size) * sem
        fit = fit_stretched_exponential(make_trace(t, noisy, sem))
        assert fit.t2 == pytest.approx(20e-6, rel=0.1)

    def test_residue_sems_give_the_unweighted_fit(self):
        # standard errors of rounding residue (a shared-noise trace carries
        # 4e-18 to 1.2e-17) carry no weight: the fit is the unweighted one,
        # bit for bit, whatever residue they hold
        rng = np.random.default_rng(3)
        t = np.linspace(0.5e-6, 80e-6, 30)
        y = stretched(t, 20e-6, 1.5) + rng.normal(0.0, 1e-3, t.size)
        unweighted = fit_stretched_exponential(make_trace(t, y))
        residue = rng.uniform(1e-17, 4e-17, t.size)
        assert fit_stretched_exponential(make_trace(t, y, residue)) == unweighted

    def test_result_validation(self):
        from spindyad.analysis import FitResult

        with pytest.raises(ValueError):
            FitResult(t2=-1.0, stretch_n=1.0, amplitude=1.0, offset=0.0, residual_rms=0.0, converged=True)
        with pytest.raises(ValueError):
            FitResult(t2=1.0, stretch_n=4.0, amplitude=1.0, offset=0.0, residual_rms=0.0, converged=True)


class TestEnvelopeDecayFit:
    def test_exact_recovery(self):
        t = np.linspace(1e-6, 100e-6, 30)
        y = np.exp(-((t / 30e-6) ** 2.2))
        fit = fit_envelope_decay(make_trace(t, y))
        assert fit.t2 == pytest.approx(30e-6, rel=1e-6)
        assert fit.stretch_n == pytest.approx(2.2, abs=1e-5)
        assert fit.amplitude == 1.0
        assert fit.offset == 0.0

    def test_flat_then_cliff_stays_physical(self):
        # a long flat head followed by a steep drop must not slide into
        # the degenerate scaled-power-law family of the free fit
        t = np.geomspace(1e-6, 600e-6, 20)
        y = np.exp(-((t / 400e-6) ** 3.0))
        rng = np.random.default_rng(3)
        y = y + rng.normal(0, 0.02, y.size)
        fit = fit_envelope_decay(make_trace(t, y))
        assert fit.t2 == pytest.approx(400e-6, rel=0.1)

    def test_flat_envelope_is_protected_outcome(self):
        t = np.linspace(1e-6, 100e-6, 20)
        with pytest.raises(FlatTraceError):
            fit_envelope_decay(make_trace(t, np.ones_like(t)))

    def test_unresolved_decay_hits_slow_bound(self):
        # visible but far-from-complete decay: the fit runs toward the
        # slow-time bound instead of inventing a short lifetime
        t = np.linspace(1e-6, 100e-6, 20)
        y = np.exp(-((t / 5e-3) ** 1.0))  # ~2% total decay
        fit = fit_envelope_decay(make_trace(t, y))
        assert fit.t2 > 10 * t[-1]

    def test_too_few_points(self):
        t = np.linspace(1e-6, 10e-6, 4)
        with pytest.raises(FitError):
            fit_envelope_decay(make_trace(t, np.exp(-t / 5e-6)))


class TestCoherenceTime:
    def test_flat_trace_has_no_fit(self):
        t = np.linspace(1e-6, 100e-6, 20)
        assert coherence_time(make_trace(t, np.full(t.size, 0.75))) == (math.inf, None)

    def test_fit_at_slow_time_bound_is_inf(self):
        # a shallow linear slope: the free fit runs to 50x the window,
        # which a plain fit would report as a 12.5 ms lifetime
        t = np.geomspace(1e-6, 250e-6, 20)
        trace = make_trace(t, 0.9 - 0.03 * t / t[-1], np.full(t.size, 1e-3))
        t2, fit = coherence_time(trace)
        assert t2 == math.inf
        assert fit.t2 == 50 * t[-1]

    def test_amplitude_below_sem_floor_is_inf(self):
        # the range clears the flat floor on one outlier, the fitted
        # decay amplitude does not clear three standard errors
        rng = np.random.default_rng(2)
        t = np.linspace(1e-6, 100e-6, 20)
        y = stretched(t, 20e-6, 1.0, amp=0.01) + rng.normal(0.0, 0.01, t.size)
        y[7] += 0.1
        trace = make_trace(t, y, np.full(t.size, 0.01))
        t2, fit = coherence_time(trace)
        assert abs(fit.amplitude) < 0.03
        assert fit.t2 < 49 * t[-1]
        assert t2 == math.inf

    def test_resolved_decay_gives_fit_t2(self):
        t = np.linspace(1e-6, 100e-6, 30)
        trace = make_trace(t, stretched(t, 20e-6, 1.5), np.full(t.size, 1e-3))
        t2, fit = coherence_time(trace)
        assert t2 == fit.t2
        assert t2 == pytest.approx(20e-6, rel=1e-6)

    def test_envelope_fit(self):
        t = np.linspace(1e-6, 100e-6, 30)
        t2, fit = coherence_time(make_trace(t, np.exp(-t / 25e-6)), envelope=True)
        assert fit.amplitude == 1.0
        assert t2 == pytest.approx(25e-6, rel=1e-6)


class TestEnhancementRatio:
    def test_equal_inputs(self):
        assert enhancement_ratio(2e-5, 2e-5) == 1.0

    def test_ratio(self):
        assert enhancement_ratio(6e-5, 2e-5) == pytest.approx(3.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enhancement_ratio(0.0, 1e-5)


class TestFirstCrossing:
    def test_interpolated_crossing(self):
        # 0.5 lies a quarter of the way from 0.7 down to -0.1
        assert first_crossing([1.0, 2.0, 3.0, 4.0], [0.9, 0.7, -0.1, 0.0], 0.5) == 2.25

    def test_equal_neighbours_give_the_crossing_point(self):
        assert first_crossing([1.0, 2.0, 3.0], [1.0, 0.4, 0.4], 0.4) == 2.0
        assert first_crossing([1.0, 2.0, 3.0], [1.0, 0.5, 0.5], 0.5) == 2.0

    def test_infinite_previous_point_gives_the_crossing_point(self):
        assert first_crossing([0.0, 1.0, 2.0], [3.0, math.inf, 0.5], 1.0) == 2.0

    def test_first_point_below_the_level_is_ignored(self):
        assert first_crossing([0.0, 1.0, 2.0, 3.0], [0.1, 0.8, 0.6, 0.2], 0.4) == 2.5

    def test_no_crossing_is_none(self):
        assert first_crossing([0.0, 1.0, 2.0], [0.1, 0.8, 0.6], 0.4) is None
        assert first_crossing([0.0], [0.0], 0.4) is None

    def test_initial_t2_without_a_crossing_is_the_last_time(self):
        t = np.linspace(0.1, 1.0, 10)
        assert analysis._initial_t2(t, np.linspace(1.0, 0.5, 10)) == 1.0


class TestSlopeFrequency:
    def slope_trace(self, d_omega, t_max=4e-6, n=12, contrast=1.0, sem=None):
        # closed-form sensing signal: population 1/2 - contrast*sin(dw t)/2
        t = np.linspace(t_max / n, t_max, n)
        y = 0.5 - 0.5 * contrast * np.sin(d_omega * t)
        return make_trace(t, y, sem)

    def test_flat_signal_gives_zero(self):
        t = np.linspace(0.1e-6, 4e-6, 10)
        assert slope_frequency(make_trace(t, np.full(t.size, 0.5)), 4e-6) == 0.0

    def test_recovers_injected_shift(self):
        d_omega = 2 * math.pi * 1e4
        trace = self.slope_trace(d_omega, t_max=0.25 / d_omega * 16 / 16)
        est = slope_frequency(trace, window=0.25 / d_omega)
        assert est == pytest.approx(d_omega, rel=0.02)

    def test_linear_in_injected_shift(self):
        base = 2 * math.pi * 1e4
        injected = [base * k for k in (0.5, 1.0, 1.5, 2.0, 2.5)]
        window = 0.2 / max(injected)
        est = [slope_frequency(self.slope_trace(w, t_max=window), window) for w in injected]
        slope, intercept = np.polyfit(injected, est, 1)
        pred = slope * np.asarray(injected) + intercept
        ss_res = float(np.sum((np.asarray(est) - pred) ** 2))
        ss_tot = float(np.sum((np.asarray(est) - np.mean(est)) ** 2))
        assert 1.0 - ss_res / ss_tot > 0.999

    def test_sign_follows_shift(self):
        d_omega = -2 * math.pi * 8e3
        trace = self.slope_trace(d_omega, t_max=0.2 / abs(d_omega))
        assert slope_frequency(trace, window=0.2 / abs(d_omega)) == pytest.approx(
            d_omega, rel=0.02
        )

    def test_residue_sems_give_the_unweighted_fit(self):
        # standard errors of rounding residue (1e-17 to 4e-17 where the noise
        # cannot reach the signal) carry no weight: the slope is that of the
        # unweighted fit, whatever residue they hold
        rng = np.random.default_rng(3)
        trace = self.slope_trace(2 * math.pi * 1e4)
        y = trace.signal_mean + rng.normal(0.0, 1e-3, trace.times.size)
        unweighted = slope_frequency(make_trace(trace.times, y), 4e-6)
        residue = rng.uniform(1e-17, 4e-17, trace.times.size)
        assert slope_frequency(make_trace(trace.times, y, residue), 4e-6) == unweighted

    def test_window_too_short(self):
        trace = self.slope_trace(2 * math.pi * 1e4)
        with pytest.raises(FitError, match="at least 4"):
            slope_frequency(trace, window=trace.times[1])

    def test_window_without_time_spread(self):
        trace = make_trace(np.full(5, 1e-6), np.linspace(0.4, 0.6, 5))
        with pytest.raises(FitError, match="no time spread"):
            slope_frequency(trace, window=1e-6)


class TestProjector:
    """The weighted linear solve behind both the stretched fit and the
    slope."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_weighted_lstsq(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60))
        basis, y, w = rng.uniform(0.0, 1.0, n), rng.normal(size=n), rng.uniform(0.1, 1.0, n)
        offset, amp, rss = analysis._projector(y, w)(basis)
        a = np.sqrt(w)[:, None] * np.column_stack([np.ones(n), basis])
        coef, ssr, _, _ = np.linalg.lstsq(a, np.sqrt(w) * y, rcond=None)
        assert [offset, amp, rss] == pytest.approx([coef[0], coef[1], ssr[0]], rel=1e-12)

    @pytest.mark.parametrize("level", [0.0, 0.5])
    def test_constant_basis_gives_the_weighted_mean(self, level):
        # a constant basis of 0 or a power of two leaves det exactly 0
        rng = np.random.default_rng(1)
        y, w = rng.normal(size=20), rng.uniform(0.1, 1.0, 20)
        offset, amp, rss = analysis._projector(y, w)(np.full(20, level))
        mean = np.sum(w * y) / np.sum(w)
        assert (offset, amp) == (pytest.approx(mean, rel=1e-12), 0.0)
        assert rss == pytest.approx(np.sum(w * (y - mean) ** 2), rel=1e-12)


class TestTemperatureShift:
    def test_zero_shift(self):
        assert temperature_shift(0.0, DyadParams()) == 0.0

    def test_round_trip_any_sensitivity(self):
        for sens in (-2 * math.pi * 74.2e3, 2 * math.pi * 10e3):
            p = DyadParams(ddelta_dT=sens)
            dT = 0.2
            d_omega = p.ddelta_dT * dT
            assert temperature_shift(d_omega, p) == pytest.approx(dT, rel=1e-12)

    def test_sign_relation(self):
        # shift and temperature share sign exactly when the sensitivity
        # is positive
        assert temperature_shift(1e4, DyadParams(ddelta_dT=2e4)) > 0
        assert temperature_shift(1e4, DyadParams(ddelta_dT=-2e4)) < 0

    def test_zero_sensitivity_rejected(self):
        with pytest.raises(ValueError):
            temperature_shift(1e4, DyadParams(ddelta_dT=0.0))


@pytest.fixture(scope="module")
def scipy_optimize():
    return pytest.importorskip("scipy.optimize")


def scipy_simplex(optimize):
    """The reference: ``scipy.optimize.minimize`` with the bounds, start and
    options that ``analysis._minimize`` reproduces."""

    def minimize(objective, t2_0):
        res = optimize.minimize(
            objective,
            x0=np.array([min(max(t2_0, 1e-3), analysis._T2_MAX), 1.0]),
            method="Nelder-Mead",
            bounds=[(1e-3, analysis._T2_MAX), STRETCH_BOUNDS],
            options={"maxiter": analysis._MAX_ITER, "xatol": analysis._TOL, "fatol": analysis._TOL},
        )
        t2_hat, n_hat = res.x
        return t2_hat, n_hat, bool(res.success)

    return minimize


def outcome(fitter, trace):
    """repr of the fit, or of the error the fitter raised."""
    try:
        return repr(fitter(trace))
    except FitError as exc:
        return repr(exc)


def counted(minimize, calls):
    """``minimize`` with each call of its objective appended to ``calls``."""

    def run(objective, t2_0):
        def count(x):
            calls.append(None)
            return objective(x)

        return minimize(count, t2_0)

    return run


def assert_fits_match_scipy(optimize, trace):
    """Both fitters give repr-identical results with the in-house simplex
    and with scipy's, after as many objective calls; returns the in-house
    fits."""
    fits = []
    for fitter in (fit_stretched_exponential, fit_envelope_decay):
        ours_calls, scipy_calls = [], []
        with mock.patch.object(analysis, "_minimize", counted(analysis._minimize, ours_calls)):
            ours = outcome(fitter, trace)
        with mock.patch.object(analysis, "_minimize", counted(scipy_simplex(optimize), scipy_calls)):
            assert outcome(fitter, trace) == ours
        assert len(scipy_calls) == len(ours_calls)
        fits.append(ours)
    return fits


class TestSimplexMatchesScipy:
    @settings(derandomize=True, phases=NO_EXPLAIN, max_examples=60, deadline=None)
    @given(
        n=st.integers(8, 40),
        t_last=st.floats(1e-7, 1e-2),
        t2_ratio=st.floats(-2.0, 2.0),
        stretch=st.floats(0.3, 3.5),
        amplitude=st.floats(-1.0, 1.0),
        noise=st.floats(0.0, 0.05),
        weighted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_traces(self, scipy_optimize, n, t_last, t2_ratio, stretch, amplitude, noise, weighted, seed):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, t_last, n))
        t[-1] = t_last
        y = 0.5 + amplitude * np.exp(-((t / (t_last * 10**t2_ratio)) ** stretch))
        y = y + noise * rng.normal(size=n)
        sem = np.full(n, noise) if weighted else None
        assert_fits_match_scipy(scipy_optimize, make_trace(t, y, sem))

    def test_initial_t2_above_slow_bound(self, scipy_optimize):
        # the 1/e crossing, extrapolated from two nearly equal points below
        # 1/e, lies far beyond the window: x0 is clipped to the bound and
        # the simplex vertex stepped past it is reflected back inside
        t = np.linspace(1e-6, 10e-6, 10)
        y = np.array([0.3, 0.3001, 0.28, 0.25, 0.22, 0.2, 0.17, 0.15, 0.12, 0.1])
        assert analysis._initial_t2(t / t[-1], y) > analysis._T2_MAX
        fits = assert_fits_match_scipy(scipy_optimize, make_trace(t, y))
        assert all(f.startswith("FitResult(") for f in fits)

    def test_iteration_cap(self, scipy_optimize):
        # the decay falls between samples, so (T2, n) is not identifiable
        # and the simplex is still moving at the iteration cap
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(0.0, 1.0, 10))
        t[-1] = 1.0
        y = 0.5 + 0.5 * np.exp(-((t / 0.05) ** 2.5)) + 1e-3 * rng.normal(size=t.size)
        trace = make_trace(1e-4 * t, y)
        assert not fit_stretched_exponential(trace).converged
        assert_fits_match_scipy(scipy_optimize, trace)

    def test_flat_floor_edge(self, scipy_optimize):
        # deterministic traces whose decay clears FLAT_FLOOR by one part in 1e6
        t = np.linspace(1e-6, 100e-6, 20)
        d = np.exp(-t / 30e-6)
        edge = FLAT_FLOOR * (1 + 1e-6)
        stretched_trace = make_trace(t, 0.5 + edge * (d - d[-1]) / (d[0] - d[-1]))
        envelope_trace = make_trace(t, 1.0 - edge * (1.0 - d) / (1.0 - d[-1]))
        assert isinstance(fit_stretched_exponential(stretched_trace), FitResult)
        assert isinstance(fit_envelope_decay(envelope_trace), FitResult)
        assert_fits_match_scipy(scipy_optimize, stretched_trace)
        assert_fits_match_scipy(scipy_optimize, envelope_trace)

    def test_nan_objective_near_the_minimum(self, scipy_optimize):
        # a quadratic that is NaN on about half of the points within 1e-8
        # of its minimum: NaN vertices sort last and never pass the
        # convergence test, as in scipy, from every start of the grid
        def quadratic(x):
            d = (x[0] - 3.0) ** 2 + (x[1] - 2.2) ** 2
            return math.nan if d < 1e-16 and int(x[0] * 2**52) % 2 == 0 else d

        for t2_0 in np.linspace(0.05, 60.0, 60):
            ours_calls, scipy_calls = [], []
            ours = counted(analysis._minimize, ours_calls)(quadratic, float(t2_0))
            theirs = counted(scipy_simplex(scipy_optimize), scipy_calls)(quadratic, float(t2_0))
            assert (ours, len(ours_calls)) == (theirs, len(scipy_calls)), t2_0
