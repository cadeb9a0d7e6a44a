"""Fluctuator statistics, reproducibility, and the local/global split."""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from spindyad import noise
from spindyad.noise import (
    FluctuatorConfig,
    NoiseTrajectory,
    empirical_xi,
    partition,
    sample_electric_trajectory,
    sample_magnetic_trajectory,
)

# the explain phase runs only after a failure, and can report an error of
# its own in place of the falsifying example
NO_EXPLAIN = tuple(p for p in Phase if p is not Phase.explain)


class TestPartition:
    def test_all_global(self):
        assert partition(0.0, 1e-6) == (1e-6, 0.0)

    def test_all_local(self):
        g, l = partition(1.0, 1e-6)
        assert g == 0.0
        assert l == 1e-6

    def test_even_split(self):
        g, l = partition(0.5, 1e-6)
        assert g == pytest.approx(0.7071e-6, rel=1e-4)
        assert l == pytest.approx(0.7071e-6, rel=1e-4)

    def test_power_conservation(self):
        for xi in (0.1, 0.3, 0.9):
            g, l = partition(xi, 2e-6)
            assert g**2 + l**2 == pytest.approx(4e-12, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            partition(1.5, 1e-6)


class TestSampling:
    def test_zero_rms_is_silent(self):
        cfg = FluctuatorConfig(beta_rms=0.0, xi=0.0, switch_rate=1e5)
        traj = sample_magnetic_trajectory(cfg, 1e-5, 1e-8, 0, seed=3)
        assert np.all(traj.beta_s == 0.0)
        assert np.all(traj.beta_s_prime == 0.0)

    def test_global_only_sites_identical(self):
        cfg = FluctuatorConfig(beta_rms=1e-6, xi=0.0, switch_rate=1e5)
        traj = sample_magnetic_trajectory(cfg, 1e-4, 1e-8, 5, seed=3)
        assert np.array_equal(traj.beta_s, traj.beta_s_prime)
        assert np.any(traj.beta_s != 0.0)

    @pytest.mark.parametrize("beta_rms,xi,shared", [(1e-6, 0.0, True), (0.0, 0.3, True), (1e-6, 0.3, False)])
    def test_a_field_both_sites_see_is_rendered_once(self, beta_rms, xi, shared):
        # every render is read-only, so the one array can serve both sites
        traj = sample_magnetic_trajectory(FluctuatorConfig(beta_rms=beta_rms, xi=xi), 1e-5, 1e-8, 2, seed=3)
        assert (traj.beta_s is traj.beta_s_prime) == shared
        assert not traj.beta_s.flags.writeable
        assert not traj.beta_s_prime.flags.writeable
        eps = sample_electric_trajectory(FluctuatorConfig(eps_rms=1e4), 1e-5, 1e-8, 2, seed=3)
        assert not eps.flags.writeable

    def test_deterministic_per_stream(self):
        cfg = FluctuatorConfig(beta_rms=1e-6, xi=0.4, switch_rate=1e5)
        a = sample_magnetic_trajectory(cfg, 5e-5, 1e-8, 9, seed=11)
        b = sample_magnetic_trajectory(cfg, 5e-5, 1e-8, 9, seed=11)
        assert np.array_equal(a.beta_s, b.beta_s)
        assert np.array_equal(a.beta_s_prime, b.beta_s_prime)
        c = sample_magnetic_trajectory(cfg, 5e-5, 1e-8, 10, seed=11)
        assert not np.array_equal(a.beta_s, c.beta_s)

    def test_longer_trajectory_extends_shorter(self):
        # the engine relies on prefix stability to share streams across
        # sweep points of different durations
        cfg = FluctuatorConfig(beta_rms=1e-6, xi=0.4, switch_rate=1e5)
        short = sample_magnetic_trajectory(cfg, 2e-5, 1e-8, 9, seed=11)
        long = sample_magnetic_trajectory(cfg, 6e-5, 1e-8, 9, seed=11)
        assert np.array_equal(long.beta_s[: short.n_steps], short.beta_s)

    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    def test_values_bounded(self, xi):
        # every drawn value lies within the bound the engine's dt check
        # reads, and the bound is tight: the largest of some 10^5 draws
        # comes within 2 % of it (at xi = 0.5 a site adds two channels)
        cfg = FluctuatorConfig(beta_rms=1e-6, xi=xi, switch_rate=2e7, eps_rms=1e6, electric_rate=2e7)
        beta_max, eps_max = cfg.bounds
        largest = np.zeros(3)
        for stream in range(10):
            fields = noise.held_fields(cfg, 2e-4, 1e-8, stream, seed=2)
            largest = np.maximum(largest, [np.max(np.abs(values)) for _, values in fields])
        assert np.all(largest <= [beta_max, beta_max, eps_max])
        assert np.all(largest >= 0.98 * np.array([beta_max, beta_max, eps_max]))

    def test_underresolved_step_rejected(self):
        cfg = FluctuatorConfig(beta_rms=1e-6, xi=0.0, switch_rate=1e8)
        with pytest.raises(ValueError, match="under-resolved"):
            sample_magnetic_trajectory(cfg, 1e-5, 1e-8, 0)

    @pytest.mark.parametrize("duration", [-1e-6, -4e-9, math.nan, math.inf])
    @pytest.mark.parametrize("reader", [sample_magnetic_trajectory, sample_electric_trajectory, noise.held_fields])
    def test_bad_duration_is_a_precise_error(self, reader, duration):
        # -4e-9 rounds to zero steps at dt = 1e-8, and is refused all the same
        cfg = FluctuatorConfig(beta_rms=1e-6, xi=0.3, eps_rms=1e4)
        with pytest.raises(ValueError, match=r"^duration must be finite and >= 0, got "):
            reader(cfg, duration, 1e-8, 0, seed=3)

    def test_rms_and_switch_count(self):
        # stationary rms equals the configured amplitude and the redraw
        # count matches rate x duration, both within 5% over 100 streams
        cfg = FluctuatorConfig(beta_rms=1e-6, xi=1.0, switch_rate=1e5)
        duration, dt = 1e-2, 1e-8
        sq_sum = 0.0
        n_tot = 0
        switches = 0
        for stream in range(100):
            traj = sample_magnetic_trajectory(cfg, duration, dt, stream, seed=77)
            sq_sum += float(np.sum(traj.beta_s**2))
            n_tot += traj.n_steps
            switches += int(np.count_nonzero(np.diff(traj.beta_s)))
        rms = math.sqrt(sq_sum / n_tot)
        assert rms == pytest.approx(1e-6, rel=0.05)
        expected_switches = 100 * cfg.switch_rate * duration
        assert switches == pytest.approx(expected_switches, rel=0.05)


class TestElectric:
    def test_zero_rms(self):
        cfg = FluctuatorConfig(eps_rms=0.0, electric_rate=1e5)
        eps = sample_electric_trajectory(cfg, 1e-5, 1e-8, 0)
        assert np.all(eps == 0.0)

    def test_axial_rms(self):
        cfg = FluctuatorConfig(eps_rms=1e6, electric_rate=1e5)
        sq = 0.0
        n = 0
        for stream in range(100):
            eps_z = sample_electric_trajectory(cfg, 1e-3, 1e-8, stream, seed=5)
            assert eps_z.shape == (100_000,)
            sq += float(np.sum(eps_z**2))
            n += eps_z.size
        rms = math.sqrt(sq / n)
        assert abs(rms - 1e6) < 0.05e6

    def test_independent_of_magnetic_stream(self):
        cfg = FluctuatorConfig(beta_rms=1e-6, xi=1.0, switch_rate=1e5, eps_rms=1e6, electric_rate=1e5)
        traj = sample_magnetic_trajectory(cfg, 1e-4, 1e-8, 2, seed=4)
        eps_z = sample_electric_trajectory(cfg, 1e-4, 1e-8, 2, seed=4)
        # same seed and stream, different counter domain: uncorrelated paths
        c = np.corrcoef(traj.beta_s, eps_z)[0, 1]
        assert abs(c) < 0.2


class TestEmpiricalXi:
    def test_global_only_exactly_zero(self):
        cfg = FluctuatorConfig(beta_rms=1e-6, xi=0.0, switch_rate=1e5)
        traj = sample_magnetic_trajectory(cfg, 1e-4, 1e-8, 0, seed=1)
        assert empirical_xi(traj) == 0.0

    @pytest.mark.parametrize("xi", [1.0, 0.5])
    def test_configured_value_recovered(self, xi):
        cfg = FluctuatorConfig(beta_rms=1e-6, xi=xi, switch_rate=1e5)
        est = np.mean(
            [empirical_xi(sample_magnetic_trajectory(cfg, 1e-2, 1e-8, s, seed=21)) for s in range(4)]
        )
        assert est == pytest.approx(xi, abs=0.05)

    def test_empty_rejected(self):
        traj = NoiseTrajectory(dt=1e-8, beta_s=np.zeros(0), beta_s_prime=np.zeros(0))
        with pytest.raises(ValueError):
            empirical_xi(traj)

    def test_silent_trajectory_gives_zero(self):
        traj = NoiseTrajectory(dt=1e-8, beta_s=np.zeros(10), beta_s_prime=np.zeros(10))
        assert empirical_xi(traj) == 0.0


class TestTrajectoryUtilities:
    def test_refined_preserves_path(self):
        cfg = FluctuatorConfig(beta_rms=1e-6, xi=0.5, switch_rate=1e5)
        traj = sample_magnetic_trajectory(cfg, 1e-6, 1e-8, 0, seed=2)
        fine = traj.refined(4)
        assert fine.dt == pytest.approx(traj.dt / 4)
        assert fine.n_steps == 4 * traj.n_steps
        assert np.array_equal(fine.beta_s[::4], traj.beta_s)
        assert np.array_equal(fine.beta_s[1::4], traj.beta_s)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FluctuatorConfig(beta_rms=-1e-6)
        with pytest.raises(ValueError):
            FluctuatorConfig(xi=2.0)
        with pytest.raises(ValueError):
            FluctuatorConfig(switch_rate=0.0)
        with pytest.raises(ValueError):
            FluctuatorConfig(eps_rms=-1.0)
        with pytest.raises(ValueError, match="electric_rate must be > 0"):
            FluctuatorConfig(electric_rate=0.0)


class TestZeroAmplitude:
    def test_zero_rms_draws_nothing(self, monkeypatch):
        def no_stream(*args):
            raise AssertionError("a zero-amplitude channel built a random stream")

        monkeypatch.setattr(noise, "_stream_rng", no_stream)
        traj = sample_magnetic_trajectory(FluctuatorConfig(beta_rms=0.0, xi=0.4), 3e-6, 1e-8, 5)
        assert traj.n_steps == 300
        assert not np.any(traj.beta_s) and not np.any(traj.beta_s_prime)
        eps_z = sample_electric_trajectory(FluctuatorConfig(eps_rms=0.0), 3e-6, 1e-8, 5)
        assert eps_z.shape == (300,) and not np.any(eps_z)
        with pytest.raises(AssertionError, match="zero-amplitude"):
            sample_magnetic_trajectory(FluctuatorConfig(beta_rms=1e-6), 3e-6, 1e-8, 5)


def frozen_fluctuator_channels(seed, stream_id, domain, n_steps, p_switch, sigmas):
    """The hold/redraw sampler as first written (strided maximum.accumulate
    and take_along_axis), kept verbatim to pin the random stream."""
    c = len(sigmas)
    if not np.any(sigmas):
        return np.zeros((n_steps, c))
    u = noise._stream_rng(seed, stream_id, domain).random((max(n_steps, 1), 2 * c))
    switch = u[:, :c] < p_switch
    switch[0, :] = True  # stationary start: draw the initial value
    draws = (2.0 * u[:, c:] - 1.0) * (math.sqrt(3.0) * np.asarray(sigmas))[None, :]
    steps = np.arange(len(u))[:, None]
    hold_idx = np.maximum.accumulate(np.where(switch, steps, 0), axis=0)
    return np.take_along_axis(draws, hold_idx, axis=0)[:n_steps]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, phases=NO_EXPLAIN, deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream_id=st.integers(0, 2**63),
    n_steps=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 3000)),
    rate=st.one_of(st.sampled_from([1.0, 5e7]), st.floats(1.0, 5e7)),
    eps_rms=st.one_of(st.just(0.0), st.floats(0.0, 1e7)),
)
def test_axial_path_is_column_2_of_the_three_axis_stream(seed, stream_id, n_steps, rate, eps_rms):
    """The axial path has the bits of the third axis of the three-axis
    sampler it replaces, for every seed, stream, length and rate."""
    dt = 1e-8
    cfg = FluctuatorConfig(eps_rms=eps_rms, electric_rate=rate)
    eps_z = sample_electric_trajectory(cfg, n_steps * dt, dt, stream_id, seed=seed)
    domain = noise._DOMAIN_ELECTRIC
    three = frozen_fluctuator_channels(seed, stream_id, domain, n_steps, rate * dt, [eps_rms] * 3)
    assert same_bits(eps_z, np.ascontiguousarray(three[:, 2]))


@settings(derandomize=True, phases=NO_EXPLAIN, deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream_id=st.integers(0, 2**63),
    n_steps=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 3000)),
    rate=st.floats(1.0, 5e7),
    beta_rms=st.one_of(st.just(0.0), st.floats(1e-12, 1e-4)),
    xi=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
def test_magnetic_edges_keep_the_frozen_sum(seed, stream_id, n_steps, rate, beta_rms, xi):
    """The site fields keep the bits of the frozen three-channel sum for
    every xi, at its edges too: at xi = 0 and xi = 1 one channel group has
    zero amplitude and builds no pair."""
    dt = 1e-8
    cfg = FluctuatorConfig(beta_rms=beta_rms, xi=xi, switch_rate=rate)
    traj = sample_magnetic_trajectory(cfg, n_steps * dt, dt, stream_id, seed=seed)
    g, l = partition(xi, beta_rms)
    vals = frozen_fluctuator_channels(seed, stream_id, noise._DOMAIN_MAGNETIC, n_steps, rate * dt, [g, l, l])
    assert same_bits(traj.beta_s, vals[:, 0] + vals[:, 1])
    assert same_bits(traj.beta_s_prime, vals[:, 0] + vals[:, 2])


@settings(derandomize=True, phases=NO_EXPLAIN, deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**64 - 2),
    stream_id=st.integers(0, 2**63),
    domain=st.sampled_from([noise._DOMAIN_MAGNETIC, noise._DOMAIN_ELECTRIC]),
    lengths=st.lists(
        st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 3000)), min_size=2, max_size=2
    ),
    rate=st.one_of(st.sampled_from([1.0, 5e7]), st.floats(1.0, 5e7)),
    amplitudes=st.lists(
        st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1e7)), st.floats(0.0, 1.0)),
        min_size=4,
        max_size=4,
    ),
    keys=st.lists(st.sampled_from(range(5)), min_size=4, max_size=4),
)
def test_stored_draw_renders_the_bits_of_a_fresh_one(
    seed, stream_id, domain, lengths, rate, amplitudes, keys
):
    """The samplers' paths from one store keep the bits of a fresh draw.
    The store is asked for two lengths in the order a, b, b, a (short then
    long, long then short, repeated), at other amplitudes (rms and xi) each
    time, for one stream or for streams that differ from it in one key
    field: seed, stream, domain or switch rate."""
    dt = 1e-8
    draws = noise.NoiseDraws()
    a, b = lengths
    for n_steps, (sigma, xi), key in zip((a, b, b, a), amplitudes, keys):
        s, i, d, r = [seed, stream_id, domain, rate]
        if key == 1:
            s += 1
        elif key == 2:
            i += 1
        elif key == 3:
            d = 1 - d
        elif key == 4:
            r /= 2
        cfg = FluctuatorConfig(beta_rms=sigma, xi=xi, switch_rate=r, eps_rms=sigma, electric_rate=r)

        def sample(store):
            if d == noise._DOMAIN_ELECTRIC:
                return [sample_electric_trajectory(cfg, n_steps * dt, dt, i, store, s)]
            traj = sample_magnetic_trajectory(cfg, n_steps * dt, dt, i, store, s)
            return [traj.beta_s, traj.beta_s_prime]

        stored, fresh = sample(draws), sample(None)
        assert all(x.shape == (n_steps,) and same_bits(x, y) for x, y in zip(stored, fresh))


@pytest.mark.parametrize("p_switch", [0.0, 1e-2])
def test_store_keeps_only_the_redraws(p_switch):
    """The store keeps each channel's redraw steps and uniforms, not the
    drawn block: at p = 0 only the stationary start, one redraw per
    channel at any length, and about p * n_steps at p = 1e-2. A shorter
    request keeps the longer draw."""
    draws = noise.NoiseDraws()
    for n_steps in (3000, 10, 3000):
        drawn = draws.get(4, 2, noise._DOMAIN_MAGNETIC, n_steps, p_switch)
        assert len(drawn) == noise._CHANNELS
        for starts, uniforms in drawn:
            assert starts.size == uniforms.size and starts[-1] < 3000
            assert starts.size == 1 if p_switch == 0.0 else 1 < starts.size < 100
    ((length, _),) = draws._entries.values()
    assert length == 3000


def frozen_draw(seed, stream_id, domain, n_steps, p_switch):
    """The draw as first written, from ``Generator.random`` floats, kept
    verbatim to pin the raw-integer draw; a stream has three channels."""
    c = 3
    u = noise._stream_rng(seed, stream_id, domain).random((max(n_steps, 1), 2 * c))
    out = []
    for j in range(c):
        starts = np.concatenate(([0], np.flatnonzero(u[1:n_steps, j] < p_switch) + 1))
        out.append((starts, u[starts, c + j]))
    return out


@settings(derandomize=True, phases=NO_EXPLAIN, deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream_id=st.integers(0, 2**63),
    domain=st.sampled_from([noise._DOMAIN_MAGNETIC, noise._DOMAIN_ELECTRIC]),
    n_steps=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 3000)),
    p_switch=st.one_of(st.sampled_from([0.0, 2**-10, 1e-3, 0.5]), st.floats(0.0, 0.5)),
)
def test_raw_draw_keeps_the_bits_of_the_float_draw(seed, stream_id, domain, n_steps, p_switch):
    drawn = noise._draw(seed, stream_id, domain, n_steps, p_switch)
    old = frozen_draw(seed, stream_id, domain, n_steps, p_switch)
    assert len(drawn) == len(old) == noise._CHANNELS == 3
    for (starts, uniforms), (old_starts, old_uniforms) in zip(drawn, old):
        assert starts.dtype == old_starts.dtype and np.array_equal(starts, old_starts)
        assert uniforms.dtype == old_uniforms.dtype and np.array_equal(uniforms, old_uniforms)


@pytest.mark.parametrize(
    "p_switch, integer_edge", [(2**-10, True), (0.5, True), (1e-3, False), (0.3, False), (1e-7, False)]
)
def test_switch_threshold_agrees_with_the_float_test_at_its_edge(p_switch, integer_edge):
    """A raw integer x switches exactly when its uniform (x >> 11) * 2**-53
    is below p, for x on either side of the edge m = p * 2**53, whether or
    not that is an integer. Sampling reaches such x with probability about
    2**-53."""
    edge = p_switch * 2**53
    assert (edge == math.floor(edge)) == integer_edge
    below = noise._switch_threshold(p_switch)
    for m in range(math.floor(edge) - 2, math.ceil(edge) + 3):
        for r in (0, 2047):
            x = np.uint64((m << 11) + r)
            assert (x < below) == ((x >> np.uint64(11)) * 2.0**-53 < p_switch), (m, r)


def correlation_error(p, lag, n_total):
    """The standard error of the autocorrelation r(k) of hold/redraw paths
    of n_total steps in all, at switch probability p.

    At lag 1 it is sqrt(2.4 p / N), from the redraw count. With x the path
    and d_t = x_{t+1} - x_t, sum d^2 = 2 sum x^2 - 2 sum x_t x_{t+1} up to
    end terms, so 1 - r(1) = S / (2 P) with S = sum d^2 and P = sum x^2.
    d is nonzero only at the R ~ N p redraws, where it is the difference
    of two independent uniforms of variance s^2: E d^2 = 2 s^2 and, with
    E x^4 = 1.8 s^4, Var d^2 = 9.6 s^4 - 4 s^4 = 5.6 s^4. With Var R = N p,
    Var S = N p (5.6 + 4) s^4, a relative variance of 2.4 / (N p) about
    E S = 2 N p s^2. P = N s^2 + sum over the holds (value v, geometric
    length L) of L (v^2 - s^2): Var P = N p E L^2 Var v^2 = N p (2 / p^2)
    0.8 s^4, a relative variance of 1.6 / (N p) about E P = N s^2. Each
    held v^2 enters S twice, so Cov(S, P) = N p 2 E L Var v^2 = 1.6 N s^4,
    a relative covariance of 0.8 / (N p), and the two cancel in the
    ratio: 1 - r(1) ~ p has variance p^2 * 2.4 / (N p) = 2.4 p / N.

    At longer lags it is the AR(1) Bartlett error sqrt(((1 + q^2)
    (1 + q^2k) / (1 - q^2) - 2k q^2k) / N) at q = 1 - p. At lag 1 that
    is about 0.9 / p times the redraw-count error: 57 times at p = 1/64,
    910 times at p = 1e-3.
    """
    if lag == 1:
        return math.sqrt(2.4 * p / n_total)
    q = 1.0 - p
    return math.sqrt(((1 + q**2) * (1 + q ** (2 * lag)) / (1 - q**2) - 2 * lag * q ** (2 * lag)) / n_total)


def test_hold_times_are_geometric():
    """Each step redraws a channel with probability p, independently: the
    gaps between redraws follow geometric(p), P(gap > k) = (1 - p)^k, and
    the path's autocorrelation at lag k is (1 - p)^k. Eight streams of
    200k steps at p = 1/64 give about 25,000 gaps. The gaps fall in 20 bins
    of equal expected count; the chi-square must stay below its mean plus
    six of its standard deviations, df + 6 sqrt(2 df). The autocorrelation
    must stay within five standard errors (:func:`correlation_error`) of
    (1 - p)^k."""
    p, n_steps, streams = 1.0 / 64.0, 200_000, 8
    q = 1.0 - p
    gaps, paths = [], []
    for stream in range(streams):
        starts, uniforms = noise._draw(21, stream, noise._DOMAIN_MAGNETIC, n_steps, p)[0]
        gaps.append(np.diff(starts))
        paths.append(noise._render(noise._held(starts, uniforms, n_steps, 1.0), n_steps))
    gaps = np.concatenate(gaps)
    # bin edges k_i with P(gap > k_i) nearest to 1 - i/20; expected counts exact
    edges = np.unique(np.round(np.log1p(-np.arange(1, 20) / 20.0) / np.log(q)).astype(int))
    survival = np.concatenate(([1.0], q**edges, [0.0]))
    expected = gaps.size * -np.diff(survival)
    observed = np.bincount(np.searchsorted(edges, gaps, side="left"), minlength=edges.size + 1)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    df = edges.size
    assert chi2 < df + 6.0 * math.sqrt(2.0 * df), chi2
    n_total = streams * n_steps
    power = sum(float(np.dot(x, x)) for x in paths)
    for k in (1, 8, 32, 64, 128, 256):
        r = sum(float(np.dot(x[:-k], x[k:])) for x in paths) / power
        assert abs(r - q**k) < 5.0 * correlation_error(p, k, n_total), (k, r, q**k)


@pytest.mark.parametrize("p,streams", [(1e-2, 4), (1e-3, 16)])
def test_rare_switch_gaps_and_correlation_are_geometric(p, streams):
    """At the rare switches of real configs (p = switch_rate * dt is 1e-3
    at 100 kHz and 10 ns) the gaps between redraws of ``noise._draw``
    follow geometric(p) and the rendered path decorrelates as (1 - p)^k.
    Streams of 400k steps give about 16,000 gaps at p = 1e-2; at p = 1e-3
    sixteen streams give about 6,400. The bounds:

    * the gaps' mean is 1/p within five standard errors sqrt(1 - p) / p
      / sqrt(n);
    * their Kolmogorov-Smirnov distance D from P(gap <= k) = 1 - (1 - p)^k,
      taken over every integer k, has sqrt(n) D < 1.95, the 0.1 % level
      of the continuous law (a discrete law only lowers it);
    * the autocorrelation at lags 1, 1/(4p), 1/p and 2/p is within five
      standard errors (:func:`correlation_error`) of (1 - p)^k.
    """
    n_steps, q = 400_000, 1.0 - p
    gaps, paths = [], []
    for stream in range(streams):
        starts, uniforms = noise._draw(5, stream, noise._DOMAIN_MAGNETIC, n_steps, p)[0]
        gaps.append(np.diff(starts))
        paths.append(noise._render(noise._held(starts, uniforms, n_steps, 1.0), n_steps))
    gaps = np.sort(np.concatenate(gaps))
    n = gaps.size
    assert abs(gaps.mean() - 1.0 / p) < 5.0 * math.sqrt(1.0 - p) / p / math.sqrt(n), gaps.mean()
    k = np.arange(1, gaps[-1] + 1)
    distance = np.max(np.abs(np.searchsorted(gaps, k, side="right") / n - (1.0 - q**k)))
    assert math.sqrt(n) * distance < 1.95, math.sqrt(n) * distance
    n_total = streams * n_steps
    power = sum(float(np.dot(x, x)) for x in paths)
    for lag in (1, round(0.25 / p), round(1.0 / p), round(2.0 / p)):
        r = sum(float(np.dot(x[:-lag], x[lag:])) for x in paths) / power
        assert abs(r - q**lag) < 5.0 * correlation_error(p, lag, n_total), (lag, r, q**lag)


def change_scan(x):
    """The steps where a dense path takes a new value, step 0 included."""
    return np.flatnonzero(np.diff(x, prepend=np.nan) != 0)


@pytest.mark.parametrize("xi", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("eps_rms", [0.0, 1e6])
@pytest.mark.parametrize("n_steps", [0, 1, 2, 57, 5000])
def test_held_fields_are_the_rendered_paths_change_points(xi, eps_rms, n_steps):
    """The (steps, values) pairs read from the draw store are the change
    points of the rendered paths and their values there, bit for bit, for
    a store drawn to this length and for one drawn longer first."""
    dt = 1e-8
    cfg = FluctuatorConfig(beta_rms=1e-6, xi=xi, switch_rate=2e6, eps_rms=eps_rms, electric_rate=3e6)
    for stream in range(3):
        longer = noise.NoiseDraws()
        noise.held_fields(cfg, (n_steps + 100) * dt, dt, stream, longer, seed=13)
        traj = sample_magnetic_trajectory(cfg, n_steps * dt, dt, stream, seed=13)
        eps_z = sample_electric_trajectory(cfg, n_steps * dt, dt, stream, seed=13) if eps_rms else None
        for draws in (None, longer):
            held = noise.held_fields(cfg, n_steps * dt, dt, stream, draws, seed=13)
            for pair, x in zip(held, (traj.beta_s, traj.beta_s_prime, eps_z)):
                if x is None:
                    assert pair is None
                    continue
                steps, values = pair
                assert np.array_equal(steps, change_scan(x))
                assert same_bits(values, x[steps])
