"""Spin-operator algebra, propagators, and state validation."""

import numpy as np
import pytest

from spindyad.linalg import (
    DENSITY_PSD_TOL,
    SpinKind,
    assert_density_matrix,
    density_deviations,
    expm_hermitian,
    eye,
    full_operators,
    reduced_operators,
    spin_operators,
)


def taylor_expm(h, t, terms=20, squarings=24):
    """Independent propagator oracle: scaled 20-term Taylor series.

    exp(-i h t) = [exp(-i h t / 2^k)]^(2^k) with the bracket evaluated by
    a plain truncated series; no eigendecomposition involved.
    """
    a = -1j * np.asarray(h, dtype=complex) * t / (2.0**squarings)
    acc = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


class TestSpinOperators:
    def test_spin_half_z_eigenvalues(self):
        s = spin_operators(SpinKind.SPIN_HALF)
        assert np.allclose(np.diag(s.z), [0.5, -0.5])

    def test_spin_one_z_trace_square(self):
        s = spin_operators(SpinKind.SPIN_ONE)
        assert np.trace(s.z @ s.z).real == pytest.approx(2.0)
        assert np.allclose(np.diag(s.z), [1.0, 0.0, -1.0])

    def test_spin_half_anticommutator_vanishes(self):
        s = spin_operators(SpinKind.SPIN_HALF)
        assert np.max(np.abs(s.x @ s.y + s.y @ s.x)) < 1e-15

    @pytest.mark.parametrize(
        "kind", [SpinKind.SPIN_ONE, SpinKind.SPIN_HALF]
    )
    def test_commutation_relations(self, kind):
        s = spin_operators(kind)
        for a, b, c in [(s.x, s.y, s.z), (s.y, s.z, s.x), (s.z, s.x, s.y)]:
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-14

    @pytest.mark.parametrize(
        "kind", [SpinKind.SPIN_ONE, SpinKind.SPIN_HALF]
    )
    def test_ladder_definition(self, kind):
        s = spin_operators(kind)
        assert np.allclose(s.plus, s.x + 1j * s.y)
        assert np.allclose(s.minus, s.x - 1j * s.y)

    def test_operators_read_only(self):
        s = spin_operators(SpinKind.SPIN_HALF)
        with pytest.raises(ValueError):
            s.z[0, 0] = 9.0


class TestTensor:
    """Products are np.kron with the first factor as the slow index; the
    full basis puts the spin-1 first."""

    def test_identity_product(self):
        assert np.allclose(np.kron(eye(2), eye(2)), eye(4))
        assert np.array_equal(reduced_operators().identity, eye(4))
        assert np.array_equal(full_operators().identity, eye(6))

    def test_spin_one_z_with_identity(self):
        s1 = spin_operators(SpinKind.SPIN_ONE)
        s_z = full_operators().s_z
        assert np.array_equal(s_z, np.kron(s1.z, eye(2)))
        assert np.allclose(np.diag(s_z).real, [1, 1, 0, 0, -1, -1])
        vals = np.sort(np.linalg.eigvalsh(s_z))
        assert np.allclose(vals, [-1, -1, 0, 0, 1, 1])

    def test_mixed_product_property(self):
        s1 = spin_operators(SpinKind.SPIN_ONE)
        sh = spin_operators(SpinKind.SPIN_HALF)
        f = full_operators()
        assert np.array_equal(f.p_z, np.kron(eye(3), sh.z))
        assert np.allclose(f.s_z @ f.p_z, np.kron(s1.z, sh.z))


class TestExpmHermitian:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        assert np.allclose(expm_hermitian(h, 0.0), eye(4))

    def test_spin_half_phase_rotation(self):
        omega = 2 * np.pi * 1e6
        s = spin_operators(SpinKind.SPIN_HALF)
        u = expm_hermitian(omega * s.z, np.pi / omega)
        expect = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.max(np.abs(u - expect)) < 1e-12

    def test_matches_taylor_series_oracle(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        u = expm_hermitian(h, 1.0)
        assert np.max(np.abs(u - taylor_expm(h, 1.0))) < 1e-9

    def test_rejects_non_hermitian_with_diagnostic(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            expm_hermitian(h, 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            expm_hermitian(np.eye(2, dtype=complex), -1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_unitarity_and_composition(self, seed):
        rng = np.random.default_rng(100 + seed)
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (h + h.conj().T) * 1e6
        t1, t2 = rng.uniform(0.0, 1e-3, size=2)
        u1 = expm_hermitian(h, t1)
        assert np.max(np.abs(u1.conj().T @ u1 - np.eye(6))) < 1e-10
        u12 = expm_hermitian(h, t1 + t2)
        assert np.max(np.abs(u1 @ expm_hermitian(h, t2) - u12)) < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_density_sanity_preserved_by_conjugation(self, seed):
        rng = np.random.default_rng(200 + seed)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho = rho / np.trace(rho)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) * 1e7
        u = expm_hermitian(h, rng.uniform(0, 1e-3))
        assert_density_matrix(u @ rho @ u.conj().T)

    def test_stack_names_its_first_bad_entry(self):
        stack = np.repeat(np.eye(4, dtype=complex)[None] / 4.0, 6, axis=0)
        assert_density_matrix(stack)
        stack[3, 0, 1] = 0.1  # only entry 3 is not Hermitian
        with pytest.raises(AssertionError, match=r"density matrix\[3\] not Hermitian"):
            assert_density_matrix(stack)
        stack[3, 0, 1] = 0.0
        stack[4] *= 2.0
        stack[5, 0, 0] = np.nan
        with pytest.raises(AssertionError, match=r"density matrix\[5\] not Hermitian: nan"):
            assert_density_matrix(stack)
        with pytest.raises(AssertionError, match=r"density matrix\[4\] trace"):
            assert_density_matrix(stack[:5])

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_deviations_have_the_bits_of_the_whole_matrix(self, n):
        # random stacks, then entries set to NaN, +-inf and pure-imaginary
        # values on and off the diagonal
        rng = np.random.default_rng(13)
        stack = rng.normal(size=(400, n, n)) + 1j * rng.normal(size=(400, n, n))
        stack[:100] = (stack[:100] + stack[:100].conj().swapaxes(-1, -2)) / 2
        specials = [np.nan, np.inf, -np.inf, complex(np.nan, 1.0), complex(1.0, np.inf), complex(np.inf, np.nan)]
        specials += [2.5j, -1e-300j]
        for k in range(100, 400):
            for _ in range(rng.integers(1, 3)):
                i, j = rng.integers(n, size=2)
                stack[k, i, i if k < 250 else j] = specials[rng.integers(len(specials))]
        with np.errstate(invalid="ignore"):
            trace_dev, herm_dev = density_deviations(stack)
            whole = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
            trace = abs(np.trace(stack, axis1=-2, axis2=-1) - 1.0)
        assert np.array_equal(herm_dev, whole, equal_nan=True)
        assert np.array_equal(trace_dev, trace, equal_nan=True)
        assert np.isnan(herm_dev).any() and np.isinf(herm_dev).any()


def states_with_smallest_eigenvalue(rng, lowest):
    """One Hermitian unit-trace 4x4 state per entry of ``lowest``, with that
    smallest eigenvalue, in a random eigenbasis."""
    n = len(lowest)
    v, _ = np.linalg.qr(rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)))
    rest = rng.uniform(0.05, 1.0, size=(n, 3))
    rest *= ((1.0 - lowest) / rest.sum(axis=1))[:, None]
    rho = (v * np.column_stack((lowest, rest))[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return (rho + rho.conj().swapaxes(-1, -2)) / 2


class TestPositivity:
    def test_names_the_state_below_the_bound(self):
        stack = states_with_smallest_eigenvalue(np.random.default_rng(11), np.array([-2e-9, -5e-10]))
        with pytest.raises(AssertionError, match=r"^density matrix\[0\] has negative eigenvalue -2.000e-09$"):
            assert_density_matrix(stack)
        assert_density_matrix(stack[1])

    @pytest.mark.parametrize(
        "low,high", [(-3e-9, 1e-9), (-DENSITY_PSD_TOL - 1e-13, -DENSITY_PSD_TOL + 1e-13)], ids=["range", "bound"]
    )
    def test_verdict_matches_eigvalsh_off_the_bound(self, low, high):
        # the Cholesky factorization that passes a stack first may disagree
        # with eigvalsh only within rounding of -DENSITY_PSD_TOL
        rng = np.random.default_rng(12)
        stacks = states_with_smallest_eigenvalue(rng, rng.uniform(low, high, size=4000)).reshape(1000, 4, 4, 4)
        lowest = np.linalg.eigvalsh(stacks).min(axis=-1)
        compared = 0
        for stack, lo in zip(stacks, lowest):
            if np.abs(lo + DENSITY_PSD_TOL).min() <= 1e-15:
                continue
            try:
                assert_density_matrix(stack)
                passed = True
            except AssertionError:
                passed = False
            assert passed == (lo >= -DENSITY_PSD_TOL).all()
            compared += 1
        assert compared >= 900


class TestExpectation:
    """Expectation values Tr(rho O) of the reduced-basis observables."""

    def test_maximally_mixed_tilde_z(self):
        ops = reduced_operators()
        assert np.trace(ops.identity / 4.0 @ ops.tilde_z) == pytest.approx(0.0, abs=1e-15)

    def test_projector_on_pure_state(self):
        ops = reduced_operators()
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0  # |0,-1/2>
        assert np.trace(rho @ ops.proj_ms0) == pytest.approx(1.0)

    def test_transferred_state_partner_polarization(self):
        # state I/4 - Pz/2 carries full inverted partner polarization
        ops = reduced_operators()
        rho = ops.identity / 4.0 - ops.prime_z / 2.0
        assert np.trace(rho @ ops.prime_z) == pytest.approx(-0.5)


class TestReducedBasis:
    def test_declared_ordering(self):
        ops = reduced_operators()
        # |0,+1/2>, |-1,+1/2>, |0,-1/2>, |-1,-1/2>
        assert np.allclose(np.diag(ops.tilde_z).real, [0.5, -0.5, 0.5, -0.5])
        assert np.allclose(np.diag(ops.prime_z).real, [0.5, 0.5, -0.5, -0.5])
        assert np.allclose(np.diag(ops.proj_ms0).real, [1, 0, 1, 0])

    def test_zq_operators(self):
        ops = reduced_operators()
        # protected coherence connects |-1,+1/2> and |0,-1/2>
        expect = np.zeros((4, 4), dtype=complex)
        expect[1, 2] = -0.5j
        expect[2, 1] = 0.5j
        assert np.allclose(ops.zq_antisym, expect)
        plus_minus = (ops.tilde_minus @ ops.prime_plus - ops.tilde_plus @ ops.prime_minus) / 2j
        assert np.allclose(ops.zq_antisym, plus_minus)

    def test_full_manifold_indices(self):
        f = full_operators()
        sz = np.diag(f.s_z).real
        pz = np.diag(f.p_z).real
        labels = [(round(sz[i]), pz[i]) for i in f.reduced_indices]
        assert labels == [(0, 0.5), (-1, 0.5), (0, -0.5), (-1, -0.5)]
