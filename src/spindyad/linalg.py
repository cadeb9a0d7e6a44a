"""Dense complex linear algebra and spin operators for small Hilbert spaces.

Everything in the simulator lives in 2-, 3-, 4- or 6-dimensional complex
Hilbert spaces, so all linear algebra here is dense and exact-to-roundoff.
Matrix exponentials of Hermitian generators are computed by
eigendecomposition, which at these dimensions is both branch-free and
accurate to machine precision.

Basis conventions (shared by every module):

* Full 6-dim product basis ``|m_S, m_S'>`` with the spin-1 projection
  ``m_S`` in {+1, 0, -1} (descending, slow index) and the spin-1/2
  projection ``m_S'`` in {+1/2, -1/2} (descending, fast index).
* Reduced 4-dim basis restricted to the ``m_S`` in {0, -1} manifold,
  ordered ``|0,+1/2>``, ``|-1,+1/2>``, ``|0,-1/2>``, ``|-1,-1/2>``.
  The spin-1 is represented there by a fictitious spin-1/2 whose +1/2
  (-1/2) projection corresponds to ``m_S = 0`` (``m_S = -1``); note the
  spin-1/2 partner is the slow index in this ordering.

All returned operator arrays are marked read-only: the ``lru_cache``d
constructors hand the same arrays to every caller, so no caller may
change them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "SpinKind",
    "SpinOperators",
    "ReducedOperators",
    "FullOperators",
    "spin_operators",
    "reduced_operators",
    "full_operators",
    "eye",
    "require_hermitian",
    "expm_hermitian",
    "assert_density_matrix",
]

HERMITIAN_TOL = 1e-12
DENSITY_HERM_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_PSD_TOL = 1e-9


class SpinKind(enum.Enum):
    """Supported spin species for operator construction."""

    SPIN_ONE = "spin1"
    SPIN_HALF = "spin_half"


def _frozen(a: NDArray) -> NDArray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpinOperators:
    """Cartesian and ladder operators of a single spin."""

    x: NDArray
    y: NDArray
    z: NDArray
    plus: NDArray
    minus: NDArray


def _make_spin(j: float) -> SpinOperators:
    """Build spin-j operators in the descending-m basis.

    Matrix elements follow <m'|S+|m> = sqrt(j(j+1) - m(m+1)) delta(m', m+1).
    """
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)  # descending projections
    sz = np.diag(m.astype(complex))
    sp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        # raising operator connects m[k] -> m[k] + 1 = m[k - 1]
        sp[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    sm = sp.conj().T
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    return SpinOperators(*(map(_frozen, (sx, sy, sz, sp, sm))))


@lru_cache(maxsize=None)
def spin_operators(kind: SpinKind = SpinKind.SPIN_HALF) -> SpinOperators:
    """Return the operator set {Sx, Sy, Sz, S+, S-} for a spin species.

    The fictitious spin-1/2 (the two-level reduction of the spin-1) uses
    the ordinary spin-1/2 matrices.
    """
    if kind is SpinKind.SPIN_ONE:
        return _make_spin(1.0)
    return _make_spin(0.5)


def eye(dim: int) -> NDArray:
    return _frozen(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class ReducedOperators:
    """Operator bundle for the reduced 4-dim basis.

    ``tilde_*`` act on the fictitious spin-1/2 replacing the spin-1 within
    the {m_S = 0, m_S = -1} manifold, ``prime_*`` on the spin-1/2 partner.
    ``zq_antisym`` and ``zq_sym`` are the two zero-quantum quadratures
    (the antisymmetric one is the magnetically protected coherence),
    ``zz`` the longitudinal two-spin order, and ``proj_ms0`` the projector
    onto ``m_S = 0`` used for optical readout.
    """

    tilde_x: NDArray
    tilde_y: NDArray
    tilde_z: NDArray
    tilde_plus: NDArray
    tilde_minus: NDArray
    prime_y: NDArray
    prime_z: NDArray
    prime_plus: NDArray
    prime_minus: NDArray
    zq_antisym: NDArray
    zq_sym: NDArray
    zz: NDArray
    proj_ms0: NDArray
    identity: NDArray


@lru_cache(maxsize=None)
def reduced_operators() -> ReducedOperators:
    """Construct the shared 4-dim operator set.

    In the declared reduced ordering the spin-1/2 partner is the slow
    Kronecker index, so its operators embed as kron(s, I) and the
    fictitious spin as kron(I, s).
    """
    s = spin_operators(SpinKind.SPIN_HALF)
    i2 = np.eye(2, dtype=complex)

    def til(op):
        return np.kron(i2, op)

    def pri(op):
        return np.kron(op, i2)

    tx, ty, tz = til(s.x), til(s.y), til(s.z)
    px, py, pz = pri(s.x), pri(s.y), pri(s.z)
    zq_anti = tx @ py - ty @ px
    zq_sym = tx @ px + ty @ py
    zz = tz @ pz
    proj0 = til(np.diag([1.0, 0.0]).astype(complex))
    return ReducedOperators(
        tilde_x=_frozen(tx),
        tilde_y=_frozen(ty),
        tilde_z=_frozen(tz),
        tilde_plus=_frozen(til(s.plus)),
        tilde_minus=_frozen(til(s.minus)),
        prime_y=_frozen(py),
        prime_z=_frozen(pz),
        prime_plus=_frozen(pri(s.plus)),
        prime_minus=_frozen(pri(s.minus)),
        zq_antisym=_frozen(zq_anti),
        zq_sym=_frozen(zq_sym),
        zz=_frozen(zz),
        proj_ms0=_frozen(proj0),
        identity=eye(4),
    )


@dataclass(frozen=True)
class FullOperators:
    """Spin operators embedded in the full 6-dim product space."""

    s_z: NDArray
    s_plus: NDArray
    s_minus: NDArray
    p_z: NDArray
    p_plus: NDArray
    p_minus: NDArray
    identity: NDArray

    # full-basis indices of the reduced manifold, in reduced order
    reduced_indices = (2, 4, 3, 5)


@lru_cache(maxsize=None)
def full_operators() -> FullOperators:
    s1 = spin_operators(SpinKind.SPIN_ONE)
    sh = spin_operators(SpinKind.SPIN_HALF)
    i2 = np.eye(2, dtype=complex)
    i3 = np.eye(3, dtype=complex)
    return FullOperators(
        s_z=_frozen(np.kron(s1.z, i2)),
        s_plus=_frozen(np.kron(s1.plus, i2)),
        s_minus=_frozen(np.kron(s1.minus, i2)),
        p_z=_frozen(np.kron(i3, sh.z)),
        p_plus=_frozen(np.kron(i3, sh.plus)),
        p_minus=_frozen(np.kron(i3, sh.minus)),
        identity=eye(6),
    )


def require_hermitian(m: NDArray, name: str = "matrix") -> None:
    """Raise unless max |M - M^dag| is at most ``HERMITIAN_TOL``."""
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian: max |M - M^dag| = {dev:.3e} > {HERMITIAN_TOL:.1e}")


def expm_hermitian(h: NDArray, t: float) -> NDArray:
    """Unitary propagator exp(-i H t) of a Hermitian generator.

    Computed via eigendecomposition, which is exact to roundoff for the
    small dimensions used here. ``h`` is in angular-frequency units
    (rad/s) and ``t`` in seconds.
    """
    h = np.asarray(h, dtype=complex)
    require_hermitian(h, name="generator")
    if t < 0:
        raise ValueError(f"negative evolution time t = {t}")
    evals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * evals * t)
    return (vecs * phases) @ vecs.conj().T


def assert_density_matrix(rho: NDArray) -> None:
    """Check Hermiticity, unit trace, and positive semidefiniteness of a
    density matrix or of every matrix of a (..., n, n) stack to the fixed
    ``DENSITY_*_TOL``, naming the first failing entry. NaN entries fail.

    Positivity is first one Cholesky factorization of H + DENSITY_PSD_TOL I
    over the stack, H = (rho + rho^dagger)/2, which exists when every
    smallest eigenvalue of H lies above -DENSITY_PSD_TOL. Only when it fails
    does ``eigvalsh`` run: it decides the verdict and names the first entry
    whose smallest eigenvalue is below -DENSITY_PSD_TOL. So the two can
    disagree only where rounding puts a smallest eigenvalue on the other
    side of the bound, within 1e-15 of it for a unit-trace 4x4 state."""
    rho = np.asarray(rho)
    dag = np.swapaxes(rho.conj(), -1, -2)
    dev = np.abs(rho - dag).max(axis=(-2, -1))
    _require(dev <= DENSITY_HERM_TOL, dev, "not Hermitian: {:.3e}")
    tr = rho.trace(axis1=-2, axis2=-1)
    _require(abs(tr - 1.0) <= DENSITY_TRACE_TOL, tr, "trace {} deviates from 1")
    h = (rho + dag) / 2
    try:
        np.linalg.cholesky(h + DENSITY_PSD_TOL * np.eye(h.shape[-1]))
    except np.linalg.LinAlgError:
        lo = np.linalg.eigvalsh(h).min(axis=-1)
        _require(lo >= -DENSITY_PSD_TOL, lo, "has negative eigenvalue {:.3e}")


def _require(ok: NDArray, values: NDArray, what: str) -> None:
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), np.shape(ok))
        where = "".join(f"[{int(k)}]" for k in i)
        raise AssertionError(f"density matrix{where} {what.format(values[i])}")
