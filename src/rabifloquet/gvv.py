"""Effective two-level reduction of the driven qubit via nearly degenerate
perturbation theory in the doubly rotated frame.

Two frame rotations (a pi/2 spin flip followed by a drive-phase rotation)
turn the driven Hamiltonian into a Floquet matrix whose couplings are
Bessel functions of A/omega.  Reducing the nearly degenerate pair of
Floquet states to a 2x2 matrix with second-order shifts gives the
oscillation frequency Omega; dropping the shifts gives the first-order
frequency Omega' (the generalized rotating-wave value).

The reduced pair is |1, 0> (excited-like, Fourier index 0) and
|0, n> (ground-like, Fourier index n) with n = +1 when J0(A/omega) omega0
>= 0 and n = -1 otherwise: their unperturbed splitting J0 omega0 - n omega
is then the smaller of the two one-photon detunings, so for
omega > omega0 / 2 the partner is the nearest odd-photon level.  Every
other Floquet state is summed as a perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InternalConsistencyError, MultiphotonResonanceError
from .floquet import DEFAULT_TRUNCATION, FloquetMatrix, floquet_matrix
from .model import IDENTITY, SIGMA_X, SIGMA_Z, TWO_PI, DriveParams
from .numerics import bessel_table, bessel_tables, eig_hermitian

_DENOMINATOR_FLOOR = 1e-9


def default_k_sum(p: DriveParams) -> int:
    # Bessel orders beyond 2 A / omega contribute below 1e-12.
    return max(50, int(math.ceil(2.0 * p.A / p.omega)) + 20)


@dataclass(frozen=True)
class GvvEffective:
    """Second-order reduction: shifts, 2x2 matrix, and both frequencies."""

    params: DriveParams
    K: int
    n: int  # Fourier index of the ground-like partner level, +1 or -1
    delta_1p: float
    delta_0p: float
    delta_10: float
    delta_01: float
    h: np.ndarray = field(repr=False)  # 2x2, basis (excited-like, ground-like)
    B: float
    Omega: float
    Omega_grwa: float


def _partner_photon(p: DriveParams, table) -> int:
    # Fourier index n of the ground-like level paired with |1, 0>.
    return 1 if table[0] * p.omega0 >= 0.0 else -1


def _check_denominators(p: DriveParams, j0: float, k: np.ndarray, n: int) -> None:
    # Odd-photon levels outside the pair: |0, 2k + n> couples to |1, 0> and
    # |1, 2k> to |0, n>, with detunings J0 omega0 - m omega for m = 2k + n
    # and m = n - 2k.  The even-photon denominators -2 k omega never vanish.
    for m in (2 * k + n, n - 2 * k):
        dens = np.abs(j0 * p.omega0 - m * p.omega)
        bad = np.flatnonzero(dens < _DENOMINATOR_FLOOR * p.omega0)
        if len(bad):
            raise MultiphotonResonanceError(
                f"multiphoton resonance: |J0*omega0 - {m[bad[0]]}*omega| < "
                f"{_DENOMINATOR_FLOOR}*omega0",
                k=int(k[bad[0]]),
            )


def _shifts(p: DriveParams, K: int, n: int, table) -> tuple[float, float, float, float]:
    w0, w = p.omega0, p.omega
    j0 = table[0]

    k = np.concatenate([np.arange(-K, 0), np.arange(1, K + 1)])
    _check_denominators(p, j0, k, n)
    j2k, j_p, j_m = table[2 * k], table[2 * k + n], table[2 * k - n]
    den_p = j0 * w0 - (2 * k + n) * w
    den_m = j0 * w0 + (2 * k - n) * w

    delta_1p = float(np.sum((j_p * w0 / 2) ** 2 / den_p + (j2k * w0 / 2) ** 2 / (-2 * k * w)))
    delta_0p = float(np.sum(-((j_m * w0 / 2) ** 2) / den_m + (j2k * w0 / 2) ** 2 / (-2 * k * w)))
    delta_10 = float(np.sum(
        -j_m * j2k * w0**2 / 4 / den_m + j_p * j2k * w0**2 / (-8 * k * w)
    ))
    delta_01 = float(np.sum(
        j_p * j2k * w0**2 / 4 / den_p + j_m * j2k * w0**2 / (-8 * k * w)
    ))
    return delta_1p, delta_0p, delta_10, delta_01


def _effective(p: DriveParams, K: int, table) -> GvvEffective:
    w0, w = p.omega0, p.omega
    j0, j1 = table[0], table[1]
    n = _partner_photon(p, table)
    d1, d0, d10, d01 = _shifts(p, K, n, table)
    jn = n * j1  # coupling of |1, 0> to |0, n> is -J_n omega0 / 2

    h = np.array([
        [0.5 * j0 * w0 + d1, -0.5 * jn * w0 + d10],
        [-0.5 * jn * w0 + d01, n * w - 0.5 * j0 * w0 + d0],
    ])
    b = (
        2.0 * (d1 - d0 - n * w) * j0 * w0
        - 2.0 * (d10 + d01) * jn * w0
        + (j0**2 + j1**2) * w0**2
    )
    omega_closed = math.sqrt(4.0 * d10 * d01 + (d1 - d0 - n * w) ** 2 + b)
    dec = eig_hermitian(0.5 * (h + h.T))
    omega_gap = float(dec.eigenvalues[1] - dec.eigenvalues[0])
    if abs(omega_closed - omega_gap) > 1e-10 * w0:
        raise InternalConsistencyError(
            f"closed form Omega={omega_closed} vs eigenvalue gap {omega_gap}"
        )
    omega_grwa = math.sqrt((n * w - j0 * w0) ** 2 + (j1 * w0) ** 2)
    return GvvEffective(
        params=p, K=K, n=n,
        delta_1p=d1, delta_0p=d0, delta_10=d10, delta_01=d01,
        h=h, B=b, Omega=omega_closed, Omega_grwa=omega_grwa,
    )


def gvv_effectives(omega: float, amps, K: int | None = None, omega0: float = 1.0) -> list:
    """The effective 2x2 matrix and both oscillation frequencies across a sweep.

    One entry per amplitude: a GvvEffective, or the
    MultiphotonResonanceError that amplitude degrades to when a level
    outside the pair is (nearly) resonant with it.  ``K`` defaults to
    ``default_k_sum`` per amplitude.  Every amplitude's Bessel table comes
    from one downward recurrence, to order 2 max K + 1 at all A/omega.

    The matrix acts on (|1, 0>, |0, n>), n = +1 if J0 omega0 >= 0 else -1.
    Omega is computed twice, from the closed form and from the eigenvalue
    gap of the matrix; disagreement beyond 1e-10 omega0 raises, guarding
    against transcription slips in the dense closed-form expression.
    """
    if K is not None and K < 1:
        raise DomainError("K must be >= 1")
    params = [DriveParams(omega0, float(a), omega) for a in amps]
    ks = [default_k_sum(p) if K is None else K for p in params]
    tables = bessel_tables([p.A / p.omega for p in params], [2 * k + 1 for k in ks])
    out = []
    for p, k, table in zip(params, ks, tables):
        try:
            out.append(_effective(p, k, table))
        except MultiphotonResonanceError as exc:
            out.append(exc)
    return out


def gvv_effective(p: DriveParams, K: int | None = None) -> GvvEffective:
    """The one-amplitude :func:`gvv_effectives`: its reduction, or its error raised."""
    (eff,) = gvv_effectives(p.omega, [p.A], K, p.omega0)
    if isinstance(eff, Exception):
        raise eff
    return eff


def gvv_shifts(p: DriveParams, K: int | None = None) -> tuple[float, float, float, float]:
    """Second-order shifts (delta_1p, delta_0p, delta_10, delta_01).

    Van Vleck shifts of the reduced pair |1, 0>, |0, n> (n = +1 if
    J0 omega0 >= 0, else -1), read from :func:`gvv_effective`.  Sums run
    over the harmonic index k in [-K, K] excluding 0 with Bessel argument
    A/omega.  A near-zero denominator of a level outside the pair raises
    MultiphotonResonanceError rather than silently diverging.
    """
    eff = gvv_effective(p, K)
    return eff.delta_1p, eff.delta_0p, eff.delta_10, eff.delta_01


def build_floquet_matrix_dut(p: DriveParams, N: int = DEFAULT_TRUNCATION) -> FloquetMatrix:
    """Floquet matrix in the doubly rotated frame.

    Row layout matches the lab-frame builder: block b = n + N holds the
    excited-like row 2b and the ground-like row 2b + 1.  The Fourier block
    of harmonic k is (omega0/2) J_{-k}(A/omega) times sigma_z for even k
    and times [[0, -1], [1, 0]] for odd k, so the diagonal entries are
    n omega +- J_0 omega0 / 2.
    """
    table = bessel_table(p.A / p.omega, 2 * N)
    odd = np.array([[0.0, -1.0], [1.0, 0.0]])
    components = {k: 0.5 * table[-k] * p.omega0 * (SIGMA_Z.real if k % 2 == 0 else odd)
                  for k in range(-2 * N, 2 * N + 1)}
    return floquet_matrix(p, components, N)


# ---------------------------------------------------------------------------
# Rotating frame shared with the dissipative route
# ---------------------------------------------------------------------------

def frame_angle(p: DriveParams, t):
    """Half rotation angle A sin(omega t) / (2 omega), phase-reduced.

    Accepts a scalar time or an array of times.
    """
    return 0.5 * p.A * np.sin(np.fmod(p.omega * np.asarray(t, dtype=float), TWO_PI)) / p.omega


def frame_unitary(p: DriveParams, t) -> np.ndarray:
    """Frame rotation U(t) = cos(theta) + i sin(theta) sigma_x, theta = frame_angle.

    The frame of ``build_floquet_matrix_dut``, whose Hamiltonian is
    (omega0/2)(cos 2theta sigma_z - sin 2theta sigma_y), maps to the lab
    as psi_lab = sigma_z U psi_rot: U alone gives the right populations
    but coherences of the wrong sign.  U(0) = I, so the frames share
    initial populations.  A scalar ``t`` gives a 2x2 matrix, an array of
    times a batch of shape ``t.shape + (2, 2)``.
    """
    th = frame_angle(p, t)[..., None, None]
    return np.cos(th) * IDENTITY + 1j * np.sin(th) * SIGMA_X
