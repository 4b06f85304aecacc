"""Exact numerical route: truncated Floquet matrices and their dynamics.

Builds truncated Floquet matrices from the Fourier blocks of a periodic
Hamiltonian (the lab frame's here, the doubly rotated frame's in ``gvv``)
and the lab frame's parity chain, extracts folded quasienergies, and
evaluates the transition probability both from the Floquet eigenproblem
and by direct time integration of the Schroedinger equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ClusteringError, ContractViolationError, DomainError
from .model import SIGMA_X, SIGMA_Z, DriveParams, PureState, TimeSeries, hamiltonian_lab
from .numerics import eig_hermitian, evolve_linear

DEFAULT_TRUNCATION = 30
# Folded eigenvalues closer than CLUSTER_TOL * omega form one quasienergy class.
CLUSTER_TOL = 1e-8
# Floquet modes with a smaller spectral weight carry no line of P1(t).
WEIGHT_CUTOFF = 1e-10


@dataclass(frozen=True)
class FloquetMatrix:
    """Truncated Floquet matrix with Fourier index n in [-N, N].

    Row layout of the full matrices: block b = n + N holds rows 2b
    (excited-like state) and 2b + 1 (ground-like state), so the dimension
    is 2(2N + 1).  The lab parity chain has one row per n (row n + N), so
    its dimension is 2N + 1.
    """

    truncation: int
    matrix: np.ndarray = field(repr=False)
    bandwidth: int  # Fourier range of non-negligible couplings


@dataclass(frozen=True)
class QuasienergySpectrum:
    folded_interior: np.ndarray = field(repr=False)  # sorted, in [-omega/2, omega/2)
    folded_pair: tuple  # (q_a, q_b) in [-omega/2, omega/2)
    gap: float          # folded into [0, omega/2]


@dataclass(frozen=True)
class FrequencyComb:
    """Oscillation frequencies {2 n omega} and {|+-base + 2 n omega|}."""

    base: float
    lines: tuple  # of (frequency, label)

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([f for f, _ in self.lines])


def fold_to_zone(q, omega: float):
    """Fold quasienergies into the first zone [-omega/2, omega/2)."""
    r = q - omega * np.round(np.asarray(q, dtype=float) / omega)
    r = np.where(r >= omega / 2.0, r - omega, r)
    return float(r) if np.isscalar(q) else r


def fold_to_even_comb(x, omega: float):
    """Distance from |x| to the nearest even harmonic 2 n omega, in [0, omega]."""
    x = np.abs(np.asarray(x, dtype=float))
    r = np.abs(x - 2.0 * omega * np.round(x / (2.0 * omega)))
    return float(r) if r.ndim == 0 else r


def _bandwidth(p: DriveParams, N: int) -> int:
    """Fourier range of non-negligible couplings; rejects N < 1."""
    if N < 1:
        raise DomainError("truncation N must be >= 1")
    # Eigenstates spread over ~A/omega photon sidebands, so truncation
    # effects reach that far in from the edges even with nearest-neighbour
    # coupling; record it so the interior window is chosen accordingly.
    return min(2 * N, int(math.ceil(p.A / p.omega)) + 8)


def floquet_matrix(p: DriveParams, components: dict, N: int) -> FloquetMatrix:
    """Truncated Floquet (Shirley) matrix of H(t) = sum_k H_k exp(i k omega t).

    ``components`` maps the harmonic k to its 2x2 Fourier block H_k, with
    H_{-k} = H_k^T for a real symmetric result.  Block (n, m) is
    H_{n-m} + n omega I; harmonics with |k| > 2N fall outside the matrix.
    """
    bandwidth = _bandwidth(p, N)
    size = 2 * N + 1
    h = np.zeros((2 * size, 2 * size))
    blocks = h.reshape(size, 2, size, 2)  # view: blocks[n + N, :, m + N, :]
    for k, hk in components.items():
        rows = np.arange(max(k, 0), size + min(k, 0))
        blocks[rows, :, rows - k, :] = hk
    h[np.diag_indices(2 * size)] += np.repeat(np.arange(-N, N + 1) * p.omega, 2)
    return FloquetMatrix(truncation=N, matrix=h, bandwidth=bandwidth)


def build_floquet_matrix_lab(p: DriveParams, N: int = DEFAULT_TRUNCATION) -> FloquetMatrix:
    """Lab-frame truncated Floquet matrix.

    H_0 = (omega0/2) sigma_z and H_{+-1} = (A/4) sigma_x: diagonal blocks
    diag(omega0/2, -omega0/2) + n omega I, sigma_x coupling between
    Fourier neighbours.  The routes use its parity sector
    ``lab_parity_chain``; the full matrix is the reference it is checked
    against.
    """
    coupling = 0.25 * p.A * SIGMA_X.real
    return floquet_matrix(p, {0: 0.5 * p.omega0 * SIGMA_Z.real, 1: coupling, -1: coupling}, N)


def lab_parity_chain(p: DriveParams, N: int = DEFAULT_TRUNCATION) -> FloquetMatrix:
    """Sector {|0, even n>, |1, odd n>} of the lab-frame Floquet matrix.

    The generalised parity sigma_z (-1)^n commutes with the lab matrix,
    because the sigma_x coupling flips the spin and the photon number
    together.  The sector holding |0, 0> is a real symmetric tridiagonal
    chain: row n + N is |0, n> for even n and |1, n> for odd n (row
    2(n + N) + [n even] of the full matrix), its diagonal is
    n omega - (-1)^n omega0/2 and its off-diagonal A/4.  The other
    sector's spectrum is the negative of this one (n -> -n), so the chain
    holds both folded quasienergy classes.
    """
    full = build_floquet_matrix_lab(p, N)
    n = np.arange(-N, N + 1)
    rows = 2 * (n + N) + (n % 2 == 0)
    return FloquetMatrix(truncation=N, matrix=full.matrix[np.ix_(rows, rows)], bandwidth=full.bandwidth)


def _interior_mask(raw: np.ndarray, F: FloquetMatrix, omega: float) -> np.ndarray:
    # Exclude eigenvalues influenced by the truncation edge: keep the
    # window untouched by couplings reaching in from the outermost blocks.
    margin = F.truncation - F.bandwidth - 2
    return np.abs(raw) <= margin * omega if margin >= 1 else np.ones_like(raw, dtype=bool)


def quasienergies(F: FloquetMatrix, omega: float) -> QuasienergySpectrum:
    """Eigendecomposition with folding into [-omega/2, omega/2).

    Interior folded eigenvalues are clustered on the circle of
    circumference omega; the two cluster centers are the physical folded
    quasienergies and their circular distance (folded into [0, omega/2])
    is the gap.
    """
    raw = eig_hermitian(F.matrix).eigenvalues
    interior = raw[_interior_mask(raw, F, omega)]
    if len(interior) == 0:
        raise ClusteringError("no interior eigenvalues; increase the truncation N")
    folded = np.sort(fold_to_zone(interior, omega))

    gaps = np.diff(folded)
    wrap = folded[0] + omega - folded[-1]
    splits = np.flatnonzero(gaps > CLUSTER_TOL * omega)
    if len(splits) == 0:
        clusters = [folded]
    else:
        parts = np.split(folded, splits + 1)
        if wrap <= CLUSTER_TOL * omega:
            # first and last runs are the same cluster across the zone edge
            parts[0] = np.concatenate([parts[-1] - omega, parts[0]])
            parts = parts[:-1]
        clusters = parts
    if len(clusters) > 2:
        raise ClusteringError(
            f"{len(clusters)} folded quasienergy classes found; increase the truncation N"
        )

    centers = [float(np.mean(c)) for c in clusters]
    if len(centers) == 1:
        q_a = q_b = fold_to_zone(centers[0], omega)
        gap = 0.0
    else:
        q_a, q_b = (fold_to_zone(c, omega) for c in centers)
        d = abs(q_a - q_b) % omega
        gap = min(d, omega - d)
    return QuasienergySpectrum(folded_interior=folded, folded_pair=(q_a, q_b), gap=gap)


def _mode_weights(p: DriveParams, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Quasienergies q_k and weights c_k of the spectral sum for P1(t).

    With the initial Floquet state |0, 0> the amplitude on |1> is
    sum_k c_k exp(-i q_k t) with c_k = (sum_n <1,n|e_k>) <e_k|0,0>.  Only
    the parity chain of |0, 0> carries weight, and its |1, n> rows are
    those of odd n; the chain's eigenvectors are real.
    """
    dec = eig_hermitian(lab_parity_chain(p, N).matrix)
    v = dec.eigenvectors
    return dec.eigenvalues, v[(N + 1) % 2::2].sum(axis=0) * v[N]


def p1_floquet(p: DriveParams, N: int, t_grid) -> TimeSeries:
    """Transition probability from the truncated Floquet eigenproblem.

    Evaluates the coherent double sum over Floquet modes for the initial
    state |0>; P1(0) vanishes by completeness of the eigenbasis.
    """
    t = np.asarray(t_grid, dtype=float)
    q, c = _mode_weights(p, N)
    amp = np.exp(-1j * np.outer(t, q)) @ c
    return TimeSeries(t=t, p1=np.abs(amp) ** 2)


def dynamic_base(p: DriveParams, N: int = DEFAULT_TRUNCATION) -> float:
    """Fundamental frequency of P1(t), folded to the even comb [0, omega].

    The folded quasienergy gap alone does not decide whether the
    spectral weight sits on Delta or omega - Delta; the Floquet mode
    weights do.  Picks the strongest cross-ladder line (i.e. not an
    integer harmonic of omega) and folds it against the 2 n omega comb.
    """
    q, c = _mode_weights(p, N)
    keep = np.abs(c) > WEIGHT_CUTOFF
    q, c = q[keep], c[keep]
    k, j = np.triu_indices(len(q), 1)
    f = np.abs(q[k] - q[j])
    # harmonic comb lines carry no base information
    harmonic = np.abs(f - p.omega * np.round(f / p.omega)) < 1e-6 * p.omega
    w = np.where(harmonic, 0.0, np.abs(c[k]) * np.abs(c[j]))
    if not np.any(w > 0.0):
        return 0.0
    return fold_to_even_comb(f[np.argmax(w)], p.omega)  # first maximum on ties


def p1_direct(
    p: DriveParams,
    t_grid,
    psi0: PureState | None = None,
    rel_tol: float = 1e-10,
) -> TimeSeries:
    """Independent oracle: direct RK4 integration of the Schroedinger equation.

    Classical RK4 with Richardson step-halving on psi' = -i H(t) psi.
    """
    if psi0 is None:
        psi0 = PureState.ground()
    t = np.asarray(t_grid, dtype=float)
    states = evolve_linear(lambda times: -1j * hamiltonian_lab(p, times), psi0.vector(), t,
                           rel_tol=rel_tol, max_step=p.period / 400.0)
    norms = np.linalg.norm(states, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    if drift > 1e-9:
        raise ContractViolationError(f"norm drift {drift} exceeds 1e-9")
    return TimeSeries(t=t, p1=np.abs(states[:, 0]) ** 2)


def make_comb(base: float, omega: float, n_max: int) -> FrequencyComb:
    """Comb {2 n omega} plus {|+-base + 2 n omega|} for n = 0..n_max."""
    if base < 0:
        raise DomainError("base frequency must be nonnegative")
    if n_max < 0:
        raise DomainError("comb order n_max must be nonnegative")
    lines: list[tuple[float, str]] = []
    for n in range(n_max + 1):
        lines.append((2.0 * n * omega, f"2nw[n={n}]"))
        if base > 0.0:
            lines.append((abs(2.0 * n * omega + base), f"2nw+base[n={n}]"))
            if n > 0 or not math.isclose(abs(2.0 * n * omega - base), base):
                lines.append((abs(2.0 * n * omega - base), f"2nw-base[n={n}]"))
    return FrequencyComb(base=base, lines=tuple(lines))
