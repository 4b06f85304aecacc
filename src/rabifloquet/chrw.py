"""Analytic route built on the self-consistent drive-weight parameter xi.

A single unitary transformation with weight xi in [0, 1] recasts the
driven two-level Hamiltonian in rotating-wave form with renormalized
drive and detuning; the transition probability then has a closed cosine
series.  The weight is fixed by the transcendental condition

    A (1 - xi) / 2 = omega0 J_1(A xi / omega),

which can have zero, one, or several solutions depending on (omega, A).
Only the unique-solution region yields a usable analytic answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousSolutionError, DomainError, NoSolutionError
from .model import DriveParams, TimeSeries
from .numerics import _refine, _scan, bessel_j, bessel_table, count_roots

# Uniform scan resolution and root tolerance of the xi condition on [0, 1].
SCAN_POINTS = 4000
ROOT_TOL = 1e-12


@dataclass(frozen=True)
class ChrwSolution:
    """Self-consistent weight and the renormalized quantities it implies."""

    params: DriveParams
    xi: float
    A_tilde: float       # renormalized drive, 2 A (1 - xi)
    Delta_tilde: float   # renormalized detuning, J_0(A xi / omega) omega0 - omega
    Omega_tilde: float   # effective Rabi frequency


@dataclass(frozen=True)
class ChrwCoefficients:
    """Fourier amplitudes of the P1(t) cosine series.

    c0 is the constant term, c1 the amplitude at the effective Rabi
    frequency; c2[n-1], c3[n-1], c4[n-1] are the amplitudes at
    2 n omega + Omega, 2 n omega - Omega and 2 n omega.
    """

    c0: float
    c1: float
    c2: np.ndarray = field(repr=False)
    c3: np.ndarray = field(repr=False)
    c4: np.ndarray = field(repr=False)

    @property
    def n_max(self) -> int:
        return len(self.c2)

    def closure_sum(self) -> float:
        """c0 + c1 + sum(c2 + c3 + c4); zero for the initial state |0>."""
        return float(self.c0 + self.c1 + self.c2.sum() + self.c3.sum() + self.c4.sum())


@dataclass(frozen=True)
class SolutionCountMap:
    omega_axis: np.ndarray = field(repr=False)
    A_axis: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)  # shape (len(A_axis), len(omega_axis))


def _residual(omega0, A, omega, xi):
    return 0.5 * A * (1.0 - xi) - omega0 * bessel_j(1, A * xi / omega)


def _xi_residual(p: DriveParams):
    def f(xi):
        return _residual(p.omega0, p.A, p.omega, np.asarray(xi))
    return f


def xi_roots(omega: float, amps, omega0: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Every root of the xi condition on [0, 1] at each amplitude of a sweep.

    Returns (owner, xi): root xi[i] belongs to amplitude amps[owner[i]],
    ordered by owner and ascending within one.  Each driven amplitude is
    scanned on its own, and then the sign-change cells of all of them are
    refined together, so each refinement round is one Bessel recurrence
    for the whole sweep.  A = 0 owns no root: the condition is degenerate
    there.
    """
    params = [DriveParams(omega0, float(a), omega) for a in amps]
    cells, zeros = [], []  # rows (owner, a, b, f(a), f(b)) and (owner, xi)
    for i, p in enumerate(params):
        if p.A > 0.0:
            xs, ys, cell = _scan(_xi_residual(p), 0.0, 1.0, SCAN_POINTS)
            cells.append(np.stack([np.full(len(cell), i), xs[cell], xs[cell + 1], ys[cell], ys[cell + 1]]))
            at = xs[ys == 0.0]
            zeros.append(np.stack([np.full(len(at), i), at]))
    cell_owner, a, b, fa, fb = np.concatenate([np.empty((5, 0))] + cells, axis=1)
    zero_owner, at = np.concatenate([np.empty((2, 0))] + zeros, axis=1)
    amp = np.array([p.A for p in params])[cell_owner.astype(int)]
    refined = _refine(lambda x, rows: _residual(omega0, amp[rows], omega, x), a, b, fa, fb, ROOT_TOL)
    owner = np.concatenate([cell_owner, zero_owner]).astype(int)
    xi = np.concatenate([refined, at])
    order = np.lexsort((xi, owner))
    return owner[order], xi[order]


def solve_xi(p: DriveParams) -> tuple:
    """All roots of the xi self-consistency condition on [0, 1], ascending."""
    if p.A == 0.0:
        raise DomainError("xi condition is degenerate at A = 0 (no drive to renormalize)")
    return tuple(xi_roots(p.omega, [p.A], p.omega0)[1].tolist())


def solution_count_map(omega_range, A_range) -> SolutionCountMap:
    """Number of xi roots per (omega, A) grid cell.

    ``omega_range`` and ``A_range`` are explicit 1-d grids.  A cell holds
    ``len(solve_xi(...))``, counted on the scan without refining; cells
    with A = 0 are assigned one solution from the analytic weak-drive limit.
    """
    omega_axis = np.asarray(omega_range, dtype=float)
    A_axis = np.asarray(A_range, dtype=float)
    if omega_axis.ndim != 1 or A_axis.ndim != 1 or len(omega_axis) == 0 or len(A_axis) == 0:
        raise DomainError("omega and A ranges must be non-empty 1-d grids")
    if np.any(omega_axis <= 0) or np.any(A_axis < 0):
        raise DomainError("omega values must be positive and A values nonnegative")
    counts = np.ones((len(A_axis), len(omega_axis)), dtype=int)
    for i, a in enumerate(A_axis):
        for j, w in enumerate(omega_axis):
            if a > 0.0:
                p = DriveParams(omega0=1.0, A=a, omega=w)
                counts[i, j] = count_roots(_xi_residual(p), 0.0, 1.0, SCAN_POINTS)
    return SolutionCountMap(omega_axis=omega_axis, A_axis=A_axis, counts=counts)


def chrw_solutions(omega: float, amps, omega0: float = 1.0) -> list:
    """Renormalized drive, detuning, and effective Rabi frequency across a sweep.

    One entry per amplitude: a ChrwSolution where its xi root is unique,
    otherwise the error that amplitude degrades to.  Zero roots, or no
    drive at all (A = 0), give NoSolutionError (the method simply has no
    answer there) and several roots give AmbiguousSolutionError carrying
    all of them.  The roots come from one :func:`xi_roots` sweep and every
    J_0(A xi / omega) from one Bessel call.
    """
    amps = np.asarray(amps, dtype=float).ravel()
    owner, roots = xi_roots(omega, amps, omega0)
    count = np.bincount(owner, minlength=len(amps))
    unique = np.flatnonzero(count == 1)
    xi = np.zeros(len(amps))  # the unique roots; 0 elsewhere adds no Bessel work
    xi[unique] = roots[np.searchsorted(owner, unique)]
    j0 = bessel_j(0, amps * xi / omega)
    params = [DriveParams(omega0, float(a), omega) for a in amps]
    out = []
    for i, p in enumerate(params):
        if p.A == 0.0:
            out.append(NoSolutionError("no drive (A = 0), the xi condition is degenerate"))
        elif count[i] == 0:
            out.append(NoSolutionError(
                f"no xi in [0, 1] satisfies the self-consistency condition at "
                f"omega/omega0={p.omega / p.omega0:g}, A/omega0={p.A / p.omega0:g}"
            ))
        elif count[i] > 1:
            out.append(AmbiguousSolutionError(
                f"{count[i]} xi roots found; the single-weight ansatz is not applicable",
                roots=roots[owner == i].tolist(),
            ))
        else:
            a_tilde = 2.0 * p.A * (1.0 - float(xi[i]))
            delta_tilde = float(j0[i]) * p.omega0 - p.omega
            omega_tilde = math.sqrt(delta_tilde**2 + 0.25 * a_tilde**2)
            out.append(ChrwSolution(params=p, xi=float(xi[i]), A_tilde=a_tilde,
                                    Delta_tilde=delta_tilde, Omega_tilde=omega_tilde))
    return out


def chrw_solution(p: DriveParams) -> ChrwSolution:
    """The one-amplitude :func:`chrw_solutions`: its solution, or its error raised."""
    (sol,) = chrw_solutions(p.omega, [p.A], p.omega0)
    if isinstance(sol, Exception):
        raise sol
    return sol


def default_n_max(sol: ChrwSolution, p: DriveParams) -> int:
    # Bessel orders beyond the argument decay super-exponentially.
    return int(math.ceil(p.A * sol.xi / p.omega)) + 15


def chrw_coefficients(sol: ChrwSolution, p: DriveParams, n_max: int | None = None) -> ChrwCoefficients:
    """Cosine-series amplitudes of P1(t) for the initial state |0>."""
    if n_max is None:
        n_max = default_n_max(sol, p)
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    z = p.A * sol.xi / p.omega
    table = bessel_table(z, 2 * n_max + 1)
    at, dt, om = sol.A_tilde, sol.Delta_tilde, sol.Omega_tilde
    om2 = om * om

    c0 = 0.5 - 0.5 * dt * dt / om2 * table[0] + 0.25 * dt * at / om2 * table[1]
    c1 = -0.125 * at * at / om2 * table[0] - 0.25 * dt * at / om2 * table[1]

    n = np.arange(1, n_max + 1)
    j2n = table[2 * n]
    jodd = table[2 * n - 1] - table[2 * n + 1]
    ring = n * p.omega * at / (2.0 * p.A * sol.xi * om)
    c2 = -(0.125 * at * at / om2 + ring) * j2n + 0.125 * dt * at / om2 * jodd
    c3 = -(0.125 * at * at / om2 - ring) * j2n + 0.125 * dt * at / om2 * jodd
    c4 = -0.25 * dt * at / om2 * jodd - dt * dt / om2 * j2n
    return ChrwCoefficients(c0=c0, c1=c1, c2=c2, c3=c3, c4=c4)


def p1_chrw(sol: ChrwSolution, coeffs: ChrwCoefficients, t_grid) -> TimeSeries:
    """Evaluate the closed cosine series on a time grid (raw, unclipped)."""
    t = np.asarray(t_grid, dtype=float)
    w, om = sol.params.omega, sol.Omega_tilde
    p1 = coeffs.c0 + coeffs.c1 * np.cos(om * t)
    for i, n in enumerate(range(1, coeffs.n_max + 1)):
        p1 = p1 + coeffs.c2[i] * np.cos((2 * n * w + om) * t)
        p1 = p1 + coeffs.c3[i] * np.cos((2 * n * w - om) * t)
        p1 = p1 + coeffs.c4[i] * np.cos(2 * n * w * t)
    return TimeSeries(t=t, p1=p1)
