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
from .numerics import bessel_j, bessel_table, count_roots, find_roots

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


def _xi_residual(p: DriveParams):
    def f(xi):
        return 0.5 * p.A * (1.0 - np.asarray(xi)) - p.omega0 * bessel_j(1, p.A * np.asarray(xi) / p.omega)
    return f


def solve_xi(p: DriveParams) -> tuple:
    """All roots of the xi self-consistency condition on [0, 1], ascending."""
    if p.A == 0.0:
        raise DomainError("xi condition is degenerate at A = 0 (no drive to renormalize)")
    return find_roots(_xi_residual(p), 0.0, 1.0, scan_points=SCAN_POINTS, tol=ROOT_TOL)


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


def chrw_solution(p: DriveParams) -> ChrwSolution:
    """Renormalized drive, detuning, and effective Rabi frequency.

    Requires a unique xi root; zero roots, or no drive at all (A = 0),
    raise NoSolutionError (the method simply has no answer there) and
    several roots raise AmbiguousSolutionError carrying all of them.
    """
    if p.A == 0.0:
        raise NoSolutionError("no drive (A = 0), the xi condition is degenerate")
    roots = solve_xi(p)
    if len(roots) == 0:
        raise NoSolutionError(
            f"no xi in [0, 1] satisfies the self-consistency condition at "
            f"omega/omega0={p.omega / p.omega0:g}, A/omega0={p.A / p.omega0:g}"
        )
    if len(roots) > 1:
        raise AmbiguousSolutionError(
            f"{len(roots)} xi roots found; the single-weight ansatz is not applicable",
            roots=roots,
        )
    xi = roots[0]
    a_tilde = 2.0 * p.A * (1.0 - xi)
    delta_tilde = bessel_j(0, p.A * xi / p.omega) * p.omega0 - p.omega
    omega_tilde = math.sqrt(delta_tilde**2 + 0.25 * a_tilde**2)
    return ChrwSolution(
        params=p, xi=xi, A_tilde=a_tilde, Delta_tilde=delta_tilde, Omega_tilde=omega_tilde
    )


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
