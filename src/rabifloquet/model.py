"""Domain types for the closed driven two-level system.

Matrix convention used everywhere in the package: basis ordering
(|1>, |0>) with |1> the excited state, so sigma_z = diag(1, -1) gives the
excited state the positive energy.  State amplitudes are still named by
the level they belong to (c1 on |1>, c0 on |0>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, DomainError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DriveParams:
    """Parameters (omega0, A, omega) of the monochromatically driven qubit.

    omega0 is the transition frequency, A the drive amplitude and omega
    the drive frequency, all angular.  The library is unit-agnostic: only
    the ratios A/omega0 and omega/omega0 matter.
    """

    omega0: float
    A: float
    omega: float

    def __post_init__(self):
        for name in ("omega0", "A", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.omega0 <= 0:
            raise DomainError("omega0 must be positive")
        if self.omega <= 0:
            raise DomainError("omega must be positive")
        if self.A < 0:
            raise DomainError("A must be nonnegative")

    @property
    def period(self) -> float:
        return TWO_PI / self.omega


@dataclass(frozen=True)
class PureState:
    """Normalized two-level state with amplitudes c0 on |0> and c1 on |1>."""

    c0: complex
    c1: complex

    def __post_init__(self):
        norm = abs(self.c0) ** 2 + abs(self.c1) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ContractViolationError(f"state not normalized: |c0|^2+|c1|^2 = {norm}")

    @classmethod
    def ground(cls) -> "PureState":
        return cls(c0=1.0 + 0.0j, c1=0.0j)

    @classmethod
    def excited(cls) -> "PureState":
        return cls(c0=0.0j, c1=1.0 + 0.0j)

    def vector(self) -> np.ndarray:
        """Amplitudes in the package's (|1>, |0>) matrix ordering."""
        return np.array([self.c1, self.c0], dtype=complex)


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 density matrix in the (|1>, |0>) ordering."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.shape != (2, 2):
            raise DomainError(f"density matrix must be 2x2, got {rho.shape}")
        object.__setattr__(self, "matrix", rho)
        if float(np.max(np.abs(rho - rho.conj().T))) > 1e-10:
            raise ContractViolationError("density matrix not Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-10:
            raise ContractViolationError("density matrix trace differs from 1")
        if float(np.min(np.linalg.eigvalsh(rho))) < -1e-9:
            raise ContractViolationError("density matrix has a negative eigenvalue")

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityMatrix":
        v = state.vector()
        return cls(np.outer(v, v.conj()))

    @property
    def p1(self) -> float:
        """Population of the excited state."""
        return float(self.matrix[0, 0].real)


@dataclass(frozen=True)
class TimeSeries:
    """Excited-state population sampled on a uniform time grid."""

    t: np.ndarray = field(repr=False)
    p1: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        p1 = np.asarray(self.p1, dtype=float)
        if len(t) != len(p1):
            raise ContractViolationError("t and p1 lengths differ")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "p1", p1)

    def check_bounds(self, slack: float = 1e-9) -> None:
        lo, hi = float(self.p1.min()), float(self.p1.max())
        if lo < -slack or hi > 1.0 + slack:
            raise ContractViolationError(f"population out of [0, 1]: min={lo}, max={hi}")


def hamiltonian_lab(p: DriveParams, t) -> np.ndarray:
    """Lab-frame Hamiltonian (omega0/2) sigma_z + (A/2) cos(omega t) sigma_x.

    A scalar ``t`` gives a 2x2 matrix, an array of times a batch of shape
    ``t.shape + (2, 2)``.  The cosine argument is reduced modulo 2 pi so
    the matrix is exactly periodic in the drive period.
    """
    drive = 0.5 * p.A * np.cos(np.fmod(p.omega * np.asarray(t, dtype=float), TWO_PI))
    h = np.zeros(drive.shape + (2, 2), dtype=complex)
    h[..., 0, 0] = 0.5 * p.omega0
    h[..., 1, 1] = -0.5 * p.omega0
    h[..., 0, 1] = h[..., 1, 0] = drive
    return h
