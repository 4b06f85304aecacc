"""Dissipative dynamics: lab-frame Lindblad integration and the reduced
rotating-frame route with time-dependent jump operators.

Rewriting the lab-frame damping and dephasing channels in the rotating
basis turns each jump operator L into U(t)+ L U(t), U = frame_unitary,
whose entries are periodic functions of time; combined with the
effective 2x2 Hamiltonian this gives an approximate open-system solution
that can be rotated back to lab populations.  The rotated operators mix
the channels: besides periodic decay, excitation and dephasing rates
(``rotated_rates``) they carry coherence damping and cross terms, and
the reduced route keeps all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DomainError
from .gvv import frame_angle, frame_unitary, gvv_effective
from .model import (
    IDENTITY,
    SIGMA_Z,
    TWO_PI,
    DensityMatrix,
    DriveParams,
    TimeSeries,
    hamiltonian_lab,
)
from .numerics import evolve_linear

# Jump operators in the (upper, lower) matrix ordering used throughout.
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |lower><upper|
_RAISE = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_PROJ_UP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_PROJ_DOWN = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


@dataclass(frozen=True)
class DecayRates:
    """Lab-frame dissipation parameters.

    Gamma_10 damps population from |1> to |0>, gamma_11 dephases |1>.
    The reverse channels Gamma_01 and gamma_00 are accepted but default
    to zero (the scenario studied throughout).
    """

    Gamma_10: float
    gamma_11: float
    Gamma_01: float = 0.0
    gamma_00: float = 0.0

    def __post_init__(self):
        for name in ("Gamma_10", "gamma_11", "Gamma_01", "gamma_00"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise DomainError(f"{name} must be finite and nonnegative")


@dataclass(frozen=True)
class RotatedRates:
    """Rotating-frame rates at one instant; all nonnegative by construction."""

    t: float
    gamma_s1s1: float
    gamma_s0s0: float
    Gamma_s1s0: float
    Gamma_s0s1: float


@dataclass(frozen=True)
class RotationWeights:
    """Coefficients of a lab jump operator expanded in the rotating basis."""

    zeta: float
    beta: float
    eta: float


def rotation_weights(p: DriveParams, t) -> RotationWeights:
    """Weights at a scalar time, or arrays of them at an array of times."""
    th = frame_angle(p, t)
    return RotationWeights(zeta=0.5 * np.sin(2.0 * th), beta=np.sin(th) ** 2, eta=np.cos(th) ** 2)


def rotated_rates(p: DriveParams, d: DecayRates, t: float) -> RotatedRates:
    """Time-dependent rotating-frame decay, excitation, and dephasing rates.

    These are the population-transfer part of the rotated dissipator
    D[U+ L U]: they fix how fast the rotating-basis populations relax,
    but leave out its coherence damping and cross terms, so a Lindblad
    equation built from them alone is not the rotated lab equation
    (``evolve_gvv_lindblad`` uses the full rotated jump operators).
    At t = 0 the frames coincide and the lab rates are recovered; at
    strong drive the excitation rate periodically exceeds the decay rate.
    """
    half = frame_angle(p, t)        # argument of the sin^4 / cos^4 terms
    sin2 = np.sin(2.0 * half) ** 2
    c4 = np.cos(half) ** 4
    s4 = np.sin(half) ** 4
    return RotatedRates(
        t=t,
        gamma_s1s1=sin2 * d.Gamma_10 / 8.0 + c4 * d.gamma_11,
        gamma_s0s0=sin2 * d.Gamma_10 / 8.0 + s4 * d.gamma_11,
        Gamma_s1s0=sin2 * d.gamma_11 / 2.0 + c4 * d.Gamma_10,
        Gamma_s0s1=sin2 * d.gamma_11 / 2.0 + s4 * d.Gamma_10,
    )


# Superoperators act on the row-major vec of rho, vec(A rho B) = (A x B^T) vec(rho).

def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two (batches of) 2x2 matrices, shape (..., 4, 4)."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def _commutator(h: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> -i [h, rho]."""
    return -1j * (_kron(h, IDENTITY) - _kron(IDENTITY, np.swapaxes(h, -1, -2)))


def _dissipator(op: np.ndarray) -> np.ndarray:
    """Superoperator of D[op] rho = 2 op rho op+ - op+op rho - rho op+op."""
    odo = np.swapaxes(op.conj(), -1, -2) @ op
    return 2.0 * _kron(op, op.conj()) - _kron(odo, IDENTITY) - _kron(IDENTITY, np.swapaxes(odo, -1, -2))


def _channels(pairs) -> np.ndarray:
    """Sum of rate * D[op] over the (rate, op) pairs with a nonzero rate."""
    return sum((rate * _dissipator(op) for rate, op in pairs if rate), np.zeros((4, 4), complex))


def _matrices(a, b, c, d) -> np.ndarray:
    """Batch of [[a, b], [c, d]] from equally shaped entry arrays."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2)


def _check_physical(rhos: np.ndarray, t: np.ndarray) -> None:
    """Raise at the first sample whose state is not a density matrix."""
    rhos_h = np.swapaxes(rhos.conj(), 1, 2)
    trace = np.trace(rhos, axis1=1, axis2=2).real
    faults = (
        np.abs(trace - 1.0) > 1e-8,
        np.max(np.abs(rhos - rhos_h), axis=(1, 2)) > 1e-9,
        np.linalg.eigvalsh(0.5 * (rhos + rhos_h))[:, 0] < -1e-8,
    )
    bad = np.flatnonzero(np.logical_or.reduce(faults))
    if len(bad) == 0:
        return
    i = bad[0]
    where = f"t={t[i]:g}"
    if faults[0][i]:
        raise ContractViolationError(f"trace drift at {where}: {trace[i]}")
    if faults[1][i]:
        raise ContractViolationError(f"Hermiticity loss at {where}")
    raise ContractViolationError(f"negative population at {where}")


def evolve_lab_lindblad(
    p: DriveParams,
    d: DecayRates,
    rho0: DensityMatrix,
    t_grid,
    rel_tol: float = 1e-9,
    return_states: bool = False,
):
    """Integrate the full lab-frame Lindblad equation; returns P1(t).

    Dissipator convention: rho' = -i[H, rho] + (Gamma_10/2) D[|0><1|]
    + (Gamma_01/2) D[|1><0|] + gamma_11 D[|1><1|] + gamma_00 D[|0><0|]
    with D[O] rho = 2 O rho O+ - O+O rho - rho O+O, so an undriven
    excited state decays as exp(-Gamma_10 t).
    """
    t = np.asarray(t_grid, dtype=float)
    channels = _channels([(0.5 * d.Gamma_10, _LOWER), (0.5 * d.Gamma_01, _RAISE),
                          (d.gamma_11, _PROJ_UP), (d.gamma_00, _PROJ_DOWN)])

    def generator(times: np.ndarray) -> np.ndarray:
        return _commutator(hamiltonian_lab(p, times)) + channels

    states = evolve_linear(generator, rho0.matrix.reshape(-1), t, rel_tol=rel_tol,
                           max_step=p.period / 400.0)
    rhos = states.reshape(len(t), 2, 2)
    _check_physical(rhos, t)
    series = TimeSeries(t=t, p1=rhos[:, 0, 0].real)
    return (series, rhos) if return_states else series


def rotate_to_lab(rho_rot: DensityMatrix, p: DriveParams, t: float) -> DensityMatrix:
    """Map a density matrix of the rotated frame back to the lab basis.

    The frame is that of ``build_floquet_matrix_dut``; its lab map is
    sigma_z U with U = ``frame_unitary``.
    """
    v = SIGMA_Z @ frame_unitary(p, t)
    return DensityMatrix(v @ rho_rot.matrix @ v.conj().T)


def evolve_gvv_lindblad(
    p: DriveParams,
    d: DecayRates,
    t_grid,
    K: int | None = None,
    rel_tol: float = 1e-9,
    return_states: bool = False,
):
    """Reduced rotating-frame Lindblad route; returns lab-frame P1(t).

    The state lives on the reduced pair (|1, 0>, |0, n>) of
    ``gvv_effective`` and evolves under its time-independent 2x2
    Hamiltonian.  The lab channels enter as the rotated jump operators
    D(t)+ U(t)+ L U(t) D(t), where U = frame_unitary and D(t) =
    diag(1, exp(i n omega t)) carries the photon phase of |0, n>;
    U+ sigma_- U = eta sigma_- + beta sigma_+ - i zeta sigma_z and
    U+ P_1 U = (1 + cos 2theta sigma_z - sin 2theta sigma_y) / 2 with
    the ``rotation_weights``.  The initial state is the lower basis state
    (|0> at t = 0), and P1 is read out from U D rho D+ U+.  With
    ``return_states`` the states are returned in the reduced frame.
    """
    t = np.asarray(t_grid, dtype=float)
    eff = gvv_effective(p, K)
    h = 0.5 * (eff.h + eff.h.T).astype(complex)
    # D[1 - P] = D[P] for a projector P, so both dephasing channels share
    # one dissipator; the decay and excitation channels are D[L], D[L+].
    dephasing = d.gamma_11 + d.gamma_00
    hamiltonian = _commutator(h)

    def photon_phase(times: np.ndarray) -> np.ndarray:
        return np.exp(1j * np.fmod(eff.n * p.omega * times, TWO_PI))

    def generator(times: np.ndarray) -> np.ndarray:
        w = rotation_weights(p, times)
        ph = photon_phase(times)
        lower = _matrices(-1j * w.zeta, w.beta * ph, w.eta * ph.conj(), 1j * w.zeta)
        proj_up = _matrices(w.eta, 1j * w.zeta * ph, -1j * w.zeta * ph.conj(), w.beta)
        channels = _channels([(0.5 * d.Gamma_10, lower),
                              (0.5 * d.Gamma_01, np.swapaxes(lower.conj(), 1, 2)),
                              (dephasing, proj_up)])
        return np.broadcast_to(hamiltonian, (len(times), 4, 4)) + channels

    rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    states = evolve_linear(generator, rho0.reshape(-1), t, rel_tol=rel_tol,
                           max_step=p.period / 400.0)
    rhos = states.reshape(len(t), 2, 2)
    _check_physical(rhos, t)
    # Row 0 of U D, D = diag(1, exp(i n omega t)): P1 = (U D rho D+ U+)[0, 0].
    row = frame_unitary(p, t)[:, 0, :]
    row[:, 1] *= photon_phase(t)
    p1 = np.einsum("mi,mij,mj->m", row, rhos, row.conj()).real
    series = TimeSeries(t=t, p1=p1)
    return (series, rhos) if return_states else series
