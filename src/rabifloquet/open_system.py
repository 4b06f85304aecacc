"""Dissipative dynamics: lab-frame Lindblad integration and the reduced
rotating-frame route with time-dependent jump operators.

Each lab channel is a rate times D[|a><b|] (``_lab_channels``).  In a
frame reached by a unitary V(t) its jump operator becomes V+ |a><b| V,
whose entries are periodic functions of time; every rotated quantity
here is built from U = frame_unitary, the one place the rotation is
written.  Combined with the effective 2x2 Hamiltonian this gives an
approximate open-system solution that can be rotated back to lab
populations.  The rotated operators mix the channels: besides periodic
decay, excitation and dephasing rates (``rotated_rates``) they carry
coherence damping and cross terms, and the reduced route keeps all of
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DomainError
from .gvv import frame_unitary, gvv_effective
from .model import IDENTITY, TWO_PI, DensityMatrix, DriveParams, TimeSeries, hamiltonian_lab
from .numerics import evolve_linear


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


def _lab_channels(d: DecayRates) -> list[tuple[float, int, int]]:
    """Lab channels as (rate, a, b): rate * D[|a><b|], indices in the (|1>, |0>) order."""
    return [(0.5 * d.Gamma_10, 1, 0), (0.5 * d.Gamma_01, 0, 1), (d.gamma_11, 0, 0), (d.gamma_00, 1, 1)]


def _rotated(v: np.ndarray, a: int, b: int) -> np.ndarray:
    """V+ |a><b| V = outer(conj V[a, :], V[b, :]) for a 2x2 V or a batch of them."""
    return v[..., a, :, None].conj() * v[..., b, None, :]


def rotated_rates(p: DriveParams, d: DecayRates, t) -> RotatedRates:
    """Time-dependent rotating-frame decay, excitation, and dephasing rates.

    These are the population-transfer part of the rotated dissipator
    D[U+ L U]: they fix how fast the rotating-basis populations relax,
    but leave out its coherence damping and cross terms, so a Lindblad
    equation built from them alone is not the rotated lab equation
    (``evolve_gvv_lindblad`` uses the full rotated jump operators).
    At t = 0 the frames coincide and the lab rates are recovered; at
    strong drive the excitation rate periodically exceeds the decay rate.
    A scalar ``t`` gives scalar rates, an array of times arrays of them.
    """
    u = frame_unitary(p, t)
    # rate |(U+ L U)_kl|^2: the dephasing rate of k if k = l, else half the l -> k rate
    m = sum(rate * np.abs(_rotated(u, a, b)) ** 2 for rate, a, b in _lab_channels(d))
    return RotatedRates(t=t, gamma_s1s1=m[..., 0, 0], gamma_s0s0=m[..., 1, 1],
                        Gamma_s1s0=2.0 * m[..., 1, 0], Gamma_s0s1=2.0 * m[..., 0, 1])


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


def _conjugated(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> V+ c(V rho V+) V, as S+ c S with S = V x V* (rho -> V rho V+)."""
    s = _kron(v, v.conj())
    return np.swapaxes(s.conj(), -1, -2) @ c @ s


def _channels(d: DecayRates, v: np.ndarray) -> np.ndarray:
    """Sum of rate * D[V+ |a><b| V] over the lab channels with a nonzero rate.

    D[V+ L V] rho = V+ D[L](V rho V+) V, so the rotated sum is the lab
    sum conjugated once by V.
    """
    lab = sum((rate * _dissipator(_rotated(IDENTITY, a, b))
               for rate, a, b in _lab_channels(d) if rate), np.zeros((4, 4), complex))
    return _conjugated(lab, v)


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
    channels = _channels(d, IDENTITY)

    def generator(times: np.ndarray) -> np.ndarray:
        return _commutator(hamiltonian_lab(p, times)) + channels

    states = evolve_linear(generator, rho0.matrix.reshape(-1), t, rel_tol=rel_tol,
                           max_step=p.period / 400.0)
    rhos = states.reshape(len(t), 2, 2)
    _check_physical(rhos, t)
    series = TimeSeries(t=t, p1=rhos[:, 0, 0].real)
    return (series, rhos) if return_states else series


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
    Hamiltonian.  The reduced frame is reached by V(t) = U(t) D(t), where
    U = frame_unitary and D(t) = diag(1, exp(i n omega t)) carries the
    photon phase of |0, n>; each lab channel enters as the rotated jump
    operator V+ L V.  The initial state is the lower basis state (|0> at
    t = 0), and P1 is read out from V rho V+.  With ``return_states``
    the states are returned in the reduced frame.
    """
    t = np.asarray(t_grid, dtype=float)
    eff = gvv_effective(p, K)
    h = 0.5 * (eff.h + eff.h.T).astype(complex)
    hamiltonian = _commutator(h)

    def frame(times: np.ndarray) -> np.ndarray:
        v = frame_unitary(p, times)
        v[..., 1] *= np.exp(1j * np.fmod(eff.n * p.omega * times, TWO_PI))[..., None]
        return v

    channels = _channels(d, IDENTITY)

    def generator(times: np.ndarray) -> np.ndarray:
        return hamiltonian + _conjugated(channels, frame(times))

    rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    states = evolve_linear(generator, rho0.reshape(-1), t, rel_tol=rel_tol,
                           max_step=p.period / 400.0)
    rhos = states.reshape(len(t), 2, 2)
    _check_physical(rhos, t)
    row = frame(t)[:, 0, :]
    p1 = np.einsum("mi,mij,mj->m", row, rhos, row.conj()).real
    series = TimeSeries(t=t, p1=p1)
    return (series, rhos) if return_states else series
