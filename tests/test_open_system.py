import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabifloquet.errors import ContractViolationError, DomainError
from rabifloquet.gvv import frame_angle, frame_unitary, gvv_effective
from rabifloquet.model import SIGMA_Y, SIGMA_Z, DensityMatrix, DriveParams
from rabifloquet.numerics import evolve_ode
from rabifloquet.open_system import (
    DecayRates,
    _channels,
    _check_physical,
    evolve_gvv_lindblad,
    evolve_lab_lindblad,
    rotated_rates,
)

GROUND = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
EXCITED = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |0><1|
PROJ_UP = np.diag([1.0, 0.0]).astype(complex)
PROJ_DOWN = np.diag([0.0, 1.0]).astype(complex)


def dissipator(op, rho):
    od = op.conj().T
    return 2.0 * op @ rho @ od - od @ op @ rho - rho @ od @ op


def lab_operators(d):
    """(rate, L) of the four lab channels, L as explicit matrices."""
    return [(0.5 * d.Gamma_10, LOWER), (0.5 * d.Gamma_01, LOWER.T),
            (d.gamma_11, PROJ_UP), (d.gamma_00, PROJ_DOWN)]


def reference_rates(p, d, t):
    """(gamma_s1s1, gamma_s0s0, Gamma_s1s0, Gamma_s0s1) from U+ L U by matrix products."""
    u = frame_unitary(p, t)
    s = sum(rate * np.abs(u.conj().T @ op @ u) ** 2 for rate, op in lab_operators(d))
    return s[0, 0], s[1, 1], 2.0 * s[1, 0], 2.0 * s[0, 1]


def rate_tuple(r):
    return r.gamma_s1s1, r.gamma_s0s0, r.Gamma_s1s0, r.Gamma_s0s1


def rotating_frame_states(p, d, t):
    """Exact rotating-frame Lindblad route; states in the rotated frame.

    Full time-dependent rotated Hamiltonian (omega0/2)(cos 2theta sigma_z
    - sin 2theta sigma_y), the frame of build_floquet_matrix_dut, and
    the rotated jump operators U+ L U built by matrix products.
    """
    def rhs(time, y):
        rho = y.reshape(2, 2)
        th = frame_angle(p, time)
        u = frame_unitary(p, time)
        h = 0.5 * p.omega0 * (math.cos(2 * th) * SIGMA_Z - math.sin(2 * th) * SIGMA_Y)
        out = -1j * (h @ rho - rho @ h)
        out += 0.5 * d.Gamma_10 * dissipator(u.conj().T @ LOWER @ u, rho)
        out += d.gamma_11 * dissipator(u.conj().T @ PROJ_UP @ u, rho)
        return out.reshape(-1)

    return evolve_ode(rhs, GROUND.matrix.reshape(-1), t, rel_tol=1e-9,
                      max_step=p.period / 400.0).reshape(len(t), 2, 2)


def rotating_frame_reference(p, d, t):
    """Lab P1 of ``rotating_frame_states``."""
    rhos = rotating_frame_states(p, d, t)
    return np.array([(frame_unitary(p, ti) @ r @ frame_unitary(p, ti).conj().T)[0, 0].real
                     for ti, r in zip(t, rhos)])


class TestDecayRates:
    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            DecayRates(Gamma_10=-1.0, gamma_11=0.0)
        with pytest.raises(DomainError):
            DecayRates(Gamma_10=1.0, gamma_11=float("nan"))

    def test_defaults(self):
        d = DecayRates(Gamma_10=1.0, gamma_11=0.2)
        assert d.Gamma_01 == 0.0
        assert d.gamma_00 == 0.0


class TestRotatedRates:
    def test_lab_rates_recovered_at_zero(self):
        p = DriveParams(1.0, 10.0, 1.0)
        d = DecayRates(Gamma_10=1.0, gamma_11=0.2)
        r = rotated_rates(p, d, 0.0)
        assert r.gamma_s1s1 == pytest.approx(d.gamma_11)
        assert r.gamma_s0s0 == pytest.approx(0.0)
        assert r.Gamma_s1s0 == pytest.approx(d.Gamma_10)
        assert r.Gamma_s0s1 == pytest.approx(0.0)

    def test_nonnegative_and_periodic(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = DriveParams(1.0, float(rng.uniform(0.0, 12.0)), float(rng.uniform(0.3, 3.0)))
            d = DecayRates(Gamma_10=float(rng.uniform(0.0, 2.0)),
                           gamma_11=float(rng.uniform(0.0, 1.0)))
            t = float(rng.uniform(0.0, 50.0))
            r = rotated_rates(p, d, t)
            for v in (r.gamma_s1s1, r.gamma_s0s0, r.Gamma_s1s0, r.Gamma_s0s1):
                assert v >= 0.0
            # sin(omega t) has period 2 pi / omega; the rates depend on it
            # through even functions, so pi/omega maps t -> -sin and the
            # squared/quartic terms repeat
            r2 = rotated_rates(p, d, t + math.pi / p.omega)
            assert r2.gamma_s1s1 == pytest.approx(r.gamma_s1s1, abs=1e-9)
            assert r2.Gamma_s1s0 == pytest.approx(r.Gamma_s1s0, abs=1e-9)

    def test_excitation_channel_opens_at_strong_drive(self):
        p = DriveParams(1.0, 10.0, 1.0)
        d = DecayRates(Gamma_10=1.0, gamma_11=0.0)
        t = np.linspace(0.0, p.period, 200)
        up = [rotated_rates(p, d, float(ti)).Gamma_s0s1 for ti in t]
        assert max(up) > 0.5 * d.Gamma_10

    def test_reverse_channels_enter(self):
        p = DriveParams(1.0, 6.0, 0.8)
        d = DecayRates(0.5, 0.1, 0.3, 0.2)
        r0 = rotated_rates(p, d, 0.0)
        assert r0.Gamma_s0s1 == pytest.approx(d.Gamma_01, abs=1e-15)
        assert r0.gamma_s0s0 == pytest.approx(d.gamma_00, abs=1e-15)
        t = np.array([0.0, 0.37, 1.1, 2.9, 5.3])
        batch = rate_tuple(rotated_rates(p, d, t))
        for i, ti in enumerate(t):
            want = reference_rates(p, d, ti)
            assert np.allclose(rate_tuple(rotated_rates(p, d, ti)), want, rtol=0, atol=1e-15)
            assert np.allclose([rate[i] for rate in batch], want, rtol=0, atol=1e-15)

    @settings(max_examples=40, deadline=None, database=None)
    @given(omega=st.floats(0.2, 4.0), amp=st.floats(0.0, 15.0), t=st.floats(0.0, 100.0),
           rates=st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4))
    def test_property_nonnegative_and_explicit(self, omega, amp, t, rates):
        p, d = DriveParams(1.0, amp, omega), DecayRates(*rates)
        got = rate_tuple(rotated_rates(p, d, t))
        assert min(got) >= 0.0
        assert np.allclose(got, reference_rates(p, d, t), rtol=0, atol=1e-14)


class TestFrame:
    def test_unitary_with_unit_row_weights(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = DriveParams(1.0, float(rng.uniform(0.0, 12.0)), float(rng.uniform(0.3, 3.0)))
            u = frame_unitary(p, rng.uniform(0.0, 40.0, size=16))
            assert u.shape == (16, 2, 2)
            assert np.allclose(u @ np.swapaxes(u.conj(), 1, 2), np.eye(2), rtol=0, atol=1e-14)
            assert np.allclose(np.sum(np.abs(u) ** 2, axis=2), 1.0, rtol=0, atol=1e-14)

    @settings(max_examples=40, deadline=None, database=None)
    @given(omega=st.floats(0.2, 4.0), amp=st.floats(0.0, 15.0), t=st.floats(0.0, 100.0))
    def test_property_unitary(self, omega, amp, t):
        u = frame_unitary(DriveParams(1.0, amp, omega), t)
        assert np.allclose(u @ u.conj().T, np.eye(2), rtol=0, atol=1e-14)

    def test_identity_at_zero(self):
        # sigma_z U(0) = sigma_z leaves diagonal states unchanged
        v = SIGMA_Z @ frame_unitary(DriveParams(1.0, 5.0, 0.7), 0.0)
        assert np.allclose(v @ GROUND.matrix @ v.conj().T, GROUND.matrix)

    def test_coherence_matches_lab_lindblad(self):
        # the lab map is sigma_z U; U alone flips the sign of rho_01 (+0.1824 - 0.0413i here)
        p = DriveParams(1.0, 3.0, 1.0)
        t = np.linspace(0.0, 2.3, 24)
        v = SIGMA_Z @ frame_unitary(p, t[-1])
        for d in (DecayRates(0.0, 0.0), DecayRates(Gamma_10=0.5, gamma_11=0.1)):
            rot = rotating_frame_states(p, d, t)[-1]
            _, lab = evolve_lab_lindblad(p, d, GROUND, t, return_states=True)
            out = v @ rot @ v.conj().T
            assert abs(lab[-1, 0, 1]) > 0.05
            assert abs(out[0, 1] - lab[-1, 0, 1]) <= 1e-7

    def test_channels_are_rotated_lab_dissipators(self):
        d = DecayRates(0.5, 0.1, 0.3, 0.2)
        p = DriveParams(1.0, 4.0, 0.9)
        t = np.array([0.0, 0.4, 1.7, 3.2])
        rng = np.random.default_rng(3)
        rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for n in (-1, 1):
            v = np.array([frame_unitary(p, ti) @ np.diag([1.0, np.exp(1j * n * p.omega * ti)])
                          for ti in t])
            got = (_channels(d, v) @ rho.reshape(-1)).reshape(len(t), 2, 2)
            for vi, gi in zip(v, got):
                want = sum(rate * dissipator(vi.conj().T @ op @ vi, rho)
                           for rate, op in lab_operators(d))
                assert np.max(np.abs(gi - want)) <= 1e-14


class TestLabLindblad:
    def test_pure_decay_oracle(self):
        # no drive: excited population decays as exp(-Gamma_10 t)
        p = DriveParams(1.0, 0.0, 1.0)
        d = DecayRates(Gamma_10=0.8, gamma_11=0.3)
        t = np.linspace(0.0, 5.0, 41)
        series = evolve_lab_lindblad(p, d, EXCITED, t)
        assert np.allclose(series.p1, np.exp(-0.8 * t), atol=1e-8)

    def test_ground_state_stationary_without_drive(self):
        p = DriveParams(1.0, 0.0, 1.0)
        d = DecayRates(Gamma_10=1.0, gamma_11=0.2)
        t = np.linspace(0.0, 5.0, 21)
        series = evolve_lab_lindblad(p, d, GROUND, t)
        assert np.max(series.p1) < 1e-12

    def test_states_physical(self):
        p = DriveParams(1.0, 10.0, 1.0)
        d = DecayRates(Gamma_10=1.0, gamma_11=0.2)
        t = np.linspace(0.0, 4.0 * p.period, 101)
        _, rhos = evolve_lab_lindblad(p, d, GROUND, t, return_states=True)
        for rho in rhos:
            assert abs(np.trace(rho).real - 1.0) <= 1e-8
            assert np.min(np.linalg.eigvalsh(rho).real) >= -1e-8


class TestCheckPhysical:
    def test_names_the_first_bad_sample(self):
        t = np.array([0.0, 0.1, 0.2, 0.3])
        rhos = np.array([np.diag(v) for v in ([0.3, 0.7], [0.3, 0.7], [1.2, -0.2], [0.5, 0.6])],
                        dtype=complex)
        _check_physical(rhos[:2], t[:2])
        with pytest.raises(ContractViolationError, match=r"^negative population at t=0\.2$"):
            _check_physical(rhos, t)
        rhos[1, 0, 1] = 0.1j
        with pytest.raises(ContractViolationError, match=r"^Hermiticity loss at t=0\.1$"):
            _check_physical(rhos, t)
        with pytest.raises(ContractViolationError, match=r"^trace drift at t=0\.3: 1\.1"):
            _check_physical(rhos[[0, 3]], t[[0, 3]])


class TestRotatingFrameReference:
    def test_matches_lab_lindblad(self):
        # rotating the channels as U+ L U is exact: only integrator error remains
        for omega in (1.0, 3.0):
            p = DriveParams(1.0, 10.0, omega)
            d = DecayRates(Gamma_10=omega, gamma_11=0.2 * omega)
            t = np.linspace(0.0, 0.5 * p.period, 21)
            lab = evolve_lab_lindblad(p, d, GROUND, t)
            ref = rotating_frame_reference(p, d, t)
            assert np.max(np.abs(lab.p1 - ref)) <= 1e-7


class TestReducedRoute:
    def test_zero_rates_is_closed_pair_dynamics(self):
        # A = 10, omega = 1 reduces |1, 0>, |0, -1>; A = 0.5 reduces |1, 0>, |0, +1>
        for amp, n in ((10.0, -1), (0.5, 1)):
            p = DriveParams(1.0, amp, 1.0)
            eff = gvv_effective(p)
            assert eff.n == n
            t = np.linspace(0.0, 2.0 * p.period, 61)
            red = evolve_gvv_lindblad(p, DecayRates(0.0, 0.0), t, rel_tol=1e-11)
            ev, vec = np.linalg.eigh(0.5 * (eff.h + eff.h.T))
            want = []
            for ti in t:
                c = vec @ (np.exp(-1j * ev * ti) * (vec.T @ np.array([0.0, 1.0])))
                photon = np.diag([1.0, np.exp(1j * n * p.omega * ti)])
                want.append(abs((frame_unitary(p, ti) @ photon @ c)[0]) ** 2)
            assert np.max(np.abs(red.p1 - np.array(want))) <= 1e-8


    def test_weak_drive_agrees_with_lab(self):
        p = DriveParams(1.0, 0.009, 1.0)
        d = DecayRates(Gamma_10=1.0, gamma_11=0.2)
        t = np.linspace(0.0, 6.0 * p.period, 200)
        lab = evolve_lab_lindblad(p, d, GROUND, t)
        red = evolve_gvv_lindblad(p, d, t)
        rms = math.sqrt(float(np.mean((lab.p1 - red.p1) ** 2)))
        assert rms <= 1e-3

    def test_initial_population_zero(self):
        p = DriveParams(1.0, 10.0, 1.0)
        d = DecayRates(Gamma_10=1.0, gamma_11=0.2)
        series = evolve_gvv_lindblad(p, d, np.array([0.0, 0.05, 0.1]))
        assert series.p1[0] == pytest.approx(0.0, abs=1e-12)
