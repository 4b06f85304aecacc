import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabifloquet.errors import DomainError, MultiphotonResonanceError
from rabifloquet.floquet import build_floquet_matrix_lab, quasienergies
from rabifloquet.gvv import (
    GvvEffective,
    _partner_photon,
    _shifts,
    build_floquet_matrix_dut,
    default_k_sum,
    frame_unitary,
    gvv_effective,
    gvv_effectives,
    gvv_shifts,
)
from rabifloquet.model import DriveParams
from rabifloquet.numerics import bessel_j, bessel_table


def brute_force_shifts(p, n, N=40):
    """Independent oracle: textbook second-order perturbation sums taken
    directly from the rotated-frame Floquet matrix, with the nearly
    degenerate pair |1, 0>, |0, n> excluded."""
    F = build_floquet_matrix_dut(p, N).matrix
    diag = np.diag(F).copy()
    V = F - np.diag(diag)
    i10 = 2 * N            # excited-like state, Fourier index 0
    i0n = 2 * (N + n) + 1  # ground-like state, Fourier index n
    d1 = d0 = d10 = d01 = 0.0
    for s in range(len(diag)):
        if s in (i10, i0n):
            continue
        d1 += V[s, i10] ** 2 / (diag[i10] - diag[s])
        d0 += V[s, i0n] ** 2 / (diag[i0n] - diag[s])
        d10 += V[i10, s] * V[s, i0n] / (diag[i10] - diag[s])
        d01 += V[i0n, s] * V[s, i10] / (diag[i0n] - diag[s])
    return d1, d0, d10, d01


def tuned_omega(amp, photons):
    """Drive frequency with J0(amp / omega) = photons * omega (omega0 = 1)."""
    omega = 1.0 / photons
    for _ in range(40):
        omega = bessel_j(0, amp / omega) / photons
    return omega


class TestShifts:
    def test_against_brute_force(self):
        # J0(A/omega) > 0 at the first and third point, < 0 elsewhere, so
        # both partners |0, +1> and |0, -1> are checked
        pairs = set()
        for omega, amp in [(0.6, 1.0), (0.6, 2.5), (0.6, 4.18), (0.6, 6.0),
                           (1.0, 2.5), (1.5, 6.0)]:
            p = DriveParams(1.0, amp, omega)
            n = gvv_effective(p).n
            pairs.add(n)
            got = gvv_shifts(p, 100)
            want = brute_force_shifts(p, n)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), (omega, amp, n)
        assert pairs == {1, -1}

    def test_pair_is_the_nearer_one(self):
        for amp in (1.0, 2.5, 4.18, 6.0):
            p = DriveParams(1.0, amp, 0.6)
            n = gvv_effective(p).n
            j0 = bessel_j(0, amp / 0.6)
            assert abs(j0 - n * 0.6) <= abs(j0 + n * 0.6)

    def test_symmetries(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            p = DriveParams(1.0, float(rng.uniform(0.1, 8.0)), float(rng.uniform(0.5, 3.0)))
            d1, d0, d10, d01 = gvv_shifts(p)
            scale = max(abs(d1), abs(d10), 1e-300)
            assert abs(d1 + d0) <= 1e-10 * scale
            assert abs(d10 - d01) <= 1e-10 * scale

    def test_k_convergence(self):
        p = DriveParams(1.0, 6.0, 0.6)
        a = gvv_shifts(p, 60)
        b = gvv_shifts(p, 120)
        assert np.allclose(a, b, atol=1e-13)

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            gvv_shifts(DriveParams(1.0, 1.0, 1.0), 0)

    def test_multiphoton_resonance_guard(self):
        # tune omega to a vanishing three-photon denominator J0*omega0 = 3*omega
        omega = tuned_omega(0.05, 3)
        with pytest.raises(MultiphotonResonanceError):
            gvv_shifts(DriveParams(1.0, 0.05, omega))

    def test_guard_ignores_the_pair_resonance(self):
        # J0*omega0 = omega is the resonance of the reduced pair itself,
        # not a perturbative denominator
        omega = tuned_omega(0.05, 1)
        for p in (DriveParams(1.0, 0.0, 1.0), DriveParams(1.0, 0.05, omega)):
            eff = gvv_effective(p)
            # on resonance the pair splits by its own coupling J1 omega0
            j1 = bessel_j(1, p.A / p.omega)
            assert eff.Omega_grwa == pytest.approx(abs(j1), abs=1e-12)
            assert eff.Omega == pytest.approx(abs(j1), abs=1e-4)


class TestEffective:
    def test_closed_form_equals_eigengap(self):
        # gvv_effective raises internally on disagreement; also check directly
        p = DriveParams(1.0, 4.0, 0.6)
        eff = gvv_effective(p)
        h = 0.5 * (eff.h + eff.h.T)
        ev = np.linalg.eigvalsh(h)
        assert eff.Omega == pytest.approx(float(ev[1] - ev[0]), abs=1e-12)

    def test_grwa_formula(self):
        # partner |0, +1> at (A, omega) = (2, 0.9), |0, -1> at (2.5, 0.6)
        for amp, omega, n in ((2.0, 0.9, 1), (2.5, 0.6, -1)):
            p = DriveParams(1.0, amp, omega)
            eff = gvv_effective(p)
            j0 = bessel_j(0, p.A / p.omega)
            j1 = bessel_j(1, p.A / p.omega)
            assert eff.n == n
            assert eff.Omega_grwa == pytest.approx(
                math.sqrt((n * p.omega - j0) ** 2 + j1 ** 2), abs=1e-14
            )

    def test_weak_resonant_limit(self):
        p = DriveParams(1.0, 0.02, 1.0)
        eff = gvv_effective(p)
        assert eff.Omega == pytest.approx(0.01, rel=0.01)
        assert eff.Omega_grwa == pytest.approx(0.01, rel=0.01)

    def test_omega_close_to_exact_pair_gap_weak(self):
        p = DriveParams(1.0, 0.5, 0.6)
        N = 40
        F = build_floquet_matrix_dut(p, N).matrix
        ev, vec = np.linalg.eigh(F)
        k10 = int(np.argmax(np.abs(vec[2 * N, :])))
        k01 = int(np.argmax(np.abs(vec[2 * (N + 1) + 1, :])))
        exact = abs(float(ev[k10] - ev[k01]))
        assert abs(gvv_effective(p).Omega - exact) <= 0.02


class TestRotatedFrameMatrix:
    def test_hermitian(self):
        F = build_floquet_matrix_dut(DriveParams(1.0, 3.0, 0.6), 12)
        assert np.array_equal(F.matrix, F.matrix.T)

    def test_diagonal_pattern(self):
        p = DriveParams(1.0, 2.0, 0.6)
        N = 5
        F = build_floquet_matrix_dut(p, N).matrix
        j0 = bessel_j(0, p.A / p.omega)
        for b, n in enumerate(range(-N, N + 1)):
            assert F[2 * b, 2 * b] == pytest.approx(n * p.omega + 0.5 * j0)
            assert F[2 * b + 1, 2 * b + 1] == pytest.approx(n * p.omega - 0.5 * j0)

    def test_coupling_parity(self):
        p = DriveParams(1.0, 2.0, 0.6)
        N = 5
        F = build_floquet_matrix_dut(p, N).matrix
        j1 = bessel_j(1, p.A / p.omega)
        j2 = bessel_j(2, p.A / p.omega)
        b = N  # Fourier index 0 block
        # odd harmonic couples only opposite internal states, odd under swap
        assert F[2 * b, 2 * (b + 1) + 1] == pytest.approx(-0.5 * j1)
        assert F[2 * b + 1, 2 * (b + 1)] == pytest.approx(0.5 * j1)
        assert F[2 * b, 2 * (b + 1)] == 0.0
        # even harmonic couples like states with opposite signs
        assert F[2 * b, 2 * (b + 2)] == pytest.approx(0.5 * j2)
        assert F[2 * b + 1, 2 * (b + 2) + 1] == pytest.approx(-0.5 * j2)

    def test_quasienergies_match_lab_frame(self):
        for omega, amp in [(0.6, 1.0), (0.6, 4.18), (1.0, 3.0), (2.0, 7.0)]:
            p = DriveParams(1.0, amp, omega)
            g_lab = quasienergies(build_floquet_matrix_lab(p, 40), omega).gap
            g_rot = quasienergies(build_floquet_matrix_dut(p, 40), omega).gap
            assert abs(g_lab - g_rot) <= 1e-8


class TestFrameUnitary:
    def test_identity_at_zero(self):
        u = frame_unitary(DriveParams(1.0, 5.0, 0.8), 0.0)
        assert np.allclose(u, np.eye(2))

    def test_unitary_everywhere(self):
        p = DriveParams(1.0, 10.0, 1.0)
        for t in np.linspace(0.0, 2.0 * p.period, 13):
            u = frame_unitary(p, float(t))
            assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)

    def test_periodicity(self):
        p = DriveParams(1.0, 3.0, 0.6)
        assert np.allclose(frame_unitary(p, 1.3),
                           frame_unitary(p, 1.3 + p.period), atol=1e-12)


class TestSweep:
    @settings(max_examples=30, deadline=None, database=None)
    @given(omega=st.floats(0.1, 3.0), amps=st.lists(st.floats(0.0, 20.0), max_size=5),
           K=st.none() | st.integers(1, 80))
    def test_shifts_match_per_point_tables(self, omega, amps, K):
        # one recurrence to the sweep's largest order gives each amplitude
        # the shifts of its own table, and the same resonances
        amps = [0.0] + amps
        for amp, eff in zip(amps, gvv_effectives(omega, amps, K)):
            p = DriveParams(1.0, amp, omega)
            k = default_k_sum(p) if K is None else K
            table = bessel_table(amp / omega, 2 * k + 1)
            n = _partner_photon(p, table)
            try:
                want = _shifts(p, k, n, table)
            except MultiphotonResonanceError:
                assert isinstance(eff, MultiphotonResonanceError)
                continue
            assert isinstance(eff, GvvEffective) and (eff.K, eff.n) == (k, n)
            got = (eff.delta_1p, eff.delta_0p, eff.delta_10, eff.delta_01)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14 * max(map(abs, want))

    def test_degraded_amplitudes(self):
        # the amplitudes of `spectrum --omega 0.3333333333333333
        # --amp-range 0:1:0.5`: J0 omega0 = 3 omega at A = 0 only
        effs = gvv_effectives(0.3333333333333333, [0.0, 0.5, 1.0])
        assert isinstance(effs[0], MultiphotonResonanceError)
        assert all(isinstance(e, GvvEffective) for e in effs[1:])
