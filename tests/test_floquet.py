import math

import numpy as np
import pytest

from rabifloquet import floquet
from rabifloquet.errors import DomainError
from rabifloquet.floquet import (
    build_floquet_matrix_lab,
    dynamic_base,
    floquet_matrix,
    fold_to_even_comb,
    fold_to_zone,
    lab_parity_chain,
    make_comb,
    p1_direct,
    p1_floquet,
    quasienergies,
)
from rabifloquet.gvv import build_floquet_matrix_dut
from rabifloquet.model import DriveParams, PureState
from rabifloquet.numerics import dominant_peaks

TWO_PI = 2.0 * math.pi


class TestMatrixStructure:
    def test_static_diagonal(self):
        p = DriveParams(1.0, 0.0, 0.7)
        F = build_floquet_matrix_lab(p, 1)
        expected = sorted([0.5 + n * 0.7 for n in (-1, 0, 1)]
                          + [-0.5 + n * 0.7 for n in (-1, 0, 1)])
        assert np.allclose(np.sort(np.diag(F.matrix)), expected)
        assert np.count_nonzero(F.matrix - np.diag(np.diag(F.matrix))) == 0

    def test_coupling_blocks(self):
        p = DriveParams(1.0, 2.0, 0.6)
        F = build_floquet_matrix_lab(p, 3)
        m = F.matrix
        # sigma_x block of strength A/4 between Fourier neighbours only
        assert m[0, 3] == pytest.approx(0.5)
        assert m[1, 2] == pytest.approx(0.5)
        assert m[0, 2] == 0.0
        assert m[0, 5] == 0.0  # |n - m| = 2 uncoupled

    def test_hermitian_by_construction(self):
        p = DriveParams(1.0, 3.3, 0.9)
        F = build_floquet_matrix_lab(p, 10)
        assert np.array_equal(F.matrix, F.matrix.T)

    def test_rejects_bad_truncation(self):
        with pytest.raises(DomainError):
            build_floquet_matrix_lab(DriveParams(1.0, 1.0, 1.0), 0)


class TestFloquetMatrix:
    def test_blocks_are_fourier_components_plus_photon_energy(self):
        # a non-symmetric H_2 with H_-2 = H_2^T, beside the usual H_0, H_+-1
        p = DriveParams(1.0, 1.0, 0.7)
        comps = {0: np.array([[0.3, 0.1], [0.1, -0.3]]),
                 1: np.array([[0.0, 0.2], [0.2, 0.0]]),
                 -1: np.array([[0.0, 0.2], [0.2, 0.0]]),
                 2: np.array([[0.05, 0.11], [-0.07, 0.13]])}
        comps[-2] = comps[2].T
        N = 3
        F = floquet_matrix(p, comps, N)
        assert F.matrix.shape == (14, 14)
        assert np.array_equal(F.matrix, F.matrix.T)
        for n in range(-N, N + 1):
            for m in range(-N, N + 1):
                block = F.matrix[2 * (n + N):2 * (n + N) + 2, 2 * (m + N):2 * (m + N) + 2]
                expected = comps.get(n - m, np.zeros((2, 2)))
                if n == m:
                    expected = expected + n * p.omega * np.eye(2)
                assert np.array_equal(block, expected), (n, m)

    def test_rejects_zero_truncation(self):
        p = DriveParams(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            floquet_matrix(p, {0: np.eye(2)}, 0)
        for N in (0, -1):
            with pytest.raises(DomainError):
                build_floquet_matrix_dut(p, N)


def full_matrix_modes(p, N):
    """Reference mode sum from the full lab matrix: q_k and
    c_k = (sum_n <1,n|e_k>) <e_k|0,0>, rows 2b (|1>) and 2b + 1 (|0>)."""
    evals, v = np.linalg.eigh(build_floquet_matrix_lab(p, N).matrix)
    return evals, v[0::2, :].sum(axis=0) * v[2 * N + 1, :]


class TestParityChain:
    def sector_rows(self, N):
        # |0, even n> sits on row 2(n + N) + 1 of the full matrix, |1, odd n> on row 2(n + N)
        n = np.arange(-N, N + 1)
        return 2 * (n + N) + (n % 2 == 0)

    def test_is_the_full_matrix_sector(self):
        for amp, omega, N in [(2.0, 0.6, 3), (7.3, 0.83, 10), (0.0, 1.0, 1)]:
            p = DriveParams(1.0, amp, omega)
            full = build_floquet_matrix_lab(p, N)
            chain = lab_parity_chain(p, N)
            rows = self.sector_rows(N)
            rest = np.setdiff1d(np.arange(2 * (2 * N + 1)), rows)
            assert np.array_equal(chain.matrix, full.matrix[np.ix_(rows, rows)])
            assert not np.any(full.matrix[np.ix_(rows, rest)])  # parity is conserved
            # the documented chain: diagonal n omega - (-1)^n omega0/2, off-diagonal A/4
            n = np.arange(-N, N + 1)
            coupling = np.full(2 * N, 0.25 * amp)
            expected = (np.diag(n * omega - 0.5 * (-1.0) ** n)
                        + np.diag(coupling, 1) + np.diag(coupling, -1))
            assert np.allclose(chain.matrix, expected, rtol=0.0, atol=1e-14)
            assert (chain.truncation, chain.bandwidth) == (full.truncation, full.bandwidth)

    def test_eigenvalues_are_a_subset_of_the_full_matrix(self):
        for amp, omega in [(2.0, 0.6), (7.3, 0.83), (12.0, 1.17), (0.3, 2.0)]:
            p = DriveParams(1.0, amp, omega)
            full = np.linalg.eigvalsh(build_floquet_matrix_lab(p, 30).matrix)
            chain = np.linalg.eigvalsh(lab_parity_chain(p, 30).matrix)
            assert np.max(np.min(np.abs(chain[:, None] - full[None, :]), axis=1)) <= 1e-12
            # the other sector is the chain mirrored (n -> -n)
            mirror = np.sort(np.concatenate([chain, -chain]))
            assert np.max(np.abs(mirror - full)) <= 1e-12

    def test_p1_matches_full_matrix_spectral_sum(self):
        for omega, amp in [(0.6, 2.0), (0.83, 7.3), (1.17, 12.0), (2.0, 0.3)]:
            p = DriveParams(1.0, amp, omega)
            t = np.linspace(0.0, 20.0 * p.period, 801)
            q, c = full_matrix_modes(p, 30)
            reference = np.abs(np.exp(-1j * np.outer(t, q)) @ c) ** 2
            assert np.max(np.abs(p1_floquet(p, 30, t).p1 - reference)) <= 1e-11

    def test_base_matches_full_matrix(self, monkeypatch):
        grid = [DriveParams(1.0, float(amp), omega)
                for omega in (0.5, 0.6, 0.83, 1.0, 1.17, 2.0, 3.0)
                for amp in np.arange(0.0, 16.0 + 0.25, 0.5)]
        chain = [dynamic_base(p, 60) for p in grid]
        monkeypatch.setattr(floquet, "_mode_weights", full_matrix_modes)
        full = [dynamic_base(p, 60) for p in grid]
        assert np.max(np.abs(np.subtract(chain, full))) <= 1e-12

    def test_quasienergies_match_full_matrix(self):
        for omega, amp in [(0.6, 2.0), (1.0, 1.0), (1.0, 5.0), (0.83, 7.3), (0.7, 0.0)]:
            p = DriveParams(1.0, amp, omega)
            chain = quasienergies(lab_parity_chain(p, 30), omega)
            full = quasienergies(build_floquet_matrix_lab(p, 30), omega)
            assert abs(chain.gap - full.gap) <= 1e-12
            assert np.max(np.abs(np.subtract(chain.folded_pair, full.folded_pair))) <= 1e-12

    def test_rejects_bad_truncation(self):
        for N in (0, -1):
            with pytest.raises(DomainError):
                lab_parity_chain(DriveParams(1.0, 1.0, 1.0), N)


class TestQuasienergies:
    def test_static_fold(self):
        p = DriveParams(1.0, 0.0, 0.7)
        spec = quasienergies(build_floquet_matrix_lab(p, 10), p.omega)
        folded = sorted(spec.folded_pair)
        expected = sorted([fold_to_zone(-0.5, 0.7), fold_to_zone(0.5, 0.7)])
        assert folded == pytest.approx(expected, abs=1e-12)

    def test_replica_symmetry(self):
        p = DriveParams(1.0, 2.0, 0.6)
        spec = quasienergies(build_floquet_matrix_lab(p, 30), p.omega)
        centers = np.array(spec.folded_pair)
        for q in spec.folded_interior:
            d = np.abs(q - centers)
            d = np.minimum(d, p.omega - d)
            assert np.min(d) <= 1e-9 * p.omega

    def test_folded_interior_sorted_in_zone(self):
        p = DriveParams(1.0, 5.0, 1.0)
        folded = quasienergies(build_floquet_matrix_lab(p, 30), p.omega).folded_interior
        assert len(folded) > 2
        assert np.all(np.diff(folded) >= 0.0)
        assert np.all(folded >= -p.omega / 2.0)
        assert np.all(folded < p.omega / 2.0)

    def test_truncation_convergence(self):
        for omega, amp in [(0.6, 2.0), (1.0, 5.0), (3.0, 10.0), (0.5, 0.5)]:
            p = DriveParams(1.0, amp, omega)
            g30 = quasienergies(build_floquet_matrix_lab(p, 30), omega).gap
            g40 = quasienergies(build_floquet_matrix_lab(p, 40), omega).gap
            assert abs(g30 - g40) <= 1e-8

    def test_gap_in_half_zone(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            p = DriveParams(1.0, float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.5, 2.0)))
            spec = quasienergies(build_floquet_matrix_lab(p, 30), p.omega)
            assert 0.0 <= spec.gap <= p.omega / 2.0 + 1e-15


class TestDynamics:
    def test_static_ground_state_stays(self):
        p = DriveParams(1.0, 0.0, 1.0)
        t = np.linspace(0.0, 30.0, 200)
        assert np.max(p1_direct(p, t).p1) < 1e-20
        assert np.max(p1_floquet(p, 10, t).p1) < 1e-16

    def test_static_excited_state_stays(self):
        p = DriveParams(1.0, 0.0, 1.0)
        t = np.linspace(0.0, 10.0, 50)
        series = p1_direct(p, t, psi0=PureState.excited())
        assert np.allclose(series.p1, 1.0, atol=1e-12)

    def test_initial_probability_vanishes(self):
        p = DriveParams(1.0, 2.0, 0.6)
        series = p1_floquet(p, 30, np.array([0.0]))
        assert abs(series.p1[0]) < 1e-8

    def test_rwa_limit(self):
        # Resonant weak drive: textbook two-level result sin^2(A t / 4)
        p = DriveParams(1.0, 0.02, 1.0)
        rabi_period = TWO_PI / (p.A / 2.0)
        t = np.linspace(0.0, rabi_period, 400)
        series = p1_direct(p, t)
        assert np.max(np.abs(series.p1 - np.sin(p.A * t / 4.0) ** 2)) < 2e-3
        assert np.max(series.p1) == pytest.approx(1.0, abs=0.01)

    def test_floquet_matches_direct(self):
        p = DriveParams(1.0, 0.5, 1.0)
        t = np.linspace(0.0, 20.0 * p.period, 600)
        a = p1_floquet(p, 30, t).p1
        b = p1_direct(p, t).p1
        assert math.sqrt(float(np.mean((a - b) ** 2))) <= 1e-6


class TestCombs:
    def test_make_comb_example(self):
        comb = make_comb(0.3, 1.0, 1)
        assert sorted(comb.frequencies) == pytest.approx([0.0, 0.3, 1.7, 2.0, 2.3])

    def test_zero_base_degenerates(self):
        comb = make_comb(0.0, 0.8, 3)
        assert sorted(comb.frequencies) == pytest.approx([0.0, 1.6, 3.2, 4.8])

    @pytest.mark.parametrize("base, n_max", [(-0.1, 2), (0.3, -1)])
    def test_rejects_negative_base_or_order(self, base, n_max):
        with pytest.raises(DomainError):
            make_comb(base, 1.0, n_max)

    def test_labels_unique(self):
        comb = make_comb(0.25, 1.0, 4)
        labels = [label for _, label in comb.lines]
        assert len(labels) == len(set(labels))

    def test_base_from_spectrum(self):
        # The fundamental extracted from mode weights must coincide with the
        # strongest sub-harmonic line of the actual time trace.
        p = DriveParams(1.0, 3.0, 0.6)
        base = dynamic_base(p, 30)
        n_periods = 80
        t = np.linspace(0.0, n_periods * p.period, 2 ** 12, endpoint=False)
        peaks = dominant_peaks(p1_direct(p, t, rel_tol=1e-8), max_peaks=6)
        bin_width = 1.0 / (n_periods * p.period)
        # every peak folds onto the even comb at 0 or at the base, and the
        # base line actually carries weight in the trace
        base_seen = False
        for f, _ in peaks:
            folded = fold_to_even_comb(f * TWO_PI, p.omega)
            d = min(abs(folded), abs(folded - base))
            assert d <= TWO_PI * bin_width
            if abs(folded - base) <= TWO_PI * bin_width:
                base_seen = True
        assert base_seen, "no spectral weight at the extracted fundamental"

    def test_zero_drive_has_no_base(self):
        # no mode pair carries weight at A = 0
        assert dynamic_base(DriveParams(1.0, 0.0, 0.6), 10) == 0.0

    def test_base_matches_pair_loop(self):
        # reference: the strongest non-harmonic pair, first maximum in
        # (k, j) order, found pair by pair
        for amp, omega in [(2.0, 0.6), (3.0, 0.6), (5.0, 1.0), (7.3, 0.83)]:
            p = DriveParams(1.0, amp, omega)
            q, c = floquet._mode_weights(p, 30)
            keep = np.abs(c) > 1e-10
            q, c = q[keep], c[keep]
            best_w, best_f = 0.0, 0.0
            for k in range(len(q)):
                for j in range(k + 1, len(q)):
                    f = abs(q[k] - q[j])
                    if abs(f - omega * round(f / omega)) < 1e-6 * omega:
                        continue
                    if abs(c[k]) * abs(c[j]) > best_w:
                        best_w, best_f = abs(c[k]) * abs(c[j]), f
            assert dynamic_base(p, 30) == fold_to_even_comb(best_f, omega)

    def test_base_ties_keep_the_first_pair(self, monkeypatch):
        # equal weights on every pair: the first pair in (k, j) order wins
        modes = (np.array([0.0, 0.3, 0.5]), np.ones(3))
        monkeypatch.setattr(floquet, "_mode_weights", lambda p, N: modes)
        assert dynamic_base(DriveParams(1.0, 1.0, 1.7), 3) == pytest.approx(0.3)

    def test_numeric_comb_covers_peaks(self):
        p = DriveParams(1.0, 2.0, 0.6)
        comb = make_comb(dynamic_base(p, 30), p.omega, 6)
        n_periods = 120
        t = np.linspace(0.0, n_periods * p.period, 2 ** 13, endpoint=False)
        peaks = dominant_peaks(p1_floquet(p, 30, t), max_peaks=8)
        bin_width = 1.0 / (n_periods * p.period)
        lines = comb.frequencies / TWO_PI
        for freq, _ in peaks:
            assert np.min(np.abs(lines - freq)) <= bin_width


class TestFolding:
    def test_fold_to_zone_range(self):
        xs = np.linspace(-10.0, 10.0, 101)
        folded = fold_to_zone(xs, 0.7)
        assert np.all(folded >= -0.35)
        assert np.all(folded < 0.35)

    def test_fold_to_even_comb(self):
        assert fold_to_even_comb(0.1, 0.6) == pytest.approx(0.1)
        assert fold_to_even_comb(1.1, 0.6) == pytest.approx(0.1)
        assert fold_to_even_comb(-2.5, 0.6) == pytest.approx(0.1, abs=1e-12)
        assert fold_to_even_comb(0.6, 0.6) == pytest.approx(0.6)
