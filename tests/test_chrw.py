import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabifloquet.chrw import (
    ROOT_TOL,
    SCAN_POINTS,
    ChrwSolution,
    _xi_residual,
    chrw_coefficients,
    chrw_solution,
    chrw_solutions,
    p1_chrw,
    solution_count_map,
    solve_xi,
    xi_roots,
)
from rabifloquet.errors import (
    AmbiguousSolutionError,
    DomainError,
    NoSolutionError,
)
from rabifloquet.floquet import p1_direct
from rabifloquet.model import DriveParams
from rabifloquet.numerics import bessel_j, find_roots


class TestSolveXi:
    def test_residual_vanishes_at_roots(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = DriveParams(1.0, float(rng.uniform(0.1, 8.0)), float(rng.uniform(0.3, 2.0)))
            for xi in solve_xi(p):
                res = 0.5 * p.A * (1.0 - xi) - p.omega0 * bessel_j(1, p.A * xi / p.omega)
                assert abs(res) <= 1e-10 * max(p.A, p.omega0)

    def test_weak_drive_analytic_limit(self):
        # Linearizing J_1(x) ~ x/2 gives xi -> omega / (omega + omega0)
        for omega in (0.6, 1.0, 1.7):
            p = DriveParams(1.0, 1e-4, omega)
            roots = solve_xi(p)
            assert len(roots) == 1
            assert roots[0] == pytest.approx(omega / (omega + 1.0), abs=1e-3)

    def test_zero_drive_degenerate(self):
        with pytest.raises(DomainError):
            solve_xi(DriveParams(1.0, 0.0, 1.0))

    def test_empty_in_no_solution_band(self):
        assert len(solve_xi(DriveParams(1.0, 5.0, 1.0))) == 0


class TestSolutionStructure:
    def test_unique_solution_resonant(self):
        sol = chrw_solution(DriveParams(1.0, 1.0, 1.0))
        assert 0.0 <= sol.xi <= 1.0
        assert sol.Omega_tilde == pytest.approx(
            math.sqrt(sol.Delta_tilde ** 2 + 0.25 * sol.A_tilde ** 2), abs=1e-12
        )

    def test_no_solution_raises(self):
        with pytest.raises(NoSolutionError):
            chrw_solution(DriveParams(1.0, 5.0, 1.0))

    def test_zero_drive_has_no_solution(self):
        # solve_xi rejects A = 0 outright; the series route reports it as
        # a point without an answer
        with pytest.raises(NoSolutionError, match="A = 0"):
            chrw_solution(DriveParams(1.0, 0.0, 1.0))

    def test_multi_root_raises_with_roots(self):
        with pytest.raises(AmbiguousSolutionError) as excinfo:
            chrw_solution(DriveParams(1.0, 1.41, 0.27))
        assert len(excinfo.value.roots) == 2

    def test_count_map_cells(self):
        grid = solution_count_map([0.15, 0.27, 0.6, 1.0], [0.0, 1.0, 1.35, 1.41, 3.0])
        omega_idx = {w: j for j, w in enumerate(grid.omega_axis)}
        amp_idx = {a: i for i, a in enumerate(grid.A_axis)}
        assert grid.counts[amp_idx[1.0], omega_idx[1.0]] == 1
        assert grid.counts[amp_idx[3.0], omega_idx[0.6]] == 0
        assert grid.counts[amp_idx[1.41], omega_idx[0.27]] == 2
        assert grid.counts[amp_idx[1.35], omega_idx[0.15]] == 3
        assert grid.counts[amp_idx[0.0], omega_idx[1.0]] == 1  # analytic weak-drive limit
        # the counts are read off the scan, and they are the number of refined roots
        for i, a in enumerate(grid.A_axis[1:], start=1):
            for j, w in enumerate(grid.omega_axis):
                assert grid.counts[i, j] == len(solve_xi(DriveParams(1.0, float(a), float(w))))

    def test_count_map_range_form(self):
        grid = solution_count_map([0.5, 0.75, 1.0], [0.5, 0.75, 1.0])
        assert grid.counts.shape == (3, 3)
        assert np.all(grid.counts == 1)


class TestSweep:
    @settings(max_examples=25, deadline=None, database=None)
    @given(omega=st.floats(0.1, 3.0), amps=st.lists(st.floats(0.0, 10.0), max_size=5))
    def test_roots_match_per_amplitude_find_roots(self, omega, amps):
        # one refinement for the whole sweep finds what each amplitude's own
        # scan and refinement finds; A = 0 owns no root
        amps = [0.0] + amps
        owner, xi = xi_roots(omega, amps)
        assert np.all(np.diff(owner) >= 0)
        for i, amp in enumerate(amps):
            mine = xi[owner == i]
            want = find_roots(_xi_residual(DriveParams(1.0, amp, omega)), 0.0, 1.0,
                              SCAN_POINTS, ROOT_TOL) if amp > 0.0 else ()
            assert len(mine) == len(want)
            np.testing.assert_allclose(mine, want, rtol=0, atol=ROOT_TOL)

    def test_degraded_amplitudes(self):
        # the amplitudes of `spectrum --omega 0.3333333333333333
        # --amp-range 0:1:0.5`: only the undriven one has no series
        sols = chrw_solutions(0.3333333333333333, [0.0, 0.5, 1.0])
        assert isinstance(sols[0], NoSolutionError) and "A = 0" in str(sols[0])
        for sol, amp in zip(sols[1:], (0.5, 1.0)):
            alone = chrw_solution(DriveParams(1.0, amp, 0.3333333333333333))
            assert sol.params == alone.params
            assert sol.xi == pytest.approx(alone.xi, abs=ROOT_TOL)
            assert sol.Omega_tilde == pytest.approx(alone.Omega_tilde, rel=1e-10)

    def test_each_amplitude_keeps_its_own_error(self):
        # one root, two roots and none in one sweep: only the last two degrade
        sols = chrw_solutions(0.27, [1.0, 1.41, 5.0])
        assert isinstance(sols[0], ChrwSolution)
        assert isinstance(sols[1], AmbiguousSolutionError) and len(sols[1].roots) == 2
        assert isinstance(sols[2], NoSolutionError)


class TestCoefficients:
    def test_closure_at_sample_points(self):
        for omega, amp in [(1.0, 0.5), (1.0, 2.0), (0.6, 1.0), (1.5, 1.2)]:
            p = DriveParams(1.0, amp, omega)
            sol = chrw_solution(p)
            coeffs = chrw_coefficients(sol, p)
            assert abs(coeffs.closure_sum()) <= 1e-6

    def test_tail_decay(self):
        p = DriveParams(1.0, 2.0, 0.6)
        sol = chrw_solution(p)
        coeffs = chrw_coefficients(sol, p, n_max=12)
        for arr in (coeffs.c2, coeffs.c3, coeffs.c4):
            assert abs(arr[-1]) < 1e-10
            assert abs(arr[-1]) < abs(arr[0])

    def test_weak_resonant_structure(self):
        # RWA corner: P1 = 0.5 - 0.5 cos(Omega t), all ring terms negligible
        p = DriveParams(1.0, 0.05, 1.0)
        sol = chrw_solution(p)
        coeffs = chrw_coefficients(sol, p)
        assert coeffs.c0 == pytest.approx(0.5, abs=1e-3)
        assert coeffs.c1 == pytest.approx(-0.5, abs=1e-3)
        assert np.all(np.abs(coeffs.c2) < 1e-2)

    def test_series_matches_direct_integration(self):
        p = DriveParams(1.0, 0.5, 1.0)
        sol = chrw_solution(p)
        coeffs = chrw_coefficients(sol, p)
        t = np.linspace(0.0, 20.0 * p.period, 600)
        series = p1_chrw(sol, coeffs, t)
        exact = p1_direct(p, t)
        rms = math.sqrt(float(np.mean((series.p1 - exact.p1) ** 2)))
        assert rms <= 0.02

    def test_rejects_bad_n_max(self):
        p = DriveParams(1.0, 1.0, 1.0)
        sol = chrw_solution(p)
        with pytest.raises(DomainError):
            chrw_coefficients(sol, p, n_max=0)
