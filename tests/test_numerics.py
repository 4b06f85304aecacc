import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabifloquet.errors import (
    ContractViolationError,
    ConvergenceError,
    DomainError,
    EvaluationError,
)
from rabifloquet.numerics import (
    _bessel_backward,
    _linear_pass,
    _miller_start_order,
    _rk4_pass,
    bessel_j,
    bessel_table,
    bessel_tables,
    count_roots,
    dominant_peaks,
    eig_hermitian,
    evolve_linear,
    evolve_ode,
    find_roots,
)


def bessel_series(n, x, terms=120):
    """Independent oracle: ascending power series of J_n, evaluated with an
    iterative term recurrence.  Accurate for moderate x where cancellation
    stays below ~1e-12."""
    term = (0.5 * x) ** n / math.factorial(n)
    total = term
    for m in range(1, terms):
        term *= -(0.25 * x * x) / (m * (m + n))
        total += term
    return total


class TestBessel:
    def test_against_power_series(self):
        for x in np.linspace(0.0, 10.0, 41):
            for n in range(0, 15):
                assert bessel_j(n, float(x)) == pytest.approx(
                    bessel_series(n, float(x)), abs=1e-12
                )

    def test_reflection_identity(self):
        for x in np.linspace(0.0, 50.0, 26):
            for n in range(-8, 9):
                assert bessel_j(n, float(x)) == pytest.approx(
                    (-1.0) ** n * bessel_j(-n, float(x)), abs=1e-14
                )

    def test_normalization_identity(self):
        # J_0(x) + 2 sum_{k>=1} J_{2k}(x) = 1 for all x
        for x in np.linspace(0.0, 50.0, 26):
            total = bessel_j(0, float(x)) + 2.0 * sum(
                bessel_j(2 * k, float(x)) for k in range(1, 60)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_three_term_recurrence(self):
        for x in (0.7, 3.3, 17.9, 42.0):
            for n in range(1, 20):
                lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
                assert lhs == pytest.approx(2.0 * n / x * bessel_j(n, x), abs=1e-11)

    def test_vectorized_matches_scalar(self):
        x = np.linspace(0.0, 12.0, 7)
        vals = bessel_j(3, x)
        for xi, vi in zip(x, vals):
            # batch evaluation shares one recurrence start order, so the
            # results may differ from scalar calls in the last ulp
            assert vi == pytest.approx(bessel_j(3, float(xi)), abs=1e-14)

    def test_table_consistency(self):
        table = bessel_table(2.5, 10)
        for n in range(-10, 11):
            assert table[n] == pytest.approx(bessel_j(n, 2.5), abs=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            bessel_j(0, float("nan"))
        with pytest.raises(DomainError):
            bessel_j(0, 1e7)

    def test_negative_argument_reflection(self):
        for n in range(0, 5):
            assert bessel_j(n, -3.7) == pytest.approx(
                (-1.0) ** n * bessel_j(n, 3.7), abs=1e-15
            )


def bessel_backward_reference(nmax, x):
    """The seeded Miller loop with overflow rescaling that the ratio form
    replaced, kept as the reference; also returns how often it rescaled."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((nmax + 1, x.size))
    nonzero = x > 0.0
    out[0, ~nonzero] = 1.0
    rescales = 0
    if not np.any(nonzero):
        return out, rescales
    xs = x[nonzero]
    start = _miller_start_order(nmax, float(xs.max()))
    jp = np.zeros_like(xs)
    jc = np.full_like(xs, 1e-30)
    norm = np.zeros_like(xs)
    vals = np.zeros((nmax + 1, xs.size))
    for k in range(start, 0, -1):
        jm = (2.0 * k / xs) * jc - jp
        jp, jc = jc, jm
        order = k - 1
        if order <= nmax:
            vals[order] = jc
        if order > 0 and order % 2 == 0:
            norm += 2.0 * jc
        big = np.abs(jc) > 1e250
        if np.any(big):
            rescales += 1
            scale = np.where(big, 1e250, 1.0)
            jp /= scale
            jc /= scale
            norm /= scale
            vals[:, big] /= 1e250
    norm += jc
    vals /= norm
    out[:, nonzero] = vals
    return out, rescales


class TestBesselBackward:
    def test_matches_reference_loop(self):
        # tiny arguments drive the seeded reference past 1e250, so its
        # rescaling branch runs on part of each array
        tiny = np.array([0.0, 1e-8, 1e-5, 1e-3, 0.5, 3.0])
        cases = [(n, tiny) for n in (0, 1, 2, 7)]
        cases += [(1, np.linspace(0.0, r, 4000)) for r in (0.5, 5.0, 20.0, 100.0)]
        cases += [(40, np.concatenate([[2e-7], np.linspace(0.0, 30.0, 50)]))]
        rescaled = 0
        for nmax, x in cases:
            expected, rescales = bessel_backward_reference(nmax, x)
            rescaled += rescales > 0
            got = _bessel_backward(nmax, x)
            err = np.abs(got - expected)
            assert np.max(err) <= 2e-15
            # past the turning point the values decay fast; there they
            # must agree relative to their own size
            tail = np.arange(nmax + 1)[:, None] > 2.0 * x + 2.0
            assert np.all(err[tail] <= 1e-13 * np.abs(expected[tail]))
        assert rescaled >= 5

    def test_exact_zero_denominator(self):
        # the double nearest the first zero of J_0: the recurrence's last
        # denominator 2/x - J_2/J_1 is exactly zero there
        x = 2.404825557695773
        assert bessel_j(1, x) == pytest.approx(bessel_series(1, x), abs=1e-15)
        for m in range(301):
            assert np.all(np.isfinite(bessel_table(x, m).values))


ORDERS = st.integers(-30, 30)
ARGUMENTS = st.floats(-100.0, 100.0)


class TestBesselProperties:
    @settings(max_examples=40, deadline=None, database=None)
    @given(n=ORDERS, x=ARGUMENTS)
    def test_reflections(self, n, x):
        sign = (-1.0) ** n
        assert bessel_j(n, x) == pytest.approx(sign * bessel_j(-n, x), abs=1e-14)
        assert bessel_j(n, x) == pytest.approx(sign * bessel_j(n, -x), abs=1e-14)

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=ORDERS, x=ARGUMENTS, extra=st.integers(0, 10))
    def test_table_matches_bessel_j(self, n, x, extra):
        table = bessel_table(x, abs(n) + extra)
        assert table[n] == pytest.approx(bessel_j(n, x), abs=1e-15)
        orders = np.array([n, -n, 0, abs(n) + extra])
        expected = [bessel_j(int(k), x) for k in orders]
        np.testing.assert_allclose(table[orders], expected, rtol=0, atol=1e-15)

    @settings(max_examples=40, deadline=None, database=None)
    @given(xs=st.lists(ARGUMENTS, max_size=5), orders=st.lists(st.integers(0, 60), min_size=5, max_size=5))
    def test_tables_from_one_recurrence_match_single_tables(self, xs, orders):
        tables = bessel_tables(xs, orders[:len(xs)])
        for x, m, table in zip(xs, orders, tables):
            assert table.max_order == m
            np.testing.assert_allclose(table.values, bessel_table(x, m).values, rtol=0, atol=1e-15)

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=ORDERS, x=ARGUMENTS)
    def test_recurrence_and_normalization(self, n, x):
        # x (J_{n-1} + J_{n+1}) = 2 n J_n, and J_0 + 2 sum_{k>=1} J_{2k} = 1
        table = bessel_table(x, 2 * int(abs(x)) + 60)
        assert x * (table[n - 1] + table[n + 1]) == pytest.approx(2 * n * table[n], abs=1e-11)
        assert table[0] + 2.0 * table[np.arange(2, table.max_order + 1, 2)].sum() == (
            pytest.approx(1.0, abs=1e-11))


def budgeted(f, budget):
    """``f`` recording the ndim of every argument; fails past ``budget`` calls."""
    def counted(x):
        counted.ndims.append(np.ndim(x))
        assert len(counted.ndims) <= budget, f"more than {budget} calls of f"
        return f(np.asarray(x))
    counted.ndims = []
    return counted


class TestFindRoots:
    def test_sqrt_two(self):
        roots = find_roots(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-10)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_no_sign_change(self):
        assert len(find_roots(lambda x: x * x + 1.0, -1.0, 1.0)) == 0

    def test_random_polynomials(self):
        # Polynomials with known, well separated real roots are fully recovered.
        rng = np.random.default_rng(7)
        for _ in range(25):
            n_roots = rng.integers(1, 6)
            true = np.sort(rng.uniform(-0.9, 0.9, n_roots))
            while np.any(np.diff(true) < 0.05):
                true = np.sort(rng.uniform(-0.9, 0.9, n_roots))
            poly = np.poly(true)
            found = find_roots(lambda x: np.polyval(poly, x), -1.0, 1.0,
                               scan_points=4000, tol=1e-12)
            assert len(found) == n_roots
            assert np.allclose(found, true, atol=1e-9)
            for r in found:
                lo_val, mid_val, hi_val = np.polyval(poly, [r - 1e-12, r, r + 1e-12])
                assert mid_val == 0.0 or lo_val * hi_val < 0.0

    def test_grid_zero_reported_once(self):
        roots = find_roots(lambda x: x, -1.0, 1.0, scan_points=5)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.0, abs=1e-12)

    def test_nonfinite_value_raises(self):
        with pytest.raises(EvaluationError):
            find_roots(lambda x: np.where(np.asarray(x) > 0.5, np.nan, x - 0.1),
                       0.0, 1.0)

    def test_call_budget(self):
        # All brackets are refined together, one vectorised call per round,
        # and every pair of rounds at least halves every bracket: one scan
        # call plus at most twice bisection's calls from one scan cell.
        true = np.array([-0.83, -0.41, 0.02, 0.37, 0.77])
        poly = np.poly(true)
        lo, hi, scan_points, tol = -1.0, 1.0, 4000, 1e-12
        cell = (hi - lo) / (scan_points - 1)
        f = budgeted(lambda x: np.polyval(poly, x), 1 + 2 * math.ceil(math.log2(cell / tol)))
        found = find_roots(f, lo, hi, scan_points=scan_points, tol=tol)
        assert np.allclose(found, true, atol=1e-9)
        assert f.ndims == [1] * len(f.ndims)

    def test_safeguard_bound_on_stalling_bracket(self):
        # exp(200 x) - 2 is so convex that plain regula falsi moves the left
        # end by ~1e-87 a step, and the Illinois halving alone needs ~290
        # halvings of f(1) ~ 7e86 before its trial points cross the root;
        # the bisection safeguard must close the bracket within the budget.
        tol = 1e-12
        f = budgeted(lambda x: np.exp(200.0 * x) - 2.0, 1 + 2 * math.ceil(math.log2(1.0 / tol)))
        found = find_roots(f, 0.0, 1.0, scan_points=2, tol=tol)
        assert found == pytest.approx((math.log(2.0) / 200.0,), abs=tol)

    def test_tolerance_below_float_spacing_ends(self):
        # tol = 1e-15 is below the float spacing near the root 32 pi
        # (1.4e-14): the bracket closes at a few spacings instead of
        # bisecting onto its own end for ever
        root = 32.0 * math.pi
        f = budgeted(np.sin, 1 + 2 * math.ceil(math.log2((1.0 / 9.0) / math.ulp(root))))
        found = find_roots(f, 100.0, 101.0, scan_points=10, tol=1e-15)
        assert found == pytest.approx((root,), abs=4 * math.ulp(root))

    def test_nonfinite_value_at_refinement_point_raises(self):
        # NaN only near the root, off the scan grid 0, 0.1, ..., 1: the
        # scan passes and the first refinement point is rejected by name.
        def f(x):
            x = np.asarray(x)
            return np.where(np.abs(x - 0.15) < 0.01, np.nan, x - 0.15)

        with pytest.raises(EvaluationError) as info:
            find_roots(f, 0.0, 1.0, scan_points=11)
        assert abs(info.value.abscissa - 0.15) < 0.01
        assert f"x={info.value.abscissa}" in str(info.value)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
    def test_rejects_tol_that_cannot_end(self, tol):
        # a tolerance is a finite positive width
        with pytest.raises(DomainError):
            find_roots(lambda x: x * x - 2.0, 0.0, 2.0, tol=tol)

    def test_unvectorised_function_rejected(self):
        # a scan result of the wrong shape is a caller bug, not a cue to
        # re-evaluate point by point
        with pytest.raises(ContractViolationError):
            find_roots(lambda x: 0.5, 0.0, 1.0)
        with pytest.raises(ContractViolationError):
            find_roots(lambda x: np.sum(x) - 1.0, 0.0, 1.0)


    def test_close_pair_across_a_grid_point(self):
        # Two roots 1e-5 either side of grid point 2000 of the 4000-point
        # scan of [0, 1]: the sign changes sit in adjacent cells, and both
        # roots are reported although they are closer than half a cell.
        c = np.linspace(0.0, 1.0, 4000)[2000]
        d = 1e-5

        def f(x):
            return (x - c + d) * (x - c - d)

        found = find_roots(f, 0.0, 1.0, scan_points=4000, tol=1e-12)
        assert count_roots(f, 0.0, 1.0, scan_points=4000) == 2
        assert found == pytest.approx((c - d, c + d), abs=1e-12)

    def test_tiny_residual_keeps_its_root(self):
        # samples of size 1e-200 either side of the root: their product
        # underflows to zero, their signs do not
        def f(x):
            return 1e-200 * (x - 0.3)

        assert count_roots(f, 0.0, 1.0) == 1
        assert find_roots(f, 0.0, 1.0, tol=1e-12) == pytest.approx((0.3,), abs=1e-12)

    def test_count_roots_checks_the_scan(self):
        assert count_roots(lambda x: x, -1.0, 1.0, scan_points=5) == 1
        with pytest.raises(DomainError):
            count_roots(lambda x: x, 1.0, 1.0)
        with pytest.raises(DomainError):
            count_roots(lambda x: x, 0.0, 1.0, scan_points=1)
        with pytest.raises(ContractViolationError):
            count_roots(lambda x: 0.5, 0.0, 1.0)
        with pytest.raises(EvaluationError):
            count_roots(lambda x: np.where(np.asarray(x) > 0.5, np.nan, x - 0.1), 0.0, 1.0)


class TestFindRootsProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(lo=st.floats(-2.0, 1.0), width=st.floats(0.1, 3.0),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           scan_points=st.integers(2, 500))
    def test_count_is_the_number_of_roots_found(self, lo, width, fractions, scan_points):
        hi = lo + width
        poly = np.poly([lo + u * width for u in fractions])

        def f(x):
            return np.polyval(poly, x)

        found = find_roots(f, lo, hi, scan_points=scan_points, tol=1e-12)
        assert len(found) == count_roots(f, lo, hi, scan_points=scan_points)
        assert all(b > a for a, b in zip(found, found[1:]))
        assert all(lo <= r <= hi for r in found)


class TestEigHermitian:
    def test_pauli_z(self):
        dec = eig_hermitian(np.diag([1.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_pauli_x(self):
        dec = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(np.abs(dec.eigenvectors), s)

    def test_phase_convention(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = a + a.conj().T
        dec = eig_hermitian(h)
        for k in range(6):
            v = dec.eigenvectors[:, k]
            idx = np.argmax(np.abs(v))
            assert v[idx].real > 0.0
            assert abs(v[idx].imag) < 1e-12

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(3)
        for dim in (2, 5, 17):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = a + a.conj().T
            dec = eig_hermitian(h)
            bound = 1e-9 * dim * np.max(np.abs(h))
            assert abs(dec.eigenvalues.sum() - np.trace(h).real) <= bound

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_real_input_stays_real(self):
        rng = np.random.default_rng(17)
        for dim in (2, 9, 40):
            a = rng.normal(size=(dim, dim))
            h = a + a.T
            dec = eig_hermitian(h)
            assert dec.eigenvectors.dtype == np.float64
            ref = eig_hermitian(h.astype(complex))
            assert np.max(np.abs(dec.eigenvalues - ref.eigenvalues)) <= 1e-12
            # sign fix: the largest-magnitude component of each column is > 0
            v = dec.eigenvectors
            assert np.all(v[np.argmax(np.abs(v), axis=0), np.arange(dim)] > 0.0)
            assert np.allclose(v @ np.diag(dec.eigenvalues) @ v.T, h, atol=1e-12)


class TestEvolveOde:
    def test_scalar_decay(self):
        t = np.linspace(0.0, 1.0, 11)
        states = evolve_ode(lambda _, y: -y, np.array([1.0 + 0j]), t,
                            rel_tol=1e-10, max_step=0.01)
        assert states[-1, 0].real == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_harmonic_oscillator(self):
        # y'' = -y as a first-order system; closed form (cos t, -sin t)
        t = np.linspace(0.0, 10.0, 101)

        def rhs(_, y):
            return np.array([y[1], -y[0]])

        states = evolve_ode(rhs, np.array([1.0 + 0j, 0.0 + 0j]), t,
                            rel_tol=1e-10, max_step=0.05)
        assert np.allclose(states[:, 0].real, np.cos(t), atol=1e-8)
        assert np.allclose(states[:, 1].real, -np.sin(t), atol=1e-8)

    def test_norm_preservation(self):
        # Anti-Hermitian generator: norm preserved to the requested tolerance
        h = np.array([[0.5, 0.3], [0.3, -0.5]])
        t = np.linspace(0.0, 20.0, 41)
        y0 = np.array([1.0, 0.0], dtype=complex)
        states = evolve_ode(lambda _, y: -1j * (h @ y), y0, t,
                            rel_tol=1e-11, max_step=0.05)
        norms = np.linalg.norm(states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_step_underflow_raises(self):
        def rhs(time, y):
            return y / (1.0 - time)  # singular at t=1

        with pytest.raises(ConvergenceError):
            evolve_ode(rhs, np.array([1.0 + 0j]), np.array([0.0, 1.0]),
                       rel_tol=1e-12, max_step=0.1)

    @pytest.mark.parametrize("evolve, fn", [
        (evolve_linear, lambda ts: np.full((len(ts), 1, 1), -1.0 + 0j)),
        (evolve_ode, lambda _, y: -y),
    ])
    @pytest.mark.parametrize("t", [[0.0, math.nan], [0.0, 1.0, math.inf], [math.nan, 1.0]])
    def test_non_finite_grid_is_domain_error(self, evolve, fn, t):
        with pytest.raises(DomainError, match="t_grid"):
            evolve(fn, [1.0], t, max_step=0.1)


def _driven_hamiltonian(t):
    # H(t) = 0.5 sigma_z + 0.8 cos(1.3 t) sigma_x at a scalar or array t
    drive = 0.8 * np.cos(1.3 * np.asarray(t, dtype=float))
    h = np.zeros(np.shape(drive) + (2, 2), dtype=complex)
    h[..., 0, 0], h[..., 1, 1] = 0.5, -0.5
    h[..., 0, 1] = h[..., 1, 0] = drive
    return h


_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def _lindblad_rhs(t, y):
    rho = y.reshape(2, 2)
    h, lo = _driven_hamiltonian(t), _LOWER
    lol = lo.conj().T @ lo
    out = -1j * (h @ rho - rho @ h) + 0.3 * (2.0 * lo @ rho @ lo.conj().T - lol @ rho - rho @ lol)
    return out.reshape(-1)


def _lindblad_generator(times):
    # row-major vec: vec(A rho B) = (A kron B^T) vec(rho)
    eye, lo = np.eye(2), _LOWER
    lol = lo.conj().T @ lo
    decay = 0.3 * (2.0 * np.kron(lo, lo.conj()) - np.kron(lol, eye) - np.kron(eye, lol.T))
    return np.array([-1j * (np.kron(h, eye) - np.kron(eye, h.T)) + decay
                     for h in _driven_hamiltonian(times)])


class _Passes:
    """Counts integration passes by the calls that see the grid's first time."""

    def __init__(self, fn, t0):
        self.fn, self.t0, self.passes = fn, t0, 0

    def __call__(self, *args):
        first = args[0] if np.ndim(args[0]) == 0 else args[0][0]
        self.passes += first == self.t0
        return self.fn(*args)


class TestEvolveLinear:
    # (generator, rhs, y0, t_grid, max_step): a scalar decay, a driven
    # 2x2 Hamiltonian on a non-uniform grid whose intervals take 1 to 26
    # substeps, and a 4x4 Lindblad superoperator
    CASES = [
        (lambda ts: np.full((len(ts), 1, 1), -1.0 + 0j), lambda _, y: -y,
         [1.0], np.linspace(0.0, 1.0, 11), 0.01),
        (lambda ts: -1j * _driven_hamiltonian(ts), lambda t, y: -1j * (_driven_hamiltonian(t) @ y),
         [0.0, 1.0], np.array([0.0, 0.03, 0.5, 1.7, 1.75, 3.0, 4.3]), 0.05),
        (_lindblad_generator, _lindblad_rhs,
         [0.0, 0.0, 0.0, 1.0], np.linspace(0.0, 6.0, 13) ** 1.2, 0.04),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_evolve_ode_with_same_passes(self, case):
        generator, rhs, y0, t, max_step = self.CASES[case]
        gen, ode = _Passes(generator, t[0]), _Passes(rhs, t[0])
        a = evolve_linear(gen, y0, t, rel_tol=1e-10, max_step=max_step)
        b = evolve_ode(ode, y0, t, rel_tol=1e-10, max_step=max_step)
        assert np.max(np.abs(a - b)) <= 1e-12
        assert gen.passes == ode.passes >= 2

    def test_steps_span_several_chunks(self):
        # 5 periods at 400 steps each: 2000 steps in the first pass, many
        # chunks, and intervals of 64, 764 and 1172 steps that straddle
        # chunk boundaries
        t = np.array([0.0, 1.0, 13.0, 5.0 * 2.0 * math.pi])
        h0 = np.array([[0.4, 0.2], [0.2, -0.4]])
        states = evolve_linear(lambda ts: np.broadcast_to(-1j * h0, (len(ts), 2, 2)),
                               [1.0, 0.0], t, rel_tol=1e-11, max_step=2.0 * math.pi / 400.0)
        ev, vec = np.linalg.eigh(h0)
        exact = [vec @ (np.exp(-1j * ev * ti) * vec[0].conj()) for ti in t]
        assert np.max(np.abs(states - np.array(exact))) <= 1e-10

    @pytest.mark.parametrize("t, max_step, generator", [
        (CASES[1][3], CASES[1][4], CASES[1][0]),
        (np.array([0.0, 1.0, 13.0, 5.0 * 2.0 * math.pi]), 2.0 * math.pi / 400.0,
         lambda ts: np.broadcast_to(-1j * np.array([[0.4, 0.2], [0.2, -0.4]]), (len(ts), 2, 2))),
    ])
    def test_one_generator_call_per_half_step_time(self, t, max_step, generator):
        # the non-uniform case and the several-chunks case: each pass sees
        # every half-step time t_i + k dt_i / (2 n_i) once, 2 * steps + 1 in all
        passes = []

        def counting(times):
            if times[0] == t[0]:
                passes.append([])
            passes[-1].extend(times)
            return generator(times)

        evolve_linear(counting, [1.0, 0.0], t, rel_tol=1e-10, max_step=max_step)
        dt = np.diff(t)
        substeps = np.maximum(1, np.ceil(dt / max_step).astype(int))
        assert len(passes) >= 2
        for times in passes:
            want = np.concatenate([t[i] + np.arange(2 * n) * dt[i] / (2 * n)
                                   for i, n in enumerate(substeps)] + [t[-1:]])
            assert len(times) == len(want) == len(set(times))
            assert np.max(np.abs(np.sort(times) - want)) <= 1e-12 * t[-1]
            substeps = 2 * substeps

    def test_pass_matches_sequential_product_across_pieces(self):
        # intervals of 1, 255, 256, 257 and 600 steps: pieces of several
        # step counts in one chunk, and intervals cut into several pieces
        substeps = np.array([1, 255, 256, 257, 600])
        t = np.concatenate([[0.0], np.cumsum(0.004 * substeps * (1.0 + 0.1 * np.arange(5)))])
        y0 = np.array([0.3, 0.1j, -0.2j, 0.7])
        got = _linear_pass(_lindblad_generator, y0, t, substeps)
        want = _rk4_pass(_lindblad_rhs, y0, t, substeps)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("evolve, fn", [
        (evolve_linear, lambda ts: np.full((len(ts), 1, 1), -50.0 + 0j)),
        (evolve_ode, lambda _, y: -50.0 * y),
    ])
    def test_underflow_and_nonconvergence_raise(self, evolve, fn):
        # RK4 is unstable for h * 50 > 2.79, so the passes never agree:
        # the 1e-13 interval reaches the step floor on the 4th halving
        with pytest.raises(ConvergenceError, match="underflow"):
            evolve(fn, [1.0], [0.0, 1e-13, 1.0], rel_tol=1e-13)
        with pytest.raises(ConvergenceError, match="no convergence"):
            evolve(fn, [1.0], [0.0, 1.0], rel_tol=1e-13, max_halvings=2)


class _Series:
    def __init__(self, t, p1):
        self.t = t
        self.p1 = p1


class TestDominantPeaks:
    def test_single_cosine(self):
        span = 100.0
        t = np.linspace(0.0, span, 4096, endpoint=False)
        sig = 0.5 - 0.5 * np.cos(2.0 * math.pi * 0.3 * t)
        peaks = dominant_peaks(_Series(t, sig), max_peaks=4)
        assert len(peaks) == 1
        assert peaks[0][0] == pytest.approx(0.3, abs=0.5 / span)

    def test_two_tone_order(self):
        t = np.linspace(0.0, 200.0, 8192, endpoint=False)
        sig = 0.4 * np.cos(2 * math.pi * 0.3 * t) + 0.1 * np.cos(2 * math.pi * 0.7 * t)
        peaks = dominant_peaks(_Series(t, sig), max_peaks=4)
        assert len(peaks) == 2
        assert peaks[0][0] == pytest.approx(0.3, abs=1e-3)
        assert peaks[1][0] == pytest.approx(0.7, abs=1e-3)
        assert peaks[0][1] > peaks[1][1]
        assert peaks[0][1] == pytest.approx(0.4, rel=0.05)

    def test_rejects_nonuniform_grid(self):
        t = np.array([0.0, 1.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0])
        with pytest.raises(ContractViolationError):
            dominant_peaks(_Series(t, np.zeros(8)), max_peaks=1)
