"""Self-validation suite: cross-route consistency checks runnable from the
CLI (``validate`` subcommand) or the test suite.

Each check returns a CheckResult; the suite is deterministic (fixed seeds)
and runs in about 6 s on one core of a 2-core x86 machine (criterion 6
takes about 3 s of that).  Failures report the worst offending value so
regressions are diagnosable from the one-line summary.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .chrw import (
    chrw_coefficients,
    chrw_solution,
    chrw_solutions,
    p1_chrw,
    solution_count_map,
    solve_xi,
)
from .errors import AmbiguousSolutionError, NoSolutionError, RabiFloquetError
from .floquet import (
    dynamic_base,
    fold_to_even_comb,
    lab_parity_chain,
    make_comb,
    p1_direct,
    p1_floquet,
    quasienergies,
)
from .gvv import gvv_effective, gvv_shifts
from .model import TWO_PI, DensityMatrix, DriveParams, PureState
from .numerics import dominant_peaks
from .open_system import DecayRates, evolve_gvv_lindblad, evolve_lab_lindblad

# Truncation of the numeric gaps that criteria 4 and 5 compare against.
GAP_TRUNCATION = 40


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.number:2d} {self.name}: {self.detail}"


def check_xi_multiroot() -> CheckResult:
    """Two known parameter points with exactly 2 and 3 self-consistency roots."""
    cases = [
        (0.27, 1.41, (0.253, 0.6043)),
        (0.15, 1.35, (0.1691, 0.2837, 0.8256)),
    ]
    worst = 0.0
    ok = True
    for omega, amp, expected in cases:
        roots = solve_xi(DriveParams(omega0=1.0, A=amp, omega=omega))
        if len(roots) != len(expected):
            return CheckResult(1, "xi multi-root points", False,
                               f"expected {len(expected)} roots at (omega={omega}, A={amp}), got {len(roots)}")
        err = max(abs(r - e) for r, e in zip(sorted(roots), expected))
        worst = max(worst, err)
        ok = ok and err <= 5e-3
    return CheckResult(1, "xi multi-root points", ok, f"max root deviation {worst:.2e} (tol 5e-3)")


def check_no_solution_bands() -> CheckResult:
    """Zero-root bands in A at two drive frequencies, with roots just outside.

    At omega = 0.6 a second root enters through xi = 1 at A = 0.6 j_{1,1}
    ~ 2.299 and merges with the first at the fold A ~ 2.503, where the
    zero-root band starts; the two-root interval between them is checked
    as well.
    """
    def counts(omega, amps):
        return zip(amps, solution_count_map([omega], amps).counts[:, 0])

    bands = [
        (1.0, [(3.84, 7.01)]),
        (0.6, [(2.50, 4.20), (6.10, 7.99)]),
    ]
    for omega, intervals in bands:
        for lo, hi in intervals:
            for amp, n in counts(omega, np.linspace(lo + 0.02, hi - 0.02, 25)):
                if n != 0:
                    return CheckResult(2, "no-solution bands", False,
                                       f"{n} roots inside band at omega={omega}, A={amp:.3f}")
            for amp, n in counts(omega, [lo - 0.05, hi + 0.05]):
                if n == 0:
                    return CheckResult(2, "no-solution bands", False,
                                       f"no root just outside band at omega={omega}, A={amp:.3f}")
    for amp, n in counts(0.6, np.linspace(2.30 + 0.02, 2.50 - 0.02, 9)):
        if n != 2:
            return CheckResult(2, "no-solution bands", False,
                               f"{n} roots (expected 2) at omega=0.6, A={amp:.3f}")
    return CheckResult(2, "no-solution bands", True,
                       "bands empty, boundaries populated at omega in {1, 0.6}; "
                       "two roots on (2.30, 2.50) at omega=0.6")


def check_weak_resonant_limit() -> CheckResult:
    """All three analytic frequencies reduce to A/2 on weak resonant drive."""
    p = DriveParams(omega0=1.0, A=0.02, omega=1.0)
    sol = chrw_solution(p)
    eff = gvv_effective(p)
    target = p.A / 2.0
    rel = max(
        abs(sol.Omega_tilde - target),
        abs(eff.Omega - target),
        abs(eff.Omega_grwa - target),
    ) / target
    return CheckResult(3, "weak resonant limit", rel <= 0.01,
                       f"max relative deviation from A/2: {rel:.2e} (tol 1e-2)")


def _gap_grid():
    amps = sorted([0.5 * k for k in range(1, 17)] + [4.18])
    rows = []
    for amp in amps:
        p = DriveParams(omega0=1.0, A=amp, omega=0.6)
        base = dynamic_base(p, GAP_TRUNCATION)
        eff = gvv_effective(p)
        e_gvv = abs(fold_to_even_comb(eff.Omega, p.omega) - base)
        e_grwa = abs(fold_to_even_comb(eff.Omega_grwa, p.omega) - base)
        rows.append((amp, base, e_gvv, e_grwa))
    return rows


def check_gvv_gap_match() -> CheckResult:
    """Effective-frequency vs numeric folded gap over the off-resonant sweep."""
    rows = _gap_grid()
    bad = [(a, e) for a, _, e, _ in rows if e > 0.05]
    worst = max(e for _, _, e, _ in rows)
    if bad:
        pts = ", ".join(f"A={a:g}:{e:.3f}" for a, e in bad)
        return CheckResult(4, "effective-frequency cross-validation", False,
                           f"{len(bad)}/{len(rows)} points exceed 0.05: {pts}")
    return CheckResult(4, "effective-frequency cross-validation", True,
                       f"worst |Omega - gap| = {worst:.4f} (tol 0.05)")


def check_gvv_beats_grwa() -> CheckResult:
    """Second-order frequency at least as accurate as first-order on >= 80% of points."""
    rows = _gap_grid()
    wins = sum(1 for _, _, eg, er in rows if eg <= er)
    need = math.ceil(0.8 * len(rows))
    return CheckResult(5, "second-order beats first-order", wins >= need,
                       f"{wins}/{len(rows)} points (need >= {need})")


def check_coefficient_closure() -> CheckResult:
    """Series closure sum vanishes at every unique-root grid point."""
    worst = 0.0
    n_checked = 0
    for omega in np.linspace(0.5, 2.0, 50):
        for sol in chrw_solutions(float(omega), np.linspace(0.0, 2.0, 50)):
            if isinstance(sol, (NoSolutionError, AmbiguousSolutionError)):
                continue  # the series exists only where xi is unique
            coeffs = chrw_coefficients(sol, sol.params)
            worst = max(worst, abs(coeffs.closure_sum()))
            n_checked += 1
    return CheckResult(6, "coefficient closure", worst <= 1e-6,
                       f"max |closure sum| = {worst:.2e} over {n_checked} points (tol 1e-6)")


def check_route_equivalence(seed: int = 20260825) -> CheckResult:
    """Floquet sum vs direct integration at random points; series route at one point."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        p = DriveParams(1.0, float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.5, 2.0)))
        t = np.linspace(0.0, 20.0 * p.period, 801)
        a = p1_floquet(p, 30, t)
        b = p1_direct(p, t)
        worst = max(worst, float(np.sqrt(np.mean((a.p1 - b.p1) ** 2))))
    if worst > 1e-6:
        return CheckResult(7, "route equivalence", False,
                           f"floquet-vs-direct RMS {worst:.2e} exceeds 1e-6")
    p = DriveParams(1.0, 0.5, 1.0)
    t = np.linspace(0.0, 20.0 * p.period, 801)
    sol = chrw_solution(p)
    series = chrw_coefficients(sol, p)
    rms = float(np.sqrt(np.mean((p1_chrw(sol, series, t).p1 - p1_direct(p, t).p1) ** 2)))
    ok = rms <= 0.02
    return CheckResult(7, "route equivalence", ok,
                       f"floquet RMS {worst:.2e} (tol 1e-6), series RMS {rms:.2e} (tol 0.02)")


def check_even_comb_structure() -> CheckResult:
    """Spectral peaks of P1(t) land on the even comb; 2n-omega dominates at strong drive."""
    cases = [(1.0, 1.0), (0.6, 2.0), (1.0, 10.0)]
    for omega, amp in cases:
        p = DriveParams(1.0, amp, omega)
        n_periods = 120
        n_samples = 2 ** 13
        t = np.linspace(0.0, n_periods * p.period, n_samples, endpoint=False)
        series = p1_floquet(p, 30, t)
        peaks = dominant_peaks(series, max_peaks=8)
        bin_width = 1.0 / (n_periods * p.period)  # cycles per time unit
        base = dynamic_base(p, 30)
        comb = make_comb(base, p.omega, n_max=8).frequencies / TWO_PI
        for freq, _amp in peaks:
            if np.min(np.abs(comb - freq)) > bin_width:
                return CheckResult(8, "even-comb structure", False,
                                   f"peak at {freq:.5f} cycles off-comb at (omega={omega}, A={amp})")
        if (omega, amp) == (1.0, 10.0):
            top_freq = peaks[0][0]
            harmonic = 2.0 * p.omega / TWO_PI
            if abs(top_freq / harmonic - round(top_freq / harmonic)) * harmonic > bin_width:
                return CheckResult(8, "even-comb structure", False,
                                   f"strong-drive dominant peak {top_freq:.5f} not a 2n-omega line")
    return CheckResult(8, "even-comb structure", True,
                       "all peaks within one FFT bin of the comb; 2n-omega dominates at A=10")


def check_shift_identities() -> CheckResult:
    """Antisymmetry of the diagonal shifts and symmetry of the cross shifts."""
    worst = 0.0
    for omega in (0.6, 1.0):
        for amp in np.arange(0.1, 8.0 + 1e-9, 0.1):
            p = DriveParams(1.0, float(amp), omega)
            d1, d0, d10, d01 = gvv_shifts(p)
            scale = max(abs(d1), abs(d0), abs(d10), abs(d01), 1e-300)
            worst = max(worst, abs(d1 + d0) / scale, abs(d10 - d01) / scale)
    return CheckResult(9, "shift identities", worst <= 1e-8,
                       f"max relative asymmetry {worst:.2e} (tol 1e-8)")


def check_open_system_agreement() -> CheckResult:
    """Reduced dissipative route vs full lab-frame integration at strong drive."""
    results = []
    ok = True
    for omega in (1.0, 3.0):
        p = DriveParams(1.0, 10.0, omega)
        d = DecayRates(Gamma_10=omega, gamma_11=0.2 * omega)
        t = np.linspace(0.0, 6.0 * p.period, 481)
        lab = evolve_lab_lindblad(p, d, DensityMatrix.from_pure(PureState.ground()), t)
        red = evolve_gvv_lindblad(p, d, t)
        rms = float(np.sqrt(np.mean((lab.p1 - red.p1) ** 2)))
        results.append(f"omega={omega:g}: RMS {rms:.4f}")
        ok = ok and rms <= 0.05
    return CheckResult(10, "open-system agreement", ok,
                       "; ".join(results) + " (tol 0.05)")


def check_physicality() -> CheckResult:
    """State validity on both dissipative routes plus replica symmetry of the spectrum."""
    p = DriveParams(1.0, 10.0, 1.0)
    d = DecayRates(Gamma_10=1.0, gamma_11=0.2)
    t = np.linspace(0.0, 6.0 * p.period, 301)
    # The integrators run their own trace/Hermiticity/positivity checks on
    # every stored step and raise on violation.
    evolve_lab_lindblad(p, d, DensityMatrix.from_pure(PureState.ground()), t)
    evolve_gvv_lindblad(p, d, t)

    worst_p1 = 0.0
    for omega, amp in [(1.0, 1.0), (0.6, 2.0)]:
        pp = DriveParams(1.0, amp, omega)
        tt = np.linspace(0.0, 10.0 * pp.period, 400)
        for series in (p1_floquet(pp, 30, tt), p1_direct(pp, tt)):
            worst_p1 = max(worst_p1, float(np.max(series.p1 - 1.0)), float(np.max(-series.p1)))
    if worst_p1 > 1e-9:
        return CheckResult(11, "physicality suite", False,
                           f"P1 out of [0, 1] by {worst_p1:.2e}")

    worst_rep = 0.0
    for omega, amp in [(1.0, 1.0), (0.6, 2.0), (1.0, 5.0)]:
        pp = DriveParams(1.0, amp, omega)
        spec = quasienergies(lab_parity_chain(pp, 30), pp.omega)
        centers = np.array(spec.folded_pair)
        for q in spec.folded_interior:
            dists = np.abs(q - centers)
            dists = np.minimum(dists, pp.omega - dists)
            worst_rep = max(worst_rep, float(np.min(dists)) / pp.omega)
    ok = worst_rep <= 1e-9
    return CheckResult(11, "physicality suite", ok,
                       f"P1 bound slack {worst_p1:.1e}, replica deviation {worst_rep:.1e}*omega (tol 1e-9)")


ALL_CHECKS = [
    check_xi_multiroot,
    check_no_solution_bands,
    check_weak_resonant_limit,
    check_gvv_gap_match,
    check_gvv_beats_grwa,
    check_coefficient_closure,
    check_route_equivalence,
    check_even_comb_structure,
    check_shift_identities,
    check_open_system_agreement,
    check_physicality,
]


def run_all(report=print) -> list[CheckResult]:
    """Run every check in order, reporting one line each; never raises.

    Each reported line is the check's ``line()`` followed by its wall time.
    """
    results = []
    for i, check in enumerate(ALL_CHECKS, start=1):
        start = time.perf_counter()
        try:
            res = check()
        except RabiFloquetError as exc:
            res = CheckResult(i, check.__name__, False, f"raised {type(exc).__name__}: {exc}")
        results.append(res)
        if report is not None:
            report(f"{res.line()} [{time.perf_counter() - start:.2f} s]")
    return results
