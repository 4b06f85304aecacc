"""Self-contained numerical kernels.

Integer-order Bessel functions of the first kind (Miller's downward
recurrence in ratio form), bracketed root finding, dense Hermitian
eigendecomposition, fixed-step ODE integration with
step-halving convergence control (generic and batched linear), and
spectral peak extraction.

All functions are pure: no global mutable state, results depend only on
the arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ContractViolationError,
    ConvergenceError,
    DomainError,
    EvaluationError,
)

_BESSEL_X_MAX = 1e6
_BESSEL_N_MAX = 10_000


# ---------------------------------------------------------------------------
# Bessel functions J_n(x), integer order
# ---------------------------------------------------------------------------

def _miller_start_order(nmax: int, xmax: float) -> int:
    # Downward recurrence needs to start well above both the target order
    # and the turning point k ~ x; the sqrt cushion makes the error of the
    # start ratio r = 0 negligible by the highest requested order.
    m = max(nmax, int(math.ceil(xmax)))
    start = m + 15 * int(math.sqrt(m + 1.0)) + 30
    return start + (start % 2)


def _miller(nmax: int, x: np.ndarray) -> np.ndarray:
    # r_k = J_k / J_{k-1} = 1 / (2k/x - r_{k+1}) downward from r = 0; u
    # gathers sum_{even j >= k} J_j / J_{k-1}, so that J_0 (1 + 2u) = 1 at
    # k = 1.  At x = 0, 2/x = inf gives r = 0, so J_0 = 1.
    r = np.zeros_like(x)
    u = np.zeros_like(x)
    out = np.empty((nmax + 1, x.size))
    with np.errstate(all="ignore"):
        two_over_x = 2.0 / x
        for k in range(_miller_start_order(nmax, float(np.max(np.abs(x), initial=0.0))), 0, -1):
            r = 1.0 / (k * two_over_x - r)
            if k % 2 == 0:
                u += 1.0
            u *= r
            if k <= nmax:
                out[k] = r
        out[0] = 1.0 / (1.0 + 2.0 * u)
        return np.cumprod(out, axis=0)


def _bessel_backward(nmax: int, x: np.ndarray) -> np.ndarray:
    """All of J_0(x)..J_nmax(x) for signed x, shape (nmax+1, len(x)).

    Miller's algorithm in ratio form (Gautschi, SIAM Review 9, 24, 1967):
    the ratios J_k / J_{k-1} recur downward from far above nmax and never
    overflow, the normalisation J_0 + 2 sum_{k even >= 2} J_k = 1 fixes
    J_0, and J_k is J_0 times the ratios up to k.  J_k(-x) = (-1)^k J_k(x)
    comes out of the recurrence itself.
    """
    x = np.asarray(x, dtype=float)
    out = _miller(nmax, x)
    bad = ~np.all(np.isfinite(out), axis=0)
    if np.any(bad):
        # A denominator that is exactly zero (x the double nearest a zero
        # of some J_k) makes a ratio infinite; one ulp away it is finite.
        out[:, bad] = _miller(nmax, np.nextafter(x[bad], np.inf))
    return out


def _checked_domain(x, max_order: int) -> np.ndarray:
    if max_order >= _BESSEL_N_MAX:
        raise DomainError(f"Bessel order out of range: {max_order} >= {_BESSEL_N_MAX}")
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)) or np.any(np.abs(xa) >= _BESSEL_X_MAX):
        raise DomainError("Bessel argument out of range (must be finite, |x| < 1e6)")
    return xa


def _signed_order(n, j_abs):
    """J_n from J_|n| through J_{-n} = (-1)^n J_n."""
    return np.where((n < 0) & (n % 2 == 1), -j_abs, j_abs)


def bessel_j(n: int, x):
    """Bessel function of the first kind J_n(x) for integer n.

    Accepts scalar or array ``x``; accurate to 1e-12 absolute for
    |x| <= 100.  Negative orders and arguments are handled through
    J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x).
    """
    n = int(n)
    xa = _checked_domain(x, abs(n))
    vals = _signed_order(n, _bessel_backward(abs(n), xa.ravel())[abs(n)])
    return float(vals[0]) if np.isscalar(x) else vals.reshape(xa.shape)


@dataclass(frozen=True)
class BesselTable:
    """J_n(x) for all orders n in [-max_order, max_order] at a fixed x."""

    max_order: int
    values: np.ndarray = field(repr=False)  # J_0 .. J_max_order

    def __getitem__(self, n):
        """J_n for an int ``n`` (a float) or an int array (an array)."""
        n = np.asarray(n)
        m = np.abs(n)
        if np.max(m, initial=0) > self.max_order:
            raise DomainError(f"order {np.max(m)} outside table range +-{self.max_order}")
        vals = _signed_order(n, self.values[m])
        return float(vals) if vals.ndim == 0 else vals


def bessel_tables(x, max_orders) -> list[BesselTable]:
    """One table of all J_n(x[i]) for |n| <= max_orders[i] per argument.

    A single downward recurrence serves every table.  Its length is set by
    the largest order and the largest |x| (Gautschi 1967), not by the
    number of tables, so a sweep pays for one table, not one per point.
    """
    orders = [int(m) for m in max_orders]
    if min(orders, default=0) < 0:
        raise DomainError("max_order must be nonnegative")
    top = max(orders, default=0)
    xa = _checked_domain(np.asarray(x, dtype=float).ravel(), top)
    if xa.size != len(orders):
        raise ContractViolationError(f"{xa.size} arguments but {len(orders)} orders")
    values = _bessel_backward(top, xa)
    return [BesselTable(max_order=m, values=values[:m + 1, i]) for i, m in enumerate(orders)]


def bessel_table(x: float, max_order: int) -> BesselTable:
    """All J_n(x) for |n| <= max_order from a single downward recurrence."""
    return bessel_tables([float(x)], [max_order])[0]


# ---------------------------------------------------------------------------
# Bracketed root finding
# ---------------------------------------------------------------------------

def _check_finite(x: np.ndarray, y: np.ndarray) -> None:
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)][0]
        raise EvaluationError(f"non-finite value at x={bad}", abscissa=float(bad))


def _refine(f, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray, tol: float) -> np.ndarray:
    """Shrink the sign-change brackets [a, b] together until each is <= tol wide.

    Each round calls ``f(x, rows)`` once, on the trial points ``x`` of all
    open brackets; ``rows`` holds their indices into ``a``, so brackets of
    different functions (one per row) are refined in the same calls.
    A trial point is the Illinois regula falsi one (Dowell & Jarratt, BIT
    11, 168, 1971): the root of the secant through the bracket ends, where
    the end the last secant point did not replace enters with its value
    halved once for every repeat of that side in a row.  Rounds come in
    pairs; in the second round of a pair a bracket the first did not
    halve is bisected instead, so every pair at least halves every
    bracket and no bracket takes more than twice bisection's calls.  A
    bracket also closes once it is at most four float spacings of its
    larger end wide: a ``tol`` below the spacing could never be met, and a
    bracket of adjacent floats would bisect onto its own end for ever.
    Returns the midpoint of each final bracket, or the trial point where
    ``f`` is exactly zero.
    """
    roots = np.empty_like(a)
    rows = np.arange(len(a))       # bracket each open row refines
    side = np.zeros(len(a))        # -1 / +1: the last secant point replaced a / b
    weight = np.ones(len(a))       # factor on the value at the other end
    ref = b - a                    # width at the start of the current pair
    second = False
    while True:
        narrow = b - a <= np.maximum(tol, 4.0 * np.spacing(np.maximum(np.abs(a), np.abs(b))))
        roots[rows[narrow]] = 0.5 * (a[narrow] + b[narrow])
        rows, a, b, fa, fb, side, weight, ref = (
            v[~narrow] for v in (rows, a, b, fa, fb, side, weight, ref))
        if not rows.size:
            return roots
        bisect = (b - a > 0.5 * ref) if second else np.zeros(len(rows), dtype=bool)
        ga = np.where(side > 0, weight * fa, fa)
        gb = np.where(side < 0, weight * fb, fb)
        x = np.where(bisect, 0.5 * (a + b), np.clip(a + (b - a) * (ga / (ga - gb)), a, b))
        fx = np.asarray(f(x, rows), dtype=float)
        _check_finite(x, fx)
        on_a = np.signbit(fx) == np.signbit(fa)
        secant_side = np.where(on_a, -1.0, 1.0)
        weight = np.where(bisect, weight, np.where(secant_side == side, 0.5 * weight, 1.0))
        side = np.where(bisect, side, secant_side)
        hit = fx == 0.0            # an exact zero closes its bracket on x
        a, fa = np.where(on_a | hit, x, a), np.where(on_a, fx, fa)
        b, fb = np.where(on_a & ~hit, b, x), np.where(on_a, fb, fx)
        if second:
            ref = b - a
        second = not second


def _scan(f, lo: float, hi: float, scan_points: int):
    """Grid, values and sign-change cells of ``f`` on a uniform scan of [lo, hi].

    ``f`` must be vectorised: it is called once, on the whole grid.  Cell
    i is [xs[i], xs[i + 1]]; a sign-change cell has no zero end.
    """
    if not lo < hi:
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    if scan_points < 2:
        raise DomainError("scan_points must be >= 2")
    xs = np.linspace(lo, hi, scan_points)
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise ContractViolationError(
            f"f returned shape {ys.shape} on {scan_points} scan points; it must be vectorised"
        )
    _check_finite(xs, ys)
    # signs, not values, are multiplied: a product of two tiny values underflows to zero
    return xs, ys, np.flatnonzero(np.sign(ys[:-1]) * np.sign(ys[1:]) < 0.0)


def count_roots(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                scan_points: int = 4000) -> int:
    """Number of roots :func:`find_roots` returns, without refining them.

    One per sign-change cell of the scan and one per grid point where
    ``f`` is exactly zero.
    """
    _, ys, cell = _scan(f, lo, hi, scan_points)
    return len(cell) + int(np.count_nonzero(ys == 0.0))


def find_roots(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    scan_points: int = 4000,
    tol: float = 1e-10,
) -> tuple:
    """Sorted roots of ``f`` on [lo, hi] by uniform scan and bracket refinement.

    The grid points where ``f`` is exactly zero, and every sign-change
    cell refined to a bracket of width <= tol (all of them together, by
    safeguarded Illinois regula falsi).  Each refinement round calls the
    vectorised ``f`` once, on the open brackets' trial points.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        # a tolerance is a positive width; _refine's float-spacing stop is a floor, not a target
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    xs, ys, cell = _scan(f, lo, hi, scan_points)
    refined = _refine(lambda x, rows: f(x), xs[cell], xs[cell + 1], ys[cell], ys[cell + 1], tol)
    return tuple(np.sort(np.concatenate([xs[ys == 0.0], refined])).tolist())


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenDecomposition:
    eigenvalues: np.ndarray = field(repr=False)   # ascending
    eigenvectors: np.ndarray = field(repr=False)  # columns, orthonormal


def eig_hermitian(matrix) -> EigenDecomposition:
    """Full spectrum of a Hermitian matrix, ascending eigenvalues.

    Eigenvector phases are fixed deterministically: the largest-magnitude
    component of each column is made real and positive, so repeated runs
    and parameter sweeps are bit-stable.  A real symmetric matrix is
    diagonalised in real arithmetic and keeps real eigenvectors, whose
    phase fix is a sign fix.
    """
    h = np.asarray(matrix)
    h = h.astype(float if np.isrealobj(h) else complex, copy=False)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {h.shape}")
    scale = max(1.0, float(np.max(np.abs(h))))
    if float(np.max(np.abs(h - h.conj().T))) > 1e-10 * scale:
        raise ContractViolationError("matrix is not Hermitian within tolerance")
    evals, evecs = np.linalg.eigh(h)
    pivot = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(evecs.shape[1])]
    evecs *= pivot.conj() / np.abs(pivot)
    return EigenDecomposition(eigenvalues=evals, eigenvectors=evecs)


# ---------------------------------------------------------------------------
# ODE integration: classical RK4 with Richardson step-halving
# ---------------------------------------------------------------------------

# Most steps whose RK4 matrices are formed and multiplied in one batch.  It
# bounds the working set of evolve_linear at a few arrays of
# (2 * _CHUNK_STEPS + 1, 2d, 2d) reals whatever the grid, about 1 MB for
# d = 4; larger chunks gain little speed and raise the process's peak memory.
_CHUNK_STEPS = 256


def _richardson(run_pass, y0, t_grid, rel_tol: float, max_step, max_halvings: int) -> np.ndarray:
    """Double the RK4 substeps per grid interval until two passes agree.

    ``run_pass(y0, t_grid, substeps)`` returns the states at ``t_grid``;
    the passes are accepted once their max-norm difference is below
    ``rel_tol`` relative to the larger of 1 and the state's max norm.
    """
    if not 1e-13 <= rel_tol <= 1e-3:
        raise DomainError("rel_tol must be in [1e-13, 1e-3]")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise DomainError("t_grid must be an ascending 1-d grid")
    if not np.all(np.isfinite(t_grid)):
        # nan compares false above; it would size a pass by ceil(nan) steps
        raise DomainError("t_grid must be finite")
    y0 = np.atleast_1d(np.asarray(y0, dtype=complex))

    dt = np.diff(t_grid)
    if max_step is not None and max_step > 0:
        substeps = np.maximum(1, np.ceil(dt / max_step).astype(int))
    else:
        substeps = np.ones(len(dt), dtype=int)

    prev = run_pass(y0, t_grid, substeps)
    for _ in range(max_halvings):
        substeps = substeps * 2
        if np.min(dt / substeps) < 1e-14 * (t_grid[-1] - t_grid[0]):
            raise ConvergenceError("step size underflow before reaching rel_tol")
        cur = run_pass(y0, t_grid, substeps)
        diff = float(np.max(np.abs(cur - prev)))
        scale = max(1.0, float(np.max(np.abs(cur))))
        if diff < rel_tol * scale:
            return cur
        prev = cur
    raise ConvergenceError(f"no convergence to rel_tol={rel_tol} after {max_halvings} halvings")


def _rk4_pass(rhs, y0: np.ndarray, t_grid: np.ndarray, substeps: np.ndarray) -> np.ndarray:
    y = y0.astype(complex)
    out = np.empty((len(t_grid),) + y.shape, dtype=complex)
    out[0] = y
    for i in range(len(t_grid) - 1):
        t0, t1 = t_grid[i], t_grid[i + 1]
        n = int(substeps[i])
        h = (t1 - t0) / n
        t = t0
        for _ in range(n):
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        out[i + 1] = y
    return out


def evolve_ode(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0,
    t_grid,
    rel_tol: float = 1e-9,
    max_step: float | None = None,
    max_halvings: int = 12,
) -> np.ndarray:
    """Integrate y' = rhs(t, y) and return the states at exactly ``t_grid``.

    Fixed-step classical RK4; the step count per grid interval is doubled
    (Richardson step-halving) until two successive solutions differ by
    less than ``rel_tol`` in max norm over the whole grid.  Every pass
    restarts from ``t_grid[0]`` and calls ``rhs`` four times per step.
    """
    return _richardson(functools.partial(_rk4_pass, rhs), y0, t_grid,
                       rel_tol, max_step, max_halvings)


def _real_form(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Complex (..., d, d) matrices as real (..., 2d, 2d) [[Re, -Im], [Im, Re]], into ``out``.

    The form acts on [Re y, Im y] and multiplies like the complex
    matrices; numpy's batched products of tiny real matrices run several
    times faster than of complex ones.
    """
    d = g.shape[-1]
    out[..., :d, :d] = out[..., d:, d:] = g.real
    np.negative(g.imag, out=out[..., :d, d:])
    out[..., d:, :d] = g.imag
    return out


def _rk4_step_matrices(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """RK4 step maps R_j with y(t_j + h_j) = R_j y(t_j) for y' = G(t) y.

    ``g`` holds G in the real form of ``_real_form`` at the 2m + 1
    half-step times of m consecutive steps: step j starts at g[2j], has
    its midpoint at g[2j + 1] and ends at g[2j + 2].  The four classical
    stages are applied to the identity instead of a vector.
    """
    hh = h[:, None, None]
    eye = np.eye(g.shape[-1])
    # with A = h G: K1 = A(t), K2 = A(t + h/2)(I + K1/2), K3 = A(t + h/2)(I + K2/2),
    # K4 = A(t + h)(I + K3), and R = I + (K1 + 2 K2 + 2 K3 + K4) / 6.  The
    # stages are updated in place and reuse freed buffers: each fresh array
    # of this size costs the process page faults.
    k1 = g[:-1:2] * hh
    a_mid = g[1::2] * hh
    x = k1 * 0.5
    x += eye
    total = a_mid @ x                    # K2
    np.multiply(total, 0.5, out=x)
    x += eye
    k3 = a_mid @ x
    total += k3
    total *= 2.0
    total += k1
    k3 += eye
    k4 = np.matmul(g[2::2], k3, out=x)
    k4 *= hh
    total += k4
    total *= 1.0 / 6.0
    total += eye
    return total


def _ordered_product(r: np.ndarray) -> np.ndarray:
    """r[:, -1] @ ... @ r[:, 0] for a batch of map sequences, in pairwise rounds."""
    while r.shape[1] > 1:
        pairs = r[:, 1::2] @ r[:, :-1:2]
        if r.shape[1] % 2:
            pairs[:, -1] = r[:, -1] @ pairs[:, -1]
        r = pairs
    return r[:, 0]


def _linear_pass(generator, y0: np.ndarray, t_grid: np.ndarray, substeps: np.ndarray) -> np.ndarray:
    # Steps are numbered across the whole grid; interval i owns steps
    # first[i] .. first[i + 1] - 1 and is cut into pieces of at most
    # _CHUNK_STEPS steps: piece k is steps bounds[k] .. bounds[k + 1] - 1
    # of interval owner[k].  A chunk is a run of whole pieces with at most
    # _CHUNK_STEPS steps in all.  G is evaluated once per half-step time:
    # at t_grid[0], then per chunk at all its times but the first, which
    # the previous chunk ended on.  Each piece's step maps are multiplied
    # pairwise into one map (pieces of one step count in one batch), and
    # the inclusive prefix products of the piece maps, in log depth, carry
    # the chunk's first state to every sample inside it.
    first = np.concatenate([[0], np.cumsum(substeps)])
    half = np.append(np.diff(t_grid) / (2 * substeps), 0.0)  # 0 past the last interval
    pieces = -(-substeps // _CHUNK_STEPS)
    owner = np.repeat(np.arange(len(substeps)), pieces)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    bounds = np.append(first[owner] + rank * _CHUNK_STEPS, first[-1])
    last = np.append(owner[1:] != owner[:-1], True)  # the piece ends its interval
    n = 2 * len(y0)
    out = np.empty((len(t_grid), n))
    out[0] = y = np.concatenate([y0.real, y0.imag])
    g_end = _real_form(generator(t_grid[:1]), np.empty((1, n, n)))[0]
    a = 0
    while a < len(owner):
        b = int(np.searchsorted(bounds, bounds[a] + _CHUNK_STEPS, side="right")) - 1
        step = np.arange(bounds[a], bounds[b] + 1)
        i = np.searchsorted(first, step, side="right") - 1
        k = 2 * (step - first[i])
        times = np.empty(2 * len(step) - 1)
        times[::2] = t_grid[i] + k * half[i]
        times[1::2] = (t_grid[i] + (k + 1) * half[i])[:-1]
        g = np.empty((len(times), n, n))
        g[0] = g_end
        g_end = _real_form(generator(times[1:]), g[1:])[-1]
        r = _rk4_step_matrices(g, 2.0 * half[i[:-1]])
        start, count = bounds[a:b] - bounds[a], np.diff(bounds[a:b + 1])
        prefix = np.empty((b - a, n, n))
        for s in set(count.tolist()):  # np.unique would import numpy.ma, 30 ms
            sel = np.flatnonzero(count == s)
            prefix[sel] = _ordered_product(r[start[sel, None] + np.arange(s)])
        shift = 1
        while shift < len(prefix):
            prefix[shift:] = prefix[shift:] @ prefix[:-shift]
            shift *= 2
        done = last[a:b]
        out[owner[a:b][done] + 1] = prefix[done] @ y
        y = prefix[-1] @ y
        a = b
    return out[:, :len(y0)] + 1j * out[:, len(y0):]


def evolve_linear(
    generator: Callable[[np.ndarray], np.ndarray],
    y0,
    t_grid,
    rel_tol: float = 1e-9,
    max_step: float | None = None,
    max_halvings: int = 12,
) -> np.ndarray:
    """Integrate the linear system y' = G(t) y; states at exactly ``t_grid``.

    ``generator(times)`` returns G at an array of m times as an (m, d, d)
    batch.  The integrator is the one of :func:`evolve_ode` -- classical
    RK4 with the same substeps and Richardson step-halving -- but G is
    evaluated once per half-step time of a pass (2m + 1 times for m
    steps), each step is formed as a d x d matrix in batches, the steps
    of each grid interval are multiplied pairwise into one map, and the
    interval maps are chained by prefix products, so no Python code runs
    per step.
    """
    return _richardson(functools.partial(_linear_pass, generator), y0, t_grid,
                       rel_tol, max_step, max_halvings)


# ---------------------------------------------------------------------------
# Spectral peak extraction
# ---------------------------------------------------------------------------

def dominant_peaks(
    series,
    max_peaks: int,
    rel_threshold: float = 1e-3,
) -> list[tuple[float, float]]:
    """Dominant spectral lines of a uniformly sampled real signal.

    ``series`` is any object with uniform ``t`` and ``p1`` arrays (for
    instance a :class:`~rabifloquet.model.TimeSeries`).  The signal is
    mean-subtracted, Hann-windowed and Fourier transformed; local maxima
    above ``rel_threshold`` of the largest peak are refined by quadratic
    interpolation of the log magnitude.  Returns (frequency, amplitude)
    pairs sorted by amplitude, descending; frequencies are in cycles per
    unit time.
    """
    t = np.asarray(series.t, dtype=float)
    y = np.asarray(series.p1, dtype=float)
    if len(t) != len(y) or len(t) < 8:
        raise ContractViolationError("series too short or mismatched lengths")
    dts = np.diff(t)
    dt = float(np.mean(dts))
    if np.max(np.abs(dts - dt)) > 1e-9 * dt:
        raise ContractViolationError("series is not uniformly sampled")

    n = len(y)
    window = np.hanning(n)
    spec = np.abs(np.fft.rfft((y - y.mean()) * window))
    freqs_step = 1.0 / (n * dt)
    amp_scale = 2.0 / window.sum()

    if spec.max() == 0.0:
        return []
    floor = rel_threshold * spec.max()
    peaks: list[tuple[float, float]] = []
    for k in range(1, len(spec) - 1):
        if spec[k] >= floor and spec[k] >= spec[k - 1] and spec[k] > spec[k + 1]:
            lm, lc, lp = (math.log(max(spec[k + d], 1e-300)) for d in (-1, 0, 1))
            denom = lm - 2.0 * lc + lp
            delta = 0.5 * (lm - lp) / denom if denom < 0 else 0.0
            delta = min(0.5, max(-0.5, delta))
            peaks.append(((k + delta) * freqs_step, float(spec[k]) * amp_scale))
    peaks.sort(key=lambda fa: -fa[1])
    return peaks[:max_peaks]
