"""Seeded inputs and output gates for the four CLI workloads.

A workload is a fixed list of slots, cells of its parameter box.  A
run repeats rounds of them: ``operations(name, spec, seed, round_no)``
lists one round's CLI invocations, one per slot; ``edge_operations``
gives the known-degradation probes; ``gate(name, op, text)`` checks one
invocation's output, ``evaluate`` gates a whole run and ``slot_rate``
turns the timings into points per second.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Op:
    argv: list
    points: int
    params: dict = field(default_factory=dict)
    slot: int = 0


def _num(x: float) -> str:
    return repr(float(x))


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def slot_cells(spec: dict) -> list[tuple]:
    """The workload's slots: cells of a fine grid in a fixed Halton order.

    The cells do not depend on the seed, so every run times the same
    spread of the box; the seed only places each round's point inside
    each cell.
    """
    bases, shape = spec["halton_bases"], spec["cells"]
    return [tuple(int(_radical_inverse(i, b) * n) for b, n in zip(bases, shape))
            for i in range(1, spec["slots"] + 1)]


def _draw(rng, ranges, cell, shape):
    """One point drawn uniformly inside ``cell`` of the box ``ranges``."""
    out = []
    for (lo, hi), idx, n in zip(ranges, cell, shape):
        width = (hi - lo) / n
        out.append(lo + (idx + rng.random()) * width)
    return out


def operations(name: str, spec: dict, seed: int, round_no: int) -> list[Op]:
    """The CLI invocations of one round: one per slot, drawn from (seed, round)."""
    rng = np.random.default_rng([seed, 1, round_no])
    ops: list[Op] = []
    if name == "dynamics":
        fixed = spec["fixed_args"]
        tail = ["--periods", str(fixed["periods"]), "--samples", str(fixed["samples"]),
                "--truncation", str(fixed["truncation"])]
        first = spec["first_point"]
        points = [(first["omega"], first["amp"])]
        r = spec["ranges"]
        for cell in slot_cells(spec)[1:]:
            points.append(tuple(_draw(rng, (r["omega"], r["amp"]), cell, spec["cells"])))
        for omega, amp in points:
            ops.append(Op(["dynamics", "--omega", _num(omega), "--amp", _num(amp)] + tail, 1,
                          {"omega": omega, "amp": amp, "samples": fixed["samples"]}))
    elif name == "open":
        fixed = spec["fixed_args"]
        r = spec["ranges"]
        box = (r["omega"], r["amp"], r["gamma10"], r["gamma11"])
        for cell in slot_cells(spec):
            omega, amp, g10, g11 = _draw(rng, box, cell, spec["cells"])
            ops.append(Op(["open", "--omega", _num(omega), "--amp", _num(amp),
                           "--gamma10", _num(g10), "--gamma11", _num(g11),
                           "--periods", str(fixed["periods"]), "--samples", str(fixed["samples"])],
                          1, {"omega": omega, "amp": amp, "gamma10": g10, "gamma11": g11,
                              "samples": fixed["samples"]}))
    elif name == "chrw-map":
        for k_omega, k_amp in spec["strides"]:
            # A strided sub-grid: every k-th README grid line, so each
            # invocation samples the whole box evenly.  The amplitude lines
            # start at the A = 0 row, whose cells cost next to nothing, so
            # every round holds the same share of them; the omega offset is
            # seeded and stays below (n - 1) mod k + 1, so a slot's sub-grid
            # has the same number of cells in every round.
            axes = []
            for (lo, step, n), k, seeded in ((spec["grid"]["omega"], k_omega, True),
                                             (spec["grid"]["amp"], k_amp, False)):
                first = int(rng.integers(0, (n - 1) % k + 1)) if seeded else 0
                count = (n - 1) // k + 1
                axes.append((lo + step * first, lo + step * (first + k * (count - 1)), step * k, count))
            (w_lo, w_hi, w_step, w_n), (a_lo, a_hi, a_step, a_n) = axes
            ops.append(Op(["chrw-map",
                           "--omega-range", f"{w_lo:.10g}:{w_hi:.10g}:{w_step:.10g}",
                           "--amp-range", f"{a_lo:.10g}:{a_hi:.10g}:{a_step:.10g}"],
                          w_n * a_n,
                          {"sample": rng.integers(0, w_n * a_n, spec["recount"]["cells_per_grid"]).tolist()}))
    elif name == "spectrum":
        fixed = spec["fixed_args"]
        for cell in slot_cells(spec):
            (omega,) = _draw(rng, (spec["ranges"]["omega"],), cell, spec["cells"])
            ops.append(Op(["spectrum", "--omega", _num(omega), "--amp-range", fixed["amp_range"],
                           "--truncation", str(fixed["truncation"])],
                          spec["points_per_sweep"], {"omega": omega}))
    else:
        raise ValueError(f"unknown workload {name!r}")
    for slot, op in enumerate(ops):
        op.slot = slot
    return ops


def edge_operations(name: str, spec: dict, seed: int) -> list[Op]:
    """Known-degradation probes, run outside the timed points."""
    rng = np.random.default_rng([seed, 2])
    if name == "dynamics":
        fixed = spec["fixed_args"]
        omega = rng.uniform(1.5, 2.0)
        return [Op(["dynamics", "--omega", _num(omega), "--amp", "0",
                    "--periods", str(fixed["periods"]), "--samples", str(fixed["samples"]),
                    "--truncation", str(fixed["truncation"])], 1,
                   {"omega": omega, "amp": 0.0, "samples": fixed["samples"]})]
    if name == "spectrum":
        fixed = spec["fixed_args"]
        return [Op(["spectrum", "--omega", "1", "--amp-range", fixed["amp_range"],
                    "--truncation", str(fixed["truncation"])], spec["points_per_sweep"], {"omega": 1.0})]
    return []


# ---------------------------------------------------------------------------
# Output gates
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> dict:
    lines = text.splitlines()
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    cols = {}
    for k, name in enumerate(names):
        raw = [row[k] for row in rows]
        try:
            cols[name] = np.array([float(v) if v else math.nan for v in raw])
        except ValueError:
            cols[name] = raw
    return cols


def _rms(a, b) -> float:
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def _in_unit(x, slack: float) -> bool:
    return bool(len(x) and np.all(np.isfinite(x)) and x.min() >= -slack and x.max() <= 1.0 + slack)


@dataclass
class GateResult:
    failed_points: int
    problems: list
    values: dict  # named deviations, reported but not gated


def gate(name: str, op: Op, text: str, recount=None) -> GateResult:
    cols = parse_csv(text)
    problems, values, failed = [], {}, 0
    if name == "dynamics":
        num, flo = cols["p1_numeric"], cols["p1_floquet"]
        rms = _rms(flo, num) if len(num) else math.inf
        values["floquet_vs_oracle_rms"] = rms
        if not len(num) == len(flo) == op.params["samples"]:
            problems.append(f"{len(num)} oracle and {len(flo)} Floquet samples, expected {op.params['samples']}")
        elif not (_in_unit(num, 1e-9) and _in_unit(flo, 1e-9)):
            problems.append("P1 outside [0, 1] within 1e-9")
        if not rms <= 1e-6:
            problems.append(f"Floquet vs oracle RMS {rms:.3g} > 1e-6")
        chrw = cols["p1_chrw"]
        if np.all(np.isfinite(chrw)):
            values["chrw_vs_oracle_rms"] = _rms(chrw, num)
        failed = 1 if problems else 0
    elif name == "open":
        lab, red = cols["p1_lab_lindblad"], cols["p1_gvv_lindblad"]
        if not len(lab) == len(red) == op.params["samples"]:
            problems.append(f"{len(lab)} lab and {len(red)} GVV samples, expected {op.params['samples']}")
        elif not (_in_unit(lab, 1e-8) and _in_unit(red, 1e-8)):
            problems.append("open-system P1 not finite or outside [0, 1] within 1e-8")
        else:
            values["lab_vs_gvv_lindblad_rms"] = _rms(lab, red)
        failed = 1 if problems else 0
    elif name == "spectrum":
        omega = op.params["omega"]
        amps, freqs = cols["A_over_omega0"], cols["line_frequency"]
        labels, sources = cols["label"], cols["source"]
        expected = op.points
        seen = np.unique(amps)
        if len(seen) != expected:
            problems.append(f"{len(seen)} amplitudes in output, expected {expected}")
            failed += expected - len(seen)
        for amp in seen:
            rows = np.flatnonzero(amps == amp)
            bad = not np.all(np.isfinite(freqs[rows])) or freqs[rows].min() < 0.0
            for r in rows:
                if sources[r] == "numeric" and labels[r] == "2nw+base[n=0]":
                    bad |= not (0.0 <= freqs[r] <= omega * (1 + 1e-12))
            if bad:
                problems.append(f"A={amp:g}: negative, non-finite or out-of-range line")
                failed += 1
    elif name == "chrw-map":
        counts = cols["count"]
        if len(counts) != op.points or not np.all(counts >= 0):
            problems.append(f"{len(counts)} cells or negative counts, expected {op.points}")
            return GateResult(op.points, problems, values)
        for k in op.params["sample"]:
            w, a = cols["omega_over_omega0"][k], cols["A_over_omega0"][k]
            want = recount(w, a)
            if int(counts[k]) != want:
                problems.append(f"cell omega={w:g} A={a:g}: count {int(counts[k])}, recount {want}")
                failed += 1
    return GateResult(failed, problems, values)


def make_recount(scan_points: int):
    """Independent xi root count with scipy.special at a finer scan."""
    from scipy.special import jv

    xi = np.linspace(0.0, 1.0, scan_points)

    def recount(omega: float, amp: float) -> int:
        if amp == 0.0:
            return 1  # analytic weak-drive limit, as the map documents
        f = 0.5 * amp * (1.0 - xi) - jv(1, amp * xi / omega)
        sign_changes = np.count_nonzero(f[:-1] * f[1:] < 0.0)
        return int(sign_changes + np.count_nonzero(f == 0.0))

    return recount


def evaluate(name: str, results, recount=None) -> dict:
    """Gate every ``(op, (exit code, stdout, stderr, seconds))`` result.

    A point passes only if its invocation exited 0 and its output passed
    the gates; ``correct`` holds when every attempted point passed.
    """
    outcomes, problems, values, passed = [], [], {}, []
    for op, (rc, out, err, _) in results:
        label = " ".join(op.argv[:3])
        if rc != 0:
            last = (err.strip().splitlines() or ["no message"])[-1]
            problems.append(f"{label}: exit {rc}: {last}")
            outcomes.append((rc, op.points, op.points))
            passed.append(0)
            continue
        try:
            res = gate(name, op, out, recount)
        except Exception as exc:  # unreadable output fails every point of the invocation
            res = GateResult(op.points, [f"unreadable output: {exc!r}"], {})
        problems += [f"{label}: {p}" for p in res.problems]
        for key, val in res.values.items():
            values.setdefault(key, []).append(val)
        failed_points = min(op.points, res.failed_points)
        outcomes.append((rc, op.points, failed_points))
        passed.append(op.points - failed_points)
    attempted, failed = tally(outcomes)
    return {"attempted": attempted, "failed": failed, "correct": attempted > 0 and failed == 0,
            "problems": problems, "values": values, "passed": passed}


def tally(outcomes) -> tuple[int, int]:
    """(attempted, failed) points from (exit code, points, gate failures).

    A non-zero exit, or an exception (exit code None), fails every point
    of the invocation, so an aborted sweep counts all its amplitudes.
    """
    attempted = failed = 0
    for rc, points, gate_failed in outcomes:
        attempted += points
        failed += points if rc != 0 else min(points, gate_failed)
    return attempted, failed


def slot_rate(runs) -> float:
    """Passed points per second from per-slot medians over the rounds.

    ``runs`` holds (slot, points, passed points, duration) per
    invocation.  Each slot's median seconds per passed point is
    weighted by its points per round, so one slow stretch of the
    machine moves a slot's median, not the rate.  A slot whose
    invocations mostly failed has an infinite median and the rate
    drops towards 0.
    """
    per_point, points = {}, {}
    for slot, pts, passed, seconds in runs:
        per_point.setdefault(slot, []).append(seconds / passed if passed else math.inf)
        points[slot] = pts
    total = sum(points.values())
    return total / sum(points[s] * statistics.median(v) for s, v in per_point.items())
