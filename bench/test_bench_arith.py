"""Tests for the benchmark's own bookkeeping: span self time, Richardson
pass counting from RHS restarts, and the failed-point rule."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_spans_nest_and_leaves_aggregate():
    tracer = tracing.Tracer()

    def inner():
        tracer.leaf("leaf", lambda: None)
        tracer.leaf("leaf", lambda: None)
        return 7

    def outer():
        tracer.span("inner", inner)
        return tracer.span("inner", inner)

    assert tracer.span("outer", outer) == 7
    assert [rec[0] for rec in tracer.spans] == ["outer", "inner", "inner"]
    assert [rec[3] for rec in tracer.spans] == [-1, 0, 0]
    assert tracer.counts["leaf.calls"] == 4
    inner_s = [rec[2] - rec[1] for rec in tracer.spans[1:]]
    # the outer span's children cover both inner spans, whose own
    # children are the aggregated leaf calls
    assert tracer.spans[0][5] == pytest.approx(sum(inner_s))
    assert tracer.spans[1][5] + tracer.spans[2][5] == pytest.approx(tracer.counts["leaf.self_s"])
    outer_self, *inner_self = tracing.self_times(tracer.spans)
    assert outer_self == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1] - sum(inner_s))
    assert min(inner_self) >= 0.0
    totals = tracing.layer_totals(tracer)
    assert totals["outer.calls"] == 1 and totals["inner.calls"] == 2
    assert totals["outer.self_s"] + totals["inner.self_s"] + totals["leaf.self_s"] == pytest.approx(
        tracer.spans[0][2] - tracer.spans[0][1])


def test_passes_counted_from_returns_to_first_time():
    counter = tracing.RhsCounter(lambda t, y: y, t0=0.0)
    # two RK4 passes over [0, 1]: one step, then two half steps
    for t in [0.0, 0.5, 0.5, 1.0]:
        counter(t, None)
    for t in [0.0, 0.25, 0.25, 0.5, 0.5, 0.75, 0.75, 1.0]:
        counter(t, None)
    assert counter.calls == 12
    assert counter.passes == 2
    assert counter.final == 8


def test_passes_match_richardson_halvings_of_evolve_ode():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from rabifloquet.numerics import evolve_ode

    counter = tracing.RhsCounter(lambda t, y: -1j * y, t0=0.0)
    t = np.linspace(0.0, 2.0, 5)
    evolve_ode(counter, [1.0], t, rel_tol=1e-8)
    # evolve_ode doubles the substeps each pass: 4 evals per substep,
    # one substep per interval on the first pass.
    per_pass = [4 * 4 * 2**k for k in range(counter.passes)]
    assert counter.calls == sum(per_pass)
    assert counter.final == per_pass[-1]
    assert counter.passes >= 2


def test_aborted_sweep_fails_all_its_points():
    outcomes = [
        (0, 65, 0),     # complete sweep, all gates pass
        (1, 65, 0),     # aborted sweep: every amplitude fails
        (None, 65, 0),  # unexpected exception: same rule
        (0, 65, 2),     # complete sweep, two amplitudes fail their gate
    ]
    assert workloads.tally(outcomes) == (260, 132)


def test_same_seed_same_inputs_and_every_round_keeps_its_slot_cells():
    spec = {"fixed_args": {"periods": 2, "samples": 85, "truncation": 30},
            "first_point": {"omega": 0.6, "amp": 2.0},
            "ranges": {"omega": [0.5, 2.0], "amp": [0.1, 3.0]},
            "slots": 5, "halton_bases": [2, 3], "cells": [6, 6]}
    a = workloads.operations("dynamics", spec, seed=3, round_no=0)
    b = workloads.operations("dynamics", spec, seed=3, round_no=0)
    assert [op.argv for op in a] == [op.argv for op in b]
    assert [op.slot for op in a] == list(range(5))
    assert a[0].params == {"omega": 0.6, "amp": 2.0, "samples": 85}
    others = [workloads.operations("dynamics", spec, seed, r) for seed, r in ((4, 0), (3, 1))]
    for c in others:
        assert c[0].params == a[0].params
        assert [op.argv for op in a[1:]] != [op.argv for op in c[1:]]
        for pa, pc in zip(a[1:], c[1:]):  # same cell for every seed and round
            for key, (lo, hi) in (("omega", (0.5, 2.0)), ("amp", (0.1, 3.0))):
                width = (hi - lo) / 6
                assert int((pa.params[key] - lo) // width) == int((pc.params[key] - lo) // width)


def test_chrw_map_slots_keep_their_cell_count_in_every_round():
    spec = {"grid": {"omega": [0.1, 0.05, 59], "amp": [0.0, 0.1, 101]},
            "strides": [[6, 8], [7, 10], [8, 12]], "recount": {"cells_per_grid": 4}}
    counts = {tuple(op.points for op in workloads.operations("chrw-map", spec, seed, r))
              for seed in range(3) for r in range(5)}
    assert counts == {(130, 99, 72)}


def test_slot_rate_weights_per_slot_medians_by_points():
    runs = [
        (0, 1, 1, 1.0), (1, 4, 4, 2.0),    # round 0
        (0, 1, 1, 9.0), (1, 4, 4, 2.2),    # round 1: slot 0 hit a slow stretch
        (0, 1, 1, 1.2), (1, 4, 4, 1.8),    # round 2
        (0, 1, 1, 1.1),                    # round 3, cut at the deadline
    ]
    # slot medians: 1.15 s per point and 0.5 s per point
    assert workloads.slot_rate(runs) == pytest.approx(5 / (1 * 1.15 + 4 * 0.5))
    # an invocation that passed only half its points counts twice as slow
    assert workloads.slot_rate([(0, 4, 2, 2.0)]) == pytest.approx(1.0)
    assert workloads.slot_rate([(0, 4, 0, 2.0)]) == 0.0


def _open_op(samples=3):
    return workloads.Op(["open", "--omega", "1"], 1, {"samples": samples})


GOOD_OPEN = "t,p1_lab_lindblad,p1_gvv_lindblad\n0,0,0\n0.1,0.01,0.02\n0.2,0.03,0.04\n"


def test_nonzero_exit_or_exception_makes_the_run_incorrect():
    ok = (_open_op(), (0, GOOD_OPEN, "", 1.0))
    assert workloads.evaluate("open", [ok, ok])["correct"]
    crashed = (_open_op(), (1, "", "ContractViolationError: norm drift\n", 0.5))
    raised = (_open_op(), (None, "", "Traceback ...\nValueError: boom\n", 0.5))
    for bad in (crashed, raised):
        ev = workloads.evaluate("open", [ok, bad])
        assert not ev["correct"]
        assert (ev["attempted"], ev["failed"], ev["passed"]) == (2, 1, [1, 0])


def test_truncated_or_unreadable_output_fails_the_point():
    truncated = (_open_op(samples=4), (0, GOOD_OPEN, "", 1.0))
    empty_rows = (_open_op(), (0, "t,p1_lab_lindblad,p1_gvv_lindblad\n", "", 1.0))
    no_output = (_open_op(), (0, "", "", 1.0))
    for res in (truncated, empty_rows, no_output):
        ev = workloads.evaluate("open", [res])
        assert (ev["correct"], ev["failed"]) == (False, 1)
