#!/usr/bin/env python3
"""Benchmark of the four README CLI workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload dynamics --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20

The package is imported from ``src/`` next to this directory and driven
in-process through ``rabifloquet.cli.main`` with seeded arguments (see
``workloads.json`` and ``workloads.py``).  A run repeats rounds of one
invocation per slot of the workload for ``--seconds``; each invocation
is timed between two runs of a fixed reference kernel, so its seconds
can be rescaled to a fixed host speed.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of the first
round run again traced.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one benchmark process, one BLAS thread

import argparse
import contextlib
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "workloads.json").read_text())

sys.path.insert(0, str(HERE))
import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that are a ratio of two layer totals; every other
# per-layer metric is its layer total divided by the points traced.
RATIOS = {
    "numerics.evolve_ode.useful_ratio": ("numerics.evolve_ode.final_pass_evals", "numerics.evolve_ode.rhs_evals"),
    "chrw.unique_ratio": ("chrw.chrw_solution.unique", "chrw.chrw_solution.attempts"),
}


def load_cli():
    """Import ``rabifloquet.cli`` from this checkout's ``src/``, nowhere else."""
    if not (SRC / "rabifloquet" / "__init__.py").is_file():
        sys.exit(f"bench: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import rabifloquet
    import rabifloquet.cli

    if Path(rabifloquet.__file__).resolve().parent != SRC / "rabifloquet":
        sys.exit(f"bench: imported rabifloquet from {rabifloquet.__file__}, not {SRC}")
    return rabifloquet


def invoke(main, argv):
    """Run one CLI invocation; returns (exit code or None, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # any other exception fails the point; keep the traceback
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


_REF_H = np.array([[0.5, 0.3], [0.3, -0.5]], dtype=complex)
_REF_M = np.random.default_rng(0).random((120, 120))
_REF_M = _REF_M + _REF_M.T


# The reference kernel's median time on the 2-core x86 sandbox (Xeon,
# 2.1 GHz) the benchmark was defined on; one reference second is the
# time in which the host runs the kernel 1 / REF_NOMINAL_S times.
REF_NOMINAL_S = 0.020


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of work that never calls the package.

    Its three parts follow the workloads' own mix: pure-Python
    arithmetic, small complex matrix products in a Python loop, and a
    dense symmetric eigendecomposition.  Timed next to every invocation,
    it measures how fast the shared host runs the benchmark just then.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(60000):
        acc += (i % 7) * 0.5
    y = np.array([1.0, 0.0], dtype=complex)
    for _ in range(1500):
        y = y + 1e-4 * (-1j * (_REF_H @ y))
    for _ in range(4):
        np.linalg.eigh(_REF_M)
    return time.perf_counter() - start


def timed_rounds(main, rounds, seconds: float, between=lambda share: None):
    """Run rounds of operations until their run time reaches ``seconds``.

    Returns (op, invoke result, reference seconds) triples, the last
    being the mean of the reference kernel's times just before and just
    after the invocation.  The first round always runs whole, and the
    operation running at the deadline is finished so its output can be
    gated.  ``between`` is called after each operation, outside the
    timed span, with the share of ``seconds`` used so far.
    """
    results, spent, refs = [], 0.0, [reference_kernel()]
    for round_no, ops in enumerate(rounds):
        for op in ops:
            if spent >= seconds and round_no:
                return results
            res = invoke(main, op.argv)
            refs.append(reference_kernel())
            results.append((op, res, 0.5 * (refs[-2] + refs[-1])))
            spent += res[3]
            between(min(spent / seconds, 1.0))
    return results


def measure_setup(warmup_argv, repeats: int) -> list[float]:
    """Wall times of fresh processes that import the package and warm its routes."""
    code = (
        "import sys, io, contextlib\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from rabifloquet.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    rc = main({warmup_argv!r})\n"
        "sys.exit(rc)\n"
    )
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # A blocking wait with a kill guard: Popen.wait(timeout) polls
        # every 50 ms, which would round every time up to that grain.
        guard = threading.Timer(120, proc.kill)
        guard.start()
        rc = proc.wait()
        times.append(time.perf_counter() - start)
        guard.cancel()
        if rc != 0:
            raise subprocess.CalledProcessError(rc, "set-up probe")
    return times


def run_edges(main, name, spec, seed):
    edges = workloads.edge_operations(name, spec, seed)
    results = [(op, invoke(main, op.argv)) for op in edges]
    lines = []
    for op, (rc, _, err, _) in results:
        last = (err.strip().splitlines() or [""])[-1]
        lines.append(f"edge probe {' '.join(op.argv)}: exit {rc} {last}".rstrip())
    attempted, failed = workloads.tally(
        (rc, op.points, 0) for op, (rc, *_rest) in results)
    return attempted, failed, lines


def per_layer_metrics(totals, points: int, measured: dict) -> dict:
    metrics = {}
    for entry in BENCHMARK["per_layer"]:
        name = entry["name"]
        if name in measured:
            value = measured[name]
        elif name in RATIOS:
            num, den = (totals.get(key, 0.0) for key in RATIOS[name])
            value = num / den if den else 0.0
        else:
            value = totals.get(name, 0.0) / points
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def baseline_lines(totals) -> list[str]:
    lines = ["per-call layer times against the ROADMAP Baseline (inclusive time per call); "
             + SPEC["baseline"]["note"]]
    for layer, base in SPEC["baseline"].items():
        if layer == "note":
            continue
        calls = totals.get(layer + ".calls", 0.0)
        if not calls:
            lines.append(f"  {layer:34s} not called in this workload (Baseline {base['value']} {base['unit']})")
            continue
        scale = 1e3 if base["unit"] == "ms" else 1.0
        value = totals[layer + ".incl_s"] / calls * scale
        lines.append(f"  {layer:34s} {value:10.4g} {base['unit']}/call over {int(calls)} calls; "
                     f"Baseline {base['value']} {base['unit']} ({base['inputs']}); ratio {value / base['value']:.2f}")
    return lines


def traced_rerun(package, ops):
    """Run ``ops`` again with every traced layer wrapped; the point id is the op index."""
    tracer = tracing.Tracer()
    main = package.cli.main
    traced = []
    tracer.install(package)
    try:
        for i, op in enumerate(ops):
            tracer.point = i
            res = invoke(lambda argv: tracer.span("cli.main", main, argv), op.argv)
            tracer.counts["cli.bytes_out"] += len(res[1].encode())
            traced.append((op, res))
    finally:
        tracer.uninstall()
    return tracer, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = SPEC["workloads"][name]
    package = load_cli()
    main = package.cli.main
    rounds = (workloads.operations(name, spec, seed, r) for r in itertools.count())
    # Set-up is sampled before, between and after the timed points, a
    # quarter, a half and a quarter of the repeats, so one slow stretch
    # of the machine does not decide the median.
    repeats = 0 if trace else SPEC["setup_repeats"]
    setup_times = []

    def sample_setup(share: float) -> None:
        setup_times.extend(measure_setup(spec["warmup"], round(share * repeats) - len(setup_times)))

    sample_setup(0.25)
    rc, _, err, _ = invoke(main, spec["warmup"])  # load lazily imported modules
    if rc != 0:
        sys.exit(f"bench: warm-up invocation failed: {err.strip()}")

    timed = timed_rounds(main, rounds, seconds, between=lambda share: sample_setup(0.25 + 0.5 * share))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sample_setup(1.0)
    results = [(op, res) for op, res, _ in timed]
    first_round = results[:spec["slots"]]

    if trace:  # per-layer figures come from the first round, run again traced
        tracer, traced = traced_rerun(package, [op for op, _ in first_round])

    recount = workloads.make_recount(spec["recount"]["scan_points"]) if name == "chrw-map" else None
    ev = workloads.evaluate(name, results, recount)
    if trace:
        ev_traced = workloads.evaluate(name, traced, recount)
        ev["correct"] &= ev_traced["correct"]
        ev["problems"] += [f"traced: {p}" for p in ev_traced["problems"]]
    edge_att, edge_failed, edge_lines = run_edges(main, name, spec, seed)

    points = sum(op.points for op, _ in results)
    print(f"workload {name} seed {seed}: {len(results)} invocations in rounds of {spec['slots']}, "
          f"{points} points, {sum(res[3] for _, res in results):.3f} s")
    for slot in range(spec["slots"]):
        times = [res[3] for op, res in results if op.slot == slot]
        print(f"  slot {slot}: seconds per invocation " + " ".join(f"{t:.3g}" for t in times)
              + f" (median {statistics.median(times):.3g})")
    for line in ev["problems"][:20]:
        print(f"  problem: {line}")
    for key, vals in sorted(ev["values"].items()):
        print(f"  {key} (reported, not gated): median {statistics.median(vals):.3g}, "
              f"max {max(vals):.3g} over {len(vals)} points")
    for line in edge_lines:
        print(f"  {line}")
    print(f"  failed_ratio {ev['failed']}/{ev['attempted']} = {ev['failed'] / ev['attempted']:.4g} "
          f"(timed points); edge probes {edge_failed}/{edge_att} failed")

    if trace:
        totals = tracing.layer_totals(tracer)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{name}-seed{seed}.jsonl")
        for line in baseline_lines(totals):
            print(line)
        traced_s = sum(res[3] for _, res in traced)
        # the untraced round time from each slot's median, since the first
        # round alone is one sample of a noisy host
        untraced_s = sum(statistics.median(res[3] for op, res in results if op.slot == slot)
                         for slot in range(spec["slots"]))
        metrics = per_layer_metrics(totals, sum(op.points for op, _ in first_round), {
            "trace.overhead_ratio": traced_s / untraced_s,
            "edge.failed_ratio": edge_failed / edge_att if edge_att else 0.0,
        })
        attempted, failed = ev_traced["attempted"], ev_traced["failed"]
    else:
        # Each invocation's seconds in reference seconds: rescaled to the
        # host speed at which the reference kernel takes REF_NOMINAL_S.
        runs = [(op.slot, op.points, passed, res[3] * REF_NOMINAL_S / ref)
                for (op, res, ref), passed in zip(timed, ev["passed"])]
        wall_runs = [(op.slot, op.points, passed, res[3]) for (op, res, _), passed in zip(timed, ev["passed"])]
        refs = [ref for *_, ref in timed]
        print(f"  reference kernel: median {statistics.median(refs) * 1e3:.3g} ms, range "
              f"{min(refs) * 1e3:.3g}-{max(refs) * 1e3:.3g} ms over {len(refs)} invocations "
              f"(nominal {REF_NOMINAL_S * 1e3:g} ms)")
        print(f"  wall-clock points_per_s (not normalised) = {workloads.slot_rate(wall_runs):.6g} points/s")
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "points_per_ref_s": {"value": workloads.slot_rate(runs), "unit": "points/ref-s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        attempted, failed = ev["attempted"], ev["failed"]
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    return {"correct": ev["correct"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    rows, edge, ok = [], {}, True
    for name in SPEC["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stdout.write(proc.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            if trace:
                edge[name] = result["metrics"]["edge.failed_ratio"]["value"]
            else:
                rows.append((name, result))
    print(f"\nsummary, seed {seed}, {seconds} s per run (gates applied: correct = all gates passed)")
    for name, r in rows:
        m = r["metrics"]
        print(f"  {name:9s} points {r['attempted']:6d}  failed_ratio {r['failed'] / r['attempted']:.4f}  "
              f"edge probes failed_ratio {edge.get(name, float('nan')):.4f}  "
              f"setup_s {m['setup_s']['value']:.4f} s  points_per_ref_s {m['points_per_ref_s']['value']:.5g} points/ref-s  "
              f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB  correct {r['correct']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPEC["workloads"]))
    parser.add_argument("--all", action="store_true", help="run every workload and print a summary")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if not args.workload:
        parser.error("--workload or --all is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
