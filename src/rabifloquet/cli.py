"""Command-line front end.

Subcommands:
  dynamics  -- P1(t) traces from direct integration, the analytic series,
               and the Floquet sum
  spectrum  -- oscillation-frequency combs versus drive amplitude
  chrw-map  -- number of xi self-consistency roots on an (omega, A) grid
  open      -- dissipative P1(t) from the lab-frame and reduced routes
  validate  -- run the built-in cross-validation suite

All closed-model quantities are dimensionless with omega0 = 1; the open
subcommand quotes rates relative to omega.  Output is CSV (default) or
JSON; identical configurations produce byte-identical files.

``build_parser`` is the only declaration of an option (name, type,
default, required).  A ``--config`` JSON file, given before or after the
subcommand, holds flag values keyed by option name; they are parsed as
flags placed right after the subcommand, so they meet the same checks and
explicit flags win.  JSON ``meta.config`` echoes the effective values,
defaults included.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from importlib import resources

import numpy as np

from . import __version__
from .chrw import chrw_coefficients, chrw_solution, chrw_solutions, p1_chrw, solution_count_map
from .errors import (
    AmbiguousSolutionError,
    MultiphotonResonanceError,
    NoSolutionError,
    RabiFloquetError,
)
from .floquet import DEFAULT_TRUNCATION, dynamic_base, make_comb, p1_direct, p1_floquet
from .gvv import gvv_effectives
from .model import DensityMatrix, DriveParams, PureState
from .open_system import DecayRates, evolve_gvv_lindblad, evolve_lab_lindblad
from .validation import run_all


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _json_cell(v):
    if v is None or isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    # false for nan; hi - lo + step is inf if any bound is
    if not (step > 0 and hi >= lo and math.isfinite(hi - lo + step)):
        raise argparse.ArgumentTypeError("need finite hi >= lo and step > 0")
    return lo, hi, step


def _checked(kind, ok, need: str):
    """An argparse type: ``kind(text)`` where ``ok`` holds it, else a usage error."""
    def parse(text: str):
        try:
            x = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(x):
            raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
        return x
    return parse


_finite = _checked(float, math.isfinite, "a finite number")
_positive = _checked(float, lambda x: math.isfinite(x) and x > 0, "a finite number > 0")
_count = _checked(int, lambda n: n >= 2, "an integer >= 2")


def _range_axis(rng: tuple[float, float, float]) -> np.ndarray:
    lo, hi, step = rng
    n = int(math.floor((hi - lo) / step + 0.5)) + 1
    return lo + step * np.arange(n)


def _write_output(args: argparse.Namespace, columns: dict, warnings: list[str]) -> None:
    """Write the column table as CSV or JSON, plus a warnings sidecar."""
    if args.format == "json":
        echo = {k: v for k, v in vars(args).items()
                if k not in ("func", "out", "format") and v is not None}
        doc = {
            "meta": {"version": __version__, "config": echo, "warnings": warnings},
            "data": {name: [_json_cell(v) for v in values]
                     for name, values in columns.items()},
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        names = list(columns)
        n_rows = len(next(iter(columns.values()))) if columns else 0
        lines = [",".join(names)]
        for i in range(n_rows):
            lines.append(",".join(
                _fmt(columns[name][i]) if not isinstance(columns[name][i], str)
                else columns[name][i] for name in names))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if warnings and args.format != "json":
            with open(args.out + ".warnings", "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(warnings) + "\n")
    else:
        sys.stdout.write(text)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)


def _time_grid(period: float, periods: float, samples: int) -> np.ndarray:
    return np.linspace(0.0, periods * period, samples)


def _cmd_dynamics(args: argparse.Namespace) -> int:
    p = DriveParams(omega0=1.0, A=args.amp, omega=args.omega)
    t = _time_grid(p.period, args.periods, args.samples)

    numeric = p1_direct(p, t)
    floquet = p1_floquet(p, args.truncation, t)
    warnings: list[str] = []
    chrw_col = [None] * len(t)
    try:
        sol = chrw_solution(p)
        chrw_col = list(p1_chrw(sol, chrw_coefficients(sol, p), t).p1)
    except (NoSolutionError, AmbiguousSolutionError) as exc:
        warnings.append(f"analytic series unavailable: {exc}")
    _write_output(args, {
        "t": list(t),
        "p1_numeric": list(numeric.p1),
        "p1_chrw": chrw_col,
        "p1_floquet": list(floquet.p1),
    }, warnings)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    omega, n_max = args.omega, args.nmax
    cols = {"A_over_omega0": [], "line_frequency": [], "label": [], "source": []}
    warnings: list[str] = []

    def emit(amp, comb, source):
        for freq, label in comb.lines:
            cols["A_over_omega0"].append(float(amp))
            cols["line_frequency"].append(float(freq))
            cols["label"].append(label)
            cols["source"].append(source)

    amps = _range_axis(args.amp_range)
    effs, sols = gvv_effectives(omega, amps, args.ksum), chrw_solutions(omega, amps)
    for amp, eff, sol in zip(amps, effs, sols):
        p = DriveParams(omega0=1.0, A=float(amp), omega=omega)
        emit(amp, make_comb(dynamic_base(p, args.truncation), omega, n_max), "numeric")
        if isinstance(eff, MultiphotonResonanceError):
            warnings.append(f"A={amp:g}: gvv unavailable: {eff}")
        else:
            emit(amp, make_comb(eff.Omega, omega, n_max), "gvv")
            emit(amp, make_comb(eff.Omega_grwa, omega, n_max), "grwa")
        if isinstance(sol, (NoSolutionError, AmbiguousSolutionError)):
            warnings.append(f"A={amp:g}: analytic series unavailable: {sol}")
        else:
            emit(amp, make_comb(sol.Omega_tilde, omega, n_max), "chrw")
    _write_output(args, cols, warnings)
    return 0


def _cmd_chrw_map(args: argparse.Namespace) -> int:
    grid = solution_count_map(_range_axis(args.omega_range), _range_axis(args.amp_range))
    n_amp, n_omega = grid.counts.shape
    _write_output(args, {
        "omega_over_omega0": np.tile(grid.omega_axis, n_amp),
        "A_over_omega0": np.repeat(grid.A_axis, n_omega),
        "count": grid.counts.ravel(),
    }, [])
    return 0


def _cmd_open(args: argparse.Namespace) -> int:
    omega = args.omega
    p = DriveParams(omega0=1.0, A=args.amp, omega=omega)
    d = DecayRates(Gamma_10=args.gamma10 * omega, gamma_11=args.gamma11 * omega,
                   Gamma_01=args.gamma01 * omega, gamma_00=args.gamma00 * omega)
    t = _time_grid(p.period, args.periods, args.samples)
    lab = evolve_lab_lindblad(p, d, DensityMatrix.from_pure(PureState.ground()), t)
    warnings: list[str] = []
    try:
        red_col = list(evolve_gvv_lindblad(p, d, t, K=args.ksum).p1)
    except MultiphotonResonanceError as exc:
        red_col = [None] * len(t)
        warnings.append(f"gvv unavailable: {exc}")
    _write_output(args, {
        "t": list(t),
        "p1_lab_lindblad": list(lab.p1),
        "p1_gvv_lindblad": red_col,
    }, warnings)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    results = run_all()
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 1


def output_schema() -> dict:
    """The JSON output schema shipped with the package."""
    text = resources.files("rabifloquet").joinpath("schemas/output_schema.json").read_text()
    return json.loads(text)


def _config_option() -> argparse.ArgumentParser:
    """The --config option: every subcommand inherits it, and main reads it first."""
    opt = argparse.ArgumentParser(prog="rabifloquet", add_help=False)
    opt.add_argument("--config", help="JSON object of flag values keyed by option name "
                                      "(amp_range for --amp-range); command-line flags win")
    return opt


def build_parser() -> argparse.ArgumentParser:
    """The one declaration of every option: name, type, default and required."""
    config = [_config_option()]
    parser = argparse.ArgumentParser(
        prog="rabifloquet",
        description="Floquet dynamics of the driven two-level system",
        parents=config,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def subcommand(name, func, help):
        sp = sub.add_parser(name, parents=config, help=help)
        sp.set_defaults(func=func)
        sp.add_argument("--out", help="output file (default: standard output)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default %(default)s)")
        return sp

    sp = subcommand("dynamics", _cmd_dynamics, "P1(t) traces from three closed-model routes")
    sp.add_argument("--omega", type=_finite, required=True, help="drive frequency omega/omega0")
    sp.add_argument("--amp", type=_finite, required=True, help="drive amplitude A/omega0")
    sp.add_argument("--periods", type=_positive, required=True, help="time span in drive periods")
    sp.add_argument("--samples", type=_count, default=800,
                    help="number of time samples (default %(default)s)")
    sp.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION,
                    help="Floquet truncation N (default %(default)s)")

    sp = subcommand("spectrum", _cmd_spectrum, "frequency combs versus drive amplitude")
    sp.add_argument("--omega", type=_finite, required=True, help="drive frequency omega/omega0")
    sp.add_argument("--amp-range", type=_parse_range, required=True, help="lo:hi:step")
    sp.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION,
                    help="Floquet truncation N (default %(default)s)")
    sp.add_argument("--ksum", type=int, help="perturbative sum cutoff (default auto)")
    sp.add_argument("--nmax", type=int, default=4,
                    help="number of comb replicas (default %(default)s)")

    sp = subcommand("chrw-map", _cmd_chrw_map, "xi solution-count grid")
    sp.add_argument("--omega-range", type=_parse_range, required=True, help="lo:hi:step")
    sp.add_argument("--amp-range", type=_parse_range, required=True, help="lo:hi:step")

    sp = subcommand("open", _cmd_open, "dissipative dynamics, both routes")
    sp.add_argument("--omega", type=_finite, required=True, help="drive frequency omega/omega0")
    sp.add_argument("--amp", type=_finite, required=True, help="drive amplitude A/omega0")
    sp.add_argument("--gamma10", type=_finite, required=True, help="decay rate Gamma_10/omega")
    sp.add_argument("--gamma11", type=_finite, required=True, help="dephasing rate gamma_11/omega")
    sp.add_argument("--gamma01", type=_finite, default=0.0,
                    help="excitation rate Gamma_01/omega (default %(default)s)")
    sp.add_argument("--gamma00", type=_finite, default=0.0,
                    help="dephasing rate gamma_00/omega (default %(default)s)")
    sp.add_argument("--periods", type=_positive, required=True, help="time span in drive periods")
    sp.add_argument("--samples", type=_count, default=481,
                    help="number of time samples (default %(default)s)")
    sp.add_argument("--ksum", type=int, help="perturbative sum cutoff (default auto)")

    sub.add_parser("validate", help="run the built-in validation suite").set_defaults(
        func=_cmd_validate)
    return parser


def _splice_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with a --config file's values as flags right after the subcommand.

    Each key becomes ``--key=value`` (a list [lo, hi, step] becomes
    lo:hi:step; null leaves the option unset), so the subcommand's parser
    gives file values the flags' own type, range and required checks,
    and a flag on the command line, parsed later, wins.
    """
    known, argv = _config_option().parse_known_args(argv)
    if known.config is None:
        return argv
    try:
        with open(known.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {known.config}: {exc}")
    if not isinstance(cfg, dict):
        parser.error("config file must hold a JSON object")
    at = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), None)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if at is None or argv[at] not in sub.choices:
        return argv  # argparse reports the missing or unknown subcommand
    sp = sub.choices[argv[at]]
    flags = {a.dest: a.option_strings[0] for a in sp._actions
             if a.option_strings and a.dest not in ("help", "config")}
    unknown = set(cfg) - set(flags)
    if unknown:
        sp.error(f"unknown config keys: {sorted(unknown)}")
    tokens = [f"{flags[k]}={':'.join(map(str, v)) if isinstance(v, list) else v}"
              for k, v in cfg.items() if v is not None]
    return argv[:at + 1] + tokens + argv[at + 1:]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves a parser as it was, so one per process serves every call
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(_splice_config(parser, sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except RabiFloquetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
