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
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources

import numpy as np

from . import __version__
from .chrw import chrw_coefficients, chrw_solution, p1_chrw, solution_count_map
from .errors import (
    AmbiguousSolutionError,
    MultiphotonResonanceError,
    NoSolutionError,
    RabiFloquetError,
)
from .floquet import dynamic_base, make_comb, p1_direct, p1_floquet
from .gvv import gvv_effective
from .model import DensityMatrix, DriveParams, PureState
from .open_system import DecayRates, evolve_gvv_lindblad, evolve_lab_lindblad
from .validation import run_all

# Keys accepted from a JSON config file, per subcommand.
_CONFIG_KEYS = {
    "dynamics": {"omega", "amp", "periods", "samples", "truncation", "out", "format"},
    "spectrum": {"omega", "amp_range", "truncation", "ksum", "nmax", "out", "format"},
    "chrw-map": {"omega_range", "amp_range", "out", "format"},
    "open": {"omega", "amp", "gamma10", "gamma11", "gamma01", "gamma00",
             "periods", "samples", "ksum", "out", "format"},
    "validate": set(),
}


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
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError("need hi >= lo and step > 0")
    return lo, hi, step


def _range_axis(rng: tuple[float, float, float]) -> np.ndarray:
    lo, hi, step = rng
    n = int(math.floor((hi - lo) / step + 0.5)) + 1
    return lo + step * np.arange(n)


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """File values as the base layer, explicit flags on top."""
    cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
        if not isinstance(cfg, dict):
            parser.error("config file must hold a JSON object")
        allowed = _CONFIG_KEYS[args.subcommand]
        unknown = set(cfg) - allowed
        if unknown:
            parser.error(f"unknown config keys for {args.subcommand}: {sorted(unknown)}")
    merged = dict(cfg)
    for key, value in vars(args).items():
        if key in ("config", "subcommand", "func"):
            continue
        if value is not None:
            merged[key] = value
    return merged


def _require(cfg: dict, key: str, parser, cast=float):
    if key not in cfg or cfg[key] is None:
        parser.error(f"missing required option --{key.replace('_', '-')}")
    try:
        return cast(cfg[key])
    except (TypeError, ValueError) as exc:
        parser.error(f"bad value for {key}: {exc}")


def _write_output(cfg: dict, columns: dict, warnings: list[str]) -> None:
    """Write the column table as CSV or JSON, plus a warnings sidecar."""
    fmt = cfg.get("format", "csv")
    out = cfg.get("out")
    if fmt == "json":
        echo = {k: v for k, v in cfg.items() if k not in ("out", "format") and v is not None}
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
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if warnings and fmt != "json":
            with open(str(out) + ".warnings", "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(warnings) + "\n")
    else:
        sys.stdout.write(text)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)


def _time_grid(period: float, periods: float, samples: int) -> np.ndarray:
    return np.linspace(0.0, periods * period, samples)


def _cmd_dynamics(cfg: dict, parser) -> int:
    omega = _require(cfg, "omega", parser)
    amp = _require(cfg, "amp", parser)
    periods = _require(cfg, "periods", parser)
    samples = int(cfg.get("samples", 800))
    trunc = int(cfg.get("truncation", 30))
    p = DriveParams(omega0=1.0, A=amp, omega=omega)
    t = _time_grid(p.period, periods, samples)

    numeric = p1_direct(p, t)
    floquet = p1_floquet(p, trunc, t)
    warnings: list[str] = []
    chrw_col = [None] * len(t)
    try:
        sol = chrw_solution(p)
        chrw_col = list(p1_chrw(sol, chrw_coefficients(sol, p), t).p1)
    except (NoSolutionError, AmbiguousSolutionError) as exc:
        warnings.append(f"analytic series unavailable: {exc}")
    _write_output(cfg, {
        "t": list(t),
        "p1_numeric": list(numeric.p1),
        "p1_chrw": chrw_col,
        "p1_floquet": list(floquet.p1),
    }, warnings)
    return 0


def _cmd_spectrum(cfg: dict, parser) -> int:
    omega = _require(cfg, "omega", parser)
    rng = cfg.get("amp_range")
    if rng is None:
        parser.error("missing required option --amp-range")
    if isinstance(rng, str):
        rng = _parse_range(rng)
    amps = _range_axis(tuple(float(v) for v in rng))
    trunc = int(cfg.get("truncation", 30))
    ksum = cfg.get("ksum")
    n_max = int(cfg.get("nmax", 4))

    cols = {"A_over_omega0": [], "line_frequency": [], "label": [], "source": []}
    warnings: list[str] = []

    def emit(amp, comb, source):
        for freq, label in comb.lines:
            cols["A_over_omega0"].append(float(amp))
            cols["line_frequency"].append(float(freq))
            cols["label"].append(label)
            cols["source"].append(source)

    for amp in amps:
        p = DriveParams(omega0=1.0, A=float(amp), omega=omega)
        emit(amp, make_comb(dynamic_base(p, trunc), omega, n_max), "numeric")
        try:
            eff = gvv_effective(p, None if ksum is None else int(ksum))
        except MultiphotonResonanceError as exc:
            warnings.append(f"A={amp:g}: gvv unavailable: {exc}")
        else:
            emit(amp, make_comb(eff.Omega, omega, n_max), "gvv")
            emit(amp, make_comb(eff.Omega_grwa, omega, n_max), "grwa")
        try:
            sol = chrw_solution(p)
            emit(amp, make_comb(sol.Omega_tilde, omega, n_max), "chrw")
        except (NoSolutionError, AmbiguousSolutionError) as exc:
            warnings.append(f"A={amp:g}: analytic series unavailable: {exc}")
    _write_output(cfg, cols, warnings)
    return 0


def _cmd_chrw_map(cfg: dict, parser) -> int:
    orng = cfg.get("omega_range")
    arng = cfg.get("amp_range")
    if orng is None or arng is None:
        parser.error("chrw-map needs --omega-range and --amp-range")
    if isinstance(orng, str):
        orng = _parse_range(orng)
    if isinstance(arng, str):
        arng = _parse_range(arng)
    omega_axis = _range_axis(tuple(float(v) for v in orng))
    amp_axis = _range_axis(tuple(float(v) for v in arng))
    grid = solution_count_map(omega_axis, amp_axis)
    cols = {"omega_over_omega0": [], "A_over_omega0": [], "count": []}
    for i, amp in enumerate(grid.A_axis):
        for j, omega in enumerate(grid.omega_axis):
            cols["omega_over_omega0"].append(float(omega))
            cols["A_over_omega0"].append(float(amp))
            cols["count"].append(int(grid.counts[i, j]))
    _write_output(cfg, cols, [])
    return 0


def _cmd_open(cfg: dict, parser) -> int:
    omega = _require(cfg, "omega", parser)
    amp = _require(cfg, "amp", parser)
    g10 = _require(cfg, "gamma10", parser)
    g11 = _require(cfg, "gamma11", parser)
    periods = _require(cfg, "periods", parser)
    g01 = float(cfg.get("gamma01", 0.0))
    g00 = float(cfg.get("gamma00", 0.0))
    samples = int(cfg.get("samples", 481))
    ksum = cfg.get("ksum")

    p = DriveParams(omega0=1.0, A=amp, omega=omega)
    d = DecayRates(Gamma_10=g10 * omega, gamma_11=g11 * omega,
                   Gamma_01=g01 * omega, gamma_00=g00 * omega)
    t = _time_grid(p.period, periods, samples)
    lab = evolve_lab_lindblad(p, d, DensityMatrix.from_pure(PureState.ground()), t)
    red = evolve_gvv_lindblad(p, d, t, K=None if ksum is None else int(ksum))
    _write_output(cfg, {
        "t": list(t),
        "p1_lab_lindblad": list(lab.p1),
        "p1_gvv_lindblad": list(red.p1),
    }, [])
    return 0


def _cmd_validate(cfg: dict, parser) -> int:
    results = run_all()
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 1


def output_schema() -> dict:
    """The JSON output schema shipped with the package."""
    text = resources.files("rabifloquet").joinpath("schemas/output_schema.json").read_text()
    return json.loads(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabifloquet",
        description="Floquet dynamics of the driven two-level system",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument("--out", help="output file (default: standard output)")
        sp.add_argument("--format", choices=("csv", "json"))

    sp = sub.add_parser("dynamics", help="P1(t) traces from three closed-model routes")
    common(sp)
    sp.add_argument("--omega", type=float, help="drive frequency omega/omega0")
    sp.add_argument("--amp", type=float, help="drive amplitude A/omega0")
    sp.add_argument("--periods", type=float, help="time span in drive periods")
    sp.add_argument("--samples", type=int, help="number of time samples (default 800)")
    sp.add_argument("--truncation", type=int, help="Floquet truncation N (default 30)")
    sp.set_defaults(func=_cmd_dynamics)

    sp = sub.add_parser("spectrum", help="frequency combs versus drive amplitude")
    common(sp)
    sp.add_argument("--omega", type=float, help="drive frequency omega/omega0")
    sp.add_argument("--amp-range", dest="amp_range", type=_parse_range, help="lo:hi:step")
    sp.add_argument("--truncation", type=int, help="Floquet truncation N (default 30)")
    sp.add_argument("--ksum", type=int, help="perturbative sum cutoff (default auto)")
    sp.add_argument("--nmax", type=int, help="number of comb replicas (default 4)")
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("chrw-map", help="xi solution-count grid")
    common(sp)
    sp.add_argument("--omega-range", dest="omega_range", type=_parse_range, help="lo:hi:step")
    sp.add_argument("--amp-range", dest="amp_range", type=_parse_range, help="lo:hi:step")
    sp.set_defaults(func=_cmd_chrw_map)

    sp = sub.add_parser("open", help="dissipative dynamics, both routes")
    common(sp)
    sp.add_argument("--omega", type=float, help="drive frequency omega/omega0")
    sp.add_argument("--amp", type=float, help="drive amplitude A/omega0")
    sp.add_argument("--gamma10", type=float, help="decay rate Gamma_10/omega")
    sp.add_argument("--gamma11", type=float, help="dephasing rate gamma_11/omega")
    sp.add_argument("--gamma01", type=float, help="excitation rate Gamma_01/omega (default 0)")
    sp.add_argument("--gamma00", type=float, help="dephasing rate gamma_00/omega (default 0)")
    sp.add_argument("--periods", type=float, help="time span in drive periods")
    sp.add_argument("--samples", type=int, help="number of time samples (default 481)")
    sp.add_argument("--ksum", type=int, help="perturbative sum cutoff (default auto)")
    sp.set_defaults(func=_cmd_open)

    sp = sub.add_parser("validate", help="run the built-in validation suite")
    sp.set_defaults(func=_cmd_validate, config=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _merge_config(args, parser)
    cfg["subcommand"] = args.subcommand
    try:
        return args.func(cfg, parser)
    except RabiFloquetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
