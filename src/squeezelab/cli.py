"""Command-line front end.

Subcommands
    state        wavefunction Psi(x, t0) on the x grid
    density      probability-density surface rho(t, x) on the full grid
    moments      closed-form moments along the t grid
    uncertainty  uncertainty product along the t grid
    verify       cross-formalism verification sweep (JSON reports)
    figure K     density surface for built-in preset K (1..4)

The data commands (state, density, moments, uncertainty, figure) resolve
their settings as command-line flags > config file (--config, flat
key=value lines) > built-in preset; verify takes only --preset, --N and
--out.

Exit codes: 0 success, 2 configuration error, 3 numerical guard
violation or other numerical error, 4 verification failure.
"""

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .equivalence import compare_formalisms
from .errors import GuardViolation
from .parameters import make_displacement, make_squeeze
from .presets import FIGURE_PRESETS, figure_spec
from .states import GridSpec, StateSpec, density_surface, psi_squeezed_number_evolved
from .observables import moments_closed, uncertainty_product

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4

_DEFAULTS = {
    "n": 0,
    "x0": 0.0,
    "p0": 0.0,
    "r": 0.0,
    "phi": 0.0,
    "t0": 0.0,
    "t1": 2.0 * math.pi,
    "nt": 129,
    "xmin": -16.0,
    "xmax": 16.0,
    "nx": 801,
    "out": "-",
    "format": "csv",
}

_TYPES = {key: type(value) for key, value in _DEFAULTS.items()}


class ConfigError(Exception):
    pass


def _parse_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _TYPES[key](text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {text!r}") from exc
    return values


def _settings_from(args, preset_values=None):
    """Apply precedence: defaults < preset < config file < explicit flags."""
    settings = dict(_DEFAULTS)
    if preset_values:
        settings.update(preset_values)
    if args.config:
        settings.update(_parse_config_file(args.config))
    for key in _TYPES:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if settings["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {settings['format']!r}")
    return settings


def _preset_values(args):
    """Caption parameters selected by --preset on the data commands."""
    raw = getattr(args, "preset", None)
    if raw is None:
        return None
    try:
        index = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"--preset must be an integer 1..4, got {raw!r}")
    if index not in FIGURE_PRESETS:
        raise ConfigError(f"--preset must be 1..4, got {index}")
    return FIGURE_PRESETS[index]


def _write_text(out, text):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_table(settings, header, columns):
    """Write equal-length float columns as a CSV or JSON table.

    CSV values carry 17 significant digits, which round-trips double
    precision exactly.
    """
    table = np.column_stack(columns)
    if settings["format"] == "json":
        payload = {"header": header, "rows": table.tolist()}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        row = ",".join(["%.17g"] * len(header)) + "\n"
        text = ",".join(header) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())
    _write_text(settings["out"], text)
    return EXIT_OK


def _data_inputs(args, preset_values):
    """Settings plus the state and grid they describe, for a data command."""
    settings = _settings_from(args, preset_values)
    try:
        spec = StateSpec(
            n=settings["n"],
            disp=make_displacement(settings["x0"], settings["p0"]),
            sq=make_squeeze(settings["r"], settings["phi"]),
        )
        grid = GridSpec(
            x_min=settings["xmin"],
            x_max=settings["xmax"],
            nx=settings["nx"],
            t_min=settings["t0"],
            t_max=settings["t1"],
            nt=settings["nt"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return settings, spec, grid


def _cmd_state(args):
    settings, spec, grid = _data_inputs(args, _preset_values(args))
    xs = grid.x_values()
    values = psi_squeezed_number_evolved(spec, xs, settings["t0"])
    return _emit_table(settings, ["x", "re", "im"], (xs, values.real, values.imag))


def _emit_surface(settings, spec, grid):
    surface = density_surface(spec, grid)
    ts, xs = np.meshgrid(grid.t_values(), grid.x_values(), indexing="ij")
    return _emit_table(settings, ["t", "x", "rho"], (ts.ravel(), xs.ravel(), surface.ravel()))


def _cmd_density(args):
    return _emit_surface(*_data_inputs(args, _preset_values(args)))


def _cmd_figure(args):
    settings, spec, grid = _data_inputs(args, dict(FIGURE_PRESETS[args.index], out=None))
    if settings["out"] is None:
        settings["out"] = f"figure{args.index}.{settings['format']}"
    return _emit_surface(settings, spec, grid)


def _cmd_moments(args):
    settings, spec, grid = _data_inputs(args, _preset_values(args))
    ts = grid.t_values()
    moments = [moments_closed(spec, t) for t in ts]
    values = [(m.mean_x, m.mean_p, m.var_x, m.var_p, m.product) for m in moments]
    return _emit_table(settings, ["t", "mean_x", "mean_p", "var_x", "var_p", "product"], (ts, values))


def _cmd_uncertainty(args):
    settings, spec, grid = _data_inputs(args, _preset_values(args))
    ts = grid.t_values()
    values = [uncertainty_product(spec.n, spec.sq, t) for t in ts]
    return _emit_table(settings, ["t", "product"], (ts, values))


VERIFY_TIMES = (0.0, math.pi / 4.0, math.pi / 2.0)
VERIFY_ORDERS = (0, 1, 2, 3)


def _cmd_verify(args):
    if args.preset == "all":
        indices = sorted(FIGURE_PRESETS)
    else:
        try:
            indices = [int(args.preset)]
        except ValueError:
            raise ConfigError(f"--preset must be 1..4 or 'all', got {args.preset!r}")
        if indices[0] not in FIGURE_PRESETS:
            raise ConfigError(f"--preset must be 1..4 or 'all', got {args.preset!r}")
    reports = []
    for index in indices:
        spec = figure_spec(index)
        for n in VERIFY_ORDERS:
            for t in VERIFY_TIMES:
                tolerance = 1e-8 if t == 0.0 else 1e-7
                reports.append(
                    compare_formalisms(replace(spec, n=n), t, truncation=args.N, tolerance=tolerance)
                )
    text = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
    _write_text(args.out, text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def _add_common_flags(sub):
    sub.add_argument("--n", type=int, help="quantum number")
    sub.add_argument("--x0", type=float, help="initial position displacement")
    sub.add_argument("--p0", type=float, help="initial momentum displacement")
    sub.add_argument("--r", type=float, help="squeeze magnitude (>= 0)")
    sub.add_argument("--phi", type=float, help="squeeze phase")
    sub.add_argument("--t0", type=float, help="start time")
    sub.add_argument("--t1", type=float, help="end time")
    sub.add_argument("--nt", type=int, help="number of time samples")
    sub.add_argument("--xmin", type=float, help="left edge of the x window")
    sub.add_argument("--xmax", type=float, help="right edge of the x window")
    sub.add_argument("--nx", type=int, help="number of x samples")
    sub.add_argument("--out", type=str, help="output path ('-' = stdout)")
    sub.add_argument("--format", type=str, help="csv or json")
    sub.add_argument("--config", type=str, help="key=value configuration file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="squeezelab",
        description="Displaced and squeezed number states: wavefunctions, densities, "
        "moments and cross-formalism verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, command, helptext in [
        ("state", _cmd_state, "evaluate the wavefunction at time t0 on the x grid"),
        ("density", _cmd_density, "evaluate the probability-density surface on the (t, x) grid"),
        ("moments", _cmd_moments, "closed-form moments along the time grid"),
        ("uncertainty", _cmd_uncertainty, "uncertainty product along the time grid"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(run=command)
        _add_common_flags(p)
        p.add_argument("--preset", type=str, help="load caption parameters of preset 1..4")

    p_verify = sub.add_parser("verify", help="run the cross-formalism verification sweep")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--N", type=int, default=256, help="Fock-space truncation")
    p_verify.add_argument("--out", type=str, default="-", help="output path ('-' = stdout)")
    p_verify.add_argument("--preset", type=str, default="all", help="preset index 1..4 or 'all'")

    p_fig = sub.add_parser("figure", help="density surface for a built-in preset")
    p_fig.set_defaults(run=_cmd_figure)
    p_fig.add_argument("index", type=int, choices=sorted(FIGURE_PRESETS), help="preset index")
    _add_common_flags(p_fig)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"squeezelab: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardViolation as exc:
        print(f"squeezelab: guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"squeezelab: numerical error: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
