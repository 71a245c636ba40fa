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
from dataclasses import asdict, replace

import numpy as np

from .equivalence import DEFAULT_TRUNCATION, compare_formalisms
from .errors import GuardViolation
from .presets import FIGURE_PRESETS, figure_spec, state_spec
from .states import DEFAULT_GRID, GridSpec, density_surface, psi_squeezed_number_evolved
from .observables import moments_closed, uncertainty_product

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4

# Each data-command setting once: (name, default, help).  A flag, and a
# config-file value, is parsed with the type of its default.
_SETTINGS = (
    ("n", 0, "quantum number"),
    ("x0", 0.0, "initial position displacement"),
    ("p0", 0.0, "initial momentum displacement"),
    ("r", 0.0, "squeeze magnitude (>= 0)"),
    ("phi", 0.0, "squeeze phase"),
    ("t0", DEFAULT_GRID.t_min, "start time"),
    ("t1", DEFAULT_GRID.t_max, "end time"),
    ("nt", DEFAULT_GRID.nt, "number of time samples"),
    ("xmin", DEFAULT_GRID.x_min, "left edge of the x window"),
    ("xmax", DEFAULT_GRID.x_max, "right edge of the x window"),
    ("nx", DEFAULT_GRID.nx, "number of x samples"),
    ("out", "-", "output path ('-' = stdout)"),
    ("format", "csv", "csv or json"),
)

_DEFAULTS = {name: default for name, default, _ in _SETTINGS}


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
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = type(_DEFAULTS[key])(text)
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
    for key in _DEFAULTS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if settings["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {settings['format']!r}")
    return settings


def _preset_index(raw):
    """The figure preset that a --preset value names."""
    try:
        index = int(raw)
    except ValueError:
        index = None
    if index not in FIGURE_PRESETS:
        raise ConfigError(f"--preset must be 1..4, got {raw!r}")
    return index


def _preset_values(args):
    """Caption parameters selected by --preset on the data commands."""
    return None if args.preset is None else FIGURE_PRESETS[_preset_index(args.preset)]


def _write_text(out, text):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_json(out, payload):
    _write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_table(settings, header, columns):
    """Write equal-length float columns as a CSV or JSON table.

    CSV values carry 17 significant digits, which round-trips double
    precision exactly.  A non-finite value anywhere is a guard violation
    naming its column, and nothing is written.
    """
    table = np.column_stack(columns)
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        raise GuardViolation(f"non-finite values in output column {header[int(np.argmin(finite))]!r}")
    if settings["format"] == "json":
        _write_json(settings["out"], {"header": header, "rows": table.tolist()})
    else:
        row = ",".join(["%.17g"] * len(header)) + "\n"
        text = ",".join(header) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())
        _write_text(settings["out"], text)
    return EXIT_OK


def _data_inputs(args, preset_values):
    """Settings plus the state and grid they describe, for a data command."""
    settings = _settings_from(args, preset_values)
    try:
        spec = state_spec(settings)
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
# The largest --N whose four long-double factor matrices, 64 (N+1)^2 bytes, fit in 1 GiB.
VERIFY_MAX_N = math.isqrt(2**30 // 64) - 1


def _cmd_verify(args):
    if args.N < 1:
        raise ConfigError(f"--N must be >= 1, got {args.N}")
    if args.N > VERIFY_MAX_N:
        raise ConfigError(f"--N must be <= {VERIFY_MAX_N} for its factor matrices to fit in 1 GiB, got {args.N}")
    indices = sorted(FIGURE_PRESETS) if args.preset == "all" else [_preset_index(args.preset)]
    reports = []
    for index in indices:
        spec = figure_spec(index)
        for n in VERIFY_ORDERS:
            for t in VERIFY_TIMES:
                tolerance = 1e-8 if t == 0.0 else 1e-7
                reports.append(
                    compare_formalisms(replace(spec, n=n), t, truncation=args.N, tolerance=tolerance)
                )
    _write_json(args.out, [asdict(r) for r in reports])
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def _add_common_flags(sub):
    for name, default, helptext in _SETTINGS:
        sub.add_argument(f"--{name}", type=type(default), help=helptext)
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
    p_verify.add_argument("--N", type=int, default=DEFAULT_TRUNCATION, help="Fock-space truncation")
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
        # numpy overflow shows up as a non-finite output value, which _emit_table names
        with np.errstate(all="ignore"):
            return args.run(args)
    except ConfigError as exc:
        print(f"squeezelab: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardViolation as exc:
        print(f"squeezelab: guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, ArithmeticError) as exc:
        print(f"squeezelab: numerical error: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
