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
key=value lines) > built-in preset.  Each takes a flag for just the
settings it reads, plus --config, and --preset except on figure.
_DATA_COMMANDS lists the settings each one reads.

Any other flag is a usage error.  A config file may hold any known key;
a command applies only the keys it reads.  state evaluates the single
instant t0.  verify takes only --preset, --N and --out.

Exit codes: 0 success, 2 configuration error or an --out that cannot be
written, 3 numerical guard violation or other numerical error, 4
verification failure.  --out is opened once the settings resolve and
before any work, so whatever open() refuses exits 2 at once with open()'s
own error.  An existing file keeps its bytes if the run fails; a new one
exists, empty, while the run works, and is removed if it fails.
"""

import argparse
import contextlib
import json
import math
import os
import re
import sys
from dataclasses import asdict, replace

import numpy as np

from .equivalence import DEFAULT_TRUNCATION, compare_formalisms
from .errors import GuardViolation
from .fock import check_truncation
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
    ("t0", DEFAULT_GRID.t_min, "time (state) or start of the time grid"),
    ("t1", DEFAULT_GRID.t_max, "end time"),
    ("nt", DEFAULT_GRID.nt, "number of time samples"),
    ("xmin", DEFAULT_GRID.x_min, "left edge of the x window"),
    ("xmax", DEFAULT_GRID.x_max, "right edge of the x window"),
    ("nx", DEFAULT_GRID.nx, "number of x samples"),
    ("out", "-", "output path ('-' = stdout)"),
    ("format", "csv", "csv or json"),
)

_DEFAULTS = {name: default for name, default, _ in _SETTINGS}

# argparse reads a negative value as a number only in the forms -12 and
# -1.5, and -1e5, -2E-3 or -inf as an option; main joins such a value to
# its float flag (or an abbreviation of it), as --flag=value.
_FLOAT_FLAGS = {f"--{name}" for name, default in _DEFAULTS.items() if isinstance(default, float)}

# The flag that sets each GridSpec field, so a grid error names the flag.
_GRID_FLAGS = {"x_min": "xmin", "x_max": "xmax", "nx": "nx", "t_min": "t0", "t_max": "t1", "nt": "nt"}
_GRID_FIELD = re.compile(r"\b(" + "|".join(_GRID_FLAGS) + r")\b")

class ConfigError(Exception):
    pass


class OutputError(Exception):
    pass


def _parse_config_file(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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


def _preset_index(raw):
    """The figure preset that a --preset value names."""
    try:
        index = int(raw)
    except ValueError:
        index = None
    if index not in FIGURE_PRESETS:
        raise ConfigError(f"--preset must be 1..4, got {raw!r}")
    return index


@contextlib.contextmanager
def _output(out):
    """The open --out ('-' = stdout) that a command's work runs inside.

    The file is opened before the work, so whatever open() refuses is
    refused before any work, with open()'s own error.  It is opened without
    O_TRUNC, so if the work raises, an existing file keeps its bytes; a file
    that this call created is removed.  _write reports what shows only
    while writing (a full disk, a closed pipe).
    """
    if out == "-":
        if sys.stdout is None:
            raise OutputError("cannot write --out -: stdout is closed")
        yield sys.stdout
        return
    created = not os.path.lexists(out)
    try:
        fh = open(out, "w", encoding="utf-8", newline="",
                  opener=lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666))
    except OSError as exc:
        raise OutputError(f"cannot write --out {out}: {exc}") from exc
    try:
        with fh:
            yield fh
    except BaseException:
        if created:
            os.remove(out)
        raise


def _write(out, fh, pieces):
    """Write text pieces to fh, the open --out, and cut a file's old tail; an OSError becomes an OutputError."""
    try:
        for piece in pieces:
            fh.write(piece)
        if out != "-" and os.path.isfile(out):
            fh.truncate()
        fh.flush()
    except OSError as exc:
        # closing a file, or interpreter exit for stdout, flushes the unwritten
        # bytes again: let that flush go nowhere, so this error is the one reported
        os.dup2(os.open(os.devnull, os.O_WRONLY), fh.fileno())
        raise OutputError(f"cannot write --out {out}: {exc}") from exc


# Rows formatted and written at a time, so the text held in memory does not
# grow with the table.
BLOCK_ROWS = 2**15


def _emit_table(settings, fh, header, columns):
    """Write float columns that broadcast together to fh as a CSV or JSON table.

    The table has one row per element of the broadcast shape, in C order.
    A column smaller than the table is an axis: each of its values is
    formatted once, and the strings are repeated.  Full-size columns are
    formatted by one `%` per block of BLOCK_ROWS rows.  CSV values carry 17
    significant digits, which round-trips double precision exactly.  JSON
    values are float repr, as json writes them, and the text is that of
    json.dumps({"header": ..., "rows": ...}, indent=2, sort_keys=True).  A
    non-finite value anywhere is a guard violation naming its column, and
    nothing is written.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    for name, column in zip(header, columns):
        if not np.isfinite(column).all():
            raise GuardViolation(f"non-finite values in output column {name!r}")
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    rows = math.prod(shape)
    number = "%r" if settings["format"] == "json" else "%.17g"
    cells, flat = [], []
    for column in columns:
        if column.size < rows:
            column = np.array([number % v for v in column.ravel().tolist()], dtype=object).reshape(column.shape)
        cells.append("%s" if column.dtype == object else number)
        flat.append(np.broadcast_to(column, shape).reshape(-1))
    if settings["format"] == "json":
        names = ",\n".join("    " + json.dumps(name) for name in header)
        head = '{\n  "header": [\n' + names + '\n  ],\n  "rows": [\n'
        row, sep, tail = "    [\n" + ",\n".join("      " + cell for cell in cells) + "\n    ]", ",\n", "\n  ]\n}\n"
    else:
        head, row, sep, tail = ",".join(header) + "\n", ",".join(cells), "\n", "\n"

    def blocks():
        yield head
        for start in range(0, rows, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, rows)
            block = np.empty((stop - start, len(flat)), dtype=object)
            for j, values in enumerate(flat):
                block[:, j] = values[start:stop]
            text = ((row + sep) * (stop - start)) % tuple(block.ravel().tolist())
            yield text if stop < rows else text[: -len(sep)] + tail

    _write(settings["out"], fh, blocks())
    return EXIT_OK


# The most rows an emitted table may have: 2 KiB of peak RSS per row fits
# 1 GiB.  The widest table, moments, peaks at 0.46 KiB a row in either format
# (236 MiB at this bound, 129 MiB of it the per-t Moments objects).
MAX_TABLE_ROWS = 2**30 // 2048


def _data_inputs(args, reads, preset_values):
    """Settings plus the state and grid they describe, for a data command.

    The settings that the command reads take, in rising precedence, their
    default, the preset, the config file and the explicit flags.  A grid
    axis that the command does not read keeps its default, except that
    state's time axis is the single instant t0.  A table of more than
    MAX_TABLE_ROWS rows is refused before any array is built.
    """
    given = dict(preset_values or {})
    if args.config:
        given.update(_parse_config_file(args.config))
    given.update((key, getattr(args, key)) for key in reads if getattr(args, key) is not None)
    settings = dict(_DEFAULTS, **{key: given[key] for key in reads if key in given})
    if settings["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {settings['format']!r}")
    if "nt" not in reads:
        settings.update(t1=settings["t0"], nt=1)
    try:
        spec = state_spec(settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        grid = GridSpec(**{field: settings[key] for field, key in _GRID_FLAGS.items()})
    except ValueError as exc:
        raise ConfigError(_GRID_FIELD.sub(lambda m: "--" + _GRID_FLAGS[m[1]], str(exc))) from exc
    sizes = [key for key in ("nt", "nx") if key in reads]
    rows = math.prod(settings[key] for key in sizes)
    if rows > MAX_TABLE_ROWS:
        flags = " x ".join(f"--{key} {settings[key]}" for key in sizes)
        raise ConfigError(f"{flags} asks for {rows} table rows; at most {MAX_TABLE_ROWS} fit in 1 GiB")
    return settings, spec, grid


# Table functions: (settings, spec, grid) -> (header, columns) for _emit_table.


def _state_table(settings, spec, grid):
    xs = grid.x_values()
    values = psi_squeezed_number_evolved(spec, xs, settings["t0"])
    return ["x", "re", "im"], (xs, values.real, values.imag)


def _density_table(settings, spec, grid):
    surface = density_surface(spec, grid)
    return ["t", "x", "rho"], (grid.t_values()[:, None], grid.x_values(), surface)


def _moments_table(settings, spec, grid):
    ts = grid.t_values()
    moments = [moments_closed(spec, t) for t in ts]
    names = ("mean_x", "mean_p", "var_x", "var_p", "product")
    columns = [[getattr(m, name) for m in moments] for name in names]
    return ["t", *names], (ts, *columns)


def _uncertainty_table(settings, spec, grid):
    ts = grid.t_values()
    values = [uncertainty_product(spec.n, spec.sq, t) for t in ts]
    return ["t", "product"], (ts, values)


# Each data command once: name -> (help, the settings it reads, table
# function).  It takes a flag for just these settings and applies just these
# keys of a preset or config file; the rest keep their defaults.
_DATA_COMMANDS = {
    "state": ("evaluate the wavefunction at time t0 on the x grid",
              ("n", "x0", "p0", "r", "phi", "t0", "xmin", "xmax", "nx", "out", "format"), _state_table),
    "density": ("evaluate the probability-density surface on the (t, x) grid", tuple(_DEFAULTS), _density_table),
    "moments": ("closed-form moments along the time grid",
                ("n", "x0", "p0", "r", "phi", "t0", "t1", "nt", "out", "format"), _moments_table),
    "uncertainty": ("uncertainty product along the time grid",
                    ("n", "r", "phi", "t0", "t1", "nt", "out", "format"), _uncertainty_table),
    "figure": ("density surface for a built-in preset", tuple(_DEFAULTS), _density_table),
}


def _cmd_data(args):
    """Resolve a data command's settings, open --out, and emit its row's table.

    figure K is preset K written to figureK.<format> unless --out or the
    config file names another output.
    """
    _, reads, table = _DATA_COMMANDS[args.command]
    if args.command == "figure":
        preset = dict(FIGURE_PRESETS[args.index], out=None)
    else:
        preset = None if args.preset is None else FIGURE_PRESETS[_preset_index(args.preset)]
    settings, spec, grid = _data_inputs(args, reads, preset)
    if settings["out"] is None:
        settings["out"] = f"figure{args.index}.{settings['format']}"
    with _output(settings["out"]) as fh:
        return _emit_table(settings, fh, *table(settings, spec, grid))


VERIFY_TIMES = (0.0, math.pi / 4.0, math.pi / 2.0)
VERIFY_ORDERS = (0, 1, 2, 3)


def _cmd_verify(args):
    try:
        check_truncation(args.N)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    indices = sorted(FIGURE_PRESETS) if args.preset == "all" else [_preset_index(args.preset)]
    with _output(args.out) as fh:
        reports = []
        for index in indices:
            spec = figure_spec(index)
            for n in VERIFY_ORDERS:
                for t in VERIFY_TIMES:
                    tolerance = 1e-8 if t == 0.0 else 1e-7
                    reports.append(
                        compare_formalisms(replace(spec, n=n), t, truncation=args.N, tolerance=tolerance)
                    )
        _write(args.out, fh, [json.dumps([asdict(r) for r in reports], indent=2, sort_keys=True) + "\n"])
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def build_parser():
    parser = argparse.ArgumentParser(
        prog="squeezelab",
        description="Displaced and squeezed number states: wavefunctions, densities, "
        "moments and cross-formalism verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, reads, _) in _DATA_COMMANDS.items():
        if name == "figure":  # the usage line lists verify before figure
            p_verify = sub.add_parser("verify", help="run the cross-formalism verification sweep")
            p_verify.add_argument("--N", type=int, default=DEFAULT_TRUNCATION, help="Fock-space truncation")
            p_verify.add_argument("--out", type=str, default="-", help="output path ('-' = stdout)")
            p_verify.add_argument("--preset", type=str, default="all", help="preset index 1..4 or 'all'")
        p = sub.add_parser(name, help=helptext)
        for setting, default, flaghelp in _SETTINGS:
            if setting in reads:
                p.add_argument(f"--{setting}", type=type(default), help=flaghelp)
        p.add_argument("--config", type=str, help="key=value configuration file")
        if name == "figure":
            p.add_argument("index", type=int, choices=sorted(FIGURE_PRESETS), help="preset index")
        else:
            p.add_argument("--preset", type=str, help="load caption parameters of preset 1..4")
    return parser


def _is_float_flag(token):
    """Whether token is a float flag, in full or abbreviated as argparse allows."""
    return len(token) > 2 and token.startswith("--") and any(name.startswith(token) for name in _FLOAT_FLAGS)


def _is_negative_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-")


def _joined_float_values(argv):
    """argv with each `--flag VALUE` of a float flag and a negative VALUE as `--flag=VALUE`."""
    joined = []
    for token in argv:
        if joined and _is_float_flag(joined[-1]) and _is_negative_number(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_float_values(sys.argv[1:] if argv is None else argv))
    try:
        # numpy overflow shows up as a non-finite output value, which _emit_table names
        with np.errstate(all="ignore"):
            return (_cmd_verify if args.command == "verify" else _cmd_data)(args)
    except ConfigError as exc:
        print(f"squeezelab: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"squeezelab: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardViolation as exc:
        print(f"squeezelab: guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, ArithmeticError) as exc:
        print(f"squeezelab: numerical error: {exc}", file=sys.stderr)
        return EXIT_GUARD
