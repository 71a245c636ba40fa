"""Command-line interface tests: formats, determinism, exit codes, precedence."""

import argparse
import contextlib
import errno
import gc
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squeezelab
import squeezelab.__main__ as entry
from squeezelab import (
    GridSpec,
    StateSpec,
    density_surface,
    figure_spec,
    make_displacement,
    make_squeeze,
    psi_squeezed_number_evolved,
    synthesize,
    time_evolve,
)
from squeezelab import cli, fock
from squeezelab.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_OK, EXIT_VERIFY, MAX_TABLE_ROWS, build_parser, main
from squeezelab.equivalence import DEFAULT_TRUNCATION, compare_formalisms, operator_state

LN2 = math.log(2.0)


def run(args):
    return main(args)


def child_kwargs(args, **env):
    """subprocess keyword arguments for `python -m squeezelab ARGS` with extra environment."""
    src = os.path.dirname(os.path.dirname(squeezelab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(args=[sys.executable, "-m", "squeezelab", *args], env=dict(os.environ, PYTHONPATH=path, **env))


def run_process(args, **env):
    """`python -m squeezelab ARGS` in a child process with extra environment."""
    return subprocess.run(**child_kwargs(args, **env), capture_output=True)


def expected_csv(header, rows):
    """CSV text written independently of the CLI: 17 significant digits, LF."""
    lines = [",".join(header)]
    lines.extend(",".join(format(float(v), ".17g") for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def state_rows():
    # displaced in both quadratures so x, re and im all take negative values
    spec = StateSpec(1, make_displacement(2.0, -1.0), make_squeeze(LN2, 0.4))
    xs = np.linspace(-6.0, 6.0, 101)
    values = psi_squeezed_number_evolved(spec, xs, 0.5)
    return [(x, v.real, v.imag) for x, v in zip(xs, values)]


STATE_ARGS = ["state", "--n", "1", "--x0", "2", "--p0", "-1", "--r", repr(LN2), "--phi", "0.4",
              "--t0", "0.5", "--xmin", "-6", "--xmax", "6", "--nx", "101", "--out", "-"]


def figure_one_rows():
    grid = GridSpec(-16.0, 16.0, 51, 0.0, 2.0 * math.pi, 3)
    surface = density_surface(figure_spec(1), grid)
    return [
        (t, x, surface[i, j])
        for i, t in enumerate(grid.t_values())
        for j, x in enumerate(grid.x_values())
    ]


FIGURE_ONE_ARGS = ["figure", "1", "--nt", "3", "--nx", "51", "--out", "-"]


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


# Runs that fail with a guard violation: one in the density surface, one in
# the emitted table.
NON_FINITE_RUNS = [
    ["density", "--n", "400", "--r", "0.5", "--phi", "0.3", "--t0", "0.7", "--t1", "0.7",
     "--nt", "1", "--xmin", "-60", "--xmax", "60", "--nx", "2001"],
    ["state", "--x0", "1e308", "--nx", "3"],
]


class TestFigureCommand:
    def test_figure_one_shape_and_values(self, tmp_path):
        out = tmp_path / "fig1.csv"
        code = run(["figure", "1", "--nt", "9", "--nx", "201", "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["t", "x", "rho"]
        assert rows.shape == (9 * 201, 3)
        # row-major by t then x
        assert rows[0, 0] == 0.0 and rows[0, 1] == -16.0
        assert rows[200, 1] == 16.0 and rows[201, 0] == rows[201, 0]
        # the t = 0 slice carries two humps around x = 8
        first = rows[:201, 2]
        inner = (first[1:-1] > first[:-2]) & (first[1:-1] > first[2:]) & (first[1:-1] > first.max() * 1e-9)
        assert int(np.count_nonzero(inner)) == 2

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["figure", "2", "--nt", "5", "--nx", "101", "--out", str(a)]) == EXIT_OK
        assert run(["figure", "2", "--nt", "5", "--nx", "101", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["figure", "3", "--nt", "3", "--nx", "51"]) == EXIT_OK
        assert (tmp_path / "figure3.csv").exists()

    def test_default_output_name_follows_format(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["figure", "3", "--nt", "3", "--nx", "51", "--format", "json"]) == EXIT_OK
        assert not (tmp_path / "figure3.csv").exists()
        payload = json.loads((tmp_path / "figure3.json").read_text())
        assert payload["header"] == ["t", "x", "rho"]

    def test_roundtrip_seventeen_digits(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert run(["figure", "1", "--nt", "3", "--nx", "51", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        from squeezelab import density, figure_spec

        spec = figure_spec(1)
        xs = np.linspace(-16.0, 16.0, 51)
        expected = density(spec, xs, 0.0)
        assert np.array_equal(rows[:51, 2], expected)  # exact round-trip

    def test_invalid_index_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["figure", "7"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_same_bytes_as_density_of_the_preset(self, tmp_path, monkeypatch, capsys, index, fmt):
        monkeypatch.chdir(tmp_path)
        assert run(["figure", str(index), "--format", fmt]) == EXIT_OK
        assert run(["density", "--preset", str(index), "--format", fmt, "--out", "-"]) == EXIT_OK
        assert (tmp_path / f"figure{index}.{fmt}").read_text() == capsys.readouterr().out


# Recorded by the benchmark; read here, never rewritten.
FIGURE_DIGESTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "figure_digests.json")


def recorded_digest(index, fmt):
    """(sha256, bytes) recorded for `figure INDEX --format FMT`."""
    with open(FIGURE_DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)[f"figure {index} {fmt}"]
    return recorded["sha256"], recorded["bytes"]


class TestEmittedTables:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_figure_bytes_match_recorded_digests(self, capsys, index, fmt):
        assert run(["figure", str(index), "--out", "-", "--format", fmt]) == EXIT_OK
        out = capsys.readouterr().out.encode()
        assert (hashlib.sha256(out).hexdigest(), len(out)) == recorded_digest(index, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_figure_file_bytes_match_recorded_digests(self, tmp_path, index, fmt):
        path = tmp_path / f"figure.{fmt}"
        assert run(["figure", str(index), "--out", str(path), "--format", fmt]) == EXIT_OK
        out = path.read_bytes()
        assert (hashlib.sha256(out).hexdigest(), len(out)) == recorded_digest(index, fmt)

    def test_state_csv_bytes(self, capsys):
        assert run(STATE_ARGS) == EXIT_OK
        assert capsys.readouterr().out == expected_csv(["x", "re", "im"], state_rows())

    def test_figure_csv_bytes(self, capsys):
        assert run(FIGURE_ONE_ARGS) == EXIT_OK
        assert capsys.readouterr().out == expected_csv(["t", "x", "rho"], figure_one_rows())

    @pytest.mark.parametrize(
        "argv, rows", [(STATE_ARGS, state_rows), (FIGURE_ONE_ARGS, figure_one_rows)]
    )
    def test_json_rows_are_library_floats(self, capsys, argv, rows):
        assert run(argv + ["--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == [[float(v) for v in row] for row in rows()]


class TestStateCommand:
    def test_matches_library(self, tmp_path):
        out = tmp_path / "state.csv"
        code = run(
            ["state", "--n", "1", "--x0", "2", "--r", str(LN2), "--t0", "0.5",
             "--xmin", "-6", "--xmax", "6", "--nx", "101", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["x", "re", "im"]
        spec = StateSpec(1, make_displacement(2.0, 0.0), make_squeeze(LN2, 0.0))
        xs = np.linspace(-6.0, 6.0, 101)
        expected = psi_squeezed_number_evolved(spec, xs, 0.5)
        assert np.array_equal(rows[:, 1], expected.real)
        assert np.array_equal(rows[:, 2], expected.imag)

    def test_past_half_period_matches_operator_route(self, capsys):
        # B(t) has crossed the negative real axis by t = 4; the principal
        # root of B F1 would print -Psi there
        assert run(["state", "--preset", "1", "--t0", "4", "--out", "-"]) == EXIT_OK
        rows = np.array([[float(v) for v in line.split(",")] for line in capsys.readouterr().out.splitlines()[1:]])
        xs = np.linspace(-16.0, 16.0, 801)
        fock = synthesize(time_evolve(operator_state(figure_spec(1), 256), 4.0), xs)
        assert np.array_equal(rows[:, 0], xs)
        assert np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - fock)) < 1e-7

    def test_time_past_the_default_time_grid(self, capsys):
        # state reads no t1: t0 = 7 > 2 pi is a single instant, not a reversed grid
        assert run(["state", "--t0", "7", "--nx", "3", "--out", "-"]) == EXIT_OK
        spec = StateSpec(0, make_displacement(0.0, 0.0), make_squeeze(0.0, 0.0))
        xs = np.linspace(-16.0, 16.0, 3)
        values = psi_squeezed_number_evolved(spec, xs, 7.0)
        rows = [(x, v.real, v.imag) for x, v in zip(xs, values)]
        assert capsys.readouterr().out == expected_csv(["x", "re", "im"], rows)

    def test_json_format(self, tmp_path):
        out = tmp_path / "state.json"
        code = run(["state", "--nx", "11", "--xmin", "-2", "--xmax", "2",
                    "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["header"] == ["x", "re", "im"]
        assert len(payload["rows"]) == 11


class TestUncertaintyCommand:
    def test_ground_state_constant_column(self, tmp_path):
        out = tmp_path / "u.csv"
        code = run(["uncertainty", "--n", "0", "--r", "0", "--nt", "17", "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert np.all(rows[:, 1] == 0.25)

    @pytest.mark.parametrize("r", ["5", "9", "12"])
    def test_moments_at_large_squeeze(self, tmp_path, r):
        # var_p used to cancel below the quantum bound here (exit 3)
        out = tmp_path / "m.csv"
        assert run(["moments", "--r", r, "--nt", "65", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert np.all(rows[:, 3:5] > 0.0)

    def test_moments_header(self, tmp_path):
        out = tmp_path / "m.csv"
        code = run(["moments", "--n", "1", "--r", str(LN2), "--nt", "5", "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["t", "mean_x", "mean_p", "var_x", "var_p", "product"]
        assert rows.shape == (5, 6)


class TestVerifyCommand:
    def test_single_preset_passes(self, tmp_path):
        out = tmp_path / "reports.json"
        code = run(["verify", "--preset", "1", "--out", str(out)])
        assert code == EXIT_OK
        reports = json.loads(out.read_text())
        assert len(reports) == 12  # 4 quantum numbers x 3 times
        assert all(r["passed"] for r in reports)
        assert all(r["max_abs_deviation"] <= r["tolerance"] for r in reports)

    def test_report_keys(self, tmp_path):
        # no argmax location: below about 1e-14 it is a near-tie between mirror points
        out = tmp_path / "reports.json"
        assert run(["verify", "--preset", "2", "--out", str(out)]) == EXIT_OK
        keys = {"leakage", "max_abs_deviation", "params", "passed", "tolerance", "truncation"}
        assert all(sorted(r) == sorted(keys) for r in json.loads(out.read_text()))

    def test_starved_truncation_fails_with_exit_four(self, tmp_path):
        # |alpha|^2 = 32 <= N: the guard admits it, and the column loses weight
        out = tmp_path / "reports.json"
        code = run(["verify", "--preset", "1", "--N", "32", "--out", str(out)])
        assert code == EXIT_VERIFY
        reports = json.loads(out.read_text())
        assert len(reports) == 12 and any(not r["passed"] for r in reports)

    def test_column_norm_guard_exits_three(self, tmp_path, capsys, monkeypatch):
        # verify's preset and orders pointed at n = 0, alpha = 30, z = 0, whose N = 1024
        # column D's long-double passes take 8.6e6 past norm 1
        spec = StateSpec(0, make_displacement(30 * math.sqrt(2), 0.0), make_squeeze(0.0, 0.0))
        monkeypatch.setattr(cli, "figure_spec", lambda index: spec)
        monkeypatch.setattr(cli, "VERIFY_ORDERS", (0,))
        out = tmp_path / "reports.json"
        assert run(["verify", "--preset", "1", "--N", "1024", "--out", str(out)]) == EXIT_GUARD
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "n = 0, N = 1024: ||c||_2 - 1 = " in err and "exceeds 1e-08" in err
        assert not out.exists()

    def test_bad_preset_is_config_error(self):
        assert run(["verify", "--preset", "9"]) == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_truncation_below_one_is_config_error(self, capsys, value):
        assert run(["verify", "--preset", "1", "--N", value, "--out", "-"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "squeezelab: configuration error: truncation N must be an integer from 1 to 4095, the largest whose column "
            f"build fits in 1 GiB, got {value}\n"
        )

    @pytest.mark.parametrize("value", ["4096", "100000000000"])
    def test_truncation_above_memory_bound_is_config_error(self, capsys, value):
        # a column build's budget of 64 (N+1)^2 bytes fits in 1 GiB up to N = 4095
        began = time.perf_counter()
        assert run(["verify", "--preset", "1", "--N", value, "--out", "-"]) == EXIT_CONFIG
        assert time.perf_counter() - began < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "squeezelab: configuration error: truncation N must be an integer from 1 to 4095, the largest whose column "
            f"build fits in 1 GiB, got {value}\n"
        )

    def test_default_truncation_is_the_library_default(self):
        default = inspect.signature(compare_formalisms).parameters["truncation"].default
        assert build_parser().parse_args(["verify"]).N == default == DEFAULT_TRUNCATION == 256

    def test_stdout_independent_of_blas_threads(self):
        # synthesize's coeffs @ table is a complex128 BLAS product, so this is
        # what shows the bytes do not move with the thread count
        outputs = [run_process(["verify", "--preset", "1", "--out", "-"], OPENBLAS_NUM_THREADS=threads)
                   for threads in ("1", "2")]
        assert [p.returncode for p in outputs] == [EXIT_OK, EXIT_OK]
        digests = {hashlib.sha256(p.stdout).hexdigest() for p in outputs}
        assert len(digests) == 1

    @pytest.mark.parametrize(
        "flag", [["--r", "0.1"], ["--n", "7"], ["--x0", "1"], ["--format", "csv"], ["--config", "x"]]
    )
    def test_unread_flags_are_usage_errors(self, flag):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--preset", "4", *flag, "--out", "-"])
        assert exc.value.code == 2


def subparsers():
    """build_parser()'s subcommand parsers by name."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def command_flags():
    """Each subcommand's flags and positionals, as build_parser() declares them."""
    return {
        name: {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        for name, sub in subparsers().items()
    }


COMMAND_FLAGS = command_flags()
DATA_COMMANDS = ["state", "density", "moments", "uncertainty", "figure"]


class TestFlagSets:
    def test_subcommand_order(self):
        assert list(subparsers()) == ["state", "density", "moments", "uncertainty", "verify", "figure"]

    def test_each_command_takes_the_settings_it_reads(self):
        common = set("n r phi t0 out format config".split())
        pinned = {
            "state": common | set("x0 p0 xmin xmax nx preset".split()),
            "density": common | set("x0 p0 t1 nt xmin xmax nx preset".split()),
            "moments": common | set("x0 p0 t1 nt preset".split()),
            "uncertainty": common | set("t1 nt preset".split()),
            "figure": common | set("index x0 p0 t1 nt xmin xmax nx".split()),
            "verify": {"preset", "N", "out"},
        }
        assert COMMAND_FLAGS == pinned
        counts = {name: len(flags) for name, flags in COMMAND_FLAGS.items()}
        assert counts == dict(state=13, density=15, moments=12, uncertainty=10, figure=15, verify=3)
        assert sum(counts.values()) == 68

    @pytest.mark.parametrize(
        "command, flag",
        [("state", "--t1"), ("state", "--nt"),
         ("moments", "--xmin"), ("moments", "--xmax"), ("moments", "--nx"),
         ("uncertainty", "--xmin"), ("uncertainty", "--xmax"), ("uncertainty", "--nx"),
         ("uncertainty", "--x0"), ("uncertainty", "--p0")],
    )
    def test_unread_flags_are_usage_errors(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            run([command, flag, "3", "--out", "-"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unrecognized arguments: {flag} 3" in captured.err

    def test_config_file_keys_a_command_does_not_read_are_ignored(self, tmp_path, capsys):
        # an x window that would be refused, and a displacement, neither read by uncertainty
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xmin = 5\nxmax = 1\nnx = 1\nx0 = 1e300\nr = 0.5\n")
        assert run(["uncertainty", "--config", str(cfg), "--nt", "5", "--out", "-"]) == EXIT_OK
        assert run(["uncertainty", "--r", "0.5", "--nt", "5", "--out", "-"]) == EXIT_OK
        first, second = capsys.readouterr().out.split("t,product\n")[1:]
        assert first == second


class TestConfigAndErrors:
    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x0 = 3.0\nn = 1\nnx = 21\nxmin = -5\nxmax = 5\nnt = 2\n")
        out = tmp_path / "o.csv"
        code = run(["state", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        spec = StateSpec(1, make_displacement(3.0, 0.0), make_squeeze(0.0, 0.0))
        expected = psi_squeezed_number_evolved(spec, np.linspace(-5, 5, 21), 0.0)
        assert np.array_equal(rows[:, 1], expected.real)

    def test_flags_beat_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x0 = 3.0\nnx = 21\nxmin = -5\nxmax = 5\n")
        out = tmp_path / "o.csv"
        code = run(["state", "--config", str(cfg), "--x0", "4.0", "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        spec = StateSpec(0, make_displacement(4.0, 0.0), make_squeeze(0.0, 0.0))
        expected = psi_squeezed_number_evolved(spec, np.linspace(-5, 5, 21), 0.0)
        assert np.array_equal(rows[:, 1], expected.real)

    def test_config_beats_preset(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nt = 3\nnx = 41\n")
        out = tmp_path / "fig.csv"
        code = run(["figure", "1", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert rows.shape == (3 * 41, 3)

    def test_config_file_with_byte_order_mark(self, tmp_path):
        text = "n = 1\nx0 = 3.0\nnx = 21\n"
        outputs = []
        for name, encoding in (("plain.cfg", "utf-8"), ("bom.cfg", "utf-8-sig")):
            cfg = tmp_path / name
            cfg.write_text(text, encoding=encoding)
            out = tmp_path / f"{name}.csv"
            assert run(["state", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert (tmp_path / "bom.cfg").read_bytes().startswith(b"\xef\xbb\xbfn = 1")
        assert outputs[0] == outputs[1]

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"n = 1\nx0 = 2\xff\n")
        assert run(["state", "--nx", "3", "--config", str(cfg), "--out", "-"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"squeezelab: configuration error: cannot read config file {cfg}: "
            "'utf-8' codec can't decode byte 0xff in position 12: invalid start byte\n"
        )

    def test_config_comments_and_blank_lines_are_skipped(self, tmp_path, capsys):
        outputs = []
        for name, text in (("plain.cfg", "n = 1\nx0 = 3.0\nnx = 21\n"),
                           ("commented.cfg", "# a comment\nn = 1\n\n   \n  # indented comment\nx0 = 3.0\nnx = 21\n")):
            cfg = tmp_path / name
            cfg.write_text(text)
            assert run(["state", "--config", str(cfg), "--out", "-"]) == EXIT_OK
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.startswith("x,re,im\n") and outputs[0].err == ""

    def test_bad_config_value_names_file_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nx = 3\nx0 = 1.0\nn=abc\n")
        assert run(["state", "--config", str(cfg), "--out", "-"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"squeezelab: configuration error: {cfg}:3: bad value for n: 'abc'\n"

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert run(["state", "--config", str(cfg)]) == EXIT_CONFIG

    def test_truncation_flag_only_on_verify(self):
        with pytest.raises(SystemExit) as exc:
            run(["state", "--nx", "11", "--N", "3", "--out", "-"])
        assert exc.value.code == 2

    def test_truncation_config_key_unknown(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nx = 11\nN = 7\n")
        assert run(["state", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just nonsense\n")
        assert run(["state", "--config", str(cfg)]) == EXIT_CONFIG

    def test_bad_format_value(self, tmp_path):
        assert run(["state", "--format", "xml", "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_negative_squeeze_is_config_error(self, tmp_path):
        assert run(["state", "--r", "-1", "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_guard_violation_exit_three(self, tmp_path):
        # x window far too small for the x0 = 8 packet
        code = run(
            ["density", "--n", "1", "--x0", "8", "--r", str(LN2),
             "--xmin", "-4", "--xmax", "4", "--nt", "2", "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_GUARD

    def test_non_finite_density_exit_three(self, tmp_path, capsys):
        code = run(
            ["density", "--n", "400", "--r", "0.5", "--phi", "0.3", "--t0", "0.7", "--t1", "0.7",
             "--nt", "1", "--xmin", "-60", "--xmax", "60", "--nx", "2001", "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_GUARD
        assert "non-finite density values at quantum number n = 400" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", NON_FINITE_RUNS)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_output_writes_no_file(self, tmp_path, argv, fmt):
        out = tmp_path / "x"
        assert run([*argv, "--format", fmt, "--out", str(out)]) == EXIT_GUARD
        assert not out.exists()

    def test_non_finite_density_stderr_is_one_line(self, tmp_path):
        result = run_process(
            ["density", "--n", "400", "--r", "0.5", "--phi", "0.3", "--t0", "0.7", "--t1", "0.7",
             "--nt", "1", "--xmin", "-60", "--xmax", "60", "--nx", "2001", "--out", str(tmp_path / "x")]
        )
        assert result.returncode == EXIT_GUARD
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("squeezelab: guard violation: "), lines

    def test_unbounded_quantum_number_exit_three(self, capsys):
        # the Hermite recurrence to n = 1e7 would run for about a minute
        started = time.perf_counter()
        code = run(["state", "--n", "10000000", "--nx", "3", "--out", "-"])
        assert time.perf_counter() - started < 2.0
        assert code == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "n = 10000000" in captured.err

    @pytest.mark.parametrize(
        "argv, flags, rows",
        [
            (["state", "--nx", "1000000000000"], "--nx 1000000000000", 10**12),
            (["moments", "--nt", "100000000000"], "--nt 100000000000", 10**11),
            (["uncertainty", "--nt", str(MAX_TABLE_ROWS + 1)], f"--nt {MAX_TABLE_ROWS + 1}", MAX_TABLE_ROWS + 1),
            (["density", "--nt", "1000000", "--nx", "1000000"], "--nt 1000000 x --nx 1000000", 10**12),
        ],
    )
    def test_table_above_row_bound_is_config_error(self, capsys, argv, flags, rows):
        # refused before any array is built; numpy used to raise a memory error
        began = time.perf_counter()
        assert run([*argv, "--out", "-"]) == EXIT_CONFIG
        assert time.perf_counter() - began < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"squeezelab: configuration error: {flags} asks for {rows} table rows; at most 524288 fit in 1 GiB\n"
        )

    def test_fock_guard_exit_three(self, tmp_path, capsys):
        # |alpha|^2 = 32 exceeds N = 31: no column of D(alpha) fits
        assert run(["verify", "--preset", "1", "--N", "31", "--out", str(tmp_path / "x")]) == EXIT_GUARD
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "|alpha|^2 = 32 exceeds 31: " in err and "mean photon number" in err

    def test_squeeze_near_cancellation_runs(self, tmp_path):
        # S = cosh r - sinh r ~ 7e-5 here: F2 + conj(F2) = 2/F4^2 holds only relatively
        code = run(["state", "--r", "9.5", "--phi", repr(math.pi), "--out", str(tmp_path / "x")])
        assert code == EXIT_OK

    def test_vanishing_script_s_exit_three(self, tmp_path, capsys):
        code = run(["state", "--r", "20", "--phi", repr(math.pi), "--out", str(tmp_path / "x")])
        assert code == EXIT_GUARD
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "S = cosh r" in err and "Traceback" not in err

    def test_library_value_error_exit_three(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise ValueError("synthetic library failure")

        monkeypatch.setattr("squeezelab.cli.psi_squeezed_number_evolved", fail)
        assert run(["state", "--out", str(tmp_path / "x")]) == EXIT_GUARD
        assert capsys.readouterr().err == "squeezelab: numerical error: synthetic library failure\n"

    def test_library_arithmetic_error_exit_three(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise OverflowError("synthetic overflow")

        monkeypatch.setattr("squeezelab.cli.psi_squeezed_number_evolved", fail)
        assert run(["state", "--out", str(tmp_path / "x")]) == EXIT_GUARD
        assert capsys.readouterr().err == "squeezelab: numerical error: synthetic overflow\n"

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["state", "--r", "1e3"], "overflow at squeeze magnitude r = 1000"),
            (["moments", "--r", "400"], "overflow at squeeze magnitude r = 400"),
            (["uncertainty", "--r", "1e8"], "overflow at squeeze magnitude r = 1e+08"),
            (["density", "--x0", "1e150", "--r", "800"], "overflow at squeeze magnitude r = 800"),
            (["state", "--x0", "1e308", "--nx", "3"], "non-finite values in output column 're'"),
            (["state", "--r", "400"], "F4^2 = |F1|^2 overflows at squeeze magnitude r = 400"),
            (["density", "--r", "400"], "F4^2 = |F1|^2 overflows at squeeze magnitude r = 400"),
            (["uncertainty", "--r", "400"], "uncertainty product overflows at n = 0, squeeze magnitude r = 400"),
            (["uncertainty", "--n", str(10**160), "--nt", "2"], f"uncertainty product overflows at n = {10**160},"),
            (["uncertainty", "--n", str(10**400), "--nt", "2"], f"uncertainty product overflows at n = {10**400},"),
            (["moments", "--n", str(10**160), "--nt", "2"], f"moments overflow at n = {10**160},"),
            (["moments", "--n", str(10**400), "--nt", "2"], f"moments overflow at n = {10**400},"),
        ],
    )
    def test_overflow_exit_three_in_one_line(self, capsys, argv, reason):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*argv, "--out", "-"]) == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and reason in captured.err

    def test_state_past_the_float_range_is_the_cost_guard(self, capsys):
        assert run(["state", "--n", str(10**400), "--nx", "3", "--out", "-"]) == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.endswith("exceeds 1e+08\n")

    def test_stdout_output(self, capsys):
        assert run(["uncertainty", "--nt", "3"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("t,product\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["state", "--t0", "nan", "--nx", "3"], "grid bound --t0 must be finite, got nan"),
            (["state", "--xmin", "inf", "--nx", "3"], "grid bound --xmin must be finite, got inf"),
            (["density", "--t1", "-inf", "--nt", "3", "--nx", "3"], "grid bound --t1 must be finite, got -inf"),
            (["state", "--nx", "3", "--xmin=-1e308", "--xmax", "1e308"],
             "grid window [--xmin, --xmax] = [-1e+308, 1e+308] is wider than the largest float"),
            (["state", "--nx", "3", "--xmin", "-1e308", "--xmax", "1e308"],
             "grid window [--xmin, --xmax] = [-1e+308, 1e+308] is wider than the largest float"),
            (["density", "--nx", "3", "--nt", "3", "--t0", "-1e308", "--t1", "1e308"],
             "grid window [--t0, --t1] = [-1e+308, 1e+308] is wider than the largest float"),
            (["moments", "--t0", "1", "--t1", "0"], "grid requires --t0 <= --t1, got [1.0, 0.0]"),
            (["state", "--xmin", "2", "--xmax", "1"], "grid requires --xmin < --xmax, got [2.0, 1.0]"),
            (["state", "--nx", "1"], "grid needs --nx >= 2, got 1"),
            (["density", "--nt", "0"], "grid needs --nt >= 1, got 0"),
        ],
    )
    def test_grid_errors_name_the_flag(self, capsys, argv, message):
        assert run([*argv, "--out", "-"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"squeezelab: configuration error: {message}\n"


class TestUnwritableOutput:
    """An --out that cannot be opened or written exits 2 with one stderr line."""

    @pytest.mark.parametrize("argv", [["state"], ["verify", "--preset", "1"]])
    def test_missing_directory(self, tmp_path, argv):
        path = tmp_path / "missing" / "x.out"
        result = run_process([*argv, "--out", str(path)])
        assert (result.returncode, result.stdout) == (EXIT_CONFIG, b"")
        assert result.stderr.decode() == (
            f"squeezelab: cannot write --out {path}: [Errno 2] No such file or directory: '{path}'\n"
        )

    def test_directory(self, tmp_path):
        result = run_process(["state", "--out", str(tmp_path)])
        assert (result.returncode, result.stdout) == (EXIT_CONFIG, b"")
        assert result.stderr.decode() == f"squeezelab: cannot write --out {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("fmt, head", [("csv", b"t,x,rho\n0,"), ("json", b'{\n  "heade')])
    def test_closed_pipe(self, fmt, head):
        # the reader stops after 10 bytes of a 6-9 MB table; interpreter exit
        # must add no "Exception ignored" line
        with subprocess.Popen(**child_kwargs(["figure", "1", "--out", "-", "--format", fmt]),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == head
            proc.stdout.close()
            assert proc.wait(timeout=60) == EXIT_CONFIG
            assert proc.stderr.read().decode() == "squeezelab: cannot write --out -: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["state", "--nx", "3"], ["verify", "--preset", "1"], ["moments"]],
                             ids=["state", "verify", "moments"])
    def test_full_device(self, argv):
        # the write fails at the flush; closing the file must not flush again and replace the error
        result = run_process([*argv, "--out", "/dev/full"])
        assert (result.returncode, result.stdout) == (EXIT_CONFIG, b"")
        assert result.stderr.decode() == "squeezelab: cannot write --out /dev/full: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_in_process(self, capsys):
        assert run(["state", "--nx", "3", "--out", "/dev/full"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "squeezelab: cannot write --out /dev/full: [Errno 28] No space left on device\n"

    def test_stdout_none_in_process(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        assert run(["state", "--nx", "3", "--out", "-"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "squeezelab: cannot write --out -: stdout is closed\n"

    def test_closed_stdout(self):
        # file descriptor 1 closed at start leaves sys.stdout None
        result = subprocess.run(**child_kwargs(["state", "--nx", "3", "--out", "-"]),
                                preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE)
        assert result.returncode == EXIT_CONFIG
        assert result.stderr.decode() == "squeezelab: cannot write --out -: stdout is closed\n"

    def test_not_a_directory(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("")
        result = run_process(["state", "--out", str(path / "x.csv")])
        assert (result.returncode, result.stdout) == (EXIT_CONFIG, b"")
        assert result.stderr.decode() == (
            f"squeezelab: cannot write --out {path / 'x.csv'}: [Errno 20] Not a directory: '{path / 'x.csv'}'\n"
        )

    @pytest.mark.parametrize(
        "argv, via_config",
        [
            (["verify", "--preset", "all"], False),
            (["verify", "--preset", "1", "--N", str(fock.MAX_TRUNCATION)], False),
            *((argv, via_config) for argv in (["density"], ["figure", "1"], ["state"], ["moments"], ["uncertainty"])
              for via_config in (False, True)),
        ],
    )
    @pytest.mark.parametrize("empty", [False, True])
    def test_refused_before_any_work(self, capsys, monkeypatch, tmp_path, argv, via_config, empty):
        calls = []
        for name in ("compare_formalisms", "density_surface", "psi_squeezed_number_evolved", "moments_closed",
                     "uncertainty_product"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
        path = "" if empty else tmp_path / "missing" / "x.out"
        if via_config:
            config = tmp_path / "settings.cfg"
            config.write_text(f"out = {path}\n")  # an empty value is the empty path
            argv = [*argv, "--config", str(config)]
        else:
            argv = [*argv, "--out", str(path)]
        assert run(argv) == EXIT_CONFIG
        assert calls == []
        assert capsys.readouterr().err == (
            f"squeezelab: cannot write --out {path}: [Errno 2] No such file or directory: '{path}'\n"
        )

    @pytest.mark.parametrize("argv", [["density"], ["figure", "1"], ["state"], ["moments"], ["uncertainty"],
                                      ["verify", "--preset", "1", "--N", str(fock.MAX_TRUNCATION)]])
    @pytest.mark.parametrize("existing", [False, True])
    def test_trailing_slash_refused_before_any_work(self, capsys, monkeypatch, tmp_path, argv, existing):
        calls = []
        for name in ("compare_formalisms", "density_surface", "psi_squeezed_number_evolved", "moments_closed",
                     "uncertainty_product"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
        if existing:
            (tmp_path / "file").write_text("old")
        path = f"{tmp_path / ('file' if existing else 'nodir')}/"
        with pytest.raises(OSError) as refused:
            open(path, "w")
        assert run([*argv, "--out", path]) == EXIT_CONFIG
        assert calls == []
        assert capsys.readouterr().err == f"squeezelab: cannot write --out {path}: {refused.value}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == (["file"] if existing else [])
        if existing:
            assert (tmp_path / "file").read_text() == "old"

    @pytest.mark.parametrize("argv", [["state", "--nx", "3"], ["figure", "1", "--nt", "2"]])
    @pytest.mark.parametrize("devnull", [True, False])
    def test_writable_file_in_unwritable_directory(self, tmp_path, argv, devnull):
        # an existing file is written in place: its directory is never written
        path = os.devnull if devnull else tmp_path / "x.csv"
        if not devnull:
            path.write_text("old")
        assert run([*argv, "--out", str(path)]) == EXIT_OK
        if not devnull:
            assert path.read_text().startswith(("x,re,im\n", "t,x,rho\n"))

    @staticmethod
    def refuse_open(monkeypatch, code, *paths):
        """Make os.open refuse writing at paths with errno code, as a user other than root meets it."""
        os_open = os.open

        def refusing(path, flags, *args, **kwargs):
            if os.fspath(path) in map(str, paths) and flags & (os.O_WRONLY | os.O_RDWR):
                raise OSError(code, os.strerror(code), path)
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", refusing)

    def test_read_only_file(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("old")
        self.refuse_open(monkeypatch, errno.EACCES, path)
        monkeypatch.setattr(cli, "density_surface", mock.Mock(side_effect=AssertionError("computed")))
        assert run(["density", "--out", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"squeezelab: cannot write --out {path}: [Errno 13] Permission denied: '{path}'\n"
        assert path.read_text() == "old"

    def test_read_only_filesystem(self, capsys, monkeypatch, tmp_path):
        existing, new = tmp_path / "x.csv", tmp_path / "new.csv"
        existing.write_text("old")
        self.refuse_open(monkeypatch, errno.EROFS, existing, new)
        assert run(["state", "--nx", "3", "--out", str(existing)]) == EXIT_CONFIG
        assert run(["state", "--nx", "3", "--out", str(new)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"squeezelab: cannot write --out {existing}: [Errno 30] Read-only file system: '{existing}'\n"
            f"squeezelab: cannot write --out {new}: [Errno 30] Read-only file system: '{new}'\n"
        )
        assert existing.read_text() == "old" and not new.exists()

    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0, reason="root writes past file modes")
    def test_file_modes(self, capsys, tmp_path):
        directory, path = tmp_path / "ro", tmp_path / "ro" / "x.csv"
        directory.mkdir()
        path.write_text("old")
        directory.chmod(0o500)
        try:
            assert run(["state", "--nx", "3", "--out", str(path)]) == EXIT_OK
            assert path.read_text().startswith("x,re,im\n")
            path.chmod(0o400)
            assert run(["state", "--nx", "3", "--out", str(path)]) == EXIT_CONFIG
            new = directory / "new.csv"
            assert run(["state", "--nx", "3", "--out", str(new)]) == EXIT_CONFIG
            assert not new.exists()
        finally:
            directory.chmod(0o700)
        assert capsys.readouterr().err.count("[Errno 13] Permission denied") == 2


class TestOutputFile:
    """An --out file holds exactly the new table after a run, and is left as it was by a failed run."""

    @pytest.mark.parametrize("argv", NON_FINITE_RUNS)
    def test_failed_run_keeps_existing_file(self, tmp_path, argv):
        out = tmp_path / "x.csv"
        out.write_bytes(b"old,bytes\n1,2\n")
        assert run([*argv, "--out", str(out)]) == EXIT_GUARD
        assert out.read_bytes() == b"old,bytes\n1,2\n"

    @pytest.mark.parametrize("argv", [["state", "--nx", "3"], ["verify", "--preset", "1"]])
    def test_longer_file_loses_its_tail(self, capsys, tmp_path, argv):
        assert run([*argv, "--out", "-"]) == EXIT_OK
        table = capsys.readouterr().out.encode()
        out = tmp_path / "x.csv"
        out.write_bytes(b"x" * (len(table) + 4096))
        assert run([*argv, "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == table


STATE_FLOAT_FLAGS = sorted(a.option_strings[0] for a in subparsers()["state"]._actions if a.type is float)


class TestNegativeExponentValues:
    def test_state_float_flags(self):
        assert STATE_FLOAT_FLAGS == sorted(["--x0", "--p0", "--r", "--phi", "--t0", "--xmin", "--xmax"])

    @pytest.mark.parametrize("value", ["-1e5", "-2E-3", "-inf"])
    @pytest.mark.parametrize("flag", STATE_FLOAT_FLAGS)
    def test_own_token_matches_joined_form(self, capsys, flag, value):
        results = []
        for pair in ([flag, value], [f"{flag}={value}"]):
            code = run(["state", "--nx", "3", *pair, "--out", "-"])
            results.append((code, *capsys.readouterr()))
        assert results[0] == results[1]

    def test_word_after_a_float_flag_is_a_usage_error(self, capsys):
        # a value that is not a number is left to argparse, which names it
        with pytest.raises(SystemExit) as exc:
            run(["state", "--nx", "3", "--xmin", "abc", "--out", "-"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "squeezelab state: error: argument --xmin: invalid float value: 'abc'"

    @pytest.mark.parametrize(
        "argv",
        [
            ["state", "--nx", "3", "--xmin", "-1e1", "--xmax", "1e1"],
            ["state", "--x0", "-2e0", "--nx", "3"],
            ["state", "--nx", "3", "--xmi", "-1e1"],  # an abbreviated flag
        ],
    )
    def test_exponent_form_runs(self, capsys, argv):
        assert run([*argv, "--out", "-"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("x,re,im\n") and captured.err == ""


class TestPresetFlag:
    def test_state_preset_loads_caption_parameters(self, tmp_path):
        out_preset = tmp_path / "a.csv"
        out_manual = tmp_path / "b.csv"
        assert run(["state", "--preset", "4", "--nx", "41", "--out", str(out_preset)]) == EXIT_OK
        assert (
            run(["state", "--n", "1", "--x0", "0", "--p0", "8", "--r", str(LN2),
                 "--phi", "0", "--nx", "41", "--out", str(out_manual)])
            == EXIT_OK
        )
        assert out_preset.read_bytes() == out_manual.read_bytes()

    def test_flag_overrides_preset(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run(["uncertainty", "--preset", "1", "--r", "0", "--nt", "3", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert np.all(rows[:, 1] == (1 + 0.5) ** 2)  # preset n = 1 kept, squeeze overridden

    def test_invalid_preset_value(self):
        assert run(["state", "--preset", "nope"]) == EXIT_CONFIG
        assert run(["state", "--preset", "6"]) == EXIT_CONFIG


def number_text(values):
    """Floats written either as repr (1e+308) or in fixed notation."""
    return st.tuples(values, st.booleans()).map(lambda p: repr(p[0]) if p[1] else f"{p[0]:f}")


MAGNITUDE = number_text(st.one_of(st.floats(-1e308, 1e308), st.floats(-20.0, 20.0)))

# Values for every flag of the data commands but --out and --config, with
# grids kept small; the grid sizes and format are always passed.
FLAG_VALUES = {
    "nt": st.integers(0, 17).map(str),
    "nx": st.integers(0, 51).map(str),
    "format": st.sampled_from(["csv", "json"]),
    "n": st.integers(-1, 500).map(str),
    "x0": MAGNITUDE,
    "p0": MAGNITUDE,
    "r": number_text(st.floats(-1.0, 1e3)),
    "phi": MAGNITUDE,
    "t0": MAGNITUDE,
    "t1": MAGNITUDE,
    "xmin": MAGNITUDE,
    "xmax": MAGNITUDE,
    "preset": st.integers(0, 5).map(str),
}
ALWAYS_PASSED = ("nt", "nx", "format")


def fuzz_flags(command):
    """Values for exactly the flags build_parser() gives the command."""
    names = sorted(COMMAND_FLAGS[command] - {"out", "config", "index"})
    return st.fixed_dictionaries(
        {name: FLAG_VALUES[name] for name in names if name in ALWAYS_PASSED},
        optional={name: FLAG_VALUES[name] for name in names if name not in ALWAYS_PASSED},
    )


class TestFlagFuzz:
    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(DATA_COMMANDS), data=st.data())
    def test_documented_flags_exit_cleanly(self, command, data):
        flags = data.draw(fuzz_flags(command), label="flags")
        index = [data.draw(st.sampled_from("1234"), label="index")] if command == "figure" else []
        # each value as --key=value or as a token of its own, which may be -1e5
        apart = data.draw(st.lists(st.booleans(), min_size=len(flags), max_size=len(flags)), label="apart")
        argv = [command, *index, "--out=-"]
        for (key, value), own_token in zip(flags.items(), apart):
            argv += [f"--{key}", value] if own_token else [f"--{key}={value}"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_GUARD, EXIT_VERIFY)
        if code == EXIT_OK:
            text = out.getvalue()
            if flags["format"] == "json":
                rows = json.loads(text)["rows"]
            else:
                rows = [line.split(",") for line in text.splitlines()[1:]]
            assert np.all(np.isfinite(np.array(rows, dtype=float)))
            assert err.getvalue() == ""
        else:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("squeezelab: "), lines


def reference_table(fmt, header, columns):
    """The table text as the emitter wrote it before axes and blocks: the
    broadcast columns stacked, then one `%.17g` template over every value,
    or json.dumps."""
    table = np.column_stack([column.ravel() for column in np.broadcast_arrays(*columns)])
    if fmt == "json":
        return json.dumps({"header": header, "rows": table.tolist()}, indent=2, sort_keys=True) + "\n"
    row = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


def emitted_table(fmt, header, columns):
    out = io.StringIO()
    assert cli._emit_table({"format": fmt, "out": "-"}, out, header, columns) == EXIT_OK
    return out.getvalue()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 1e16, 0.1]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def broadcast_tables(draw):
    """(header, columns): perhaps an (nt, 1) axis, an (nx,) axis, and up to
    two full (nt, nx) columns, with values that often repeat."""
    nt, nx = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    pool = draw(st.lists(FLOATS, min_size=1, max_size=4))
    values = st.one_of(st.sampled_from(pool), FLOATS)

    def column(*shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float).reshape(shape)

    columns = [column(nt, 1)] if draw(st.booleans()) else []
    columns += [column(nx), *(column(nt, nx) for _ in range(draw(st.integers(0, 2))))]
    header = draw(st.lists(st.text(min_size=1, max_size=3), min_size=len(columns), max_size=len(columns)))
    return header, columns


class TestEmitterAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(table=broadcast_tables(), fmt=st.sampled_from(["csv", "json"]),
           block_rows=st.one_of(st.integers(1, 5), st.just(cli.BLOCK_ROWS)))
    def test_bytes_match_reference(self, table, fmt, block_rows):
        header, columns = table
        with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
            assert emitted_table(fmt, header, columns) == reference_table(fmt, header, columns)

    def test_signed_zeros_extremes_and_integral_floats(self):
        columns = [np.array([[0.0], [-0.0]]), np.array([1.0, 5e-324]),
                   np.array([[1.7976931348623157e308, -1.0], [2.5, 0.0]])]
        csv = emitted_table("csv", ["t", "x", "v"], columns)
        assert csv == reference_table("csv", ["t", "x", "v"], columns) == (
            "t,x,v\n0,1,1.7976931348623157e+308\n0,4.9406564584124654e-324,-1\n"
            "-0,1,2.5\n-0,4.9406564584124654e-324,0\n"
        )
        text = emitted_table("json", ["t", "x", "v"], columns)
        assert text == reference_table("json", ["t", "x", "v"], columns)
        assert json.loads(text)["rows"][2] == [-0.0, 1.0, 2.5]
        assert '      -0.0,\n      1.0,\n      2.5\n' in text and "      5e-324,\n" in text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_longer_than_one_block(self, fmt):
        nt, nx = 41, 801  # 32841 rows
        assert nt * nx > cli.BLOCK_ROWS
        rng = np.random.default_rng(5)
        surface = rng.choice([0.0, -0.0, 1.0, 5e-324, *rng.standard_normal(50)], size=(nt, nx))
        columns = [np.linspace(0.0, 2.0 * math.pi, nt)[:, None], np.linspace(-16.0, 16.0, nx), surface]
        assert emitted_table(fmt, ["t", "x", "rho"], columns) == reference_table(fmt, ["t", "x", "rho"], columns)


# One command line for each kind of exit; --out is appended in a temporary directory.
EXIT_CASES = [
    (["state", "--nx", "3"], EXIT_OK),
    (["verify", "--preset", "9"], EXIT_CONFIG),
    (["state", "--x0", "1e308", "--nx", "3"], EXIT_GUARD),
    (["verify", "--preset", "1", "--N", "32"], EXIT_VERIFY),
]


class TestProcessEntry:
    @pytest.mark.parametrize("argv, expected", EXIT_CASES)
    def test_run_returns_main_code_and_freezes_once_after_main(self, tmp_path, monkeypatch, argv, expected):
        events = []

        def traced_main():
            code = main()
            events.append("main")
            return code

        monkeypatch.setattr(sys, "argv", ["squeezelab", *argv, "--out", str(tmp_path / "out")])
        monkeypatch.setattr(entry, "main", traced_main)
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        assert entry.run() == expected
        assert events == ["main", "freeze"]

    @pytest.mark.parametrize("argv, expected", EXIT_CASES)
    def test_main_in_process_leaves_the_collector_alone(self, tmp_path, argv, expected):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert main([*argv, "--out", str(tmp_path / "out")]) == expected
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    def test_console_script_is_the_process_entry(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
            assert '\n[project.scripts]\nsqueezelab = "squeezelab.__main__:run"\n\n' in fh.read()
