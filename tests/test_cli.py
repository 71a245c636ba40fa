"""Command-line interface tests: formats, determinism, exit codes, precedence."""

import contextlib
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squeezelab
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
from squeezelab.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_OK, EXIT_VERIFY, build_parser, main
from squeezelab.equivalence import DEFAULT_TRUNCATION, compare_formalisms, operator_state

LN2 = math.log(2.0)


def run(args):
    return main(args)


def run_process(args, **env):
    """`python -m squeezelab ARGS` in a child process with extra environment."""
    src = os.path.dirname(os.path.dirname(squeezelab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "squeezelab", *args],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
    )


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


# Recorded by the benchmark; read here, never rewritten.
FIGURE_DIGESTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "figure_digests.json")


class TestEmittedTables:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_figure_bytes_match_recorded_digests(self, capsys, index, fmt):
        with open(FIGURE_DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh)[f"figure {index} {fmt}"]
        assert run(["figure", str(index), "--out", "-", "--format", fmt]) == EXIT_OK
        out = capsys.readouterr().out.encode()
        assert (hashlib.sha256(out).hexdigest(), len(out)) == (recorded["sha256"], recorded["bytes"])

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

    def test_starved_truncation_fails_with_exit_four(self, tmp_path):
        out = tmp_path / "reports.json"
        code = run(["verify", "--preset", "1", "--N", "48", "--out", str(out)])
        assert code == EXIT_VERIFY
        reports = json.loads(out.read_text())
        assert any(not r["passed"] for r in reports)

    def test_bad_preset_is_config_error(self):
        assert run(["verify", "--preset", "9"]) == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_truncation_below_one_is_config_error(self, capsys, value):
        assert run(["verify", "--preset", "1", "--N", value, "--out", "-"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"squeezelab: configuration error: --N must be >= 1, got {value}\n"

    @pytest.mark.parametrize("value", ["4096", "100000000000"])
    def test_truncation_above_memory_bound_is_config_error(self, capsys, value):
        # 64 (N+1)^2 bytes of long-double factor matrices fit in 1 GiB up to N = 4095
        began = time.perf_counter()
        assert run(["verify", "--preset", "1", "--N", value, "--out", "-"]) == EXIT_CONFIG
        assert time.perf_counter() - began < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"squeezelab: configuration error: --N must be <= 4095 for its factor matrices to fit in 1 GiB, got {value}\n"
        )

    def test_default_truncation_is_the_library_default(self):
        default = inspect.signature(compare_formalisms).parameters["truncation"].default
        assert build_parser().parse_args(["verify"]).N == default == DEFAULT_TRUNCATION == 256

    def test_stdout_independent_of_blas_threads(self):
        # the operator route runs in numpy long double, which BLAS never touches
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

    def test_fock_guard_exit_three(self, tmp_path):
        # |alpha| = 5.66 exceeds N/8 at N = 24
        code = run(["verify", "--preset", "1", "--N", "24", "--out", str(tmp_path / "x")])
        assert code == EXIT_GUARD

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

    def test_stdout_output(self, capsys):
        assert run(["uncertainty", "--nt", "3"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("t,product\n")


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

# The documented flags of the data commands, with grids kept small.
FUZZ_FLAGS = st.fixed_dictionaries(
    {
        "nt": st.integers(0, 17).map(str),
        "nx": st.integers(0, 51).map(str),
        "format": st.sampled_from(["csv", "json"]),
    },
    optional={
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
    },
)


class TestFlagFuzz:
    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["state", "density", "moments", "uncertainty"]), flags=FUZZ_FLAGS)
    def test_documented_flags_exit_cleanly(self, command, flags):
        # --key=value, since argparse reads a bare -1e5 as an option
        argv = [command, "--out=-", *(f"--{key}={value}" for key, value in flags.items())]
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
