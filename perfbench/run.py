"""The squeezelab benchmark.

    python3 perfbench/run.py --workload {verify,figure,sweep} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the program is taken from its `src/`
directory.  Every workload is a closed loop with one client: this script
runs one op at a time and starts the next when the last has finished.

--trace 0 measures the end-to-end metrics with nothing installed in the
program; their times are adjusted for host speed (hostspeed.py).  --trace 1 runs each op once plain and once with spans around the
calls into each squeezelab module, and reports per-layer metrics.  The
last line of stdout is the result as one JSON object; the line before it
records the environment and the details behind the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict, namedtuple
from pathlib import Path

import inputs
from hostspeed import HostSpeed
from session import CHECKS
from traced_cli import MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("verify", "figure", "sweep")

# op_tail_s is the highest percentile with at least TAIL_BEYOND samples above
# it.  A run keeps going past --seconds until it has MIN_OPS ops, so the
# tail exists and sits above the run's few fastest ops.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 3
CHILD_TIMEOUT_S = 150.0
VERIFY_REPORTS = 48  # 4 presets x 4 orders x 3 times

Settings = namedtuple("Settings", "seconds min_ops setup_reps import_reps min_pairs")


def full_settings(seconds):
    return Settings(seconds, MIN_OPS, setup_reps=7, import_reps=3, min_pairs=2)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# --------------------------------------------------------------------------
# child processes

Child = namedtuple("Child", "wall_s code rss_mb out err")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One BLAS thread, as for a single client.  With two (the default on two
    # cores) the sweep ran about 20 % slower and twice as unsteady: the second
    # BLAS thread competes with the interpreter between BLAS calls.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(args):
    """Run `python3 ARGS` from the checkout root; wall time, exit code, peak
    RSS and both output streams, with stderr drained on a thread so neither
    pipe can fill up."""
    cmd = [sys.executable, *map(str, args)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0, out, err[0])


def median_launch(args, reps):
    """Median adjusted wall time of `reps` launches, after one unmeasured
    launch that writes the bytecode caches."""
    run_child(args)
    speed = HostSpeed()
    return statistics.median(speed.adjust(run_child(args).wall_s) for _ in range(reps))


# --------------------------------------------------------------------------
# output gates

with open(HERE / "figure_digests.json", encoding="utf-8") as _fh:
    FIGURE_DIGESTS = json.load(_fh)


def verify_gate(child):
    """Failed checks of one verify process, out of its 48 reports.

    A report passes when it says so and its deviation is within the
    tolerance verify must use (1e-8 at t = 0, 1e-7 otherwise, read from the
    report's t).  A process that exits non-zero or does not print 48
    reports fails all 48.
    """
    if child.code != 0:
        return VERIFY_REPORTS
    try:
        reports = json.loads(child.out)
        if len(reports) != VERIFY_REPORTS:
            return VERIFY_REPORTS
        failed = 0
        for report in reports:
            t = float(report["params"].rsplit("t=", 1)[1])
            tolerance = 1e-8 if t == 0.0 else 1e-7
            failed += not (report["passed"] is True and report["max_abs_deviation"] <= tolerance)
        return failed
    except (ValueError, KeyError, IndexError, TypeError):
        return VERIFY_REPORTS


def figure_gate(index, fmt):
    """One check: the output bytes match the digest recorded for them."""
    digest = FIGURE_DIGESTS[f"figure {index} {fmt}"]["sha256"]
    return lambda child: int(child.code != 0 or hashlib.sha256(child.out).hexdigest() != digest)


def cli_ops(workload, seed):
    """Endless (label, argv, gate, checks per op) for a CLI workload; a gate
    returns the number of the op's checks that failed."""
    if workload == "verify":
        while True:
            yield "verify", inputs.verify_argv(), verify_gate, VERIFY_REPORTS
    for index, fmt in inputs.figure_stream(seed):
        yield f"figure {index} {fmt}", inputs.figure_argv(index, fmt), figure_gate(index, fmt), 1


# --------------------------------------------------------------------------
# end-to-end runs (--trace 0)

# times are adjusted op times (hostspeed.py), raw_times the measured ones.
# failed counts ops with a failed check (on sweep, a check that passed for
# the state when the pool was recorded); checks and failed_checks count the
# checks themselves, every failure included (48 reports per verify op, one
# digest per figure op, nine comparisons per sweep state).
Outcome = namedtuple("Outcome", "setup_s times raw_times failed checks failed_checks rss_mb correct detail")


def run_cli(workload, seed, st):
    setup_s = median_launch(["-c", "import squeezelab"], st.setup_reps)
    ops = cli_ops(workload, seed)
    times, raw_times, rss, failures = [], [], 0.0, Counter()
    checks = failed_checks = 0
    speed = HostSpeed()
    start = time.perf_counter()
    while len(times) < st.min_ops or time.perf_counter() - start < st.seconds:
        label, argv, gate, per_op = next(ops)
        child = run_child(["-m", "squeezelab", *argv])
        raw_times.append(child.wall_s)
        times.append(speed.adjust(child.wall_s))
        rss = max(rss, child.rss_mb)
        missed = gate(child)
        checks += per_op
        failed_checks += missed
        if missed:
            failures[label] += 1
    failed = sum(failures.values())
    return Outcome(setup_s, times, raw_times, failed, checks, failed_checks, rss, failed == 0,
                   {"failed_ops": dict(failures), "kernel_s": speed.kernel_times})


def session_args(seed, *extra):
    return [HERE / "session.py", "--seed", seed, *extra]


def read_session(child):
    if child.code != 0:
        raise BenchError(f"sweep session exited {child.code}: {child.err.decode(errors='replace')[-2000:]}")
    return json.loads(child.out)


def census(ops):
    """Failure counts by check and by exception type, and the ops that
    regressed against the recorded pool."""
    by_check = Counter(name for op in ops for name in op["failed"])
    by_error = Counter(kind for op in ops for _, kind in op["errors"])
    return {
        "ops": len(ops),
        "ops_failing_a_check": sum(1 for op in ops if op["failed"]),
        "by_check": {name: by_check[name] for name in CHECKS},
        "exceptions": dict(by_error),
        "regressed_ops": regressed_ops(ops),
    }


def regressed_ops(ops):
    """Ops on which a check failed that passed for the same state when the
    pool was recorded."""
    return sum(1 for op in ops if op["regressed"])


def sweep_correct(session):
    """The control state passed every check, and no state regressed.  The
    checks that fail on pool states for the known defects are counted in
    ok_share and the census."""
    return not session["control_failed"] and regressed_ops(session["ops"]) == 0


def run_sweep(seed, st):
    setup_s = median_launch(session_args(seed, "--setup-only"), st.setup_reps)
    child = run_child(session_args(seed, "--seconds", st.seconds, "--min-ops", st.min_ops))
    session = read_session(child)
    ops = session["ops"]
    detail = {
        "control_failed": session["control_failed"],
        # The first min_ops states are the same for every run with this seed,
        # so their failure counts repeat exactly; later states depend on speed.
        "census_first": census(ops[: st.min_ops]),
        "census_all": census(ops),
        "kernel_s": session["kernel_s"],
    }
    failed = regressed_ops(ops)
    failed_checks = sum(len(op["failed"]) for op in ops)
    times = [op["s"] for op in ops]
    raw_times = [op["raw_s"] for op in ops]
    correct = sweep_correct(session)
    return Outcome(setup_s, times, raw_times, failed, len(CHECKS) * len(ops), failed_checks,
                   child.rss_mb, correct, detail)


def end_to_end_metrics(outcome):
    times = sorted(outcome.times)
    n = len(times)
    beyond = min(TAIL_BEYOND, n - 1)
    tail = times[n - 1 - beyond]
    metrics = {
        "setup_s": (outcome.setup_s, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail, "s"),
        # one client in a closed loop: ops completed per second of op time
        "ops_per_s": (n / sum(times), "1/s"),
        "peak_rss_mb": (outcome.rss_mb, "MB"),
        "ok_share": (1.0 - outcome.failed_checks / outcome.checks, "share"),
    }
    detail = {
        "op_tail": {"percentile": 100.0 * (n - beyond) / n, "samples": n, "beyond": beyond},
        "error_share": outcome.failed / n,
        "raw_op_p50_s": statistics.median(outcome.raw_times),
        "op_s": outcome.times,
        "raw_op_s": outcome.raw_times,
        **outcome.detail,
    }
    return metrics, detail


# --------------------------------------------------------------------------
# traced runs (--trace 1)

def parse_importtime(text):
    """(squeezelab, scipy) cumulative import seconds from `-X importtime`.

    scipy is the sum over scipy modules that no other scipy module imported,
    wherever squeezelab pulled them in.
    """
    rows = []
    for line in text.decode(errors="replace").splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    squeezelab_s = scipy_s = 0.0
    stack = []  # enclosing modules; the listing prints children before parents
    for depth, name, seconds in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(scipy for _, scipy in stack):
            scipy_s += seconds
        if name == "squeezelab":
            squeezelab_s = seconds
        stack.append((depth, is_scipy))
    return squeezelab_s, scipy_s


def import_times(reps):
    samples = [parse_importtime(run_child(["-X", "importtime", "-c", "import squeezelab"]).err) for _ in range(reps)]
    return tuple(statistics.median(s[i] for s in samples) for i in (0, 1))


class Totals:
    """Span totals summed over the traced ops of one run."""

    def __init__(self):
        self.fields = defaultdict(lambda: defaultdict(float))
        self.root_s = 0.0

    def add(self, summary):
        for field in ("self_s", "calls", "cold_s", "warm_s", "cold_calls"):
            for name, value in summary[field].items():
                self.fields[field][name] += value
        self.root_s += summary["root_s"]

    def get(self, field, name):
        return self.fields[field].get(name, 0.0)


SELF_TIMED = (
    "fock.matrix_exponential",
    "fock.displaced_number_coeffs",
    "fock.squeezed_number_coeffs",
    "fock.synthesize",
    "fock.time_evolve",
    "special.oscillator_eigenfunctions",
    "equivalence.compare_formalisms",
    "states.psi_squeezed_number_evolved",
    "equivalence.check_normalization",
    "equivalence.check_classical_motion",
    "special.integrate",
    "observables.moments_numeric",
    "observables.moments_closed",
    "states.density_surface",
    "states.density",
    "cli.main",
)
COUNTED = ("equivalence.compare_formalisms", "parameters.structure_factors", "parameters.evolution_factors")
BUILDS = ("fock.displacement_bch", "fock.squeeze_bch")

# Self times plus unattributed time make up the traced wall time by
# definition, so that sum checks nothing.  What can fail is coverage: the
# time outside every span (interpreter start and exit for a CLI op, about
# 5-10 % of it; the benchmark's own comparisons for a sweep state, under
# 1 %) must stay below this share of the traced wall time.  Wrappers that
# did not take effect leave 55-100 % unattributed.
MAX_UNATTRIBUTED_SHARE = 0.25


def layer_metrics(totals, ops, imports, overhead_s, unattributed_s, bytes_out):
    """Per-layer metrics, each per op (per process for the CLI workloads,
    per state for sweep); import times are per process."""
    metrics = {
        "import.squeezelab_s": (imports[0], "s"),
        "import.scipy_s": (imports[1], "s"),
    }
    builds = warm_builds = 0.0
    for name in BUILDS:
        calls = totals.get("calls", name)
        builds += calls
        warm_builds += calls - totals.get("cold_calls", name)
        metrics[f"{name}.cold_s"] = (totals.get("cold_s", name) / ops, "s")
        metrics[f"{name}.warm_s"] = (totals.get("warm_s", name) / ops, "s")
        metrics[f"{name}.calls"] = (calls / ops, "count")
    metrics["fock.build.repeat_key_share"] = (warm_builds / builds if builds else 0.0, "share")
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (totals.get("self_s", name) / ops, "s")
    for name in COUNTED:
        metrics[f"{name}.calls"] = (totals.get("calls", name) / ops, "count")
    metrics["cli.bytes_out"] = (bytes_out / ops, "bytes")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.unattributed_s"] = (unattributed_s, "s")
    return metrics


def trace_cli(workload, seed, st):
    imports = import_times(st.import_reps)
    ops = cli_ops(workload, seed)
    totals = Totals()
    pairs = failed = bytes_out = 0
    plain_s = traced_s = unattributed_s = 0.0
    identical = True
    start = time.perf_counter()
    while pairs < st.min_pairs or time.perf_counter() - start < st.seconds:
        label, argv, gate, _ = next(ops)
        runs = {}
        # alternate which run goes first, so drift does not land on one side
        for kind in (("plain", "traced") if pairs % 2 == 0 else ("traced", "plain")):
            entry = ["-m", "squeezelab"] if kind == "plain" else [HERE / "traced_cli.py"]
            runs[kind] = run_child([*entry, *argv])
        plain, traced = runs["plain"], runs["traced"]
        failed += (gate(plain) > 0) + (gate(traced) > 0)
        identical &= plain.out == traced.out and plain.code == traced.code
        lines = traced.err.decode(errors="replace").splitlines()
        if not lines or not lines[-1].startswith(MARKER):
            raise BenchError(f"traced run of {label} printed no span totals")
        summary = json.loads(lines[-1][len(MARKER):])
        totals.add(summary)
        # wall = in-process import + self times of every span + unattributed
        unattributed_s += traced.wall_s - summary["import_s"] - sum(summary["self_s"].values())
        plain_s += plain.wall_s
        traced_s += traced.wall_s
        bytes_out += len(traced.out)
        pairs += 1
    covered = unattributed_s <= MAX_UNATTRIBUTED_SHARE * traced_s
    metrics = layer_metrics(totals, pairs, imports, (traced_s - plain_s) / pairs, unattributed_s / pairs, bytes_out)
    detail = {"pairs": pairs, "stdout_identical": identical, "spans_cover": covered,
              "unattributed_share": unattributed_s / traced_s,
              "plain_wall_s": plain_s / pairs, "traced_wall_s": traced_s / pairs}
    return metrics, 2 * pairs, failed, identical and covered and failed == 0, detail


def trace_sweep(seed, st):
    imports = import_times(st.import_reps)
    plain = read_session(run_child(session_args(seed, "--seconds", st.seconds / 2.0, "--min-ops", st.min_pairs)))
    count = len(plain["ops"])
    traced = read_session(run_child(session_args(seed, "--count", count, "--trace")))
    totals = Totals()
    totals.add(traced["trace"])
    plain_s = sum(op["raw_s"] for op in plain["ops"])
    traced_s = sum(op["raw_s"] for op in traced["ops"])
    # the self times of all spans sum to the time of the outermost spans
    unattributed_s = traced_s - totals.root_s
    covered = unattributed_s <= MAX_UNATTRIBUTED_SHARE * traced_s
    identical = [op["failed"] for op in plain["ops"]] == [op["failed"] for op in traced["ops"]]
    gates_ok = sweep_correct(plain) and sweep_correct(traced)
    failed = regressed_ops(plain["ops"] + traced["ops"])
    metrics = layer_metrics(totals, count, imports, (traced_s - plain_s) / count, unattributed_s / count, 0)
    detail = {"ops": count, "verdicts_identical": identical, "spans_cover": covered,
              "unattributed_share": unattributed_s / traced_s,
              "plain_op_s": plain_s / count, "traced_op_s": traced_s / count,
              "census_traced": census(traced["ops"])}
    return metrics, 2 * count, failed, identical and covered and gates_ok, detail


# --------------------------------------------------------------------------
# environment

ENV_PROBE = r"""
import ctypes, json, platform, sys
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
with open("/proc/self/maps") as fh:
    libs = sorted({l.split()[-1] for l in fh if "blas" in l and l.split()[-1].startswith("/")})
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None and threads is None:
            fn.restype = ctypes.c_int
            threads = fn()
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": "%s %s" % (blas.get("name"), blas.get("version")),
                  "blas_threads": threads}))
"""


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "squeezelab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    probe = run_child(["-c", ENV_PROBE])
    libs = json.loads(probe.out) if probe.code == 0 else {}
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        **libs,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


# --------------------------------------------------------------------------
# entry points

def measure(workload, seed, trace, st):
    """(metrics, attempted, failed, correct, detail) of one run."""
    if trace:
        if workload == "sweep":
            return trace_sweep(seed, st)
        return trace_cli(workload, seed, st)
    outcome = run_sweep(seed, st) if workload == "sweep" else run_cli(workload, seed, st)
    metrics, detail = end_to_end_metrics(outcome)
    return metrics, len(outcome.times), outcome.failed, outcome.correct, detail


def result_line(metrics, attempted, failed, correct):
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def preflight():
    if not (SRC / "squeezelab" / "__init__.py").is_file():
        raise BenchError(f"no squeezelab sources under {SRC}; run from the root of a checkout")


def self_test():
    """Check every BENCHMARK.json metric is printed with its unit, on short
    runs of each workload, and that a seed always gives the same inputs."""
    problems = []
    for seed in (0, 1, 12345):
        for make in (inputs.sweep_stream, inputs.figure_stream):
            if inputs.take(make(seed), 40) != inputs.take(make(seed), 40):
                problems.append(f"{make.__name__}({seed}) is not reproducible")
    for make in (inputs.sweep_stream, inputs.figure_stream):
        if inputs.take(make(1), 40) == inputs.take(make(2), 40):
            problems.append(f"{make.__name__} ignores its seed")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    quick = Settings(seconds=0.0, min_ops=1, setup_reps=1, import_reps=1, min_pairs=1)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            started = time.perf_counter()
            metrics, attempted, failed, correct, _ = measure(workload, 1, trace, quick)
            line = json.loads(json.dumps(result_line(metrics, attempted, failed, correct)))
            printed = {name: m["unit"] for name, m in line["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in wanted[trace]}
            if printed != expected:
                problems.append(f"{workload} trace={trace}: printed {printed}, BENCHMARK.json names {expected}")
            if not all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()):
                problems.append(f"{workload} trace={trace}: non-numeric value")
            print(f"self-test: {workload} trace={trace}: {len(printed)} metrics, correct={line['correct']}, "
                  f"{time.perf_counter() - started:.1f} s")
    for problem in problems:
        print(f"self-test: FAIL {problem}")
    print("self-test: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="squeezelab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        preflight()
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        env = environment(args.seed)
        metrics, attempted, failed, correct, detail = measure(
            args.workload, args.seed, args.trace, full_settings(args.seconds))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"perfbench": {"workload": args.workload, "trace": args.trace,
                                    "seconds": args.seconds, "env": env, **detail}}))
    print(json.dumps(result_line(metrics, attempted, failed, correct)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
