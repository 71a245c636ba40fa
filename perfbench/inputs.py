"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed, so two runs with the
same seed see the same commands and the same states in the same order.
"""

import json
import math
import random
from collections import namedtuple
from itertools import count
from pathlib import Path

FIGURE_INDICES = (1, 2, 3, 4)

# Ranges of the sweep workload: n in 0..8, |alpha| <= 6, r in [0, 1.2],
# phi in (-pi, pi], t in [0, 2 pi).
SWEEP_MAX_N = 8
SWEEP_MAX_ALPHA = 6.0
SWEEP_MAX_R = 1.2

# The sweep draws its states from a pool of POOL_SIZE, recorded with the
# checks each failed (`session.py --record`); a seed picks where in the pool
# a run starts.
POOL_SIZE = 400
POOL_PATH = Path(__file__).resolve().parent / "sweep_pool.json"

Draw = namedtuple("Draw", "n x0 p0 r phi t")


def verify_argv():
    """The one command of the verify workload (N = 256 is the CLI default)."""
    return ["verify", "--preset", "all", "--out", "-"]


def figure_argv(index, fmt):
    return ["figure", str(index), "--out", "-", "--format", fmt]


def figure_stream(seed):
    """Endless (K, format) pairs for `figure K`.

    CSV, the CLI's default, gets two ops in every three and JSON one.  Each
    cycle of twelve shuffles K = 1..4 twice for CSV and once for JSON and
    puts every JSON op third, so any prefix holds the formats near 2:1.
    JSON ops are slower; with equal shares the median op time would sit on
    the gap between the two formats and jump across it from seed to seed.
    """
    rng = random.Random(f"figure:{seed}")
    while True:
        csv_order = [(index, "csv") for index in FIGURE_INDICES * 2]
        json_order = [(index, "json") for index in FIGURE_INDICES]
        rng.shuffle(csv_order)
        rng.shuffle(json_order)
        for i, json_op in enumerate(json_order):
            yield csv_order[2 * i]
            yield csv_order[2 * i + 1]
            yield json_op


def _kronecker_steps(dim):
    """Additive steps of the R_d low-discrepancy sequence (Roberts 2018):
    powers of 1/g, where g is the real root of x^(d+1) = x + 1."""
    g = 2.0
    for _ in range(100):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    return [(1.0 / g) ** (k + 1) for k in range(dim)]


def pool_draws():
    """The POOL_SIZE sweep states: the first points of a fixed shift of the
    R_6 low-discrepancy sequence over the sweep ranges.

    Consecutive points cover the ranges evenly, so any run of them holds
    about the same share of states in a given region (for example t past
    pi, or large r), whichever point it starts from.
    """
    rng = random.Random("sweep-pool")
    shift = [rng.random() for _ in range(6)]
    steps = _kronecker_steps(6)
    draws = []
    for i in range(1, POOL_SIZE + 1):
        u = [(s + i * a) % 1.0 for s, a in zip(shift, steps)]
        n = min(SWEEP_MAX_N, int((SWEEP_MAX_N + 1) * u[0]))
        amplitude = SWEEP_MAX_ALPHA * math.sqrt(u[1])  # uniform over the disk
        theta = 2.0 * math.pi * u[2]
        # alpha = (x0 + i p0) / sqrt 2
        x0 = math.sqrt(2.0) * amplitude * math.cos(theta)
        p0 = math.sqrt(2.0) * amplitude * math.sin(theta)
        r = SWEEP_MAX_R * u[3]
        phi = math.pi - 2.0 * math.pi * u[4]
        t = 2.0 * math.pi * u[5]
        draws.append(Draw(n, x0, p0, r, phi, t))
    return draws


def load_pool():
    """[(Draw, recorded failed checks)] from POOL_PATH, in pool order."""
    with open(POOL_PATH, encoding="utf-8") as fh:
        pool = json.load(fh)
    return [(Draw(*entry["state"]), tuple(entry["failed"])) for entry in pool["states"]]


def sweep_stream(seed):
    """Endless (Draw, recorded failed checks) of the sweep, walking the pool
    from a seeded start and wrapping around.  Nothing is dropped or redrawn:
    with one seed, op i is always the same state."""
    pool = load_pool()
    start = random.Random(f"sweep:{seed}").randrange(len(pool))
    for i in count(start):
        yield pool[i % len(pool)]


def take(stream, k):
    return [next(stream) for _ in range(k)]
