"""Spans around calls into squeezelab's public functions.

The tracer wraps each traced function at every place a caller looks it
up: squeezelab's modules bind names with `from .x import y`, so the
wrapper replaces the function object in every loaded squeezelab module
namespace (for example both `squeezelab.fock.displacement_bch` and
`squeezelab.equivalence.displacement_bch`).  Spans are kept in memory as
per-name totals; a span's self time is its duration minus the time of
the traced calls it made.
"""

import functools
import sys
import time
from collections import defaultdict
from importlib import import_module

# module -> public functions traced in it
TRACED = {
    "fock": (
        "displacement_bch",
        "squeeze_bch",
        "matrix_exponential",
        "displaced_number_coeffs",
        "squeezed_number_coeffs",
        "synthesize",
        "time_evolve",
    ),
    "special": ("oscillator_eigenfunctions", "integrate"),
    "equivalence": ("compare_formalisms", "check_normalization", "check_classical_motion"),
    "states": ("psi_squeezed_number_evolved", "density_surface", "density"),
    "observables": ("moments_numeric", "moments_closed"),
    "parameters": ("structure_factors", "evolution_factors"),
    "cli": ("main",),
}


def _displacement_key(alpha, truncation):
    return ("D", complex(alpha), int(truncation))


def _squeeze_key(sq, truncation):
    return ("S", float(sq.r), float(sq.phi), int(truncation))


# Operator builds: a call is cold when its key is the first of its kind in
# the process, warm otherwise.
BUILD_KEYS = {
    "fock.displacement_bch": _displacement_key,
    "fock.squeeze_bch": _squeeze_key,
}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.cold_s = defaultdict(float)
        self.warm_s = defaultdict(float)
        self.cold_calls = defaultdict(int)
        self.root_s = 0.0  # duration of spans with no traced parent
        self._stack = []
        self._keys = set()
        self._patched = []

    def _wrap(self, name, fn):
        key_of = BUILD_KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time of traced children
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                self.self_s[name] += duration - frame[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += duration
                else:
                    self.root_s += duration
                if key_of is not None:
                    key = key_of(*args, **kwargs)
                    if key in self._keys:
                        self.warm_s[name] += duration
                    else:
                        self._keys.add(key)
                        self.cold_s[name] += duration
                        self.cold_calls[name] += 1

        return traced

    def install(self, modules=TRACED):
        """Wrap every traced function of the given (already importable)
        modules wherever a loaded squeezelab namespace binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = {}
        for mod_name, names in modules.items():
            module = import_module(f"squeezelab.{mod_name}")
            for name in names:
                fn = getattr(module, name)
                targets[id(fn)] = (fn, self._wrap(f"{mod_name}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "squeezelab" or mod_name.startswith("squeezelab.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]
                    self._patched.append((namespace, attr, value))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    def summary(self):
        """Per-name totals as plain JSON-ready dicts."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "cold_s": dict(self.cold_s),
            "warm_s": dict(self.warm_s),
            "cold_calls": dict(self.cold_calls),
            "root_s": self.root_s,
        }
