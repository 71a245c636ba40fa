"""Built-in parameter presets for the density-surface figures.

All four presets are n = 1 states with |z| = ln 2:

    1: x0 = 8, p0 = 0, phi = 0       (squeeze along the real axis)
    2: x0 = 8, p0 = 0, phi = pi      (z = -ln 2)
    3: x0 = 8, p0 = 0, phi = pi/2    (z = i ln 2)
    4: x0 = 0, p0 = 8, phi = 0       (starts at the center, moving)
"""

import math

from .parameters import make_displacement, make_squeeze
from .states import StateSpec

__all__ = ["FIGURE_PRESETS", "figure_spec", "state_spec"]

_LN2 = math.log(2.0)

FIGURE_PRESETS = {
    1: dict(n=1, x0=8.0, p0=0.0, r=_LN2, phi=0.0),
    2: dict(n=1, x0=8.0, p0=0.0, r=_LN2, phi=math.pi),
    3: dict(n=1, x0=8.0, p0=0.0, r=_LN2, phi=math.pi / 2.0),
    4: dict(n=1, x0=0.0, p0=8.0, r=_LN2, phi=0.0),
}


def state_spec(params) -> StateSpec:
    """The state that the n, x0, p0, r and phi entries of a mapping describe."""
    return StateSpec(
        n=params["n"],
        disp=make_displacement(params["x0"], params["p0"]),
        sq=make_squeeze(params["r"], params["phi"]),
    )


def figure_spec(index: int) -> StateSpec:
    if index not in FIGURE_PRESETS:
        raise ValueError(f"figure preset must be 1..4, got {index}")
    return state_spec(FIGURE_PRESETS[index])
