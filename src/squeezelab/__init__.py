"""Displaced and squeezed number states of the harmonic oscillator.

Two independent constructions of the same family of states, exact time
evolution, moments, and verification machinery that holds the two
constructions against each other at complex-amplitude level.  All
quantities are in natural oscillator units (hbar = m = omega = 1).

The package's public names are those in its modules' __all__ lists.
"""

from .errors import *
from .parameters import *
from .special import *
from .states import *
from .fock import *
from .observables import *
from .equivalence import *
from .presets import *

__version__ = "0.1.0"
