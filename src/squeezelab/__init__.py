"""Displaced and squeezed number states of the harmonic oscillator.

Two independent constructions of the same family of states, exact time
evolution, moments, and verification machinery that holds the two
constructions against each other at complex-amplitude level.  All
quantities are in natural oscillator units (hbar = m = omega = 1).
"""

from .errors import DegenerateEvolutionError, GuardViolation
from .parameters import (
    DisplacementParam,
    EvolutionFactors,
    SqueezeParam,
    StructureFactors,
    evolution_factors,
    make_displacement,
    make_squeeze,
    structure_factors,
)
from .special import (
    QuadratureSpec,
    hermite,
    integrate,
    normalized_hermite,
    oscillator_eigenfunctions,
)
from .states import (
    DEFAULT_GRID,
    GridSpec,
    StateSpec,
    density,
    density_surface,
    evolved_amplitude,
    psi_displaced_number_evolved,
    psi_squeezed,
    psi_squeezed_number,
    psi_squeezed_number_evolved,
)
from .fock import (
    FockOperator,
    FockState,
    displaced_number_coeffs,
    displacement_bch,
    ladder_matrices,
    matrix_exponential,
    number_state,
    squeeze_bch,
    squeezed_number_coeffs,
    synthesize,
    time_evolve,
)
from .observables import (
    MomentSet,
    moments_closed,
    moments_numeric,
    uncertainty_product,
    uncertainty_product_width_form,
)
from .equivalence import (
    VerificationReport,
    check_classical_motion,
    check_normalization,
    compare_formalisms,
)
from .presets import FIGURE_PRESETS, figure_spec

__version__ = "0.1.0"
