"""The package's public names are the union of its modules' __all__ lists."""

import subprocess
import sys
import types

import pytest

import squeezelab
from squeezelab import equivalence, errors, fock, observables, parameters, presets, special, states

MODULES = [errors, parameters, special, states, fock, observables, equivalence, presets]

# The 47 names the package exported when __init__ listed them one by one.
EARLIER_EXPORTS = {
    "DegenerateEvolutionError", "GuardViolation",
    "DisplacementParam", "EvolutionFactors", "SqueezeParam", "StructureFactors", "evolution_factors",
    "make_displacement", "make_squeeze", "structure_factors",
    "QuadratureSpec", "hermite", "integrate", "normalized_hermite", "oscillator_eigenfunctions",
    "DEFAULT_GRID", "GridSpec", "StateSpec", "density", "density_surface", "evolved_amplitude",
    "psi_displaced_number_evolved", "psi_squeezed", "psi_squeezed_number", "psi_squeezed_number_evolved",
    "FockOperator", "FockState", "displaced_number_coeffs", "displacement_bch", "ladder_matrices",
    "matrix_exponential", "number_state", "squeeze_bch", "squeezed_number_coeffs", "synthesize", "time_evolve",
    "MomentSet", "moments_closed", "moments_numeric", "uncertainty_product", "uncertainty_product_width_form",
    "VerificationReport", "check_classical_motion", "check_normalization", "compare_formalisms",
    "FIGURE_PRESETS", "figure_spec",
}


def public_names():
    return {
        name for name, value in vars(squeezelab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_all_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(squeezelab, name) is getattr(module, name)


def test_public_names_are_the_union_of_module_all():
    assert public_names() == {name for module in MODULES for name in module.__all__}


def test_earlier_exports_kept():
    assert len(EARLIER_EXPORTS) == 47
    assert EARLIER_EXPORTS <= public_names()


def test_import_leaves_the_cli_unloaded():
    code = "import sys, squeezelab; print('squeezelab.cli' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
