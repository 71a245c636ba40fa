"""errors.guard, the one rule for a value against its limit, and the nine guards that call it."""

import math
import re

import numpy as np
import pytest

from squeezelab import (
    FockOperator,
    GridSpec,
    QuadratureSpec,
    StateSpec,
    check_normalization,
    density_surface,
    displaced_number_coeffs,
    displacement_bch,
    hermite,
    make_displacement,
    make_squeeze,
    matrix_exponential,
    moments_numeric,
    squeeze_bch,
)
from squeezelab import fock
from squeezelab.errors import GuardViolation, guard

VACUUM = StateSpec(0, make_displacement(0.0, 0.0), make_squeeze(0.0, 0.0))


class TestGuard:
    @pytest.mark.parametrize("value, limit", [(0, 0), (0.0, 0.0), (1e-8, 1e-8), (64, 64), (-math.inf, 1.0), (3, 3.5)])
    def test_value_at_or_below_the_limit_is_admitted(self, value, limit):
        assert guard("x", value, limit) is None

    @pytest.mark.parametrize("value, shown", [(math.nan, "nan"), (math.inf, "inf"), (2.0, "2"), (1.00000001e-8, "1e-08")])
    def test_value_past_the_limit_is_refused(self, value, shown):
        with pytest.raises(GuardViolation, match=f"^x = {shown} exceeds 1e-08$"):
            guard("x", value, 1e-8)

    def test_message_form(self):
        with pytest.raises(GuardViolation) as refused:
            guard("|alpha|^2", 81.23456, 64, "none fits")
        assert str(refused.value) == "|alpha|^2 = 81.23 exceeds 64: none fits"
        with pytest.raises(GuardViolation) as refused:
            guard("cost", 5.02e8, 1e8)
        assert str(refused.value) == "cost = 5.02e+08 exceeds 1e+08"

    def test_int_past_the_float_range(self):
        with pytest.raises(GuardViolation, match=r"^x = 5.010e\+402 exceeds 1e\+08$"):
            guard("x", 10**400 * 501, 1e8)

    def test_numpy_scalars(self):
        guard("x", np.float64(1.0), 1)
        with pytest.raises(GuardViolation, match=r"^x = 3 exceeds 2$"):
            guard("x", np.int64(3), 2)


# Each of the nine value-against-limit guards, triggered, with the start of
# its message and its limit as shown.
REFUSALS = [
    (lambda: matrix_exponential(FockOperator(np.array([[0, 1], [1, 0]], dtype=complex))),
     "||G + G^dag||_max", "1e-12"),
    (lambda: displacement_bch(9.0, 64), "|alpha|^2", "64"),
    (lambda: squeeze_bch(make_squeeze(3.5, 0.0), 256), "sinh^2 r", "256"),
    (lambda: fock.displaced_squeezed_number(0, 30.0, make_squeeze(0.0, 0.0), 1024),
     "D(alpha) S(z)|n> at n = 0, N = 1024: ||c||_2 - 1", "1e-08"),
    (lambda: displaced_number_coeffs(32, 5 + 3j, 64),
     "D(alpha)|n> at |alpha| = 5.83, n = 32, N = 64: series rounding-error bound", "1e-08"),
    (lambda: moments_numeric(displaced_number_coeffs(0, 4.0, 32), 0.0), "|truncation leakage|", "1e-10"),
    (lambda: hermite(10**6, np.zeros(2)), "Hermite recurrence to n = 1000000 on 2 samples: cost n (samples + 500)",
     "1e+08"),
    (lambda: density_surface(VACUUM, GridSpec(-1.0, 1.0, 50, 0.0, 1.0, 2)),
     "density rows' largest |integral - 1| over [-1.0, 1.0]", "1e-06"),
    (lambda: check_normalization(VACUUM, 0.0, QuadratureSpec(-1.0, 1.0, 101)),
     "estimated tail mass outside the quadrature window [-1.0, 1.0]", "1e-10"),
]


@pytest.mark.parametrize("build, what, limit", REFUSALS, ids=[
    "skewness", "D_alpha", "S_sinh", "column_norm", "series_bound", "leakage", "hermite_cost", "density_rows",
    "quadrature_tail",
])
def test_each_refusal_names_its_value_and_limit(build, what, limit):
    with pytest.raises(GuardViolation) as refused:
        build()
    shown = re.match(rf"^{re.escape(what)} = (\S+) exceeds {re.escape(limit)}(: |$)", str(refused.value))
    assert shown, str(refused.value)
    assert float(shown[1]) > float(limit)
