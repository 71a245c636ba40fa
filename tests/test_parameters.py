"""Parameter types and the derived structure / evolution factors."""

import cmath
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from squeezelab import (
    DegenerateEvolutionError,
    DisplacementParam,
    GuardViolation,
    SqueezeParam,
    StructureFactors,
    evolution_factors,
    make_displacement,
    make_squeeze,
    structure_factors,
)
from squeezelab.parameters import finite_time

LN2 = math.log(2.0)

R_SWEEP = [0.0, 0.25, LN2, 1.5]
PHI_SWEEP = [0.0, math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2, math.pi]


class TestDisplacement:
    def test_zero(self):
        assert make_displacement(0.0, 0.0).alpha == 0.0

    def test_position_eight(self):
        d = make_displacement(8.0, 0.0)
        assert d.alpha == pytest.approx(8.0 / math.sqrt(2.0), rel=1e-15)
        assert abs(d.alpha - 5.65685424949238) < 1e-10

    def test_momentum_eight(self):
        d = make_displacement(0.0, 8.0)
        assert d.alpha == pytest.approx(1j * 8.0 / math.sqrt(2.0), rel=1e-15)

    def test_alpha_identity(self):
        d = make_displacement(1.25, -0.75)
        assert d.alpha == complex(1.25, -0.75) / math.sqrt(2.0)
        assert abs(d.alpha) ** 2 == pytest.approx((1.25**2 + 0.75**2) / 2.0, rel=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            make_displacement(bad, 0.0)
        with pytest.raises(ValueError):
            make_displacement(0.0, bad)

    @pytest.mark.parametrize("x0, p0", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.5)])
    def test_non_finite_rejected_when_built_directly(self, x0, p0):
        with pytest.raises(ValueError, match=re.escape(f"displacement must be finite, got ({x0}, {p0})")):
            DisplacementParam(x0, p0)


class TestSqueeze:
    def test_negative_real_axis(self):
        sq = make_squeeze(LN2, math.pi)
        assert sq.phi == math.pi

    def test_imaginary_axis(self):
        sq = make_squeeze(LN2, math.pi / 2)
        assert sq.phi == math.pi / 2

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            make_squeeze(-0.1, 0.0)

    def test_phase_wrapping(self):
        assert make_squeeze(1.0, 3.0 * math.pi).phi == pytest.approx(math.pi, abs=1e-12)
        assert make_squeeze(1.0, -math.pi).phi == pytest.approx(math.pi, abs=1e-12)
        assert -math.pi < make_squeeze(1.0, -4.0).phi <= math.pi

    def test_zero_squeeze_cartesian_parts_vanish(self):
        sq = make_squeeze(0.0, 2.0)
        assert sq.r == 0.0 and sq.phi == 0.0


class TestFiniteNumbers:
    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda: DisplacementParam(10**400, 0), "displacement"),
            (lambda: SqueezeParam(10**400, 0), "squeeze parameters"),
            (lambda: make_displacement(10**400, 0), "displacement"),
            (lambda: make_squeeze(10**400), "squeeze parameters"),
            (lambda: finite_time(10**400), "time t"),
        ],
        ids=["DisplacementParam", "SqueezeParam", "make_displacement", "make_squeeze", "finite_time"],
    )
    def test_int_beyond_the_float_range(self, build, what):
        # float() cannot hold 10**400: a ValueError naming the parameter, not a bare OverflowError
        with pytest.raises(ValueError, match=f"^{what} must be finite, got a number beyond the float range$"):
            build()

    def test_messages_show_the_converted_floats(self):
        with pytest.raises(ValueError, match=r"^squeeze magnitude must be non-negative, got -1.0$"):
            make_squeeze(-1)
        with pytest.raises(ValueError, match=r"^squeeze parameters must be finite, got \(1.0, nan\)$"):
            make_squeeze(1, "nan")
        assert make_displacement(1, 2) == DisplacementParam(1.0, 2.0)
        assert finite_time(3) == 3.0 and type(finite_time(3)) is float


class TestStructureFactors:
    @pytest.mark.parametrize(
        "field, change, match",
        [
            ("script_s", lambda v: -v, "S > 0 and F4 > 0"),
            ("f3", lambda v: 1.1 * v, "F3 is not a phase"),
            ("f1", lambda v: 1.1 * v, r"conj\(F1\) F1 = F4\^2 violated"),
            ("f2", lambda v: v + 0.1, r"F2 \+ conj\(F2\) = 2/F4\^2 violated"),
            ("kappa", lambda v: v + 0.1, r"F4 = S sqrt\(1 \+ 4 kappa\^2\) violated"),
        ],
    )
    def test_identity_refused_when_built_directly(self, field, change, match):
        sf = structure_factors(make_squeeze(LN2, math.pi / 2))
        assert isinstance(replace(sf), StructureFactors)
        with pytest.raises(ValueError, match=match):
            replace(sf, **{field: change(getattr(sf, field))})

    def test_identity_squeeze(self):
        sf = structure_factors(make_squeeze(0.0, 0.0))
        assert sf.script_s == 1.0
        assert sf.kappa == 0.0
        assert sf.f1 == 1.0 and sf.f2 == 1.0 and sf.f3 == 1.0 and sf.f4 == 1.0

    def test_real_squeeze_ln2(self):
        # cosh = 1.25, sinh = 0.75
        sf = structure_factors(make_squeeze(LN2, 0.0))
        assert sf.f1 == pytest.approx(2.0, rel=1e-14)
        assert sf.f2 == pytest.approx(0.25, rel=1e-14)
        assert sf.f3 == pytest.approx(1.0, rel=1e-14)
        assert sf.f4 == pytest.approx(2.0, rel=1e-14)
        assert sf.kappa == 0.0

    def test_imaginary_squeeze_ln2(self):
        sf = structure_factors(make_squeeze(LN2, math.pi / 2))
        assert sf.kappa == pytest.approx(0.3, rel=1e-14)
        assert sf.script_s == pytest.approx(1.25, rel=1e-14)
        assert sf.f4 == pytest.approx(math.sqrt(2.125), rel=1e-12)
        assert sf.f4 == pytest.approx(sf.script_s * math.sqrt(1 + 4 * sf.kappa**2), rel=1e-14)

    @pytest.mark.parametrize("r", R_SWEEP)
    @pytest.mark.parametrize("phi", PHI_SWEEP)
    def test_identities(self, r, phi):
        sf = structure_factors(make_squeeze(r, phi))
        assert abs(abs(sf.f3) - 1.0) <= 1e-12
        assert abs(sf.f1.conjugate() * sf.f1 - sf.f4**2) <= 1e-12 * max(1.0, sf.f4**2)
        assert abs(sf.f2 + sf.f2.conjugate() - 2.0 / sf.f4**2) <= 1e-12
        assert abs(sf.f4 - sf.script_s * math.sqrt(1 + 4 * sf.kappa**2)) <= 1e-12
        assert sf.f4 > 0.0 and sf.script_s > 0.0

    # phi = pi grid points where S = cosh r - sinh r is tiny and 2/F4^2 is large
    @pytest.mark.parametrize("r", [9.5, 9.75, 12.25, 15.0, 17.75])
    def test_f2_identity_is_relative(self, r):
        sf = structure_factors(make_squeeze(r, math.pi))
        twice_re_f2 = 2.0 / sf.f4**2
        assert twice_re_f2 > 1e8
        assert abs(sf.f2 + sf.f2.conjugate() - twice_re_f2) <= 1e-12 * twice_re_f2

    @pytest.mark.parametrize("r", [18.75, 19.0, 20.0])
    def test_vanishing_script_s_is_guarded(self, r):
        with pytest.raises(GuardViolation, match="S = cosh r"):
            structure_factors(make_squeeze(r, math.pi))

    @pytest.mark.parametrize("r", R_SWEEP)
    @pytest.mark.parametrize("phi", PHI_SWEEP)
    def test_f3_phase_form(self, r, phi):
        sf = structure_factors(make_squeeze(r, phi))
        assert abs(sf.f3 - cmath.exp(-2j * math.atan(2.0 * sf.kappa))) <= 1e-12

    @pytest.mark.parametrize("r", R_SWEEP)
    def test_phi_zero_collapse(self, r):
        sf = structure_factors(make_squeeze(r, 0.0))
        assert abs(sf.f1 - math.exp(r)) <= 1e-12 * math.exp(r)
        assert abs(sf.f4 - math.exp(r)) <= 1e-12 * math.exp(r)
        assert abs(sf.f2 - math.exp(-2.0 * r)) <= 1e-12
        assert abs(sf.f3 - 1.0) <= 1e-12

    @pytest.mark.parametrize("r", R_SWEEP)
    @pytest.mark.parametrize("phi", PHI_SWEEP)
    def test_script_s_three_forms(self, r, phi):
        sq = make_squeeze(r, phi)
        sf = structure_factors(sq)
        ch, sh = math.cosh(r), math.sinh(r)
        form2 = ch + math.cos(phi) * sh
        form3 = math.exp(r) * math.cos(phi / 2) ** 2 + math.exp(-r) * math.sin(phi / 2) ** 2
        assert abs(sf.script_s - form2) <= 1e-12 * max(1.0, form2)
        assert abs(sf.script_s - form3) <= 1e-12 * max(1.0, form3)
        if r > 0:
            form1 = ch + math.cos(sq.phi) * sh
            assert abs(sf.script_s - form1) <= 1e-12 * max(1.0, form1)


class TestEvolutionFactors:
    def test_time_zero_identity(self):
        sf = structure_factors(make_squeeze(LN2, math.pi / 2))
        ef = evolution_factors(sf, make_displacement(3.0, -1.0), 0.0)
        assert ef.b_factor == pytest.approx(1.0, abs=1e-15)
        assert ef.a_factor == pytest.approx(1.0, abs=1e-15)
        assert ef.x_shift == pytest.approx(3.0, abs=1e-15)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5, 4.0])
    def test_unsqueezed_b_is_phase(self, t):
        sf = structure_factors(make_squeeze(0.0, 0.0))
        ef = evolution_factors(sf, make_displacement(0.0, 0.0), t)
        assert abs(ef.b_factor - cmath.exp(1j * t)) <= 1e-14

    def test_quarter_period_real_squeeze(self):
        sf = structure_factors(make_squeeze(LN2, 0.0))
        ef = evolution_factors(sf, make_displacement(8.0, 1.5), math.pi / 2)
        assert abs(ef.b_factor - 0.25j) <= 1e-15
        assert ef.x_shift == pytest.approx(1.5, abs=1e-14)
        # single-factor reading: A = (B - 2i sin t / F4^2)/B = -1 here
        assert abs(ef.a_factor - (-1.0)) <= 1e-13

    def test_classical_center_serves_whole_grid(self):
        sf = structure_factors(make_squeeze(0.3, 1.0))
        disp = make_displacement(2.0, -3.0)
        t = 0.8
        ef = evolution_factors(sf, disp, t)
        expected = 2.0 * math.cos(t) - 3.0 * math.sin(t)
        assert ef.x_shift == pytest.approx(expected, rel=1e-14)
        x = np.linspace(-5, 5, 11)
        assert np.allclose(x - ef.x_shift, x - expected)

    def test_degenerate_b_detected(self):
        # at t = pi/2 the true |B| is e^{-2r} = 1.8e-35, and the computed one
        # is 6.1e-17, the float value of cos(pi/2): only rounding is left
        sf = structure_factors(make_squeeze(40.0, 0.0))
        with pytest.raises(DegenerateEvolutionError, match=r"\|B\| = 6.1\de-17 at t = 1.5707963267948966 is "
                                                            r"below 1e-14, within the rounding of cos t and sin t"):
            evolution_factors(sf, make_displacement(0.0, 0.0), math.pi / 2)
