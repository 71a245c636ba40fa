"""Exception types shared across the package, and the one rule for a value against its limit.

A refusal follows one of three rules, each with one owner:

- An upper limit.  guard(what, value, limit) admits value <= limit and
  nothing else, so a NaN fails it, and its message names the value and
  the limit.  Every value-against-limit check calls it: D's |alpha|^2 <= N
  and S's sinh^2 r <= N, the generator's skewness, the column norm and the
  series bound in fock, the moment leakage, the Hermite recurrence cost,
  the density rows and the quadrature tail.
- A finite value.  Where a closed form or a table is formed, a value that
  is not finite is refused and the message names what overflowed:
  density, the CLI's table emitter, the uncertainty forms, cosh_sinh and F4^2.
- A lower bound.  S > 0 (structure_factors), |B| >= 1e-14
  (evolution_factors, DegenerateEvolutionError) and the long double's
  63-bit mantissa (the factor series) each keep their own comparison.
"""

import decimal

__all__ = ["GuardViolation", "DegenerateEvolutionError"]


class GuardViolation(ValueError):
    """A numerical guard was violated (truncation, parameter range, window size).

    Raised when a requested computation falls outside the domain where the
    implementation can honour its accuracy contract.
    """


class DegenerateEvolutionError(GuardViolation):
    """|B| < 1e-14 for the time-evolution factor B = cos t + i F2 sin t: B never
    vanishes (Re F2 > 0), but there it is within the rounding of cos t and sin t."""


def guard(what, value, limit, cause=""):
    """Raise GuardViolation "<what> = <value> exceeds <limit>[: <cause>]" unless value <= limit; a NaN fails."""
    if not value <= limit:
        try:
            shown = f"{value:.4g}"
        except OverflowError:  # an int past the float range, as the Hermite cost at n = 10**400
            shown = f"{decimal.Decimal(value):.4g}"
        raise GuardViolation(f"{what} = {shown} exceeds {limit:g}" + (f": {cause}" if cause else ""))
