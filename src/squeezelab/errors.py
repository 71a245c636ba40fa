"""Exception types shared across the package."""


class GuardViolation(ValueError):
    """A numerical guard was violated (truncation, parameter range, window size).

    Raised when a requested computation falls outside the domain where the
    implementation can honour its accuracy contract.
    """


class DegenerateEvolutionError(GuardViolation):
    """|B| < 1e-14 for the time-evolution factor B = cos t + i F2 sin t: B never
    vanishes (Re F2 > 0), but there it is within the rounding of cos t and sin t."""
