"""Exception and warning hierarchy for the calibration engine."""


class CalibrationError(Exception):
    """Base class for all lsvcal errors."""


class HypothesisViolation(CalibrationError):
    """A structural model assumption failed on the grid (positivity of b,
    diffusion floor, correlation definiteness, domain containment)."""

    def __init__(self, name, message=""):
        self.name = name
        super().__init__(f"{name}: {message}" if message else name)


class OutOfRange(CalibrationError):
    """Input value outside its admissible interval."""


class BandwidthTooSmall(CalibrationError):
    """Initial-density bandwidth under-resolved on the mesh (< 3 cells)."""


class ParseError(CalibrationError):
    """Malformed quote file; carries the offending 1-based line number."""

    def __init__(self, line, message=""):
        self.line = line
        super().__init__(f"line {line}: {message}" if message else f"line {line}")


class DuplicateQuote(CalibrationError):
    """Two quotes share the same (maturity, strike)."""


class InsufficientData(CalibrationError):
    """Too few maturities or strikes to build a usable surface."""


class CalendarArbitrage(CalibrationError):
    """Interpolated total variance decreases in maturity at a fixed strike."""


class DegenerateSurface(CalibrationError):
    """Dupire denominator nearly singular on too many grid nodes."""


class StabilityFailure(CalibrationError):
    """A time step produced NaNs or destroyed the density's mass."""


class DegenerateDenominator(CalibrationError):
    """The volatility-weighted marginal fell below its floor at some spot node."""

    def __init__(self, s_index, value=None):
        self.s_index = s_index
        self.value = value
        msg = f"weighted marginal below floor at S-index {s_index}"
        if value is not None:
            msg += f" (value {value:.3e})"
        super().__init__(msg)


class NonElliptic(CalibrationError):
    """Assembled diffusion matrix lost its uniform positive-definiteness."""


class NonEllipticAssembly(NonElliptic):
    """Coefficient assembly produced a non-elliptic operator."""


class MembershipLost(CalibrationError):
    """An iterate left the admissible set (pointwise bounds or norm cap).

    Carries the iteration index, the running report and the offending
    trajectory so callers can still persist artifacts.  ``detail`` ends
    the message, naming where the iterate left and which bound it broke.
    """

    def __init__(self, iteration, report=None, density=None, detail=""):
        self.iteration = iteration
        self.report = report
        self.density = density
        super().__init__(f"iterate {iteration} left the admissible set{detail}")


class NotConverged(CalibrationError):
    """Fixed-point loop exhausted its iteration budget."""

    def __init__(self, report=None, density=None):
        self.report = report
        self.density = density
        n = report.iterations if report is not None else "?"
        super().__init__(f"no convergence after {n} iterations")


class HorizonExhausted(CalibrationError):
    """Horizon halving failed to produce a convergent run.

    ``halvings`` counts the halvings made, which stops short of the allowed
    number once the horizon is one time step.  ``report`` and ``density``
    are those of the last attempt, as carried by its ``last_error``.
    """

    def __init__(self, halvings, last_error=None):
        self.halvings = halvings
        self.last_error = last_error
        self.report = getattr(last_error, "report", None)
        self.density = getattr(last_error, "density", None)
        super().__init__(f"still failing after {halvings} horizon halvings")


class ArbitrageWarning(UserWarning):
    """Raw quotes show non-monotone calendar total variance."""


class CrossTermCFL(UserWarning):
    """Explicit mixed-derivative correction exceeds its stability estimate."""
