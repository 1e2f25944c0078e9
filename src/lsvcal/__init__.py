"""Local-stochastic-volatility calibration via a nonlocal forward PDE.

The engine solves the joint density of spot and volatility factor under a
two-factor model whose leverage function is pinned to a Dupire surface
through a conditional-moment ratio, using a short-time fixed-point
construction around a frozen-coefficient linear parabolic solver.
"""
from ._version import __version__
from .errors import (ArbitrageWarning, BandwidthTooSmall, CalendarArbitrage,
                     CalibrationError, CrossTermCFL, DegenerateDenominator,
                     DegenerateSurface, DensityBoundViolation, DuplicateQuote,
                     HorizonExhausted, HypothesisViolation, InsufficientData,
                     MembershipLost, NonElliptic, NonEllipticAssembly,
                     NotConverged, OutOfRange, ParseError, StabilityFailure)
from .fixed_point import (FixedPointReport, IterateBounds, MembershipResult,
                          apply_map, check_membership, iterate,
                          shrink_horizon, solve_lagged)
from .grids import GridSpec
from .holder import HolderNormEstimate, holder_norm
from .linpde import (CoefficientFields, LinearSolveReport, assemble_frozen,
                     assemble_slice, ellipticity_constant, solve_linear,
                     supnorm_time_bound)
from .market import (ImpliedSurface, OptionQuote, build_implied_surface,
                     dupire_forward_solve, dupire_local_vol, fv_mass,
                     load_quotes)
from .mixing import (GapRecord, MixingField, leverage, marginal, mixing_ratio,
                     ratio_gap_monitor)
from .model import (CorrelationMatrix, ModelSpec, SpotAmplitude,
                    ValidationReport, compatibility_residual,
                    convert_correlation, grid_mass, measured_bsq_slope,
                    smoothed_dirac, validate_model)
from .pipeline import (RunConfig, VerificationReport, reprice_calls,
                       run_pipeline, verify_calibration)

__all__ = [name for name in dir() if not name.startswith("_")]
