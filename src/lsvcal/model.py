"""Model primitives: correlation convention, coefficient bundle, densities.

Coefficients may be plain numbers, broadcasting callables ``f(t, S, y)`` or
objects exposing ``eval_slice(k, grid)`` for values tabulated on the grid
(the spot diffusion amplitude built from a Dupire surface uses the latter).

The correlation matrix follows the half-scaled convention: unit diagonal
entries are stored as 1/2 so the second-order operator reads directly off
the matrix without separate 1/2 factors; market correlations in (-1, 1)
map onto off-diagonal entries in (-1/2, 1/2).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fd
from .errors import BandwidthTooSmall, HypothesisViolation, OutOfRange
from .grids import GridSpec
from .mixing import b_values, mixing_ratio


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationMatrix:
    """2x2 half-scaled correlation matrix with its smallest eigenvalue."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        if not np.allclose(e, e.T, atol=1e-14):
            raise HypothesisViolation("correlation", "matrix not symmetric")
        if not np.allclose(np.diag(e), 0.5, atol=1e-14):
            raise HypothesisViolation("correlation", "diagonal entries must be 1/2")
        if abs(e[0, 1]) >= 0.5:
            raise HypothesisViolation("correlation", "off-diagonal must lie in (-1/2, 1/2)")
        if np.linalg.eigvalsh(e).min() <= 0:
            raise HypothesisViolation("correlation", "matrix not positive definite")
        object.__setattr__(self, "entries", e)

    @property
    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.entries).min())

    @property
    def off_diag(self) -> float:
        return float(self.entries[0, 1])

    @property
    def market_rho(self) -> float:
        return 2.0 * self.off_diag


def convert_correlation(rho_market: float) -> CorrelationMatrix:
    """Build the half-scaled matrix from a market correlation in (-1, 1).

    Emits a warning when the matrix is nearly singular (|rho| close to 1),
    since the ellipticity floor of the 2D operator degrades with the
    smallest eigenvalue (1 - |rho|)/2.
    """
    if not -1.0 < rho_market < 1.0:
        raise OutOfRange(f"market correlation {rho_market} outside (-1, 1)")
    m = CorrelationMatrix(np.array([[0.5, rho_market / 2.0],
                                    [rho_market / 2.0, 0.5]]))
    if m.min_eig < 1e-3:
        warnings.warn(f"correlation matrix nearly singular (min eig {m.min_eig:.2e})")
    return m


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

class SpotAmplitude:
    """Spot diffusion amplitude sigma_D(t, S) * S * b(y) on the grid."""

    def __init__(self, sigma_d: np.ndarray, b, grid: GridSpec):
        self.sigma_d = np.asarray(sigma_d, dtype=float)
        self.b_vals = b_values(b, grid)
        self._s = grid.s_nodes

    def eval_slice(self, k: int, grid: GridSpec) -> np.ndarray:
        return (self.sigma_d[k] * self._s)[:, None] * self.b_vals[None, :]


def eval_coeff(c, k: int, t: float, grid: GridSpec) -> np.ndarray:
    """Evaluate a coefficient on the (S, y) node tensor at time index k."""
    shape = (grid.n_s + 2, grid.n_y + 2)
    if c is None:
        return np.zeros(shape)
    if hasattr(c, "eval_slice"):
        return np.asarray(c.eval_slice(k, grid), dtype=float)
    if callable(c):
        s = grid.s_nodes[:, None]
        y = grid.y_nodes[None, :]
        return np.broadcast_to(np.asarray(c(t, s, y), dtype=float), shape).copy()
    return np.full(shape, float(c))


@dataclass
class ModelSpec:
    """Coefficient bundle of the forward equation.

    ``b`` transforms the volatility factor (callable of y or a constant);
    ``alpha1``/``alpha2`` are the diffusion amplitudes, ``beta1``/``beta2``
    the drifts and ``gamma`` the zeroth-order coefficient, all callables of
    (t, S, y), grid-tabulated objects or constants.  The risk-free rate adds
    the usual S-drift and discounting terms on top of beta1/gamma.
    """

    b: object
    alpha1: object
    alpha2: object
    corr: CorrelationMatrix
    rate: float = 0.0
    spot0: float = 100.0
    y0: float = 0.0
    beta1: object = None
    beta2: object = None
    gamma: object = None
    alpha_floor: float = 1e-4

    def b_ref(self, grid: GridSpec, mode: str = "center", psi: np.ndarray | None = None) -> float:
        """Anchor value of b used to freeze the mixing ratio.

        ``center`` evaluates b at the initial factor level; ``mean`` uses the
        density-weighted root mean square of b under psi.
        """
        if mode == "center":
            if callable(self.b):
                return float(self.b(self.y0))
            return float(self.b)
        if mode == "mean":
            if psi is None:
                raise ValueError("mean mode needs the initial density")
            bv = b_values(self.b, grid)
            w2 = np.outer(fd.trapezoid_weights(grid.n_s + 2, grid.ds),
                          fd.trapezoid_weights(grid.n_y + 2, grid.dy))
            num = float(np.sum(w2 * psi * (bv * bv)[None, :]))
            den = float(np.sum(w2 * psi))
            return math.sqrt(num / den)
        raise ValueError(f"unknown b_ref mode {mode!r}")


@dataclass
class ValidationReport:
    """Measured hypothesis constants and per-check flags."""

    b_inf: float
    b_sup: float
    bsq_slope: float
    alpha1_min: float
    alpha2_min: float
    corr_min_eig: float
    checks: dict

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())

    def as_dict(self) -> dict:
        return {
            "b_inf": self.b_inf, "b_sup": self.b_sup,
            "bsq_slope": self.bsq_slope,
            "alpha1_min": self.alpha1_min, "alpha2_min": self.alpha2_min,
            "corr_min_eig": self.corr_min_eig,
            "checks": dict(self.checks),
        }


def measured_bsq_slope(spec_or_b, grid: GridSpec) -> float:
    """sup |d(b^2)/dy| by second-order differences on the y-nodes."""
    b = spec_or_b.b if isinstance(spec_or_b, ModelSpec) else spec_or_b
    b2 = b_values(b, grid) ** 2
    if np.all(b2 == b2[0]):
        return 0.0
    return float(np.max(np.abs(fd.d1(b2, grid.dy, axis=0))))


def _alpha_min(alpha, grid: GridSpec) -> float:
    """Smallest value of a diffusion amplitude over nine sampled times."""
    ks = np.unique(np.linspace(0, grid.n_t, 9).astype(int))
    lo = math.inf
    for k in ks:
        lo = min(lo, float(eval_coeff(alpha, int(k), grid.t_nodes[int(k)], grid).min()))
    return lo


def validate_model(spec: ModelSpec, grid: GridSpec) -> ValidationReport:
    """Check the structural hypotheses on the grid and report the constants.

    Hard failures (b not strictly positive, a diffusion amplitude below the
    ellipticity floor, a bad correlation matrix, initial point outside the
    domain) raise HypothesisViolation; everything else is reported.
    """
    bv = b_values(spec.b, grid)
    if np.any(bv <= 0):
        raise HypothesisViolation("b-positivity", "b must be strictly positive")
    a1_min = _alpha_min(spec.alpha1, grid)
    a2_min = _alpha_min(spec.alpha2, grid)
    if a1_min < spec.alpha_floor or a2_min < spec.alpha_floor:
        raise HypothesisViolation(
            "alpha-floor",
            f"min alpha = {min(a1_min, a2_min):.3e} < floor {spec.alpha_floor:.3e}")
    if spec.corr.min_eig <= 0:
        raise HypothesisViolation("correlation", "not positive definite")
    if not grid.contains_interior(spec.spot0, spec.y0):
        raise HypothesisViolation(
            "domain", f"initial point ({spec.spot0}, {spec.y0}) not strictly interior")

    slope = measured_bsq_slope(spec, grid)
    checks = {
        "b_positive": True,
        "alpha_floor": True,
        "correlation_pd": True,
        "domain_contains_start": True,
        "b_smooth_slope_finite": bool(np.isfinite(slope)),
    }
    return ValidationReport(
        b_inf=float(bv.min()), b_sup=float(bv.max()), bsq_slope=slope,
        alpha1_min=a1_min, alpha2_min=a2_min,
        corr_min_eig=spec.corr.min_eig, checks=checks)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def grid_mass(psi: np.ndarray, grid: GridSpec) -> float:
    """2D trapezoid mass of a (S, y) slice."""
    ws = fd.trapezoid_weights(grid.n_s + 2, grid.ds)
    wy = fd.trapezoid_weights(grid.n_y + 2, grid.dy)
    return float(np.einsum("i,j,ij->", ws, wy, psi))


def smoothed_dirac(s0: float, y0: float, bandwidth_s: float, bandwidth_y: float,
                   floor: float, grid: GridSpec) -> np.ndarray:
    """Strictly positive, unit-mass regularization of the point initial law.

    A Gaussian bump centered at (s0, y0) rides on a constant floor; the bump
    is scaled so the total trapezoid mass is exactly one while the pointwise
    minimum never drops below the floor.  Bandwidths under three mesh widths
    are rejected as under-resolved.
    """
    if floor <= 0 or bandwidth_s <= 0 or bandwidth_y <= 0:
        raise ValueError("floor and bandwidths must be positive")
    if bandwidth_s < 3 * grid.ds or bandwidth_y < 3 * grid.dy:
        raise BandwidthTooSmall(
            f"bandwidths ({bandwidth_s:.4g}, {bandwidth_y:.4g}) below 3 cells "
            f"({3 * grid.ds:.4g}, {3 * grid.dy:.4g})")
    if not grid.contains_interior(s0, y0):
        raise ValueError("bump center must be strictly interior")

    s = grid.s_nodes[:, None]
    y = grid.y_nodes[None, :]
    bump = np.exp(-0.5 * ((s - s0) / bandwidth_s) ** 2
                  - 0.5 * ((y - y0) / bandwidth_y) ** 2)
    bump /= 2.0 * math.pi * bandwidth_s * bandwidth_y
    floor_mass = floor * grid_mass(np.ones_like(bump), grid)
    if floor_mass >= 1.0:
        raise ValueError("floor carries more than unit mass on this domain")
    psi = floor + bump * ((1.0 - floor_mass) / grid_mass(bump, grid))
    return psi


# ---------------------------------------------------------------------------
# full forward operator (divergence form) and corner compatibility
# ---------------------------------------------------------------------------

def divergence_apply(u: np.ndarray, a_s: np.ndarray, a_x: np.ndarray,
                     a_y: np.ndarray, b1: np.ndarray, b2: np.ndarray,
                     g: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spatial part of the forward operator in divergence form.

    Computes ``-d2_S(a_s u) - d2_Sy(a_x u) - d2_y(a_y u) + d1_S(b1 u)
    + d1_y(b2 u) + g u`` with second-order stencils on the full node set.
    """
    ds, dy = grid.ds, grid.dy
    out = -fd.d2(a_s * u, ds, axis=-2)
    out -= fd.d2_cross(a_x * u, ds, dy)
    out -= fd.d2(a_y * u, dy, axis=-1)
    out += fd.d1(b1 * u, ds, axis=-2)
    out += fd.d1(b2 * u, dy, axis=-1)
    out += g * u
    return out


def operator_coefficients(spec: ModelSpec, grid: GridSpec, k: int) -> dict:
    """Divergence-form coefficients of the forward operator at time index k
    and unit mixing ratio (:func:`with_ratio` multiplies one in).

    The keys match the arguments of :func:`divergence_apply`:
    ``a_s = rho11 a1^2``, ``a_x = 2 rho12 a1 a2``, ``a_y = rho22 a2^2``, the
    drifts ``b1`` (with the rate's S-drift) and ``b2``, and ``g`` (with the rate).
    """
    t = grid.t_nodes[k] if k < grid.n_t + 1 else grid.horizon
    a1 = eval_coeff(spec.alpha1, k, t, grid)
    a2 = eval_coeff(spec.alpha2, k, t, grid)
    rho = spec.corr.entries
    return {
        "a_s": rho[0, 0] * a1 * a1,
        "a_x": 2.0 * rho[0, 1] * a1 * a2,
        "a_y": rho[1, 1] * a2 * a2,
        "b1": eval_coeff(spec.beta1, k, t, grid) + spec.rate * grid.s_nodes[:, None],
        "b2": eval_coeff(spec.beta2, k, t, grid),
        "g": eval_coeff(spec.gamma, k, t, grid) + spec.rate,
    }


def with_ratio(co: dict, ratio, root) -> dict:
    """``co`` with the mixing ratio multiplied last into ``a_s`` and its
    square root ``root`` into ``a_x``; scalars or per-S-node arrays."""
    ratio, root = (np.asarray(r, dtype=float).reshape(-1, 1) if np.ndim(r) else float(r)
                   for r in (ratio, root))
    return dict(co, a_s=co["a_s"] * ratio, a_x=co["a_x"] * root)


def compatibility_residual(psi: np.ndarray, spec: ModelSpec, grid: GridSpec) -> float:
    """Residual of the full operator on the boundary-adjacent ring at t = 0.

    The continuous theory wants this to vanish exactly at the corner between
    the initial and lateral boundaries; for generic initial data it does not,
    so the discrete value is reported for diagnostics rather than enforced.
    """
    if np.any(psi <= 0):
        raise ValueError("initial density must be strictly positive")
    mix = mixing_ratio(psi, spec.b, grid)
    coeffs = with_ratio(operator_coefficients(spec, grid, 0), mix.ratio, mix.sqrt_ratio)
    op = divergence_apply(psi, grid=grid, **coeffs)
    ring = np.zeros(psi.shape, dtype=bool)
    ring[1, 1:-1] = ring[-2, 1:-1] = True
    ring[1:-1, 1] = ring[1:-1, -2] = True
    return float(np.max(np.abs(op[ring])))
