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
from .mixing import b_values


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
    """Spot diffusion amplitude sigma_D(t, S) * S * b(y) on the grid.

    Raises HypothesisViolation when ``max|sigma_D| max|S| max|b|``, a bound
    of the amplitude taken in Python floats, or its square overflows on
    finite factors: b is then too large for a finite amplitude and operator
    coefficient, and no product array is formed.  A non-finite b is left to
    ``validate_model``'s b-positivity.
    """

    def __init__(self, sigma_d: np.ndarray, b, grid: GridSpec):
        self.sigma_d = np.asarray(sigma_d, dtype=float)
        self.b_vals = b_values(b, grid)
        self._s = grid.s_nodes
        sd_sup = float(np.max(np.abs(self.sigma_d))) * max(abs(grid.s_min), abs(grid.s_max))
        b_sup = float(np.max(np.abs(self.b_vals)))
        bound = sd_sup * b_sup
        if math.isfinite(sd_sup) and math.isfinite(b_sup) and bound * bound == math.inf:
            raise HypothesisViolation(
                "alpha-floor", f"alpha1^2 = (sigma_D S b)^2 overflows: max|sigma_D S| <= "
                               f"{sd_sup:.3e} and max|b| = {b_sup:.3e} (model.b too large)")

    def eval_slice(self, k: int, grid: GridSpec) -> np.ndarray:
        return (self.sigma_d[k] * self._s)[:, None] * self.b_vals[None, :]


def eval_coeff(c, k: int, t: float, grid: GridSpec) -> np.ndarray:
    """Evaluate a coefficient on the (S, y) node tensor at time index k.

    A callable gets the S-nodes as a column and the y-nodes as a row.  A
    value of shape (1, n_y+2), a coefficient of y alone, comes back as that
    row, which broadcasts against the (S, y) planes it meets; any other
    value is spread over the plane.
    """
    shape = (grid.n_s + 2, grid.n_y + 2)
    if c is None:
        return np.zeros(shape)
    if hasattr(c, "eval_slice"):
        return np.asarray(c.eval_slice(k, grid), dtype=float)
    if callable(c):
        v = np.asarray(c(t, grid.s_nodes[:, None], grid.y_nodes[None, :]), dtype=float)
        return v if v.shape == (1, shape[1]) else np.broadcast_to(v, shape).copy()
    return np.full(shape, float(c))


B_REF_MODES = ("center", "mean")      # the anchors of ModelSpec.b_ref, default first


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

    def b_ref(self, grid: GridSpec, mode: str = B_REF_MODES[0],
              psi: np.ndarray | None = None) -> float:
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


def diffusion_products(spec: ModelSpec, grid: GridSpec, k: int) -> dict:
    """Diffusion products at time index k and unit mixing ratio,
    ``a_s = rho11 a1^2``, ``a_x = 2 rho12 a1 a2`` and ``a_y = rho22 a2^2``;
    the frozen operator evaluates them per slice rather than storing them."""
    t = grid.t_nodes[k]
    a1 = eval_coeff(spec.alpha1, k, t, grid)
    a2 = eval_coeff(spec.alpha2, k, t, grid)
    rho = spec.corr.entries
    return {"a_s": rho[0, 0] * a1 * a1, "a_x": 2.0 * rho[0, 1] * a1 * a2,
            "a_y": rho[1, 1] * a2 * a2}


def operator_coefficients(spec: ModelSpec, grid: GridSpec, k: int) -> dict:
    """Divergence-form coefficients of the forward operator at time index k
    and unit mixing ratio; ``linpde.assemble_slice`` multiplies a ratio in.

    The operator is ``-d2_S(a_s u) - d2_Sy(a_x u) - d2_y(a_y u) + d1_S(b1 u)
    + d1_y(b2 u) + g u`` with the ``diffusion_products`` ``a_s``, ``a_x``
    and ``a_y``, the drifts ``b1`` (with the rate's S-drift) and ``b2``, and
    ``g`` (with the rate).
    """
    t = grid.t_nodes[k]
    return {
        **diffusion_products(spec, grid, k),
        "b1": eval_coeff(spec.beta1, k, t, grid) + spec.rate * grid.s_nodes[:, None],
        "b2": eval_coeff(spec.beta2, k, t, grid),
        "g": eval_coeff(spec.gamma, k, t, grid) + spec.rate,
    }


@dataclass
class ValidationReport:
    """Measured hypothesis constants of a model that satisfies them."""

    b_inf: float
    b_sup: float
    bsq_slope: float
    alpha1_min: float
    alpha2_min: float
    corr_min_eig: float


def measured_bsq_slope(b, grid: GridSpec) -> float:
    """sup |d(b^2)/dy| by second-order differences on the y-nodes."""
    b2 = b_values(b, grid) ** 2
    if np.all(b2 == b2[0]):
        return 0.0
    return float(np.max(np.abs(fd.d1(b2, grid.dy, axis=0))))


def _sampled_range(c, grid: GridSpec) -> tuple:
    """Smallest and largest value of a coefficient over nine sampled times;
    both are NaN if any value is."""
    ks = np.unique(np.linspace(0, grid.n_t, 9).astype(int))
    vals = np.array([eval_coeff(c, int(k), grid.t_nodes[k], grid) for k in ks])
    return float(np.min(vals)), float(np.max(vals))


def validate_model(spec: ModelSpec, grid: GridSpec) -> ValidationReport:
    """Check the structural hypotheses on the grid and measure the constants.

    Each failure raises HypothesisViolation, and a NaN or inf fails every
    check: b finite and strictly positive on the y-nodes and at ``y0``
    (which the ``center`` anchor divides by), a positive ellipticity floor,
    each diffusion amplitude finite and at least that floor, and the
    initial point inside the domain.  The squares of b (the mixing ratio
    forms it), of each operator coefficient's bound and of that bound over
    its stencil spacing (h^2 for a diffusion entry, 2h for a drift, 1 for
    gamma) must be finite: the ellipticity check squares the diffusion
    entries, and a sweep's elimination multiplies stencil weights.  The
    bounds are taken in Python floats, before any array holds them.
    ``CorrelationMatrix`` rejects a bad correlation matrix when it is built.
    """
    bv = b_values(spec.b, grid)
    b_all = np.append(bv, spec.b_ref(grid))        # y0 need not be a node
    if not np.all(np.isfinite(b_all) & (b_all > 0)):
        raise HypothesisViolation(
            "b-positivity", f"b must be finite and > 0 on the y-nodes and at y0 "
                            f"(min {float(np.min(b_all)):.3e})")
    b_inf, b_sup = float(np.min(b_all)), float(np.max(b_all))
    if b_sup * b_sup == math.inf:
        raise HypothesisViolation(
            "b-positivity", f"b^2 overflows (max b = {b_sup:.3e}, model.b too large)")
    if not spec.alpha_floor > 0:
        raise HypothesisViolation("alpha-floor", f"floor {spec.alpha_floor} must be > 0")
    (a1_min, a1_max), (a2_min, a2_max), beta1, beta2, gamma = (
        _sampled_range(c, grid)
        for c in (spec.alpha1, spec.alpha2, spec.beta1, spec.beta2, spec.gamma))
    for name, lo, hi in (("alpha1", a1_min, a1_max), ("alpha2", a2_min, a2_max)):
        if not (lo >= spec.alpha_floor and hi < math.inf):
            raise HypothesisViolation("alpha-floor", f"{name} must be finite and >= floor "
                                      f"{spec.alpha_floor:.3e} (min {lo:.3e}, max {hi:.3e})")
    # a_s = a1^2 / 2 is stored, then multiplied by a mixing ratio <= 1/b_inf^2
    ds, dy, s_sup = grid.ds, grid.dy, max(abs(grid.s_min), abs(grid.s_max))
    for name, bound, h in (
            ("alpha1", 0.5 * a1_max * a1_max * max(1.0, 1.0 / b_inf / b_inf), ds * ds),
            ("model.alpha2", 0.5 * a2_max * a2_max, dy * dy),
            ("model.beta1", max(map(abs, beta1)), 2 * ds),
            ("model.rate", abs(spec.rate) * s_sup, 2 * ds),
            ("model.beta2", max(map(abs, beta2)), 2 * dy),
            ("model.gamma", max(map(abs, gamma)), 1.0)):
        worst = max(bound, bound / h)
        if not worst * worst < math.inf:          # NaN fails too
            raise HypothesisViolation("coefficient-bound", (
                f"{name} too large: its operator coefficient {bound:.3e}, or that "
                f"over {h:.3e}, squares to inf"))
    if not grid.contains_interior(spec.spot0, spec.y0):
        raise HypothesisViolation(
            "domain", f"initial point ({spec.spot0}, {spec.y0}) not strictly interior")
    return ValidationReport(
        b_inf=float(bv.min()), b_sup=float(bv.max()),
        bsq_slope=measured_bsq_slope(spec.b, grid), alpha1_min=a1_min,
        alpha2_min=a2_min, corr_min_eig=spec.corr.min_eig)


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
