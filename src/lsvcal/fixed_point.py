"""Successive-substitution solver for the nonlocal forward equation.

Each pass freezes the mixing ratio at a constant anchor 1/b_ref^2, moves
the gap between the live ratio and the anchor to the right-hand side as a
source built from the previous iterate, and solves the resulting linear
equation.  Iterates must stay inside an admissible set: pointwise bounds
pinned to the initial density and a cap on the discrete Hoelder-2 norm.
When an iterate escapes, the horizon is halved and the construction retried,
mirroring the short-time nature of the underlying existence argument.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import fd
from .errors import (DegenerateDenominator, HorizonExhausted, MembershipLost,
                     NotConverged)
from .grids import GridSpec
from .holder import holder_norm
from .linpde import (CoefficientFields, assemble_frozen, assemble_slice,
                     solve_linear, stencil, step_slices)
from .mixing import mixing_ratio, ratio_gap_monitor
from .model import ModelSpec, measured_bsq_slope, operator_coefficients


@dataclass
class IterateBounds:
    """Admissible-set parameters for the iteration.

    An iterate p is admissible when ``p_lo/2 <= p <= p_hi + p_lo/2``
    pointwise and its Hoelder-2 norm estimate stays below ``holder_cap``.
    ``t_star`` is the current horizon, ``tol`` the sup-norm stopping
    tolerance on successive differences.
    """

    holder_cap: float
    p_lo: float
    p_hi: float
    t_star: float
    tol: float

    def __post_init__(self):
        if not 0 < self.p_lo <= self.p_hi:
            raise ValueError("density bounds must satisfy 0 < p_lo <= p_hi")
        if not (self.t_star > 0 and self.tol > 0 and self.holder_cap > 0):
            raise ValueError("horizon, tolerance and norm cap must be positive")

    @classmethod
    def from_initial(cls, psi: np.ndarray, grid: GridSpec,
                     cap_factor: float = 1.5, tol_factor: float = 1e-8) -> "IterateBounds":
        """Defaults anchored to the initial density: the norm cap is
        ``cap_factor`` times the initial norm, the tolerance ``tol_factor``
        times the initial supremum."""
        p_lo = float(psi.min())
        p_hi = float(psi.max())
        cap = cap_factor * holder_norm(psi, 2, grid.holder_exp, grid, kind="Sy").value
        return cls(holder_cap=cap, p_lo=p_lo, p_hi=p_hi,
                   t_star=grid.horizon, tol=tol_factor * p_hi)


@dataclass
class MembershipResult:
    """Outcome of the admissibility check for one iterate."""

    lower_ok: bool
    upper_ok: bool
    norm_ok: bool
    min_value: float
    max_value: float
    norm_value: float
    lower_bound: float
    upper_bound: float
    norm_cap: float

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.norm_ok

    def as_dict(self) -> dict:
        return {
            "lower_ok": self.lower_ok, "upper_ok": self.upper_ok,
            "norm_ok": self.norm_ok, "min": self.min_value,
            "max": self.max_value, "norm": self.norm_value,
            "lower_bound": self.lower_bound, "upper_bound": self.upper_bound,
            "norm_cap": self.norm_cap,
        }


def check_membership(p: np.ndarray, params: IterateBounds,
                     grid: GridSpec) -> MembershipResult:
    """Check the pointwise bounds and the norm cap for a trajectory."""
    p = np.asarray(p, dtype=float)
    lo = 0.5 * params.p_lo
    hi = params.p_hi + 0.5 * params.p_lo
    pmin = float(p.min())
    pmax = float(p.max())
    kind = "tSy" if p.ndim == 3 else "Sy"
    nrm = float(holder_norm(p, 2, grid.holder_exp, grid, kind=kind).value)
    return MembershipResult(
        lower_ok=bool(pmin >= lo), upper_ok=bool(pmax <= hi),
        norm_ok=bool(nrm <= params.holder_cap),
        min_value=pmin, max_value=pmax, norm_value=nrm,
        lower_bound=float(lo), upper_bound=float(hi),
        norm_cap=float(params.holder_cap))


@dataclass
class FixedPointReport:
    """Per-iteration residuals, norms and membership flags plus the outcome."""

    residuals: list = field(default_factory=list)
    norms: list = field(default_factory=list)
    membership: list = field(default_factory=list)
    gap_records: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    contraction: float | None = None
    r_squared: float | None = None
    t_star: float = 0.0
    tol: float = 0.0
    solver_residual: float = 0.0
    fixed_point_residual: float | None = None
    mode: str = "fixed-point"

    def fit_contraction(self) -> None:
        """Geometric fit of the residual ladder (needs >= 3 iterations)."""
        r = np.asarray([x for x in self.residuals if x > 0.0])
        if len(self.residuals) < 3 or len(r) < 3:
            return
        logs = np.log(r)
        n = np.arange(len(logs))
        slope, intercept = np.polyfit(n, logs, 1)
        fit = intercept + slope * n
        ss_res = float(np.sum((logs - fit) ** 2))
        ss_tot = float(np.sum((logs - logs.mean()) ** 2))
        self.contraction = float(np.exp(slope))
        self.r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    def as_json_dict(self) -> dict:
        return {
            "residuals": list(self.residuals),
            "norms": list(self.norms),
            "membership": list(self.membership),
            "gap_monitor": list(self.gap_records),
            "converged": self.converged,
            "iterations": self.iterations,
            "contraction": self.contraction,
            "r_squared": self.r_squared,
            "t_star": self.t_star,
            "tol": self.tol,
            "solver_residual": self.solver_residual,
            "fixed_point_residual": self.fixed_point_residual,
            "mode": self.mode,
        }


def _unit_products(spec: ModelSpec, grid: GridSpec, n_k: int) -> tuple:
    """The operator's ``a_s`` and ``a_x`` at ratio = root = 1, i.e.
    rho11 a1^2 and 2 rho12 a1 a2, over n_k time slices."""
    p1, p2 = (np.empty((n_k,) + grid.shape[1:]) for _ in range(2))
    for k in range(n_k):
        co = operator_coefficients(spec, grid, k, 1.0, 1.0)
        p1[k], p2[k] = co["a_s"], co["a_x"]
    return p1, p2


def _source(u: np.ndarray, spec: ModelSpec, b_ref: float, grid: GridSpec,
            products: tuple | None = None):
    """The source of `build_rhs` as a function of the time index.

    The mixing ratio is taken once, on the whole trajectory: its outputs
    are (n_k, n_s+2) and its floor uses the trajectory-wide maximum
    marginal.  Each call then builds one (n_s+2, n_y+2) source slice.
    """
    if products is None:
        products = _unit_products(spec, grid, u.shape[0])
    p1, p2 = products
    mix = mixing_ratio(u, spec.b, grid)
    gap_ratio = (mix.ratio - 1.0 / (b_ref * b_ref))[..., None]
    gap_root = (mix.sqrt_ratio - 1.0 / b_ref)[..., None]

    def source_slice(k: int) -> np.ndarray:
        f = fd.second_diff_interior(p1[k] * gap_ratio[k] * u[k], grid.ds, axis=-2)
        f += fd.cross_diff_interior(p2[k] * gap_root[k] * u[k], grid.ds, grid.dy)
        return f
    return source_slice


def build_rhs(u: np.ndarray, spec: ModelSpec, b_ref: float, grid: GridSpec,
              products: tuple | None = None) -> np.ndarray:
    """Source field from the gap between the live ratio and its freeze.

    Computes ``d2_S[rho11 a1^2 (ratio - 1/b_ref^2) u]
    + d2_Sy[2 rho12 a1 a2 (sqrt(ratio) - 1/b_ref) u]`` with centered second
    differences on interior nodes.  Identically zero when b is constant.
    This is the whole-trajectory view of the source; `apply_map` hands the
    same slices to the linear solve one step at a time.
    """
    u = np.asarray(u, dtype=float)
    source_slice = _source(u, spec, b_ref, grid, products)
    f = np.empty(u.shape)
    for k in range(u.shape[0]):
        f[k] = source_slice(k)
    return f


def apply_map(u: np.ndarray, spec: ModelSpec, grid: GridSpec,
              psi: np.ndarray | None = None,
              frozen: CoefficientFields | None = None,
              products: tuple | None = None, cross_iterations: int = 1) -> tuple:
    """One application of the calibration map: freeze, source, linear solve.

    ``u`` is a trajectory over the current horizon; the result carries the
    same boundary template.  The source is built around ``frozen.b_ref``,
    the anchor of the frozen operator; without ``frozen``, the operator is
    assembled here at ``spec.b_ref(grid)``.  Heavy pieces (frozen operator,
    coefficient products) may be passed in to amortize across iterations.
    The source reaches the linear solve slice by slice, so no source field
    of the whole trajectory is built.

    Returns:
        (trajectory, LinearSolveReport) of the linear solve.
    """
    u = np.asarray(u, dtype=float)
    if psi is None:
        psi = u[0]
    if frozen is None:
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
    return solve_linear(frozen, psi, grid,
                        f=_source(u, spec, frozen.b_ref, grid, products),
                        n_steps=u.shape[0] - 1,
                        cross_iterations=cross_iterations)


def _sup_diff(v: np.ndarray, p: np.ndarray) -> float:
    """max|v - p| over two trajectories, one time slice at a time."""
    return float(np.max([np.max(np.abs(a - b)) for a, b in zip(v, p)]))


def _horizon_steps(t_star: float, grid: GridSpec) -> int:
    return max(1, min(grid.n_t, round(t_star / grid.dt)))


def iterate(spec: ModelSpec, grid: GridSpec, psi: np.ndarray,
            params: IterateBounds | None = None, max_iter: int = 50,
            cross_iterations: int = 1,
            frozen: CoefficientFields | None = None) -> tuple:
    """Run the fixed-point construction from the constant-in-time start.

    ``frozen``, the ``assemble_frozen`` result for this grid, serves every
    horizon attempt of a run and carries the only freeze anchor,
    ``frozen.b_ref``; without it, it is assembled here at ``spec.b_ref(grid)``.

    Returns (trajectory, FixedPointReport) on convergence; the trajectory
    has shape (k*+1, n_s+2, n_y+2).

    Raises:
        ValueError: ``frozen`` was built for another grid.
        MembershipLost: an iterate left the admissible set (the exception
            carries the report and the offending trajectory).
        NotConverged: the iteration budget ran out.
    """
    psi = np.asarray(psi, dtype=float)
    if params is None:
        params = IterateBounds.from_initial(psi, grid)
    if frozen is None:
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
    elif frozen.grid != grid:
        raise ValueError("frozen operator does not match this grid")
    k_star = _horizon_steps(params.t_star, grid)
    bsq_slope = measured_bsq_slope(spec, grid)

    products = _unit_products(spec, grid, k_star + 1)

    def calibration_map(u):
        return apply_map(u, spec, grid, psi=psi, frozen=frozen,
                         products=products, cross_iterations=cross_iterations)

    report = FixedPointReport(t_star=k_star * grid.dt, tol=params.tol)
    p = np.broadcast_to(psi, (k_star + 1,) + psi.shape).copy()

    for n in range(1, max_iter + 1):
        v, solve_rep = calibration_map(p)
        report.solver_residual = max(report.solver_residual, solve_rep.max_residual)
        resid = _sup_diff(v, p)
        mem = check_membership(v, params, grid)
        report.residuals.append(resid)
        report.norms.append(mem.norm_value)
        report.membership.append(mem.as_dict())
        try:
            rec = ratio_gap_monitor(v, spec.b, frozen.b_ref, grid, bsq_slope,
                                    p_floor=params.p_lo if mem.lower_ok else None,
                                    p_norm=mem.norm_value)
            report.gap_records.append(rec.as_dict())
        except (DegenerateDenominator, ValueError) as err:
            # an escaping iterate can be too sick to measure
            report.gap_records.append({"error": str(err)})
        report.iterations = n
        if not mem.ok:
            report.fit_contraction()
            raise MembershipLost(n, report=report, density=v)
        p = v
        if resid <= params.tol:
            report.converged = True
            break

    report.fit_contraction()
    if not report.converged:
        raise NotConverged(report=report, density=p)

    # defining property of the solution: one more map application moves it
    # by no more than the stopping tolerance's scale
    v, _ = calibration_map(p)
    report.fixed_point_residual = _sup_diff(v, p)
    return p, report


def shrink_horizon(spec: ModelSpec, grid: GridSpec, psi: np.ndarray,
                   params: IterateBounds, max_halvings: int = 6,
                   max_iter: int = 50, **kwargs) -> IterateBounds:
    """Halve the horizon until the iteration succeeds.

    Runs the construction at the current horizon first; a run that succeeds
    immediately returns the parameters unchanged.  Returns parameters whose
    ``t_star`` produced a convergent run.  ``kwargs`` go to every
    ``iterate`` attempt; one ``frozen`` operator, with its anchor, serves
    them all, assembled here at ``spec.b_ref(grid)`` when none is among them.

    Raises:
        HorizonExhausted: no horizon in the ladder worked.
    """
    if kwargs.get("frozen") is None:
        kwargs["frozen"] = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
    bounds = params
    last_err = None
    for _ in range(max_halvings + 1):
        try:
            iterate(spec, grid, psi, params=bounds, max_iter=max_iter, **kwargs)
            return bounds
        except (MembershipLost, NotConverged) as err:
            last_err = err
        k_star = _horizon_steps(bounds.t_star, grid)
        if k_star == 1:
            break
        bounds = replace(bounds, t_star=(k_star // 2) * grid.dt)
    raise HorizonExhausted(max_halvings, last_err)


def solve_lagged(spec: ModelSpec, grid: GridSpec, psi: np.ndarray,
                 mixing_override: float | None = None) -> tuple:
    """Single forward sweep with the mixing ratio lagged one time step.

    The full nonlinear coefficients are rebuilt each step from the current
    density slice, so no outer iteration is needed.  ``mixing_override``
    pins the ratio to a constant (1.0 reproduces the plain local-volatility
    evolution and serves as the uncorrected baseline).

    Returns (trajectory, report dict); the trajectory has shape
    (n_t+1, n_s+2, n_y+2).
    """
    psi = np.asarray(psi, dtype=float)
    n = grid.n_t
    traj = np.empty((n + 1,) + psi.shape)
    traj[0] = psi
    u = psi.copy()
    den_min = math.inf
    hs = (grid.ds, grid.dy)
    for k in range(n):
        if mixing_override is None:
            mix = mixing_ratio(u, spec.b, grid)
            ratio, root = mix.ratio, mix.sqrt_ratio
            den_min = min(den_min, mix.denominator_min)
        else:
            ratio = float(mixing_override)
            root = math.sqrt(ratio)
        st0, st1 = (stencil(assemble_slice(spec, grid, j, ratio, root), hs)
                    for j in (k, k + 1))
        u, _ = step_slices(st0, st1, u, grid)
        traj[k + 1] = u
    report = {"mode": "time-lagged", "n_steps": n, "t_star": n * grid.dt,
              "denominator_min": den_min if den_min < math.inf else None,
              "converged": True}
    return traj, report
