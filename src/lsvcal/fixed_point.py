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

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import fd
from .errors import (DegenerateDenominator, HorizonExhausted, MembershipLost,
                     NotConverged, StabilityFailure)
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
        cap = cap_factor * holder_norm(psi[None], 2, grid).value
        return cls(holder_cap=cap, p_lo=p_lo, p_hi=p_hi,
                   t_star=grid.horizon, tol=tol_factor * p_hi)

    @property
    def band(self) -> tuple:
        """The pointwise bounds ``(p_lo/2, p_hi + p_lo/2)``."""
        return 0.5 * self.p_lo, self.p_hi + 0.5 * self.p_lo


@dataclass
class MembershipResult:
    """Outcome of the admissibility check for one iterate; the fields are
    the keys of its JSON form."""

    lower_ok: bool
    upper_ok: bool
    norm_ok: bool
    min: float
    max: float
    norm: float
    lower_bound: float
    upper_bound: float
    norm_cap: float

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.norm_ok


def check_membership(p: np.ndarray, params: IterateBounds,
                     grid: GridSpec) -> MembershipResult:
    """Check the pointwise bounds and the norm cap for a trajectory; pass
    one slice as ``p[None]``."""
    p = np.asarray(p, dtype=float)
    lo, hi = params.band
    pmin = float(p.min())
    pmax = float(p.max())
    nrm = float(holder_norm(p, 2, grid).value)
    return MembershipResult(
        lower_ok=bool(pmin >= lo), upper_ok=bool(pmax <= hi),
        norm_ok=bool(nrm <= params.holder_cap),
        min=pmin, max=pmax, norm=nrm,
        lower_bound=float(lo), upper_bound=float(hi),
        norm_cap=float(params.holder_cap))


@dataclass
class FixedPointReport:
    """Outcome of either solver, with the fixed point's per-iteration
    records; the fields are the keys of its JSON form.

    ``fixed_point_residual`` is the step ``max|M(p) - p|`` of the last map
    input p, the last entry of ``residuals``; the returned trajectory is
    M(p).  It is None until the iteration converges.  ``denominator_min``,
    the smallest weighted marginal the time-lagged sweep divided by, is
    None in fixed-point mode, which does not measure it.  ``march_passes``
    holds the passes of each step the march finished (see ``iterate``), and
    is None when no march ran.
    """

    residuals: list = field(default_factory=list)
    membership: list = field(default_factory=list)
    gap_monitor: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    contraction: float | None = None
    r_squared: float | None = None
    t_star: float = 0.0
    tol: float | None = None
    fixed_point_residual: float | None = None
    mode: str = "fixed-point"
    denominator_min: float | None = None
    march_passes: list | None = None

    def fit_contraction(self) -> None:
        """Geometric fit of the residual ladder (needs >= 3 iterations).

        After a march the ladder is no geometric sequence: ``contraction``
        is then the ratio r2/r1 of the two Picard steps that let the march
        start, and ``r_squared`` stays None.
        """
        if self.march_passes is not None:
            self.contraction = self.residuals[1] / self.residuals[0]
            return
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


def _source(u: np.ndarray, spec: ModelSpec, b_ref: float, grid: GridSpec):
    """The source ``d2_S[a_s (ratio - 1/b_ref^2) u]
    + d2_Sy[a_x (sqrt(ratio) - 1/b_ref) u]`` as a function ``(k, sl)`` of
    the time index and the frozen operator's slice k.

    ``b_ref`` is the frozen operator's anchor, and ``a_s`` and ``a_x`` are
    the unit products ``sl["a_s"]`` and ``sl["a_x"]`` that the solve has
    evaluated for slice k's stencil.  The centered differences cover
    interior nodes, and b constant gives exact zeros.  The mixing ratio is
    taken once, on the whole trajectory; each call builds one source slice.
    The ratio is ``num / den`` node by node, so slice k's source reads slice
    k alone: the trajectory-wide maximum marginal only sets the threshold of
    ``ratio_of_marginals``' ``DegenerateDenominator`` check.
    """
    mix = mixing_ratio(u, spec.b, grid)
    gap_ratio = (mix.ratio - 1.0 / (b_ref * b_ref))[..., None]
    gap_root = (mix.sqrt_ratio - 1.0 / b_ref)[..., None]

    def source_slice(k: int, sl: dict) -> np.ndarray:
        f = fd.second_diff_interior(sl["a_s"] * gap_ratio[k] * u[k], grid.ds, axis=-2)
        f += fd.cross_diff_interior(sl["a_x"] * gap_root[k] * u[k], grid.ds, grid.dy)
        return f
    return source_slice


def apply_map(u: np.ndarray, spec: ModelSpec, grid: GridSpec,
              frozen: CoefficientFields | None = None, out=None) -> tuple:
    """One application of the calibration map: freeze, source, linear solve.

    ``u`` is a trajectory over the current horizon; the solve starts from
    ``u[0]``, so the result carries the same initial slice and boundary
    template.  The solve and the source both read ``frozen``,
    the operator with its anchor; without it, the operator is assembled
    here at ``spec.b_ref(grid)``.  The source reaches the linear solve slice
    by slice, so no source field of the whole trajectory is built.

    ``out`` goes to ``solve_linear``, which hands it each slice of the
    result as ``out[k] = v``.  It may be ``u`` itself, or write over ``u``:
    the mixing ratio is taken from the whole of ``u`` first, and the source
    of slice k+1 is built before slice k+1 is written.  An ``out`` that
    raises stops the solve there, and the exception leaves ``apply_map``.

    Returns:
        (out, LinearSolveReport) of the linear solve; without ``out``, the
        trajectory array.
    """
    u = np.asarray(u, dtype=float)
    if frozen is None:
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
    return solve_linear(frozen, u[0], grid, f=_source(u, spec, frozen.b_ref, grid),
                        n_steps=u.shape[0] - 1, out=out)


class _Escaped(Exception):
    """A map output's slice ``k`` left the pointwise band."""

    def __init__(self, k: int):
        super().__init__(k)
        self.k = k


class _Overwrite:
    """``out`` for a map application that writes its result over its input
    ``p``: each slice's step ``max|v[k] - p[k]|`` is taken before ``v[k]``
    replaces ``p[k]``, and ``residual`` is the largest step so far,
    ``max|M(p) - p|`` once every slice is written.

    A slice whose extremes leave the band ``(lo, hi)``, compared as
    ``check_membership`` compares a trajectory's, is written and then
    raises ``_Escaped``, which stops the solve: the bounds hold slice by
    slice and a solve is causal, so no later slice can change the verdict.
    """

    def __init__(self, p: np.ndarray, lo: float, hi: float):
        self.p = p
        self.band = lo, hi
        self.steps = []

    def __setitem__(self, k: int, v: np.ndarray):
        self.steps.append(np.max(np.abs(v - self.p[k])))
        self.p[k] = v
        lo, hi = self.band
        if not (float(v.min()) >= lo and float(v.max()) <= hi):
            raise _Escaped(k)

    @property
    def residual(self) -> float:
        return float(np.max(self.steps))


# the passes the march may make on one step before it stops and hands the
# trajectory back to the Picard iteration
_MARCH_PASSES = 8


def _march(p: np.ndarray, spec: ModelSpec, grid: GridSpec,
           frozen: CoefficientFields, params: IterateBounds) -> list:
    """Solve the fixed point one time step at a time, writing over ``p[1:]``.

    The map is causal and each source slice reads its own density slice
    alone, so a fixed point satisfies one equation per step,
    ``p[k+1] = Step(p[k], f(p[k]), f(p[k+1]))``.  Step k is made once by
    ``step_slices`` from ``p[k]`` and its source; then its corrector
    ``finish(f(guess))`` is repeated from the guess ``p[k+1]`` (the Picard
    iterate's slice) until two guesses differ by at most ``tol/10``, and
    the last guess replaces ``p[k+1]``.  Every guess must lie in the
    pointwise band, compared as ``_Overwrite`` compares a slice.

    A step that needs more than ``_MARCH_PASSES`` passes, a guess outside
    the band, a NaN (``StabilityFailure``) or a ``DegenerateDenominator``
    stops the march: the slices after the last finished step keep their
    values.  Returns the passes of each finished step.
    """
    lo, hi = params.band
    hs = (grid.ds, grid.dy)

    def source(u, sl):
        return _source(u[None], spec, frozen.b_ref, grid)(0, sl)

    passes = []
    try:
        sl = frozen.slice(0)
        st1, f1 = stencil(sl, hs), source(p[0], sl)
        for k in range(len(p) - 1):
            sl = frozen.slice(k + 1)
            st0, st1 = st1, stencil(sl, hs)
            finish = step_slices(st0, st1, p[k], grid, f0=f1)
            guess = p[k + 1]
            for n in range(1, _MARCH_PASSES + 1):
                new = finish(source(guess, sl))
                if not (float(new.min()) >= lo and float(new.max()) <= hi):
                    return passes
                if np.max(np.abs(new - guess)) <= 0.1 * params.tol:
                    break
                guess = new
            else:
                return passes
            p[k + 1] = new
            f1 = source(new, sl)
            passes.append(n)
    except (StabilityFailure, DegenerateDenominator):
        pass            # a NaN step or a degenerate ratio stops it too
    return passes


def _failed_bounds(mem: MembershipResult) -> str:
    """The bounds a membership record breaks, with the values that break them."""
    return ", ".join(text for ok, text in (
        (mem.lower_ok, f"min {mem.min:.6g} < lower bound {mem.lower_bound:.6g}"),
        (mem.upper_ok, f"max {mem.max:.6g} > upper bound {mem.upper_bound:.6g}"),
        (mem.norm_ok, f"Hoelder norm {mem.norm:.6g} > cap {mem.norm_cap:.6g}"))
        if not ok)


def _horizon_steps(t_star: float, grid: GridSpec) -> int:
    return max(1, min(grid.n_t, round(t_star / grid.dt)))


def iterate(spec: ModelSpec, grid: GridSpec, psi: np.ndarray,
            params: IterateBounds | None = None, max_iter: int = 50,
            frozen: CoefficientFields | None = None, march: bool = False) -> tuple:
    """Run the fixed-point construction from the constant-in-time start.

    ``frozen``, the ``assemble_frozen`` result for this grid, serves every
    horizon attempt of a run and carries the only freeze anchor,
    ``frozen.b_ref``; without it, it is assembled here at ``spec.b_ref(grid)``.
    Every iteration reads its operator and source products from ``frozen``,
    which evaluates the products once per slice of each map application.
    Each map application starts from its input's first slice, which the
    constant start and every solve keep equal to ``psi``, and writes its
    result M(p) over its input p slice by slice, so a run holds ``frozen``
    and one trajectory.

    With ``march``, two Picard iterates that stay admissible and contract
    (r2 < r1), with a third iteration in the budget, hand the trajectory to
    ``_march``, which solves the fixed point step by step over iterate 2 in
    place.  Iteration 3 is then an ordinary map application, which
    certifies the march; if the march stopped early, the iteration goes on
    from the trajectory as it stands.  The report's ``march_passes`` holds
    the passes of each step the march finished.

    Returns (trajectory, FixedPointReport) on convergence.  The trajectory,
    of shape (k*+1, n_s+2, n_y+2), is the result M(p) of the map
    application whose step ``max|M(p) - p|`` passed ``tol``; that step is
    the report's ``fixed_point_residual``.

    An application stops at the first slice of M(p) outside the pointwise
    bounds: its verdict is fixed there, as the bounds hold slice by slice
    and the solve is causal.  Its membership check, gap monitor and step
    then cover the slices made, and that prefix is the exception's
    trajectory.  An application that stays inside the bounds is checked
    over the whole horizon.

    Raises:
        ValueError: ``max_iter`` < 1, or ``frozen`` was built for another
            grid.
        MembershipLost: an iterate left the admissible set (the exception
            carries the report and the offending trajectory, which ends at
            the first slice outside the pointwise bounds, if there is one;
            its message names that slice and the bounds broken).
        NotConverged: the iteration budget ran out.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter = {max_iter} < 1")
    psi = np.asarray(psi, dtype=float)
    if params is None:
        params = IterateBounds.from_initial(psi, grid)
    if frozen is None:
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
    elif frozen.grid != grid:
        raise ValueError("frozen operator does not match this grid")
    k_star = _horizon_steps(params.t_star, grid)
    bsq_slope = measured_bsq_slope(spec.b, grid)

    report = FixedPointReport(t_star=k_star * grid.dt, tol=params.tol)
    p = np.broadcast_to(psi, (k_star + 1,) + psi.shape).copy()

    for n in range(1, max_iter + 1):
        step = _Overwrite(p, *params.band)
        try:
            apply_map(p, spec, grid, frozen=frozen, out=step)
            made, where = p, ""
        except _Escaped as esc:
            made = p[:esc.k + 1]
            where = f" at slice {esc.k} (t = {grid.t_nodes[esc.k]:.6g})"
        resid = step.residual
        mem = check_membership(made, params, grid)
        report.residuals.append(resid)
        report.membership.append(asdict(mem))
        try:
            rec = ratio_gap_monitor(made, spec.b, frozen.b_ref, grid, bsq_slope,
                                    p_norm=mem.norm)
            report.gap_monitor.append(asdict(rec))
        except (DegenerateDenominator, ValueError) as err:
            # an escaping iterate can be too sick to measure
            report.gap_monitor.append({"error": str(err)})
        report.iterations = n
        if not mem.ok:
            report.fit_contraction()
            raise MembershipLost(n, report=report, density=made,
                                 detail=f"{where}: {_failed_bounds(mem)}")
        if resid <= params.tol:
            report.converged = True
            report.fixed_point_residual = resid
            break
        if march and n == 2 and max_iter > 2 and resid < report.residuals[0]:
            report.march_passes = _march(p, spec, grid, frozen, params)

    report.fit_contraction()
    if not report.converged:
        raise NotConverged(report=report, density=p)
    return p, report


def shrink_horizon(spec: ModelSpec, grid: GridSpec, psi: np.ndarray,
                   params: IterateBounds, max_halvings: int = 6,
                   max_iter: int = 50, frozen: CoefficientFields | None = None,
                   march: bool = False) -> IterateBounds:
    """Halve the horizon until the iteration succeeds.

    Runs the construction at the current horizon first; a run that succeeds
    immediately returns the parameters unchanged.  Returns parameters whose
    ``t_star`` produced a convergent run.  One ``frozen`` operator, with its
    anchor, serves every ``iterate`` attempt; without it, it is assembled
    here at ``spec.b_ref(grid)``.  ``march`` goes to every attempt.

    Raises:
        ValueError: ``max_halvings`` < 0.
        HorizonExhausted: no horizon in the ladder worked.
    """
    if max_halvings < 0:
        raise ValueError(f"max_halvings = {max_halvings} < 0")
    if frozen is None:
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
    bounds = params
    for halvings in range(max_halvings + 1):    # halvings made before this attempt
        # the previous rung's failure pins its attempt's trajectory through
        # its traceback; only the last one is kept, for HorizonExhausted
        last_err = None
        try:
            iterate(spec, grid, psi, params=bounds, max_iter=max_iter, frozen=frozen,
                    march=march)
            return bounds
        except (MembershipLost, NotConverged) as err:
            last_err = err
        k_star = _horizon_steps(bounds.t_star, grid)
        if k_star == 1:
            break
        bounds = replace(bounds, t_star=(k_star // 2) * grid.dt)
    raise HorizonExhausted(halvings, last_err)


def solve_lagged(spec: ModelSpec, grid: GridSpec, psi: np.ndarray,
                 out=None) -> tuple:
    """Single forward sweep with the mixing ratio lagged one time step.

    The full nonlinear coefficients are rebuilt each step from the current
    density slice, so no outer iteration is needed.  Slice k+1's unit-ratio
    products (``operator_coefficients``) serve step k and, as slice k,
    step k+1, as they do not depend on the ratio.

    Each slice goes to ``out[k] = u`` as the sweep makes it, k = 0 .. n_t;
    ``out`` is anything that takes that assignment, such as an array of
    shape (n_t+1, n_s+2, n_y+2) or a record that keeps reductions of each
    slice.  Without it, the trajectory array is made here.

    Returns (out, FixedPointReport); the report, in mode ``time-lagged``,
    holds the horizon, no iterations and the sweep's ``denominator_min``.
    """
    psi = np.asarray(psi, dtype=float)
    n = grid.n_t
    if out is None:
        out = np.empty((n + 1,) + psi.shape)
    out[0] = psi
    u = psi.copy()
    den_mins = []
    hs = (grid.ds, grid.dy)
    unit1 = operator_coefficients(spec, grid, 0)
    for k in range(n):
        mix = mixing_ratio(u, spec.b, grid)
        den_mins.append(mix.denominator_min)
        unit0, unit1 = unit1, operator_coefficients(spec, grid, k + 1)
        st0, st1 = (stencil(assemble_slice(spec, grid, j, mix.ratio, mix.sqrt_ratio,
                                           unit=unit), hs)
                    for j, unit in ((k, unit0), (k + 1, unit1)))
        u = step_slices(st0, st1, u, grid)()
        out[k + 1] = u
    return out, FixedPointReport(converged=True, t_star=n * grid.dt,
                                 mode="time-lagged", denominator_min=min(den_mins))
