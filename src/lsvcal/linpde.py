"""Frozen-coefficient linear parabolic solver.

The divergence-form operator produced by freezing the mixing ratio is
expanded into non-divergence form (diffusion matrix, drift, zeroth-order
term) by differentiating the coefficient products on the grid.  Time
stepping uses an alternating-direction scheme: implicit tridiagonal sweeps
in S and in y, the mixed derivative and the source handled explicitly with
a second corrector pass (Craig-Sneyd splitting).  All stages work on the
increment relative to the previous step, so constants and the Dirichlet
boundary template are preserved exactly.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import fd, tridiag
from .errors import CrossTermCFL, NonElliptic, NonEllipticAssembly, StabilityFailure
from .grids import GridSpec
from .mixing import b_values
from .model import ModelSpec, operator_coefficients, with_ratio


@dataclass
class CoefficientFields:
    """Space-time coefficient arrays of the non-divergence operator.

    The coefficient products are held at unit mixing ratio, as
    ``operator_coefficients`` names them: ``a_s = rho11 a1^2`` and
    ``a_x = 2 rho12 a1 a2``; the fixed point's source reads them too.
    ``slice(k)`` freezes them at the anchor: ``a_ss = a_s / b_ref^2`` and
    ``a_sy = a_x / (2 b_ref)``, the symmetric off-diagonal entry (the
    operator term is ``2 a_sy d2u/dSdy``).  ``assemble_frozen`` records its
    ``b_ref`` and ``grid``; built directly, the fields default to
    ``b_ref = 1``.  ``k2`` and ``a_sy_max`` = max|a_sy| are computed once.

    Raises:
        NonElliptic: see ``ellipticity_constant``.
    """

    a_s: np.ndarray
    a_x: np.ndarray
    a_yy: np.ndarray
    b_s: np.ndarray
    b_y: np.ndarray
    c: np.ndarray
    ellipticity_floor: float | None = None
    b_ref: float = 1.0
    grid: GridSpec | None = None
    k2: float = field(init=False)
    a_sy_max: float = field(init=False)

    def __post_init__(self):
        self.k2 = ellipticity_constant(self)
        # slice by slice, as a full-field temporary would raise peak memory
        self.a_sy_max = max(float(np.max(np.abs(self.slice(k)["a_sy"])))
                            for k in range(len(self.a_x)))

    def slice(self, k: int) -> dict:
        """The ``assemble_slice`` keys at time index k (anchor multiplied in last)."""
        ratio, root = 1.0 / (self.b_ref * self.b_ref), 1.0 / self.b_ref
        return {"a_s": self.a_s[k], "a_x": self.a_x[k],
                "a_ss": self.a_s[k] * ratio, "a_sy": 0.5 * (self.a_x[k] * root),
                "a_yy": self.a_yy[k], "b_s": self.b_s[k], "b_y": self.b_y[k], "c": self.c[k]}


@dataclass
class LinearSolveReport:
    """Diagnostics of one trajectory solve."""

    k2: float
    max_residual: float
    n_tridiag_solves: int
    cross_cfl: float
    n_steps: int


def _min_eig_2x2(a_ss, a_sy, a_yy):
    half_tr = 0.5 * (a_ss + a_yy)
    disc = np.sqrt((0.5 * (a_ss - a_yy)) ** 2 + a_sy * a_sy)
    return half_tr - disc


def assemble_slice(spec: ModelSpec, grid: GridSpec, k: int,
                   ratio, root) -> dict:
    """Non-divergence coefficients at time index k for a frozen mixing ratio.

    ``ratio``/``root`` may be scalars (the constant-b freeze) or per-S-node
    arrays (time-lagged mode).  Derivatives of the coefficient products are
    taken with second-order differences on the full node set.  The products
    before the ratio come back too, as ``a_s`` and ``a_x``.
    """
    ds, dy = grid.ds, grid.dy
    unit = operator_coefficients(spec, grid, k)
    co = with_ratio(unit, ratio, root)
    big_a, cross_full, big_b = co["a_s"], co["a_x"], co["a_y"]
    beta1, beta2 = co["b1"], co["b2"]

    b_s = -2.0 * fd.d1(big_a, ds, axis=0) - fd.d1(cross_full, dy, axis=1) + beta1
    b_y = -2.0 * fd.d1(big_b, dy, axis=1) - fd.d1(cross_full, ds, axis=0) + beta2
    c = (-fd.d2(big_a, ds, axis=0) - fd.d2_cross(cross_full, ds, dy)
         - fd.d2(big_b, dy, axis=1)
         + fd.d1(beta1, ds, axis=0) + fd.d1(beta2, dy, axis=1) + co["g"])

    return {"a_s": unit["a_s"], "a_x": unit["a_x"], "a_ss": big_a,
            "a_sy": 0.5 * cross_full, "a_yy": big_b, "b_s": b_s, "b_y": b_y, "c": c}


def assemble_frozen(spec: ModelSpec, grid: GridSpec, b_ref: float) -> CoefficientFields:
    """Assemble the frozen linear operator on every time slice of the horizon.

    The mixing ratio is frozen at the exact constants 1/b_ref^2 and
    1/b_ref; the coefficients keep their time dependence.  The products are
    stored at unit ratio, and ``slice(k)`` gives back each slice bit for bit.

    Raises:
        NonEllipticAssembly: the assembled diffusion matrix is not
        uniformly positive definite.
    """
    ratio, root = 1.0 / (b_ref * b_ref), 1.0 / b_ref
    arrays = {key: np.empty(grid.shape) for key in
              ("a_s", "a_x", "a_yy", "b_s", "b_y", "c")}
    for k in range(grid.n_t + 1):
        sl = assemble_slice(spec, grid, k, ratio, root)
        for key, arr in arrays.items():
            arr[k] = sl[key]

    # the theoretical floor min_eig * min(a1 / b, a2)^2, read off the stored
    # rho11 a1^2 and rho22 a2^2 rather than evaluating the alphas again
    rho = spec.corr.entries
    b_hi = float(np.max(b_values(spec.b, grid)))
    floor = spec.corr.min_eig * min(float(arrays["a_s"].min()) / (rho[0, 0] * b_hi * b_hi),
                                    float(arrays["a_yy"].min()) / rho[1, 1])

    try:
        return CoefficientFields(**arrays, ellipticity_floor=floor,
                                 b_ref=b_ref, grid=grid)
    except NonElliptic as err:
        raise NonEllipticAssembly(f"assembled operator: {err}") from err


def ellipticity_constant(fields: CoefficientFields) -> float:
    """Smallest eigenvalue of the diffusion matrix over all nodes.

    Raises:
        NonElliptic: the minimum is not strictly positive, or it undercuts
        the theoretical floor recorded at assembly by more than round-off.
    """
    k2 = math.inf
    for k in range(len(fields.a_x)):
        sl = fields.slice(k)
        k2 = min(k2, float(_min_eig_2x2(sl["a_ss"], sl["a_sy"], sl["a_yy"]).min()))
    if k2 <= 0:
        raise NonElliptic(f"K2 = {k2:.3e} <= 0")
    if fields.ellipticity_floor is not None:
        tol = 1e-10 * max(1.0, abs(fields.ellipticity_floor))
        if k2 < fields.ellipticity_floor - tol:
            raise NonElliptic(
                f"K2 = {k2:.6e} below theoretical floor {fields.ellipticity_floor:.6e}")
    return k2


# ---------------------------------------------------------------------------
# operator applications (difference form: constants map to exact zeros)
# ---------------------------------------------------------------------------

# implicitness of the Craig-Sneyd sweeps; theta >= 1/2 is what makes the
# scheme unconditionally stable with a mixed term in 2D (in 't Hout &
# Welfert, Appl. Numer. Math. 59, 2009)
THETA = 0.5
# diffusion and drift keys of the slice dict per axis (0 = S, 1 = y)
_AXIS_KEYS = (("a_ss", "b_s"), ("a_yy", "b_y"))


def _weights(a, b, h: float) -> tuple:
    """Lower and upper neighbour weights of a d2u - b d1u on spacing h."""
    return a / (h * h) + b / (2.0 * h), a / (h * h) - b / (2.0 * h)


def stencil(sl: dict, hs: tuple) -> dict:
    """What a step reads of a coefficient slice: ``a_sy``, ``c`` and the
    neighbour weights of both axes.

    ``hs`` is the spacing pair (dS, dy); the weights go under ``"w"``, one
    (lower, upper) pair per axis, so the operator applications and the
    sweep matrix of a slice share them.  The rest of the slice is not kept.
    """
    return {"a_sy": sl["a_sy"], "c": sl["c"],
            "w": tuple(_weights(sl[a_key], sl[b_key], h)
                       for (a_key, b_key), h in zip(_AXIS_KEYS, hs))}


def _apply(st: dict, u: np.ndarray, axis: int) -> np.ndarray:
    """One-dimensional part along ``axis``: a d2u - b d1u - c/2 u, interior."""
    lo, up, c, v = (np.swapaxes(x, 0, axis) for x in (*st["w"][axis], st["c"], u))
    out = np.zeros_like(v)
    out[1:-1] = (lo[1:-1] * (v[:-2] - v[1:-1]) + up[1:-1] * (v[2:] - v[1:-1])
                 - 0.5 * c[1:-1] * v[1:-1])
    return np.swapaxes(out, 0, axis)


def _apply_mix(sl: dict, u: np.ndarray, ds: float, dy: float) -> np.ndarray:
    return 2.0 * sl["a_sy"] * fd.cross_diff_interior(u, ds, dy)


def _zero_ring(v: np.ndarray) -> np.ndarray:
    v[0, :] = v[-1, :] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    return v


def _sweep_system(st1: dict, theta_dt: float, axis: int,
                  collect_residual: bool) -> tuple:
    """Assemble and factor (I - theta*dt*A_axis) for every grid line.

    The systems are laid out contiguously along the last axis, as
    ``tridiag.factor_batch`` takes them.  Returns the (lower, diag, upper)
    coefficients, kept only to compute the residual, and their
    factorization.
    """
    lo, up = st1["w"][axis]
    diag = 1.0 + theta_dt * (lo + up) + theta_dt * 0.5 * st1["c"]
    lower, diag, upper = (np.ascontiguousarray(np.swapaxes(x, axis, 1))
                          for x in (-theta_dt * lo, diag, -theta_dt * up))
    # identity rows for the boundary unknowns of each system and for the
    # two boundary systems
    _zero_ring(lower)
    _zero_ring(upper)
    diag[:, 0] = diag[:, -1] = 1.0
    diag[0, :] = diag[-1, :] = 1.0
    factors = tridiag.factor_batch(lower, diag, upper)
    return ((lower, diag, upper) if collect_residual else None), factors


def _sweep(system: tuple, rhs: np.ndarray, axis: int) -> tuple:
    """Solve a factored sweep system along ``axis``; the solution comes back
    in the (S, y) layout, with the residual when the system kept its
    coefficients (else 0)."""
    coeffs, factors = system
    rhs = np.swapaxes(rhs, axis, 1).copy()
    rhs[:, 0] = rhs[:, -1] = 0.0
    x = tridiag.solve_batch(factors, rhs)
    res = 0.0 if coeffs is None else tridiag.residual_batch(*coeffs, rhs, x)
    return np.ascontiguousarray(np.swapaxes(x, axis, 1)), res


def step_slices(st0: dict, st1: dict, u: np.ndarray, grid: GridSpec,
                f0=None, f1=None, collect_residual: bool = False,
                cross_iterations: int = 1) -> tuple:
    """One Craig-Sneyd step from the stencils of the slices at t_k and t_{k+1}.

    The sources ``f0`` and ``f1`` at the two slices come together or not at
    all.  Returns (u_next, max_sweep_residual).  Dirichlet values are enforced by
    keeping the boundary increment at zero, so the lateral trace of ``u``
    carries through every stage unchanged.  Each axis's sweep matrix is
    factored once and serves the predictor and every corrector pass.
    ``cross_iterations`` > 1 repeats the mixed-derivative corrector against
    the latest increment until it stabilizes, making the cross term
    effectively implicit.
    """
    ds, dy, dt = grid.ds, grid.dy, grid.dt
    theta_dt = THETA * dt

    # the explicit stage works in place: a step holds factored systems of
    # both axes, so its temporaries set the solver's peak memory
    a0 = [_apply(st0, u, axis) for axis in (0, 1)]
    am0 = _apply_mix(st0, u, ds, dy)
    delta0 = a0[0] + a0[1] + am0
    if f0 is not None:
        delta0 += f0
    delta0 = _zero_ring(np.multiply(dt, delta0, out=delta0))

    # each a0 part turns into chi = theta dt (A1 u - A0 u) of its axis
    for axis, part in enumerate(a0):
        np.subtract(_apply(st1, u, axis), part, out=part)
        _zero_ring(np.multiply(theta_dt, part, out=part))
    chi = a0
    systems = [_sweep_system(st1, theta_dt, axis, collect_residual)
               for axis in (0, 1)]

    def sweeps(d):
        res = []
        for axis, system in enumerate(systems):
            d, r_axis = _sweep(system, d + chi[axis], axis)
            res.append(r_axis)
        return d, max(res)

    delta2, res = sweeps(delta0)

    df = None if f0 is None else 0.5 * dt * (f1 - f0)

    prev = delta2
    for n_left in reversed(range(cross_iterations)):
        corr = 0.5 * dt * (_apply_mix(st1, u + prev, ds, dy) - am0)
        if df is not None:
            corr = corr + df
        delta0h = _zero_ring(delta0 + _zero_ring(corr))
        nxt, res_b = sweeps(delta0h)
        res = max(res, res_b)
        done = n_left == 0 or (float(np.max(np.abs(nxt - prev)))
                               <= 1e-13 * (float(np.max(np.abs(nxt))) + 1e-300))
        prev = nxt
        if done:
            break

    u_next = u + prev
    if np.isnan(u_next).any():
        raise StabilityFailure("time step produced NaNs")
    return u_next, res


def cross_cfl_number(fields: CoefficientFields, grid: GridSpec) -> float:
    """Explicit mixed-term stability estimate dt * max|2 a_sy| / (dS dy)."""
    return grid.dt * 2.0 * fields.a_sy_max / (grid.ds * grid.dy)


def solve_linear(fields: CoefficientFields, psi: np.ndarray, grid: GridSpec,
                 f: np.ndarray | Callable[[int], np.ndarray] | None = None,
                 n_steps: int | None = None,
                 collect_residual: bool = True, cross_iterations: int = 1) -> tuple:
    """Solve the frozen equation over [0, n_steps * dt] from and with psi.

    ``psi`` provides both the initial slice and (through its boundary trace,
    held constant in time) the lateral Dirichlet data.  The source ``f`` is
    an array over the time slices or a function of the slice index that
    returns one slice.  Either way it is taken per step: slice k+1 is built
    for step k and carried into step k+1 as slice k, like the stencil, so a
    source function never has more than two slices alive.

    Returns:
        (trajectory (n_steps+1, n_s+2, n_y+2), LinearSolveReport)

    Raises:
        ValueError: the step count is outside [1, n_t], or
            ``cross_iterations`` < 1.
    """
    n = grid.n_t if n_steps is None else int(n_steps)
    if not 1 <= n <= grid.n_t:
        raise ValueError(f"step count {n} outside [1, {grid.n_t}]")
    if cross_iterations < 1:
        raise ValueError(f"cross_iterations = {cross_iterations} < 1")
    source = f if f is None or callable(f) else f.__getitem__
    traj = np.empty((n + 1, grid.n_s + 2, grid.n_y + 2))
    traj[0] = psi
    u = np.array(psi, dtype=float)
    max_res = 0.0
    hs = (grid.ds, grid.dy)
    st1 = stencil(fields.slice(0), hs)
    f1 = None if source is None else source(0)
    for k in range(n):
        # slice k+1's stencil and source serve step k and, as slice k,
        # step k+1
        st0, st1 = st1, stencil(fields.slice(k + 1), hs)
        f0, f1 = f1, None if source is None else source(k + 1)
        u, res = step_slices(st0, st1, u, grid, f0=f0, f1=f1,
                             collect_residual=collect_residual,
                             cross_iterations=cross_iterations)
        max_res = max(max_res, res)
        traj[k + 1] = u

    nu = cross_cfl_number(fields, grid)
    if nu > 1.0:
        warnings.warn(f"explicit cross-term estimate {nu:.2f} > 1", CrossTermCFL)
    report = LinearSolveReport(k2=fields.k2, max_residual=max_res,
                               n_tridiag_solves=4 * n, cross_cfl=nu, n_steps=n)
    return traj, report


def supnorm_time_bound(fields: CoefficientFields, f, grid: GridSpec) -> dict:
    """Empirical sup-norm growth constant for zero boundary and initial data.

    Solves with psi = 0 and the given source, then returns the curve
    ``max_x |u(x, t)| / (t * |f|_0)`` over the time ladder together with its
    supremum.  The curve must stay finite; blow-up raises StabilityFailure.
    """
    f_arr = np.broadcast_to(np.asarray(f, dtype=float), grid.shape)
    f_sup = float(np.max(np.abs(f_arr)))
    ts = grid.t_nodes[1:]
    if f_sup == 0.0:
        # zero data: the solution is identically zero
        return {"t": ts, "ratio": np.zeros(grid.n_t), "k0": 0.0,
                "sup_curve": np.zeros(grid.n_t)}

    traj, _ = solve_linear(fields, np.zeros(grid.shape[1:]), grid, f=f_arr,
                           collect_residual=False)
    sups = np.max(np.abs(traj[1:]), axis=(1, 2))
    ratio = sups / (ts * f_sup)
    if not np.all(np.isfinite(ratio)):
        raise StabilityFailure("sup-norm ratio curve blew up")
    return {"t": ts, "ratio": ratio, "k0": float(ratio.max()), "sup_curve": sups}
