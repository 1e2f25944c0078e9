"""Frozen-coefficient linear parabolic solver, the one discrete forward operator.

``model.operator_coefficients``, with a mixing ratio multiplied in, is
expanded into non-divergence form (diffusion matrix, drift, zeroth-order
term) by differentiating the coefficient products on the grid; its
stencils serve the time steps and the corner residual alike.  Time
stepping uses an alternating-direction scheme: implicit tridiagonal sweeps
in S and in y, the mixed derivative and the source handled explicitly with
one corrector pass (Craig-Sneyd splitting with theta = 1/2, which is
unconditionally stable with a mixed term).  All stages work on the
increment relative to the previous step, so constants and the Dirichlet
boundary template are preserved exactly.

A step works on C-ordered (S, y) slices.  Its explicit parts are flat
passes over the slice's rows 1 .. n_S, which read S-neighbours
n_y + 2 entries away and y-neighbours one entry away; entries of the
boundary columns come out undefined and every stage zeroes the boundary
ring.  The y-sweeps solve the rows of that layout, the S-sweeps those of
its transpose; each sweep's diagonals and right-hand side are built for
``tridiag``, which factors and solves them in place.
"""
from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import fd, tridiag
from .errors import CrossTermCFL, NonElliptic, NonEllipticAssembly, StabilityFailure
from .grids import GridSpec
from .mixing import b_values, mixing_ratio
from .model import ModelSpec, diffusion_products, operator_coefficients


@dataclass
class CoefficientFields:
    """The frozen non-divergence operator over the horizon.

    Only ``b_s``, ``b_y`` and ``c``, built by differentiating the coefficient
    products, are stored over the whole horizon.  The products are evaluated
    per slice, at unit mixing ratio: ``products(k)`` returns those of
    ``model.diffusion_products``, and ``unit(k)`` keeps the last slice's, so
    a solve's stencil and the fixed point's source of slice k share them.
    ``slice(k)`` freezes them at the anchor: ``a_ss = a_s / b_ref^2`` and
    ``a_sy = a_x / (2 b_ref)``, the symmetric off-diagonal entry (the
    operator term is ``2 a_sy d2u/dSdy``).  ``k2``, the smallest eigenvalue
    of the diffusion matrix, and ``a_sy_max`` = max|a_sy| over all nodes are
    given; ``assemble_frozen`` takes them in its one pass over the slices and
    records its floor, ``b_ref`` and ``grid``.  Built directly, the fields
    default to ``b_ref = 1``.

    Raises:
        NonElliptic: ``k2`` is not strictly positive, or it undercuts the
        theoretical floor ``ellipticity_floor`` by more than round-off.
    """

    products: Callable[[int], dict]
    b_s: np.ndarray
    b_y: np.ndarray
    c: np.ndarray
    k2: float
    a_sy_max: float
    ellipticity_floor: float | None = None
    b_ref: float = 1.0
    grid: GridSpec | None = None
    _unit: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k2 <= 0:
            raise NonElliptic(f"K2 = {self.k2:.3e} <= 0")
        floor = self.ellipticity_floor
        if floor is not None and self.k2 < floor - 1e-10 * max(1.0, abs(floor)):
            raise NonElliptic(f"K2 = {self.k2:.6e} below theoretical floor {floor:.6e}")

    def unit(self, k: int) -> dict:
        """The products of slice k at unit ratio; evaluated once for calls
        with the same k in a row."""
        if self._unit[0] != k:
            self._unit = (k, self.products(k))
        return self._unit[1]

    def slice(self, k: int) -> dict:
        """The ``assemble_slice`` keys at time index k (anchor multiplied in last)."""
        unit = self.unit(k)
        ratio, root = 1.0 / (self.b_ref * self.b_ref), 1.0 / self.b_ref
        return {"a_s": unit["a_s"], "a_x": unit["a_x"],
                "a_ss": unit["a_s"] * ratio, "a_sy": 0.5 * (unit["a_x"] * root),
                "a_yy": unit["a_y"], "b_s": self.b_s[k], "b_y": self.b_y[k], "c": self.c[k]}


@dataclass
class LinearSolveReport:
    """Diagnostics of one trajectory solve."""

    k2: float
    n_tridiag_solves: int
    cross_cfl: float
    n_steps: int


def _min_eig_2x2(a_ss, a_sy, a_yy):
    """Smallest eigenvalue of [[a_ss, a_sy], [a_sy, a_yy]]: det / largest where
    the largest is positive, as ``half_tr - disc`` cancels to 0 there when the
    diagonal entries differ by many orders; elsewhere it cannot cancel."""
    half_tr = 0.5 * (a_ss + a_yy)
    disc = np.sqrt((0.5 * (a_ss - a_yy)) ** 2 + a_sy * a_sy)
    lam_max = half_tr + disc
    return np.divide(a_ss * a_yy - a_sy * a_sy, lam_max,
                     out=np.asarray(half_tr - disc, dtype=float), where=lam_max > 0)


def assemble_slice(spec: ModelSpec, grid: GridSpec, k: int,
                   ratio, root, unit: dict | None = None) -> dict:
    """Non-divergence coefficients at time index k for a frozen mixing ratio.

    ``ratio``/``root`` may be scalars (the constant-b freeze) or per-S-node
    arrays (time-lagged mode); they multiply ``a_s`` and ``a_x`` last.
    ``unit`` is ``operator_coefficients(spec, grid, k)`` when the caller has
    it already; it does not depend on the ratio.  Derivatives of the
    coefficient products are taken with second-order differences on the
    full node set.  The products before the ratio come back too, as ``a_s``
    and ``a_x``.
    """
    ds, dy = grid.ds, grid.dy
    if unit is None:
        unit = operator_coefficients(spec, grid, k)
    ratio, root = (np.asarray(r, dtype=float).reshape(-1, 1) if np.ndim(r) else float(r)
                   for r in (ratio, root))
    big_a, cross_full, big_b = unit["a_s"] * ratio, unit["a_x"] * root, unit["a_y"]
    beta1, beta2 = unit["b1"], unit["b2"]

    b_s = -2.0 * fd.d1(big_a, ds, axis=0) - fd.d1(cross_full, dy, axis=1) + beta1
    b_y = -2.0 * fd.d1(big_b, dy, axis=1) - fd.d1(cross_full, ds, axis=0) + beta2
    c = (-fd.d2(big_a, ds, axis=0) - fd.d2_cross(cross_full, ds, dy)
         - fd.d2(big_b, dy, axis=1)
         + fd.d1(beta1, ds, axis=0) + fd.d1(beta2, dy, axis=1) + unit["g"])

    return {"a_s": unit["a_s"], "a_x": unit["a_x"], "a_ss": big_a,
            "a_sy": 0.5 * cross_full, "a_yy": big_b, "b_s": b_s, "b_y": b_y, "c": c}


def assemble_frozen(spec: ModelSpec, grid: GridSpec, b_ref: float) -> CoefficientFields:
    """Assemble the frozen linear operator on every time slice of the horizon.

    The mixing ratio is frozen at the exact constants 1/b_ref^2 and
    1/b_ref; the coefficients keep their time dependence.  Only ``b_s``,
    ``b_y`` and ``c`` are stored; each solve evaluates the products again per
    slice, and ``slice(k)`` gives back each assembled slice bit for bit.
    K2, max|a_sy| and the ellipticity floor are taken in the same pass.

    Raises:
        NonEllipticAssembly: the assembled diffusion matrix is not
        uniformly positive definite.
    """
    ratio, root = 1.0 / (b_ref * b_ref), 1.0 / b_ref
    stored = {key: np.empty(grid.shape) for key in ("b_s", "b_y", "c")}
    k2, a_sy_max, a_min = math.inf, 0.0, np.inf
    for k in range(grid.n_t + 1):
        sl = assemble_slice(spec, grid, k, ratio, root)
        for key, arr in stored.items():
            arr[k] = sl[key]
        k2 = min(k2, ellipticity_constant(sl))
        a_sy_max = max(a_sy_max, float(np.max(np.abs(sl["a_sy"]))))
        a_min = np.minimum(a_min, (sl["a_s"].min(), sl["a_yy"].min()))

    # the theoretical floor min_eig * min(a1 / b, a2)^2, read off the
    # minima of rho11 a1^2 and rho22 a2^2 rather than evaluating the alphas
    rho = spec.corr.entries
    b_hi = float(np.max(b_values(spec.b, grid)))
    floor = spec.corr.min_eig * min(float(a_min[0]) / (rho[0, 0] * b_hi * b_hi),
                                    float(a_min[1]) / rho[1, 1])

    try:
        return CoefficientFields(functools.partial(diffusion_products, spec, grid),
                                 **stored, k2=k2, a_sy_max=a_sy_max,
                                 ellipticity_floor=floor, b_ref=b_ref, grid=grid)
    except NonElliptic as err:
        raise NonEllipticAssembly(f"assembled operator: {err}") from err


def ellipticity_constant(sl: dict) -> float:
    """Smallest eigenvalue of a slice's diffusion matrix over its nodes;
    an operator's K2 is the minimum over its slices."""
    return float(_min_eig_2x2(sl["a_ss"], sl["a_sy"], sl["a_yy"]).min())


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
    diffusion, drift = a / (h * h), b / (2.0 * h)
    return diffusion + drift, diffusion - drift


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


def _rows(u: np.ndarray) -> slice:
    """The flat C-order range of the rows 1 .. n_S of a slice: the nodes
    whose S-neighbours both exist.  A step forms its explicit operator parts
    on this range, whose first and last column hold values the operator
    does not define; every stage zeroes them with the rest of the ring."""
    return slice(u.shape[1], u.size - u.shape[1])


def _differences(u: np.ndarray) -> tuple:
    """Neighbour differences ``u[i+1] - u[i]`` of a slice along S and along
    y, over its flat C order (the y-difference at the end of a row pairs
    the nodes of two rows)."""
    f, n = u.reshape(-1), u.shape[1]
    return f[n:] - f[:-n], f[1:] - f[:-1]


def _apply(st: dict, u: np.ndarray, diffs: tuple) -> list:
    """The one-dimensional parts a d2u - b d1u - c/2 u of both axes over
    `_rows`, from the neighbour differences ``diffs`` of ``u``.

    Along an axis, node i takes ``up (u[i+1] - u[i]) - lo (u[i] - u[i-1])
    - (c/2) u[i]``.  That is ``lo (u[i-1] - u[i]) + up (u[i+1] - u[i])
    - (c/2) u[i]`` bit for bit: negation is exact and a + (-b) is a - b.
    """
    rows, n = _rows(u), u.shape[1]
    g_s, g_y = diffs
    half_cu = 0.5 * st["c"].reshape(-1)[rows]
    half_cu *= u.reshape(-1)[rows]
    parts = []
    for (lo, up), back, ahead in zip(
            st["w"], (g_s[:-n], g_y[n - 1:u.size - n - 1]), (g_s[n:], g_y[rows])):
        part = up.reshape(-1)[rows] * ahead
        part -= lo.reshape(-1)[rows] * back
        part -= half_cu
        parts.append(part)
    return parts


def _apply_mix(st: dict, u: np.ndarray, ds: float, dy: float) -> np.ndarray:
    """The mixed part 2 a_sy d2u/dSdy over `_rows`."""
    rows = _rows(u)
    mix = fd.cross_diff_interior(u, ds, dy).reshape(-1)[rows]
    mix *= 2.0 * st["a_sy"].reshape(-1)[rows]
    return mix


def _zero_ring(v: np.ndarray) -> np.ndarray:
    v[0, :] = v[-1, :] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    return v


def _sweep_system(st1: dict, theta_dt: float, axis: int) -> tuple:
    """Assemble and factor (I - theta*dt*A_axis) for every grid line.

    The systems are laid out contiguously along the last axis, as
    ``tridiag.factor_batch`` takes them; the diagonals are built for it
    alone, and it factors them in place.  Returns the factorization.
    """
    lo, up = st1["w"][axis]
    diag = lo + up
    diag *= theta_dt
    diag += 1.0
    diag += theta_dt * 0.5 * st1["c"]
    lower, upper = -theta_dt * lo, -theta_dt * up
    # identity rows for the boundary unknowns of each system and for the
    # two boundary systems: the boundary ring in either layout
    _zero_ring(lower)
    _zero_ring(upper)
    diag[:, 0] = diag[:, -1] = 1.0
    diag[0, :] = diag[-1, :] = 1.0
    return tridiag.factor_batch(*(np.ascontiguousarray(np.swapaxes(x, axis, 1))
                                  for x in (lower, diag, upper)))


def _sweep(factors: tuple, d: np.ndarray, chi: np.ndarray, axis: int) -> np.ndarray:
    """Solve a factored sweep system along ``axis`` for the right-hand side
    ``d + chi``; the solution comes back in the (S, y) layout.

    The sum is laid out as the systems are and solved in place.
    """
    rhs = np.ascontiguousarray(np.swapaxes(d + chi, axis, 1))
    rhs[:, 0] = rhs[:, -1] = 0.0
    x = tridiag.solve_batch(factors, rhs)
    return np.ascontiguousarray(np.swapaxes(x, axis, 1))


def step_slices(st0: dict, st1: dict, u: np.ndarray, grid: GridSpec,
                f0=None, f1=None) -> tuple:
    """One Craig-Sneyd step from the stencils of the slices at t_k and t_{k+1}.

    The sources ``f0`` and ``f1`` at the two slices come together or not at
    all.  Returns (u_next, n_solves), where n_solves counts the batched
    tridiagonal solves made.  Dirichlet values are enforced by keeping the
    boundary increment at zero, so the lateral trace of ``u`` carries
    through every stage unchanged.  Each axis's sweep matrix is factored
    once and serves the predictor and the single corrector pass, which
    re-evaluates the mixed term (and the source) at the predicted increment.

    The explicit parts are formed in flat passes over the rows 1 .. n_S
    (`_rows`), both stencils' one-dimensional parts from one set of
    neighbour differences of ``u``.  Each sweep's diagonals and right-hand
    side are made for ``tridiag`` alone, which works on them in place.
    """
    ds, dy, dt = grid.ds, grid.dy, grid.dt
    theta_dt = THETA * dt
    rows = _rows(u)

    diffs = _differences(u)
    a0 = _apply(st0, u, diffs)
    am0 = _apply_mix(st0, u, ds, dy)
    delta0 = np.empty(u.shape)
    inner = delta0.reshape(-1)[rows]
    np.add(a0[0], a0[1], out=inner)
    inner += am0
    if f0 is not None:
        inner += f0.reshape(-1)[rows]
    inner *= dt
    _zero_ring(delta0)

    # chi = theta dt (A1 u - A0 u) of each axis
    chi = [np.empty(u.shape), np.empty(u.shape)]
    for part, p0, p1 in zip(chi, a0, _apply(st1, u, diffs)):
        flat = part.reshape(-1)[rows]
        np.subtract(p1, p0, out=flat)
        flat *= theta_dt
        _zero_ring(part)
    del diffs, a0
    systems = [_sweep_system(st1, theta_dt, axis) for axis in (0, 1)]

    def sweeps(d):
        for axis, system in enumerate(systems):
            d = _sweep(system, d, chi[axis], axis)
        return d

    # u + the predicted increment, in the increment's array
    w = sweeps(delta0)
    w += u
    corr = _apply_mix(st1, w, ds, dy)
    corr -= am0
    corr *= 0.5 * dt
    if f0 is not None:
        gain = f1.reshape(-1)[rows] - f0.reshape(-1)[rows]
        gain *= 0.5 * dt
        corr += gain
    inner += corr
    u_next = sweeps(_zero_ring(delta0))
    u_next += u
    if np.isnan(u_next).any():
        raise StabilityFailure("time step produced NaNs")
    # the predictor and the corrector each sweep every axis once
    return u_next, 2 * len(systems)


def compatibility_residual(psi: np.ndarray, spec: ModelSpec, grid: GridSpec) -> float:
    """Residual of the forward operator on the boundary-adjacent ring at t = 0.

    The operator is the one the solver steps: the slice-0 stencil at psi's
    own mixing ratio, as a time-lagged first step reads it.  The continuous
    theory wants the residual to vanish exactly at the corner between the
    initial and lateral boundaries; for generic initial data it does not,
    so the discrete value is reported for diagnostics rather than enforced.
    """
    if np.any(psi <= 0):
        raise ValueError("initial density must be strictly positive")
    ds, dy = grid.ds, grid.dy
    mix = mixing_ratio(psi, spec.b, grid)
    st = stencil(assemble_slice(spec, grid, 0, mix.ratio, mix.sqrt_ratio), (ds, dy))
    parts = _apply(st, psi, _differences(psi))
    op = (parts[0] + parts[1] + _apply_mix(st, psi, ds, dy)).reshape(-1, psi.shape[1])
    # the outer ring of the interior nodes
    ring = np.zeros(op.shape, dtype=bool)
    ring[0, 1:-1] = ring[-1, 1:-1] = True
    ring[:, 1] = ring[:, -2] = True
    return float(np.max(np.abs(op[ring])))


def cross_cfl_number(fields: CoefficientFields, grid: GridSpec) -> float:
    """Explicit mixed-term stability estimate dt * max|2 a_sy| / (dS dy)."""
    return grid.dt * 2.0 * fields.a_sy_max / (grid.ds * grid.dy)


def solve_linear(fields: CoefficientFields, psi: np.ndarray, grid: GridSpec,
                 f: np.ndarray | Callable[[int], np.ndarray] | None = None,
                 n_steps: int | None = None, out=None) -> tuple:
    """Solve the frozen equation over [0, n_steps * dt] from and with psi.

    ``psi`` provides both the initial slice and (through its boundary trace,
    held constant in time) the lateral Dirichlet data.  The source ``f`` is
    an array over the time slices or a function of the slice index that
    returns one slice.  Either way it is taken per step: slice k+1 is built
    for step k and carried into step k+1 as slice k, like the stencil, so a
    source function never has more than two slices alive.

    The products of slice k are evaluated once, for its stencil; the source
    of slice k is asked for right after, and may read them from
    ``fields.unit(k)``.

    Each slice goes to ``out[k] = u`` as the sweep makes it, k = 0 ..
    n_steps; ``out`` is anything that takes that assignment.  Slice k+1 of
    the source is built before ``out[k + 1]`` is written, so ``out`` may be
    the trajectory the source reads.  An ``out`` that raises stops the
    solve: the exception leaves ``solve_linear`` and no later step is made.
    Without it, the trajectory array is made here.

    ``CrossTermCFL``, which depends on the operator alone, is issued before
    the sweep, so a stopped solve issues it too.

    Returns:
        (out, LinearSolveReport); the array made here has shape
        (n_steps+1, n_s+2, n_y+2)

    Raises:
        ValueError: the step count is outside [1, n_t].
    """
    n = grid.n_t if n_steps is None else int(n_steps)
    if not 1 <= n <= grid.n_t:
        raise ValueError(f"step count {n} outside [1, {grid.n_t}]")
    nu = cross_cfl_number(fields, grid)
    if nu > 1.0:
        warnings.warn(f"explicit cross-term estimate {nu:.2f} > 1", CrossTermCFL)
    source = f if f is None or callable(f) else f.__getitem__
    if out is None:
        out = np.empty((n + 1, grid.n_s + 2, grid.n_y + 2))
    out[0] = psi
    u = np.array(psi, dtype=float)
    n_solves = 0
    hs = (grid.ds, grid.dy)
    st1 = stencil(fields.slice(0), hs)
    f1 = None if source is None else source(0)
    for k in range(n):
        # slice k+1's stencil and source serve step k and, as slice k,
        # step k+1
        st0, st1 = st1, stencil(fields.slice(k + 1), hs)
        f0, f1 = f1, None if source is None else source(k + 1)
        u, n_k = step_slices(st0, st1, u, grid, f0=f0, f1=f1)
        n_solves += n_k
        out[k + 1] = u

    report = LinearSolveReport(k2=fields.k2, n_tridiag_solves=n_solves,
                               cross_cfl=nu, n_steps=n)
    return out, report


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

    traj, _ = solve_linear(fields, np.zeros(grid.shape[1:]), grid, f=f_arr)
    sups = np.max(np.abs(traj[1:]), axis=(1, 2))
    ratio = sups / (ts * f_sup)
    if not np.all(np.isfinite(ratio)):
        raise StabilityFailure("sup-norm ratio curve blew up")
    return {"t": ts, "ratio": ratio, "k0": float(ratio.max()), "sup_curve": sups}
