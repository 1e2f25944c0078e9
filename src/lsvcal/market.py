"""Quote ingestion, implied-variance surface and the Dupire machinery.

The surface interpolates total variance w = sigma^2 T: a not-a-knot cubic
spline (`_Spline`, this module's own) in log-moneyness within each quoted
maturity, another through the maturities (anchored at w = 0 for T = 0)
across them.  Local volatility is extracted in total-variance form,

    sigma_D^2 = (dw/dT + r K dw/dK) / D,
    D = 1 - (x/w) dw/dx + (1/4)(-1/4 - 1/w + x^2/w^2)(dw/dx)^2
        + (1/2) d2w/dx2,                     x = log-moneyness vs forward,

with all derivatives taken by centered finite differences on the
interpolated surface.  The 1D forward equation used as the calibration
target is solved in conservative finite-volume form with implicit Euler
steps and zero-flux walls, which keeps the density nonnegative and, for
zero rates, conserves its mass exactly.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fd, tridiag
from .errors import (ArbitrageWarning, CalendarArbitrage, DegenerateSurface,
                     DuplicateQuote, InsufficientData, ParseError,
                     StabilityFailure)
from .grids import GridSpec


@dataclass(frozen=True)
class OptionQuote:
    """One vanilla quote; exactly one of implied_vol / price is set."""

    maturity: float
    strike: float
    implied_vol: float | None = None
    price: float | None = None

    def __post_init__(self):
        for name, value in (("maturity", self.maturity), ("strike", self.strike),
                            ("implied vol", self.implied_vol), ("price", self.price)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} {value} is not finite")
        if self.maturity <= 0:
            raise ValueError(f"maturity {self.maturity} must be positive")
        if self.strike <= 0:
            raise ValueError(f"strike {self.strike} must be positive")
        if (self.implied_vol is None) == (self.price is None):
            raise ValueError("exactly one of implied_vol / price required")
        if self.implied_vol is not None and self.implied_vol <= 0:
            raise ValueError(f"implied vol {self.implied_vol} must be positive")


def load_quotes(path) -> list:
    """Read quotes from CSV with header ``maturity,strike,implied_vol`` or
    ``maturity,strike,price``.

    Raises:
        ParseError: malformed row, a non-finite value included (with its
            1-based line number).
        DuplicateQuote: repeated (maturity, strike) pair.

    Warns:
        ArbitrageWarning: total variance decreasing in maturity at a strike
        quoted on several maturities.
    """
    quotes = []
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "empty file") from None
        cols = [c.strip().lower() for c in header]
        if cols[:2] != ["maturity", "strike"] or len(cols) != 3 or \
                cols[2] not in ("implied_vol", "price"):
            raise ParseError(1, f"unexpected header {header}")
        is_vol = cols[2] == "implied_vol"
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ParseError(line_no, f"expected 3 fields, got {len(row)}")
            try:
                t, k, v = (float(x) for x in row)
            except ValueError as err:
                raise ParseError(line_no, str(err)) from None
            key = (t, k)
            if key in seen:
                raise DuplicateQuote(f"duplicate quote (T={t}, K={k})")
            seen.add(key)
            try:
                q = OptionQuote(t, k, implied_vol=v if is_vol else None,
                                price=None if is_vol else v)
            except ValueError as err:
                raise ParseError(line_no, str(err)) from None
            quotes.append(q)

    if quotes and quotes[0].implied_vol is not None:
        by_strike = {}
        for q in quotes:
            by_strike.setdefault(q.strike, []).append(q)
        for k, qs in by_strike.items():
            qs = sorted(qs, key=lambda q: q.maturity)
            w = [q.implied_vol ** 2 * q.maturity for q in qs]
            if any(b < a - 1e-12 for a, b in zip(w, w[1:])):
                warnings.warn(f"calendar total variance not monotone at K={k}",
                              ArbitrageWarning)
    return quotes


def check_price_bounds(quotes, spot: float, rate: float) -> None:
    """Reject price quotes outside [max(S0 - K e^{-rT}, 0), S0]."""
    for q in quotes:
        if q.price is None:
            continue
        lo = max(spot - q.strike * math.exp(-rate * q.maturity), 0.0)
        if not lo <= q.price <= spot:
            raise ValueError(
                f"price {q.price} outside no-arbitrage bounds [{lo:.6g}, {spot}] "
                f"at (T={q.maturity}, K={q.strike})")


_SQRT_HALF = math.sqrt(0.5)


def _ndtr(a: float) -> float:
    """Standard normal CDF at a float, in the branch form of cephes's
    ``ndtr`` on `math.erf`/`math.erfc`: ``erf`` near 0 and ``erfc`` of |x|
    in the tails, so that the lower tail keeps its relative accuracy."""
    x = a * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0 else y


def _bs_call(spot, strike, t, rate, vol):
    """Black-Scholes call price, with the normal CDF of `_ndtr`."""
    if t <= 0 or vol <= 0:
        return max(spot - strike * math.exp(-rate * t), 0.0)
    sq = vol * math.sqrt(t)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * t) / sq
    d2 = d1 - sq
    return spot * _ndtr(d1) - strike * math.exp(-rate * t) * _ndtr(d2)


def implied_vol_from_price(price, spot, strike, t, rate) -> float:
    """Invert the Black-Scholes call price by Brent's method.

    Only price quotes come here, and this call alone loads a SciPy
    subpackage, `scipy.optimize`.
    """
    from scipy.optimize import brentq
    lo_price = _bs_call(spot, strike, t, rate, 1e-6)
    hi_price = _bs_call(spot, strike, t, rate, 5.0)
    if not lo_price <= price <= hi_price:
        raise ValueError(f"price {price} not attainable for vol in [1e-6, 5]")
    return float(brentq(lambda v: _bs_call(spot, strike, t, rate, v) - price,
                        1e-6, 5.0, xtol=1e-12))


class _Spline:
    """Not-a-knot cubic spline through (x[i], y[i]) along the first axis of
    y, extended beyond both end knots by its end pieces; n >= 4 strictly
    increasing knots.

    It repeats the arithmetic of SciPy's ``CubicSpline(x, y, axis=0)``
    step for step and so gives its values bit for bit: the same
    banded system for the knot slopes, solved by `tridiag`'s LAPACK
    ``gttrf``/``gttrs`` pair, which gives what ``gtsv`` (the solver of
    `scipy.linalg.solve_banded`) gives; the same Hermite coefficients; and
    the interval rule and evaluation order of its piecewise polynomial.

    Raises:
        ValueError: non-finite knots or values, or knots not strictly
            increasing (a strike quoted twice at one maturity).
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("spline knots and values must be finite")
        n = len(x)
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("spline knots must be strictly increasing")
        dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        b = np.empty_like(y)
        b[0] = ((dxr[0] + 2 * d0) * dxr[1] * slope[0]
                + dxr[0] ** 2 * slope[1]) / d0
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        b[-1] = (dxr[-1] ** 2 * slope[-2]
                 + (2 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
        # a batch of one system, every column of y a right-hand side
        factors = tridiag.factor_batch(
            np.concatenate([[0.0], dx[1:], [d1]])[None],
            np.concatenate([[dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]])[None],
            np.concatenate([[d0], dx[:-1], [0.0]])[None])
        s = tridiag.solve_batch(factors, b.reshape(1, n, -1)).reshape(y.shape)
        r = (s[:-1] + s[1:] - 2 * slope) / dxr
        self.x = x
        # coefficients of (t - x[i])^3, ^2, ^1, ^0 on interval i
        self.c = (r / dxr, (slope - s[:-1]) / dxr - r, s[:-1], y[:-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1,
                    0, len(self.x) - 2)
        s = (t - self.x[i]).reshape(t.shape + (1,) * (self.c[3].ndim - 1))
        c3, c2, c1, c0 = (c[i] for c in self.c)
        # summed from 0.0 upward, power by power, as the piecewise
        # polynomial does (so a zero comes out as +0.0)
        return 0.0 + c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)


@dataclass
class ImpliedSurface:
    """Total-variance interpolant w(T, x) with x = ln(K / S0).

    Outside the quoted log-moneyness range the wings are held flat; beyond
    the last quoted maturity the end segment of the maturity spline extends.
    """

    spot: float
    maturities: np.ndarray
    slices: list                       # per-maturity `_Spline` in x
    x_ranges: list                     # per-maturity (x_lo, x_hi)

    def w(self, t, x) -> np.ndarray:
        """Total variance at maturities t (scalar or 1-D) and log-moneyness x.

        Returns ``x.shape`` for a scalar t, ``(len(t),) + x.shape`` for an
        array; one maturity spline serves every t.
        """
        x = np.asarray(x, dtype=float)
        vals = np.empty((len(self.maturities) + 1,) + x.shape)
        vals[0] = 0.0
        for i, (spl, (xl, xh)) in enumerate(zip(self.slices, self.x_ranges)):
            vals[i + 1] = spl(np.clip(x, xl, xh))
        knots = np.concatenate([[0.0], self.maturities])
        return _Spline(knots, vals)(t)

    def vol(self, t, strike) -> np.ndarray:
        """Implied volatility at (t, K)."""
        t = max(float(t), 1e-8)
        x = np.log(np.asarray(strike, dtype=float) / self.spot)
        return np.sqrt(np.maximum(self.w(t, x), 1e-14) / t)


def build_implied_surface(quotes, spot: float,
                          t_max: float | None = None) -> ImpliedSurface:
    """Interpolate quotes into a calendar-consistent total-variance surface.

    Requires at least 4 maturities with at least 4 strikes each; price
    quotes must be converted to vols by the caller beforehand.  Node values
    are reproduced exactly (to round-off) by construction.

    Raises:
        InsufficientData: not enough maturities/strikes, or the quotes stop
            short of the requested horizon.
        CalendarArbitrage: interpolated total variance decreases in T at a
            fixed strike.
        ValueError: a spot that is not positive (log-moneyness needs one).
    """
    if not spot > 0:
        raise ValueError(f"spot {spot} must be positive")
    by_t = {}
    for q in quotes:
        if q.implied_vol is None:
            raise ValueError("convert price quotes to implied vols first")
        by_t.setdefault(q.maturity, []).append(q)
    mats = np.array(sorted(by_t))
    if len(mats) < 4:
        raise InsufficientData(f"need >= 4 maturities, got {len(mats)}")
    if t_max is not None and mats[-1] < t_max:
        raise InsufficientData(
            f"quotes stop at T={mats[-1]} before the horizon {t_max}")

    slices = []
    x_ranges = []
    for t in mats:
        qs = sorted(by_t[t], key=lambda q: q.strike)
        if len(qs) < 4:
            raise InsufficientData(f"need >= 4 strikes at T={t}, got {len(qs)}")
        x = np.log(np.array([q.strike for q in qs]) / spot)
        w = np.array([q.implied_vol ** 2 * t for q in qs])
        slices.append(_Spline(x, w))
        x_ranges.append((x[0], x[-1]))

    surf = ImpliedSurface(spot=spot, maturities=mats, slices=slices,
                          x_ranges=x_ranges)

    x_check = np.unique(np.concatenate(
        [np.linspace(xl, xh, 13) for xl, xh in x_ranges]))
    t_check = np.linspace(mats[0] * 0.5, mats[-1], 41)
    w_check = surf.w(t_check, x_check)
    bad = np.flatnonzero(np.any(w_check[1:] < w_check[:-1] - 1e-10, axis=1))
    if bad.size:
        r = int(bad[0])
        j = int(np.argmin(w_check[r + 1] - w_check[r]))
        raise CalendarArbitrage(
            f"w decreasing in T near x={x_check[j]:.4f}, t={t_check[r + 1]:.4f}")
    return surf


def dupire_local_vol(surface: ImpliedSurface, rate: float, grid: GridSpec,
                     floor: float = 1e-2, cap: float = 3.0) -> np.ndarray:
    """Extract local volatility from the surface on the solver grid.

    The surface derivatives are centered differences with step 1e-3 in both
    maturity and log-moneyness.  Returns sigma_D on the (t, S) nodes, shape
    (n_t+1, n_s+2), clipped to ``[floor, cap]``.

    Raises:
        DegenerateSurface: Dupire denominator below 1e-6 (pre-clamp) on more
        than 5% of the nodes.
        ValueError: ``grid.s_min`` not positive (log-moneyness needs it).
    """
    if not grid.s_min > 0:
        raise ValueError(f"grid.s_min = {grid.s_min} must be positive")
    eps_t = eps_x = 1e-3
    x = np.log(grid.s_nodes / surface.spot)
    # one maturity spline per x array serves every time node: rows are
    # te, te + eps_t and te - eps_t
    te = np.maximum(grid.t_nodes, eps_t)
    w0, w_tp, w_tm = np.split(surface.w(np.concatenate(
        [te, te + eps_t, te - eps_t]), x), 3)
    w_xp = surface.w(te, x + eps_x)
    w_xm = surface.w(te, x - eps_x)
    dwdt = (w_tp - w_tm) / (2.0 * eps_t)
    dwdx = (w_xp - w_xm) / (2.0 * eps_x)
    d2wdx2 = (w_xp - 2.0 * w0 + w_xm) / (eps_x * eps_x)

    w_safe = np.maximum(w0, 1e-12)
    x_fwd = x - rate * te[:, None]
    denom = (1.0 - (x_fwd / w_safe) * dwdx
             + 0.25 * (-0.25 - 1.0 / w_safe + (x_fwd / w_safe) ** 2) * dwdx ** 2
             + 0.5 * d2wdx2)
    numer = dwdt + rate * dwdx
    n_bad = int(np.sum(denom < 1e-6))
    var = np.where(denom > 1e-6, numer / np.where(denom > 1e-6, denom, 1.0),
                   cap * cap)
    out = np.sqrt(np.clip(var, floor * floor, cap * cap))

    total = out.size
    if n_bad > 0.05 * total:
        raise DegenerateSurface(
            f"Dupire denominator < 1e-6 on {n_bad}/{total} nodes")
    return out


def dupire_forward_solve(sigma_d, rate: float, grid: GridSpec, q0: np.ndarray,
                         n_steps: int | None = None) -> np.ndarray:
    """March the 1D forward equation for the spot marginal under the local
    volatility ``sigma_d`` of shape (n_t+1, n_s+2).

    Conservative finite volumes on the S-nodes (half cells at the walls),
    implicit Euler in time, donor-cell upwinding of the rate drift and
    zero flux through both walls.

    Returns the trajectory (n_steps+1, n_s+2).

    Raises:
        StabilityFailure: NaNs or a negative-mass slice.
    """
    vals = np.asarray(sigma_d, dtype=float)
    n = grid.n_t if n_steps is None else int(n_steps)
    s = grid.s_nodes
    ds, dt = grid.ds, grid.dt
    m = grid.n_s + 2
    cell = fd.trapezoid_weights(m, ds)

    q = np.array(q0, dtype=float)
    if q.shape != (m,):
        raise ValueError(f"q0 must have shape ({m},)")
    if np.any(q < 0):
        raise ValueError("q0 must be nonnegative")
    traj = np.empty((n + 1, m))
    traj[0] = q

    v_face = rate * 0.5 * (s[:-1] + s[1:])      # drift velocity at faces
    up_w = np.where(v_face >= 0, 1.0, 0.0)      # donor cell for the drift

    for k in range(1, n + 1):
        d_node = 0.5 * vals[k] ** 2 * s * s
        # flux at face i+1/2:  (D q)' - v q_up
        lo = np.zeros(m)
        di = np.zeros(m)
        hi = np.zeros(m)
        # contribution of face i+1/2 to cells i (+) and i+1 (-)
        a_r = d_node[1:] / ds            # coefficient of q_{i+1} in face flux
        a_l = d_node[:-1] / ds           # coefficient of q_i
        vql = v_face * up_w              # drift weight on q_i
        vqr = v_face * (1.0 - up_w)      # drift weight on q_{i+1}
        # cell i: + (flux_{i+1/2} - flux_{i-1/2}) / cell_i - r q_i
        hi[:-1] += (a_r - vqr) / cell[:-1]
        di[:-1] += (-a_l - vql) / cell[:-1]
        di[1:] -= (a_r - vqr) / cell[1:]
        lo[1:] -= (-a_l - vql) / cell[1:]
        di -= rate

        lower = (-dt * lo)[None, :]
        diag = (1.0 - dt * di)[None, :]
        upper = (-dt * hi)[None, :]
        factors = tridiag.factor_batch(lower, diag, upper)
        q = tridiag.solve_batch(factors, q[None, :])[0]
        if np.isnan(q).any():
            raise StabilityFailure(f"NaN in forward solve at step {k}")
        mass = float(q @ cell)
        if mass <= 0:
            raise StabilityFailure(f"nonpositive mass {mass:.3e} at step {k}")
        traj[k] = q
    return traj


def fv_mass(q: np.ndarray, grid: GridSpec) -> float:
    """Finite-volume mass of a marginal slice (equals the trapezoid rule)."""
    return float(q @ fd.trapezoid_weights(grid.n_s + 2, grid.ds))
