"""Marginals, the nonlocal mixing ratio and the leverage surface.

The mixing ratio at a spot node is

    ratio(t, S) = (integral of p over y) / (integral of b^2 p over y),

i.e. the reciprocal of the conditional second moment of the volatility
transform b given the spot.  Multiplying the squared Dupire volatility by
this ratio yields the squared leverage.  Both integrals use the same
composite-trapezoid weights so a constant b cancels exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator
from .fd import trapezoid_weights
from .grids import GridSpec
from .holder import holder_norm

_BOUND_SLACK = 1e-9


def marginal(p: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Trapezoid marginal over y; accepts a (..., n_y+2) slice or trajectory."""
    w = trapezoid_weights(grid.n_y + 2, grid.dy)
    return p @ w


def b_values(b, grid: GridSpec) -> np.ndarray:
    """b on the y-nodes; ``b`` is a callable of y or a constant.

    The result may be a read-only broadcast view.
    """
    vals = b(grid.y_nodes) if callable(b) else b
    return np.broadcast_to(np.asarray(vals, dtype=float), grid.n_y + 2)


@dataclass
class MixingField:
    """Mixing ratio and its square root per (t, S) node."""

    ratio: np.ndarray
    sqrt_ratio: np.ndarray
    denominator_min: float

    def __post_init__(self):
        if np.any(self.ratio <= 0):
            raise ValueError("mixing ratio must be strictly positive")

    def gaps(self, b_ref: float) -> tuple:
        """The gaps ``ratio - 1/b_ref^2`` and ``sqrt(ratio) - 1/b_ref`` from
        the constant-b anchor, each with a trailing length-1 y axis: they
        broadcast against a density, and a (t, S) gap is a (t, S, y) field."""
        return ((self.ratio - 1.0 / (b_ref * b_ref))[..., None],
                (self.sqrt_ratio - 1.0 / b_ref)[..., None])


def mixing_ratio(p: np.ndarray, b, grid: GridSpec) -> MixingField:
    """Mixing ratio of a density slice (n_s+2, n_y+2) or trajectory (..., n_s+2, n_y+2).

    The ratio of its two marginals, ``p @ w`` and ``p @ (w b^2)``; see
    ``ratio_of_marginals`` for the checks and the constant-b shortcut.
    """
    p = np.asarray(p, dtype=float)
    w = trapezoid_weights(grid.n_y + 2, grid.dy)
    bv = b_values(b, grid)
    return ratio_of_marginals(p @ w, p @ (w * bv * bv), b, grid)


def ratio_of_marginals(num: np.ndarray, den: np.ndarray, b, grid: GridSpec) -> MixingField:
    """Mixing ratio ``num / den`` from a density's marginal ``num = p @ w``
    and weighted marginal ``den = p @ (w b^2)``, of one shape (..., n_s+2).

    The floor is taken over all of ``num``, so a trajectory's marginals give
    the trajectory's ratio.  When b is constant on the y-nodes the ratio is
    returned as the exact constant 1/b^2 (and its root as 1/b), so the
    constant-volatility model degenerates without floating-point residue.

    Raises:
        DegenerateDenominator: weighted marginal below
            ``1e-12 * min(b)^2 * max(1, max marginal)`` somewhere.
        ValueError: the ratio left its band ``[1/max(b)^2, 1/min(b)^2]``.
    """
    bv = b_values(b, grid)
    den_min = float(den.min()) if den.size else math.inf

    b_lo = float(np.min(bv))
    eps_den = 1e-12 * b_lo * b_lo * max(num.max(), 1.0) if num.size else 1e-12
    if den_min < eps_den:
        flat = np.argmin(den)
        s_index = int(np.unravel_index(flat, den.shape)[-1])
        raise DegenerateDenominator(s_index, den_min)

    if np.all(bv == bv[0]):
        b0 = float(bv[0])
        ratio = np.full_like(num, 1.0 / (b0 * b0))
        root = np.full_like(num, 1.0 / b0)
        return MixingField(ratio, root, den_min)

    ratio = num / den
    b_hi = float(np.max(bv))
    lo, hi = 1.0 / (b_hi * b_hi), 1.0 / (b_lo * b_lo)
    if ratio.min() < lo * (1 - _BOUND_SLACK) or ratio.max() > hi * (1 + _BOUND_SLACK):
        raise ValueError(
            f"mixing ratio left [{lo:.6g}, {hi:.6g}]: "
            f"[{ratio.min():.6g}, {ratio.max():.6g}]")
    return MixingField(ratio, np.sqrt(ratio), den_min)


def leverage(sigma_d: np.ndarray, mixing: MixingField) -> np.ndarray:
    """Leverage surface a = sigma_D * sqrt(ratio), pointwise on (t, S)."""
    return np.asarray(sigma_d, dtype=float) * mixing.sqrt_ratio


@dataclass
class GapRecord:
    """One evaluation of the perturbation-gap monitor.

    ``lhs`` is the Hoelder-2 norm of (ratio - 1/b_ref^2) plus that of
    (sqrt(ratio) - 1/b_ref), the two ``lhs_*_part`` fields; ``scaled``
    divides it by bsq_slope * (1 + |p|)**6, the growth law the short-time
    theory predicts.  The fields are the keys of the record's JSON form.
    """

    lhs: float
    lhs_ratio_part: float
    lhs_root_part: float
    scaled: float | None


def ratio_gap_monitor(p: np.ndarray, b, b_ref: float, grid: GridSpec,
                      bsq_slope: float, p_norm: float) -> GapRecord:
    """Measure how far the mixing ratio sits from its constant-b anchor.

    Args:
        p: density trajectory (n_t+1, n_s+2, n_y+2); pass one slice as
            ``p[None]``.
        b_ref: anchor value of b (the freeze used by the linear solves).
        bsq_slope: measured sup |d(b^2)/dy| on the grid.
        p_norm: the Hoelder-2 norm of p at ``grid.holder_exp``, which the
            membership check computes.
    """
    gap_ratio, gap_root = mixing_ratio(p, b, grid).gaps(b_ref)
    n1 = holder_norm(gap_ratio, grid)
    n2 = holder_norm(gap_root, grid)
    lhs = n1.value + n2.value
    if not np.isfinite(lhs):
        raise ValueError("gap norm is not finite")
    scaled = lhs / (bsq_slope * (1.0 + p_norm) ** 6) if bsq_slope > 0 else None
    return GapRecord(lhs, n1.value, n2.value, scaled)
