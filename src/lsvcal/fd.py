"""Finite-difference primitives on uniform grids.

All operators are second-order accurate, centered in the interior with
one-sided three/four-point formulas at the edges, so coefficient products
can be differentiated on the whole node set including the boundary ring.

Inputs must be finite.  The flat passes of `d1`, `d2` and
`cross_diff_interior` also difference the end nodes of two neighbouring
lines before overwriting those entries, so an infinity makes numpy warn
(``inf - inf``) even where the values returned do not depend on it.
"""
from __future__ import annotations

import math

import numpy as np


def _lines(u: np.ndarray, axis: int) -> tuple:
    """``u`` as one C-ordered float array, its node count n along ``axis``
    and the flat distance between neighbours there (the product of the
    later axes' lengths)."""
    u = np.ascontiguousarray(u, dtype=float)
    axis = axis % u.ndim
    return u, u.shape[axis], math.prod(u.shape[axis + 1:])


def _edges(u: np.ndarray, out: np.ndarray, n: int, step: int) -> tuple:
    """``u`` and ``out`` as (lines before the axis, n, step) views, whose
    ``[:, i]`` is node row i of the axis."""
    shape = (u.size // (n * step) if step else 0, n, step)
    return u.reshape(shape), out.reshape(shape)


def d1(u: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative, centered interior, second-order one-sided edges.

    Axes with fewer than three nodes (a one-step trajectory) fall back to
    the first-order difference; a single node differentiates to zero.  The
    operations and constants are ``np.gradient``'s, so the values are its
    bit for bit, written straight into one C-ordered output.

    The interior is one pass over the flat array, whatever the axis: in C
    order the nodes i - 1 and i + 1 of an axis sit ``step`` entries either
    side of node i.  That pass also writes the first and last node row of
    each line from nodes of two neighbouring lines; the edge formulas then
    overwrite those rows.
    """
    u, n, step = _lines(u, axis)
    if n < 2:
        return np.zeros_like(u)
    out = np.empty(u.shape)
    f, o = _edges(u, out, n, step)
    if n < 3:
        o[:, 0] = o[:, 1] = (f[:, 1] - f[:, 0]) / h
        return out
    flat, inner = u.reshape(-1), out.reshape(-1)[step:-step]
    np.subtract(flat[2 * step:], flat[:-2 * step], out=inner)
    inner /= 2.0 * h
    o[:, 0] = (-1.5 / h) * f[:, 0] + (2.0 / h) * f[:, 1] + (-0.5 / h) * f[:, 2]
    o[:, -1] = (0.5 / h) * f[:, -3] + (-2.0 / h) * f[:, -2] + (1.5 / h) * f[:, -1]
    return out


def d2(u: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative, centered interior, second-order one-sided edges.

    The interior is ``u[2:] - 2 u[1:-1] + u[:-2]`` over h^2, formed in that
    order in the output itself, in one flat pass as in `d1`.
    """
    u, n, step = _lines(u, axis)
    if n < 3:
        return np.zeros_like(u)
    out = np.empty(u.shape)
    f, o = _edges(u, out, n, step)
    flat, inner = u.reshape(-1), out.reshape(-1)[step:-step]
    np.multiply(2.0, flat[step:-step], out=inner)
    np.subtract(flat[2 * step:], inner, out=inner)
    inner += flat[:-2 * step]
    inner /= h * h
    if n >= 4:
        # 4-point one-sided stencils keep O(h^2) at the edges
        o[:, 0] = (2.0 * f[:, 0] - 5.0 * f[:, 1] + 4.0 * f[:, 2] - f[:, 3]) / (h * h)
        o[:, -1] = (2.0 * f[:, -1] - 5.0 * f[:, -2] + 4.0 * f[:, -3] - f[:, -4]) / (h * h)
    else:
        o[:, 0] = o[:, -1] = o[:, 1]
    return out


def d2_cross(u: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """Mixed second derivative of a 2D field on its last two axes.

    Centered four-point stencil in the interior; edges fall back to nested
    `d1` calls (one-sided), which keeps second order everywhere.
    """
    return d1(d1(u, hx, axis=-2), hy, axis=-1)


def cross_diff_interior(u: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """Centered mixed difference on interior nodes, zero on the edge ring.

    Written as nested differences so constant fields map to exact zeros:
    the S-difference of the y-differences, summed over the two y-cells at
    each node.  Each y-difference is taken once.  As in `d1`, each step is
    one pass over the flat array; the entries that pair nodes of two lines
    fall on the edge ring, which is zeroed last.
    """
    u = np.ascontiguousarray(u, dtype=float)
    n = u.shape[-1]
    flat, out = u.reshape(-1), np.empty(u.shape)
    e = flat[1:] - flat[:-1]
    d = e[2 * n:] - e[:-2 * n]
    inner = out.reshape(-1)[n + 1:u.size - n - 1]
    np.add(d[:-1], d[1:], out=inner)
    inner /= 4.0 * hx * hy
    out[..., :1, :] = out[..., -1:, :] = 0.0
    out[..., :1] = out[..., -1:] = 0.0
    return out


def second_diff_interior(u: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Centered second difference on interior nodes, zero on the edge ring."""
    u = np.moveaxis(u, axis, 0)
    out = np.zeros_like(u)
    g = u[1:] - u[:-1]
    out[1:-1] = (g[1:] - g[:-1]) / (h * h)
    return np.moveaxis(out, 0, axis)


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite-trapezoid quadrature weights for n nodes spaced by h."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w
