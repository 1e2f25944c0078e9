"""Finite-difference primitives on uniform grids.

All operators are second-order accurate, centered in the interior with
one-sided three/four-point formulas at the edges, so coefficient products
can be differentiated on the whole node set including the boundary ring.
"""
from __future__ import annotations

import numpy as np


def d1(u: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative, centered interior, second-order one-sided edges.

    Axes with fewer than three nodes (a one-step trajectory) fall back to
    the first-order difference; a single node differentiates to zero.  The
    operations and constants are ``np.gradient``'s, so the values are its
    bit for bit, written straight into one C-ordered output.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[axis]
    if n < 2:
        return np.zeros_like(u)
    out = np.empty(u.shape)
    f, o = np.moveaxis(u, axis, 0), np.moveaxis(out, axis, 0)
    if n < 3:
        o[:] = (f[1] - f[0]) / h
        return out
    np.subtract(f[2:], f[:-2], out=o[1:-1])
    o[1:-1] /= 2.0 * h
    o[0] = (-1.5 / h) * f[0] + (2.0 / h) * f[1] + (-0.5 / h) * f[2]
    o[-1] = (0.5 / h) * f[-3] + (-2.0 / h) * f[-2] + (1.5 / h) * f[-1]
    return out


def d2(u: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative, centered interior, second-order one-sided edges.

    The interior is ``u[2:] - 2 u[1:-1] + u[:-2]`` over h^2, formed in that
    order in the output itself.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[axis]
    if n < 3:
        return np.zeros_like(u)
    out = np.empty(u.shape)
    f, o = np.moveaxis(u, axis, 0), np.moveaxis(out, axis, 0)
    inner = o[1:-1]
    np.multiply(2.0, f[1:-1], out=inner)
    np.subtract(f[2:], inner, out=inner)
    inner += f[:-2]
    inner /= h * h
    if n >= 4:
        # 4-point one-sided stencils keep O(h^2) at the edges
        o[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (h * h)
        o[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / (h * h)
    else:
        o[0] = o[-1] = o[1]
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
    each node.  Each y-difference is taken once.
    """
    out = np.zeros_like(u)
    e = u[..., 1:] - u[..., :-1]
    d = e[..., 2:, :] - e[..., :-2, :]
    out[..., 1:-1, 1:-1] = (d[..., :-1] + d[..., 1:]) / (4.0 * hx * hy)
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
