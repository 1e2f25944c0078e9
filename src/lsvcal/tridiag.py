"""Batched tridiagonal solves.

A sweep of an alternating-direction step solves one small tridiagonal
system per grid row.  All rows are concatenated into a single block
tridiagonal banded matrix (couplings between blocks are zero) and handed
to LAPACK once, which is far faster than looping in Python and equally
deterministic.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded


def solve_batch(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                rhs: np.ndarray) -> np.ndarray:
    """Solve m independent tridiagonal systems of size n.

    Args:
        lower: (m, n) sub-diagonal coefficients; ``lower[:, 0]`` ignored.
        diag:  (m, n) diagonal coefficients.
        upper: (m, n) super-diagonal coefficients; ``upper[:, -1]`` ignored.
        rhs:   (m, n) right-hand sides.

    Returns:
        (m, n) solutions, row i solving
        ``lower[i, j] x[j-1] + diag[i, j] x[j] + upper[i, j] x[j+1] = rhs[i, j]``.
    """
    m, n = diag.shape
    lo = np.array(lower, dtype=float, copy=True)
    up = np.array(upper, dtype=float, copy=True)
    lo[:, 0] = 0.0
    up[:, -1] = 0.0

    ab = np.zeros((3, m * n))
    flat_up = up.ravel()
    flat_lo = lo.ravel()
    ab[0, 1:] = flat_up[:-1]
    ab[1] = diag.ravel()
    ab[2, :-1] = flat_lo[1:]
    x = solve_banded((1, 1), ab, rhs.ravel(), overwrite_ab=True, check_finite=False)
    return x.reshape(m, n)


def residual_batch(lower, diag, upper, rhs, x) -> float:
    """Max relative residual of the batched systems at a solution x."""
    r = diag * x - rhs
    r[:, 1:] += lower[:, 1:] * x[:, :-1]
    r[:, :-1] += upper[:, :-1] * x[:, 1:]
    scale = np.max(np.abs(rhs)) + np.max(np.abs(diag * x)) + 1e-300
    return float(np.max(np.abs(r)) / scale)

