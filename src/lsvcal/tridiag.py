"""Batched tridiagonal solves.

A sweep of an alternating-direction step solves one small tridiagonal
system per grid row.  All rows are concatenated into a single tridiagonal
matrix (couplings between blocks are zero) and handed to LAPACK ``gtsv``
once, which is far faster than looping in Python and equally
deterministic.
"""
from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv


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

    Raises:
        LinAlgError: a system is singular.
    """
    m, n = diag.shape
    dl = np.ravel(lower).astype(float)
    du = np.ravel(upper).astype(float)
    dl[::n] = 0.0
    du[n - 1::n] = 0.0
    *_, x, info = dgtsv(dl[1:], np.ravel(diag).astype(float, copy=False), du[:-1],
                        np.ravel(rhs).astype(float, copy=False),
                        overwrite_dl=True, overwrite_du=True)
    if info > 0:
        raise LinAlgError("singular matrix")
    return x.reshape(m, n)


def residual_batch(lower, diag, upper, rhs, x) -> float:
    """Max relative residual of the batched systems at a solution x."""
    r = diag * x - rhs
    r[:, 1:] += lower[:, 1:] * x[:, :-1]
    r[:, :-1] += upper[:, :-1] * x[:, 1:]
    scale = np.max(np.abs(rhs)) + np.max(np.abs(diag * x)) + 1e-300
    return float(np.max(np.abs(r)) / scale)
