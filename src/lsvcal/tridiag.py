"""Batched tridiagonal solves.

A sweep of an alternating-direction step solves one small tridiagonal
system per grid row.  All rows are concatenated into a single tridiagonal
matrix (couplings between blocks are zero) and factored by LAPACK ``gttrf``
once; ``gttrs`` then solves against that factorization for every right-hand
side the step needs.  This is far faster than looping in Python and equally
deterministic.
"""
from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs


def factor_batch(lower: np.ndarray, diag: np.ndarray,
                 upper: np.ndarray) -> tuple:
    """Factor m independent tridiagonal systems of size n.

    Args:
        lower: (m, n) sub-diagonal coefficients; ``lower[:, 0]`` ignored.
        diag:  (m, n) diagonal coefficients.
        upper: (m, n) super-diagonal coefficients; ``upper[:, -1]`` ignored.

    Row i of the batch is the system
    ``lower[i, j] x[j-1] + diag[i, j] x[j] + upper[i, j] x[j+1] = rhs[i, j]``.
    Returns the LU factors of ``gttrf``; the inputs are left untouched.

    Raises:
        LinAlgError: a system is singular.
    """
    n = diag.shape[1]
    dl = np.ravel(lower).astype(float)
    du = np.ravel(upper).astype(float)
    dl[::n] = 0.0
    du[n - 1::n] = 0.0
    *factors, info = dgttrf(dl[1:], np.ravel(diag).astype(float), du[:-1],
                            overwrite_dl=True, overwrite_d=True, overwrite_du=True)
    if info > 0:
        raise LinAlgError("singular matrix")
    return tuple(factors)


def solve_batch(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored systems for an (m, n) right-hand side."""
    x, _ = dgttrs(*factors, np.reshape(rhs, (-1, 1)).astype(float, copy=False))
    return x.reshape(np.shape(rhs))


def solve_tridiag(lower, diag, upper, rhs) -> np.ndarray:
    """Solve one tridiagonal system of size n for each column of an (n, k)
    right-hand side by LAPACK ``gtsv`` (elimination with partial pivoting).

    ``lower`` and ``upper`` hold the n-1 sub- and super-diagonal entries.

    Raises:
        LinAlgError: the system is singular.
    """
    *_, x, info = dgtsv(lower, diag, upper, rhs)
    if info > 0:
        raise LinAlgError("singular matrix")
    return x

