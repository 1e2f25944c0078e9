"""Batched tridiagonal solves: the package's one way to solve a
tridiagonal system.

A sweep of an alternating-direction step solves one small tridiagonal
system per grid row; the Dupire march solves one per time step, and the
spline one for its knot slopes.  All systems of a batch are concatenated
into a single tridiagonal matrix (couplings between blocks are zero) and
factored by LAPACK ``gttrf`` once; ``gttrs`` then solves against that
factorization for every right-hand side the caller needs.  This is far
faster than looping in Python and equally deterministic.

The layout is LAPACK's: an (m, n) batch is m systems of n unknowns, each
contiguous along the last axis, flattened in C order.  Both routines work
in place on what they are given: the diagonals become the factors, and a
right-hand side with one column per system becomes the solution.  A
caller therefore builds those arrays for the call and does not read them
after; an array in another layout or type is copied first, and only that
copy is overwritten.

The two routines come from SciPy's LAPACK extension module,
``scipy.linalg._flapack``, loaded by itself: ``scipy.linalg.lapack``
would first run the ``scipy.linalg`` package, whose start-up loads some
300 modules (SciPy's array-API layer, ``numpy.f2py``, ``numpy.testing``,
...) that no solve uses.  The extension is registered under its own name,
so whichever of this module and ``scipy.linalg`` comes first, both hold
the same routines.
"""
from __future__ import annotations

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np
import scipy
from numpy.linalg import LinAlgError


def _flapack():
    """``scipy.linalg._flapack``: the loaded module, or the extension file
    in SciPy's ``linalg`` directory, loaded and registered under that name.

    Raises:
        ImportError: no such extension file in that directory.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        where = os.path.join(scipy.__path__[0], "linalg")
        spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            raise ImportError(f"SciPy's LAPACK extension {name} not found in {where}",
                              name=name, path=where)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


dgttrf, dgttrs = _flapack().dgttrf, _flapack().dgttrs


def factor_batch(lower: np.ndarray, diag: np.ndarray,
                 upper: np.ndarray) -> tuple:
    """Factor m independent tridiagonal systems of size n, in place.

    Args:
        lower: (m, n) sub-diagonal coefficients; ``lower[:, 0]`` ignored.
        diag:  (m, n) diagonal coefficients.
        upper: (m, n) super-diagonal coefficients; ``upper[:, -1]`` ignored.

    Row i of the batch is the system
    ``lower[i, j] x[j-1] + diag[i, j] x[j] + upper[i, j] x[j+1] = rhs[i, j]``.
    Returns the LU factors of ``gttrf``.  The three arrays are handed over:
    each C-ordered float64 one is factored in place and its memory holds
    the factors, so a caller builds them for this call alone; any other is
    copied first.

    Raises:
        LinAlgError: a system is singular.
    """
    n = diag.shape[1]
    dl, d, du = (np.ravel(x).astype(float, copy=False) for x in (lower, diag, upper))
    dl[::n] = 0.0
    du[n - 1::n] = 0.0
    *factors, info = dgttrf(dl[1:], d, du[:-1],
                            overwrite_dl=True, overwrite_d=True, overwrite_du=True)
    if info > 0:
        raise LinAlgError("singular matrix")
    return tuple(factors)


def solve_batch(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored systems for an (m, n) right-hand side, or for an
    (m, n, k) one that holds k right-hand sides per system.

    The right-hand side is handed over too: a C-ordered float64 one with
    one right-hand side per system is solved in place, and the solution
    comes back as a view of it.  Any other is copied first.
    """
    b = np.reshape(rhs, (len(factors[1]), -1)).astype(float, copy=False)
    x, _ = dgttrs(*factors, b, overwrite_b=True)
    return x.reshape(np.shape(rhs))
