import sys

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from lsvcal import tridiag
from lsvcal.tridiag import factor_batch
from lsvcal.tridiag import solve_batch as solve_factored

from conftest import run_fresh


def solve_batch(lower, diag, upper, rhs) -> np.ndarray:
    """Factor, then solve: how every caller in the package uses the pair,
    on copies, as both take over the arrays they are given."""
    return solve_factored(factor_batch(lower.copy(), diag.copy(), upper.copy()),
                          rhs.copy())


def gtsv_batch(lower, diag, upper, rhs) -> tuple:
    """The former one-call LAPACK ``gtsv`` batch solve (test oracle);
    returns the solution and LAPACK's ``info``."""
    m, n = diag.shape
    dl = np.ravel(lower).astype(float)
    du = np.ravel(upper).astype(float)
    dl[::n] = 0.0
    du[n - 1::n] = 0.0
    *_, x, info = dgtsv(dl[1:], np.ravel(diag).astype(float), du[:-1],
                        np.ravel(rhs).astype(float))
    return x.reshape(m, n), info


def thomas_single(lower, diag, upper, rhs) -> np.ndarray:
    """Reference Thomas elimination for one system (test oracle)."""
    n = len(diag)
    c = np.zeros(n)
    d = np.zeros(n)
    x = np.zeros(n)
    piv = diag[0]
    if abs(piv) < 1e-14:
        raise ZeroDivisionError("pivot below guard")
    c[0] = upper[0] / piv
    d[0] = rhs[0] / piv
    for j in range(1, n):
        piv = diag[j] - lower[j] * c[j - 1]
        if abs(piv) < 1e-14:
            raise ZeroDivisionError("pivot below guard")
        c[j] = upper[j] / piv
        d[j] = (rhs[j] - lower[j] * d[j - 1]) / piv
    x[-1] = d[-1]
    for j in range(n - 2, -1, -1):
        x[j] = d[j] - c[j] * x[j + 1]
    return x


def random_systems(rng, m, n):
    diag = rng.uniform(2.5, 4.0, (m, n))
    lower = rng.uniform(-1.0, 1.0, (m, n))
    upper = rng.uniform(-1.0, 1.0, (m, n))
    rhs = rng.standard_normal((m, n))
    return lower, diag, upper, rhs


def test_batch_matches_dense_solve():
    rng = np.random.default_rng(0)
    lower, diag, upper, rhs = random_systems(rng, 7, 23)
    x = solve_batch(lower, diag, upper, rhs)
    for i in range(7):
        m = np.diag(diag[i]) + np.diag(lower[i, 1:], -1) + np.diag(upper[i, :-1], 1)
        ref = np.linalg.solve(m, rhs[i])
        np.testing.assert_allclose(x[i], ref, rtol=1e-12, atol=1e-13)


def test_batch_matches_thomas_oracle():
    rng = np.random.default_rng(4)
    lower, diag, upper, rhs = random_systems(rng, 3, 40)
    x = solve_batch(lower, diag, upper, rhs)
    for i in range(3):
        ref = thomas_single(lower[i], diag[i], upper[i], rhs[i])
        np.testing.assert_allclose(x[i], ref, rtol=1e-11, atol=1e-12)


def test_blocks_are_decoupled():
    # solving two systems jointly must equal solving them separately even
    # with junk in the ignored cross-block coefficients
    rng = np.random.default_rng(8)
    lower, diag, upper, rhs = random_systems(rng, 2, 15)
    lower[:, 0] = 99.0
    upper[:, -1] = -99.0
    x_joint = solve_batch(lower, diag, upper, rhs)
    x0 = solve_batch(lower[:1], diag[:1], upper[:1], rhs[:1])
    x1 = solve_batch(lower[1:], diag[1:], upper[1:], rhs[1:])
    assert np.array_equal(x_joint[0], x0[0])
    assert np.array_equal(x_joint[1], x1[0])


def test_zero_rhs_gives_exact_zero():
    rng = np.random.default_rng(2)
    lower, diag, upper, _ = random_systems(rng, 4, 30)
    x = solve_batch(lower, diag, upper, np.zeros((4, 30)))
    assert np.all(x == 0.0)


def test_deterministic():
    rng = np.random.default_rng(3)
    args = random_systems(rng, 5, 25)
    assert np.array_equal(solve_batch(*args), solve_batch(*args))


@st.composite
def dominant_batches(draw):
    """Diagonally dominant (m, n) batches with junk in the ignored corners."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(3, 40))

    def coeffs(lo, hi):
        return draw(arrays(np.float64, (m, n), elements=st.floats(lo, hi)))
    lower, upper = coeffs(-1.0, 1.0), coeffs(-1.0, 1.0)
    diag, rhs = coeffs(2.5, 4.0), coeffs(-10.0, 10.0)
    lower[:, 0] = draw(arrays(np.float64, m, elements=st.floats(-1e3, 1e3)))
    upper[:, -1] = draw(arrays(np.float64, m, elements=st.floats(-1e3, 1e3)))
    return lower, diag, upper, rhs


class TestBatchProperties:
    @settings(max_examples=200, deadline=None)
    @given(dominant_batches())
    def test_matches_thomas_oracle(self, batch):
        x = solve_batch(*batch)
        for i, row in enumerate(zip(*batch)):
            np.testing.assert_allclose(x[i], thomas_single(*row),
                                       rtol=1e-11, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(dominant_batches())
    def test_joint_solve_equals_row_solves(self, batch):
        x = solve_batch(*batch)
        for i in range(x.shape[0]):
            alone = solve_batch(*(a[i:i + 1] for a in batch))
            assert np.array_equal(x[i], alone[0])

    @settings(max_examples=200, deadline=None)
    @given(dominant_batches(), st.booleans())
    def test_factor_solve_equals_gtsv(self, batch, pivoting):
        # a sub-diagonal four times larger makes LAPACK swap rows
        lower, diag, upper, rhs = batch
        if pivoting:
            lower = 4.0 * lower
        given = [a.copy() for a in (lower, diag, upper)]
        try:
            factors = factor_batch(*given)
        except LinAlgError:
            assert gtsv_batch(lower, diag, upper, rhs)[1] > 0
            return
        # the factors are computed in the arrays handed over
        assert all(np.shares_memory(f, a) for f, a in zip(factors, given))
        for b in (rhs, -2.0 * rhs):
            x_ref, info = gtsv_batch(lower, diag, upper, b)
            assert info == 0
            b = b.copy()
            x = solve_factored(factors, b)
            assert np.array_equal(x, x_ref)
            # and the solution in the right-hand side handed over
            assert np.shares_memory(x, b)

    @settings(max_examples=200, deadline=None)
    @given(dominant_batches(), st.integers(1, 5), st.booleans())
    def test_stacked_rhs_equals_column_solves(self, batch, k, pivoting):
        # k right-hand sides per system, as the spline solves its columns
        lower, diag, upper, rhs = batch
        if pivoting:
            lower = 4.0 * lower
        try:
            factors = factor_batch(lower, diag, upper)
        except LinAlgError:
            return
        cols = np.stack([(j + 1.0) * rhs - j for j in range(k)], axis=-1)
        x = solve_factored(factors, cols.copy())
        assert x.shape == cols.shape
        for j in range(k):
            assert np.array_equal(x[..., j], solve_factored(factors, cols[..., j]))


@pytest.mark.parametrize("first", ["lsvcal.tridiag", "scipy.linalg.lapack"])
def test_one_lapack_extension_in_either_import_order(first):
    # the order only shows in a fresh interpreter
    second = ({"lsvcal.tridiag", "scipy.linalg.lapack"} - {first}).pop()
    out = run_fresh(
        f"import {first}, {second}, scipy.linalg, numpy as np; "
        "from lsvcal import tridiag; from scipy.linalg import lapack; "
        "ext = sys.modules['scipy.linalg._flapack']; "
        "print(tridiag._flapack() is ext, tridiag.dgttrf is lapack.dgttrf is ext.dgttrf, "
        "tridiag.dgttrs is lapack.dgttrs, "
        "np.allclose(scipy.linalg.solve([[2.0, 1.0], [1.0, 3.0]], [3.0, 4.0]), 1.0))")
    assert out.split() == ["True"] * 4


def test_missing_lapack_extension_names_the_directory(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=str(tmp_path / "linalg")):
        tridiag._flapack()
