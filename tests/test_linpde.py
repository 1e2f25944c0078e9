import functools
import math
import types

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lsvcal import (CrossTermCFL, ModelSpec, NonElliptic, NonEllipticAssembly,
                    StabilityFailure, assemble_frozen, assemble_slice,
                    convert_correlation, ellipticity_constant, holder_norm,
                    solve_linear, supnorm_time_bound, tridiag)
from lsvcal.grids import GridSpec
from lsvcal.linpde import (CoefficientFields, _apply, _differences, _min_eig_2x2,
                           _sweep, _sweep_system, cross_cfl_number, step_slices,
                           stencil)

from conftest import b_const, b_perturbed, flat_sigma, make_grid, make_psi, make_spec

# regression constant fitted once on the calibration corpus below and frozen
SCHAUDER_KHAT = 5.0


def direct_fields(grid, a_s, a_x, a_yy, b_s=0.0, b_y=0.0, c=0.0):
    """A frozen operator built directly at unit anchor: time-constant
    products, broadcast stored fields, and K2 and max|a_sy| taken as
    ``assemble_frozen`` takes them."""
    unit = {key: np.broadcast_to(np.asarray(v, dtype=float), grid.shape[1:])
            for key, v in (("a_s", a_s), ("a_x", a_x), ("a_y", a_yy))}
    sl = {"a_ss": unit["a_s"], "a_sy": 0.5 * unit["a_x"], "a_yy": unit["a_y"]}
    stored = (np.broadcast_to(v, grid.shape) for v in (b_s, b_y, c))
    return CoefficientFields(lambda k: unit, *stored, k2=ellipticity_constant(sl),
                             a_sy_max=float(np.max(np.abs(sl["a_sy"]))))


def const_spec(alpha1=1.0, alpha2=1.0, rho=0.0, rate=0.0, beta1=None,
               beta2=None, gamma=None):
    return ModelSpec(b=1.0, alpha1=alpha1, alpha2=alpha2,
                     corr=convert_correlation(rho), rate=rate, spot0=100.0,
                     y0=0.0, beta1=beta1, beta2=beta2, gamma=gamma)


class TestAssembly:
    def test_constant_alpha_leaves_only_rate_terms(self):
        grid = make_grid(n_s=20, n_y=16, n_t=8)
        spec = const_spec(alpha1=0.5, alpha2=0.3, rho=0.2, rate=0.03)
        fields = assemble_frozen(spec, grid, b_ref=1.0)
        s = grid.s_nodes[:, None]
        for k in range(grid.n_t + 1):
            sl = fields.slice(k)
            assert np.allclose(sl["a_s"], 0.5 * 0.25, atol=1e-15)
            assert np.allclose(sl["a_x"], 2 * 0.1 * 0.5 * 0.3, atol=1e-15)
            assert np.allclose(sl["a_yy"], 0.5 * 0.09, atol=1e-15)
        # drift rS from the rate, zeroth order d(rS)/dS + r = 2r
        assert np.allclose(fields.b_s[0], 0.03 * s, atol=1e-13)
        assert np.allclose(fields.b_y, 0.0, atol=1e-15)
        assert np.allclose(fields.c, 2 * 0.03, atol=1e-13)

    def test_product_derivative_against_analytic(self):
        # alpha1 = 0.2 + 0.05 sin(S): b_s must equal -2 (rho11 alpha1^2)'
        errs = []
        for n_s in (40, 80):
            grid = make_grid(n_s=n_s, n_y=16, n_t=8, s_span=(0.0, 3.0),
                             y_span=(-1.0, 1.0))
            a1 = lambda t, s, y: 0.2 + 0.05 * np.sin(s) + 0.0 * y
            spec = ModelSpec(b=1.0, alpha1=a1, alpha2=0.3,
                             corr=convert_correlation(0.5), spot0=1.5, y0=0.0)
            fields = assemble_frozen(spec, grid, b_ref=1.0)
            s = grid.s_nodes[:, None]
            alpha = 0.2 + 0.05 * np.sin(s)
            alpha_p = 0.05 * np.cos(s)
            b_s_exact = -2.0 * 0.5 * 2.0 * alpha * alpha_p
            errs.append(np.max(np.abs(fields.b_s[0] - b_s_exact)))
        assert errs[0] / errs[1] > 3.0

    @pytest.mark.parametrize("b_ref", [1.0, 0.8, 1.37])
    @pytest.mark.parametrize("b,rho", [(b_const, 0.0), (b_perturbed(0.3), -0.4)],
                             ids=["flat-b", "perturbed-b"])
    def test_every_slice_assembled_for_time_varying_coefficients(self, b, rho, b_ref):
        # alpha2 = 0.2 + 0.1 sin^2(2 pi t / T) agrees at t = 0, T/2 and T and
        # differs in between, with alpha1 constant in time and then varying
        # with it: every slice of the frozen operator is its own assembly,
        # and the slice formed from the products evaluated for slice k and
        # the anchor is that assembly bit for bit, whatever slice was
        # evaluated before it
        grid = make_grid(n_s=40, n_y=24, n_t=40)
        horizon = grid.horizon
        wave = np.sin(2 * np.pi * grid.t_nodes / horizon) ** 2
        order = [*range(grid.n_t + 1), grid.n_t, *range(grid.n_t, -1, -3), 0, 0, 7]
        for sigma in (None, flat_sigma(grid) * (1.0 + 0.5 * wave)[:, None]):
            spec = make_spec(grid, b=b, rho=rho, sigma=sigma, alpha2=lambda t, s, y:
                             0.2 + 0.1 * np.sin(2 * np.pi * t / horizon) ** 2)
            fields = assemble_frozen(spec, grid, b_ref=b_ref)
            for k in order:
                expected = assemble_slice(spec, grid, k, 1 / b_ref**2, 1 / b_ref)
                got = fields.slice(k)
                assert got.keys() == expected.keys(), k
                assert all(np.array_equal(got[key], expected[key]) for key in expected), k

    def test_linearity_in_frozen_ratio(self):
        # swapping the frozen constant for a per-S-node ratio (the
        # time-lagged freeze) shifts a_ss by exactly rho11 alpha1^2 (ratio - 1)
        grid = make_grid(n_s=20, n_y=16, n_t=8)
        spec = make_spec(grid)
        rng = np.random.default_rng(2)
        ratio = 1.0 + 0.3 * rng.uniform(size=(grid.n_t + 1, grid.n_s + 2))
        from lsvcal.model import eval_coeff
        for k in (0, grid.n_t // 2):
            base = assemble_slice(spec, grid, k, 1.0, 1.0)
            shifted = assemble_slice(spec, grid, k, ratio[k], np.sqrt(ratio[k]))
            a1 = eval_coeff(spec.alpha1, k, grid.t_nodes[k], grid)
            expected = 0.5 * a1 * a1 * (ratio[k][:, None] - 1.0)
            np.testing.assert_allclose(shifted["a_ss"] - base["a_ss"],
                                       expected, atol=1e-14)

    def test_y_only_coefficients_evaluate_as_rows_bit_for_bit(self):
        # the config's y-functions evaluate as (1, n_y+2) rows; every
        # product they meet broadcasts, so the operator, the frozen fields
        # and a time-lagged sweep are those of the plane-spread values
        from lsvcal import SpotAmplitude, solve_lagged
        from lsvcal.model import eval_coeff
        from lsvcal.pipeline import _as_txy, builtin_y_function
        grid = make_grid(n_s=20, n_y=16, n_t=6)
        b = b_perturbed(1.0)
        fns = {key: builtin_y_function(text) for key, text in (
            ("alpha2", "const:0.2"), ("beta1", "const:0.5"),
            ("beta2", "mean_revert:4.0:0.0"), ("gamma", "sqrt1p_sin:0.5"))}

        def spec_of(lift):
            return ModelSpec(b=b, alpha1=SpotAmplitude(flat_sigma(grid), b, grid),
                             corr=convert_correlation(-0.3), rate=0.03,
                             **{key: lift(fn) for key, fn in fns.items()})
        rows = spec_of(_as_txy)
        planes = spec_of(lambda fn: lambda t, s, y: fn(y) + 0.0 * s)
        for key in fns:
            row = eval_coeff(getattr(rows, key), 1, grid.t_nodes[1], grid)
            plane = eval_coeff(getattr(planes, key), 1, grid.t_nodes[1], grid)
            assert row.shape == (1, grid.n_y + 2) and plane.shape == grid.shape[1:]
            assert np.array_equal(np.broadcast_to(row, plane.shape), plane)
        ratio = 1.0 + 0.3 * np.random.default_rng(4).uniform(size=grid.n_s + 2)
        for k in (0, grid.n_t):
            for r in (1.0, ratio):
                got = assemble_slice(rows, grid, k, r, np.sqrt(r))
                want = assemble_slice(planes, grid, k, r, np.sqrt(r))
                assert all(np.array_equal(np.broadcast_to(got[key], want[key].shape),
                                          want[key]) for key in want)
        got, want = (assemble_frozen(spec, grid, b_ref=1.2) for spec in (rows, planes))
        assert all(np.array_equal(getattr(got, key), getattr(want, key))
                   for key in ("b_s", "b_y", "c", "k2", "a_sy_max"))
        psi = make_psi(grid)
        assert np.array_equal(solve_lagged(rows, grid, psi)[0],
                              solve_lagged(planes, grid, psi)[0])


class TestEllipticity:
    def test_diagonal_case(self):
        grid = make_grid(n_s=16, n_y=12, n_t=4)
        fields = direct_fields(grid, a_s=0.5 * 0.04, a_x=0.0, a_yy=0.5 * 0.09)
        assert fields.k2 == pytest.approx(0.02)

    def test_worked_example(self):
        # market rho 0.5, alpha1 = alpha2 = 0.3, unit anchor:
        # half of 0.09 times [[1, .5], [.5, 1]] has smallest eigenvalue 0.0225
        grid = make_grid(n_s=16, n_y=12, n_t=4)
        spec = const_spec(alpha1=0.3, alpha2=0.3, rho=0.5)
        fields = assemble_frozen(spec, grid, b_ref=1.0)
        assert fields.k2 == pytest.approx(0.0225, abs=1e-14)

    def test_floor_tracks_time_varying_coefficients(self):
        # alpha dips away from the horizon endpoints and midpoint, so any
        # coarse probing would overestimate the floor and trip the
        # ellipticity assertion; the slice-exact minimum must not
        grid = make_grid(n_s=16, n_y=12, n_t=10)
        a1 = lambda t, s, y: 0.5 - 0.3 * np.sin(1.5 * np.pi * t) \
            + 0.0 * s + 0.0 * y
        spec = const_spec(alpha2=0.4, rho=0.3)
        from dataclasses import replace as dc_replace
        spec = dc_replace(spec, alpha1=a1)
        fields = assemble_frozen(spec, grid, b_ref=1.0)
        k2 = fields.k2
        assert k2 == min(ellipticity_constant(fields.slice(k)) for k in range(grid.n_t + 1))
        assert fields.ellipticity_floor <= k2
        a1_slice_min = min(0.5 - 0.3 * math.sin(1.5 * math.pi * t)
                           for t in grid.t_nodes)
        assert fields.ellipticity_floor == pytest.approx(
            spec.corr.min_eig * a1_slice_min ** 2, rel=1e-12)

    def test_degenerate_cross_rejected(self):
        grid = make_grid(n_s=16, n_y=12, n_t=4)
        with pytest.raises(NonElliptic):
            direct_fields(grid, a_s=0.02, a_x=2 * np.sqrt(0.02 * 0.045), a_yy=0.045)

    def test_assembly_raises_non_elliptic_assembly(self):
        # alpha1 = 0 leaves the S diffusion at zero: K2 = 0
        grid = make_grid(n_s=16, n_y=12, n_t=4)
        with pytest.raises(NonEllipticAssembly, match="K2 = 0") as info:
            assemble_frozen(const_spec(alpha1=0.0), grid, b_ref=1.0)
        assert type(info.value.__cause__) is NonElliptic

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-100, 100), st.floats(-100, 100), st.floats(-0.99, 0.99))
    @example(math.log10(18.0), math.log10(5e99), 0.0)
    @example(math.log10(2.2e3), math.log10(5e99), 0.0)
    def test_min_eig_matches_eigvalsh_across_magnitudes(self, log_a, log_c, t):
        # a_sy = t sqrt(a_ss a_yy) keeps the matrix positive definite at any
        # scale of its diagonal; half_tr - disc cancelled to 0 beyond 1e16
        a_ss, a_yy = 10.0 ** log_a, 10.0 ** log_c
        a_sy = t * math.sqrt(a_ss) * math.sqrt(a_yy)
        exact = np.linalg.eigvalsh(np.array([[a_ss, a_sy], [a_sy, a_yy]]))[0]
        got = _min_eig_2x2(np.array([a_ss]), np.array([a_sy]), np.array([a_yy]))[0]
        assert got > 0
        assert got == pytest.approx(exact, rel=1e-12)

    def test_min_eig_of_indefinite_and_zero_matrices(self):
        # no division where the largest eigenvalue is 0 or below
        a_ss, a_sy, a_yy = (np.array(v) for v in ([0.0, -1.0, 1.0, -2.0],
                                                 [0.0, 0.0, 2.0, 1.0],
                                                 [0.0, -3.0, 1.0, -2.0]))
        got = _min_eig_2x2(a_ss, a_sy, a_yy)
        assert np.array_equal(got, [0.0, -3.0, -1.0, -3.0])

    def test_invariants_computed_once_per_operator(self, monkeypatch):
        # assembly takes K2 slice by slice in its one pass; the solves read it
        import lsvcal.linpde
        calls = []

        def spy(sl, real=lsvcal.linpde.ellipticity_constant):
            calls.append(sl)
            return real(sl)
        monkeypatch.setattr(lsvcal.linpde, "ellipticity_constant", spy)
        grid = make_grid(n_s=24, n_y=16, n_t=6)
        fields = assemble_frozen(make_spec(grid, rho=-0.5), grid, b_ref=1.0)
        psi = make_psi(grid)
        reports = [solve_linear(fields, psi, grid, n_steps=n)[1] for n in (2, 6, 6)]
        assert len(calls) == grid.n_t + 1
        slices = [fields.slice(k) for k in range(grid.n_t + 1)]
        for rep in reports:
            assert rep.k2 == fields.k2 == min(map(ellipticity_constant, slices))
            assert rep.cross_cfl == cross_cfl_number(fields, grid)
        # unit anchor: a_sy is half of a_x
        assert fields.a_sy_max == max(float(np.max(np.abs(0.5 * sl["a_x"]))) for sl in slices)

    def test_operator_stores_three_fields(self):
        # b_s, b_y and c are the only whole-horizon arrays the operator
        # holds: the products it reaches through its spec are per slice
        import gc
        import types
        grid = make_grid(n_s=24, n_y=16, n_t=6)
        fields = assemble_frozen(make_spec(grid, rho=-0.5), grid, b_ref=1.0)
        fields.slice(3)
        seen, todo, held = set(), [fields], []
        skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, skip):
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                if obj.size >= np.prod(grid.shape):
                    held.append(obj)
                continue
            todo.extend(gc.get_referents(obj))
        assert sorted(id(a) for a in held) == sorted(map(id, (fields.b_s, fields.b_y, fields.c)))
        assert all(a.shape == grid.shape and a.dtype == np.float64 for a in held)


def coefficient_slice(draw, shape, h_s, h_y):
    """A random coefficient slice on spacings (h_s, h_y).

    The drifts, of either sign, stay within the mesh Peclet limit and c is
    nonnegative, so every sweep matrix is diagonally dominant.
    """
    pos = st.floats(0.01, 10.0)
    peclet = arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))
    sl = {"a_ss": draw(arrays(np.float64, shape, elements=pos)),
          "a_yy": draw(arrays(np.float64, shape, elements=pos)),
          "a_sy": draw(arrays(np.float64, shape, elements=st.floats(-10.0, 10.0))),
          "c": draw(arrays(np.float64, shape, elements=st.floats(0.0, 10.0)))}
    sl["b_s"] = draw(peclet) * 2.0 * sl["a_ss"] / h_s
    sl["b_y"] = draw(peclet) * 2.0 * sl["a_yy"] / h_y
    return sl


@st.composite
def slices(draw):
    """A random coefficient slice, a field on it and the two spacings."""
    shape = (draw(st.integers(3, 9)), draw(st.integers(3, 9)))
    pos = st.floats(0.01, 10.0)
    h_s, h_y = draw(pos), draw(pos)
    sl = coefficient_slice(draw, shape, h_s, h_y)
    u = draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    return sl, u, h_s, h_y


def transposed(sl):
    """The slice of the transposed grid: S and y trade places."""
    return {"a_ss": sl["a_yy"].T, "a_yy": sl["a_ss"].T, "a_sy": sl["a_sy"].T,
            "b_s": sl["b_y"].T, "b_y": sl["b_s"].T, "c": sl["c"].T}


class TestAxisSymmetry:
    # the S and y parts are one operator on transposed data, bit for bit

    @settings(max_examples=200, deadline=None)
    @given(slices())
    def test_apply(self, case):
        sl, u, h_s, h_y = case
        sten, sten_t = stencil(sl, (h_s, h_y)), stencil(transposed(sl), (h_y, h_s))
        # `_apply` gives the rows 1 .. n - 2 of the slice; their first and
        # last columns are outside the operator
        parts = [p.reshape(-1, u.shape[1])[:, 1:-1]
                 for p in _apply(sten, u, _differences(u))]
        parts_t = [p.reshape(-1, u.shape[0])[:, 1:-1]
                   for p in _apply(sten_t, u.T, _differences(u.T))]
        assert np.array_equal(parts[0], parts_t[1].T)
        assert np.array_equal(parts[1], parts_t[0].T)

    @settings(max_examples=200, deadline=None)
    @given(slices(), st.floats(1e-4, 0.5))
    def test_sweep(self, case, theta_dt):
        sl, rhs, h_s, h_y = case
        sten, sten_t = stencil(sl, (h_s, h_y)), stencil(transposed(sl), (h_y, h_s))

        def sweep(s, r, axis):
            return _sweep(_sweep_system(s, theta_dt, axis), r, np.zeros(r.shape), axis)
        assert np.array_equal(sweep(sten, rhs, 0), sweep(sten_t, rhs.T, 1).T)
        assert np.array_equal(sweep(sten, rhs, 1), sweep(sten_t, rhs.T, 0).T)


def dense_line_solve(sten, rhs, theta_dt, axis):
    """Oracle of one sweep: ``I - theta*dt*A_axis`` built as a dense matrix
    per grid line from the stencil and solved by ``np.linalg.solve``.

    The first and last unknown of each line and the first and last line are
    identity rows; the boundary unknowns of each line solve against zero.
    Returns the solution and the largest condition number of the lines.
    """
    lo, up = (np.swapaxes(w, 0, axis) for w in sten["w"][axis])
    c, b = (np.swapaxes(x, 0, axis) for x in (sten["c"], rhs))
    n, m = b.shape
    x, cond = np.zeros((n, m)), 1.0
    for j in range(m):
        mat = np.eye(n)
        rhs_j = b[:, j].copy()
        rhs_j[[0, -1]] = 0.0
        if 0 < j < m - 1:
            for i in range(1, n - 1):
                mat[i, i - 1] = -theta_dt * lo[i, j]
                mat[i, i] = 1.0 + theta_dt * (lo[i, j] + up[i, j] + 0.5 * c[i, j])
                mat[i, i + 1] = -theta_dt * up[i, j]
        x[:, j] = np.linalg.solve(mat, rhs_j)
        cond = max(cond, np.linalg.cond(mat))
    return np.swapaxes(x, 0, axis), cond


class TestSweep:
    @settings(max_examples=200, deadline=None)
    @given(slices(), st.floats(1e-4, 0.5))
    def test_matches_dense_line_solves(self, case, theta_dt):
        # both axes of a factored sweep solve the per-line systems of the
        # scheme; LAPACK is backward stable, so the forward error is bounded
        # by the condition number
        sl, rhs, h_s, h_y = case
        sten = stencil(sl, (h_s, h_y))
        for axis in (0, 1):
            x = _sweep(_sweep_system(sten, theta_dt, axis), rhs, np.zeros(rhs.shape), axis)
            oracle, cond = dense_line_solve(sten, rhs, theta_dt, axis)
            tol = 1e-13 * cond * (float(np.max(np.abs(oracle))) + 1e-300)
            assert np.max(np.abs(x - oracle)) <= tol


# ---------------------------------------------------------------------------
# the step as it was written before it shared its neighbour differences and
# formed its explicit parts in flat passes: the oracle of `step_slices`
# ---------------------------------------------------------------------------

def former_apply(st_, u, axis):
    lo, up, c, v = (np.swapaxes(x, 0, axis) for x in (*st_["w"][axis], st_["c"], u))
    out = np.zeros_like(v)
    out[1:-1] = (lo[1:-1] * (v[:-2] - v[1:-1]) + up[1:-1] * (v[2:] - v[1:-1])
                 - 0.5 * c[1:-1] * v[1:-1])
    return np.swapaxes(out, 0, axis)


def former_cross_diff_interior(u, hx, hy):
    out = np.zeros_like(u)
    e = u[..., 1:] - u[..., :-1]
    d = e[..., 2:, :] - e[..., :-2, :]
    out[..., 1:-1, 1:-1] = (d[..., :-1] + d[..., 1:]) / (4.0 * hx * hy)
    return out


def former_apply_mix(sl, u, ds, dy):
    return 2.0 * sl["a_sy"] * former_cross_diff_interior(u, ds, dy)


def former_zero_ring(v):
    v[0, :] = v[-1, :] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    return v


def former_sweep_system(st1, theta_dt, axis):
    lo, up = st1["w"][axis]
    diag = 1.0 + theta_dt * (lo + up) + theta_dt * 0.5 * st1["c"]
    lower, diag, upper = (np.ascontiguousarray(np.swapaxes(x, axis, 1))
                          for x in (-theta_dt * lo, diag, -theta_dt * up))
    former_zero_ring(lower)
    former_zero_ring(upper)
    diag[:, 0] = diag[:, -1] = 1.0
    diag[0, :] = diag[-1, :] = 1.0
    return tridiag.factor_batch(lower, diag, upper)


def former_sweep(factors, rhs, axis):
    rhs = np.swapaxes(rhs, axis, 1).copy()
    rhs[:, 0] = rhs[:, -1] = 0.0
    x = tridiag.solve_batch(factors, rhs)
    return np.ascontiguousarray(np.swapaxes(x, axis, 1))


def former_step_slices(st0, st1, u, grid, f0=None, f1=None):
    ds, dy, dt = grid.ds, grid.dy, grid.dt
    theta_dt = 0.5 * dt
    a0 = [former_apply(st0, u, axis) for axis in (0, 1)]
    am0 = former_apply_mix(st0, u, ds, dy)
    delta0 = a0[0] + a0[1] + am0
    if f0 is not None:
        delta0 += f0
    delta0 = former_zero_ring(np.multiply(dt, delta0, out=delta0))
    for axis, part in enumerate(a0):
        np.subtract(former_apply(st1, u, axis), part, out=part)
        former_zero_ring(np.multiply(theta_dt, part, out=part))
    chi = a0
    systems = [former_sweep_system(st1, theta_dt, axis) for axis in (0, 1)]

    def sweeps(d):
        for axis, system in enumerate(systems):
            d = former_sweep(system, d + chi[axis], axis)
        return d

    predicted = sweeps(delta0)
    corr = 0.5 * dt * (former_apply_mix(st1, u + predicted, ds, dy) - am0)
    if f0 is not None:
        corr = corr + 0.5 * dt * (f1 - f0)
    u_next = u + sweeps(former_zero_ring(delta0 + former_zero_ring(corr)))
    if np.isnan(u_next).any():
        raise StabilityFailure("time step produced NaNs")
    return u_next


def former_split(st0, st1, u, grid, f0=None):
    """The former step in the split call form: ``(...)(f1)``."""
    return functools.partial(former_step_slices, st0, st1, u, grid, f0)


def one_step(st0, st1, u, grid, f0=None, f1=None):
    """The split step, finished once."""
    return step_slices(st0, st1, u, grid, f0=f0)(f1)


def outcome(step, *args, **kwargs):
    """What a step gives: its bytes, or the error it raises."""
    try:
        u = step(*args, **kwargs)
    except StabilityFailure as err:
        return type(err), str(err)
    return u.shape, u.tobytes()


@st.composite
def step_cases(draw):
    """Two random stencils on one grid, a field that may be all +0.0 or all
    -0.0, a time step, and a source pair or none."""
    sl0, u, h_s, h_y = draw(slices())
    sl1 = coefficient_slice(draw, u.shape, h_s, h_y)
    kind = draw(st.sampled_from(["field", "zero", "negative zero"]))
    if kind != "field":
        u = np.full(u.shape, 0.0 if kind == "zero" else -0.0)
    grid = types.SimpleNamespace(ds=h_s, dy=h_y, dt=draw(st.floats(1e-4, 1.0)))
    source = {}
    if draw(st.booleans()):
        src = arrays(np.float64, u.shape, elements=st.floats(-1e3, 1e3))
        source = {"f0": draw(src), "f1": draw(src)}
    return stencil(sl0, (h_s, h_y)), stencil(sl1, (h_s, h_y)), u, grid, source


class TestStepAgainstFormer:
    @settings(max_examples=300, deadline=None)
    @given(step_cases())
    def test_step_equals_former_step(self, case):
        st0, st1, u, grid, source = case
        got = outcome(one_step, st0, st1, u, grid, **source)
        assert got == outcome(former_step_slices, st0, st1, u, grid, **source)
        assert got[0] == u.shape

    @settings(max_examples=200, deadline=None)
    @given(step_cases(), st.data())
    def test_finish_again_equals_a_fresh_step(self, case, data):
        # finish leaves the step's state untouched: after a call with f1a,
        # which may raise, a call with f1b gives a fresh step's bits; a
        # missing source of either slice is zero
        st0, st1, u, grid, source = case
        f0 = source.get("f0")

        def draw_source(elements):
            return data.draw(st.none() | arrays(np.float64, u.shape, elements=elements))
        f1a = draw_source(st.floats(-1e3, 1e3) | st.just(math.nan))
        f1b = draw_source(st.floats(-1e3, 1e3))
        finish = step_slices(st0, st1, u, grid, f0=f0)
        outcome(finish, f1a)
        assert outcome(finish, f1b) == outcome(one_step, st0, st1, u, grid, f0, f1b)
        if f0 is not None:
            assert outcome(finish) == outcome(finish, np.zeros(u.shape))

    @settings(max_examples=100, deadline=None)
    @given(step_cases(), st.data())
    def test_nan_raises_as_the_former_step(self, case, data):
        st0, st1, u, grid, source = case
        # anywhere in u, which the step adds to its increment; inside the
        # boundary ring of a source, whose ring the step never reads
        where = data.draw(st.sampled_from(["u"] + sorted(source)))
        bad = (u if where == "u" else source[where]).copy()
        edge = 0 if where == "u" else 1
        bad[tuple(data.draw(st.integers(edge, n - 1 - edge)) for n in bad.shape)] = np.nan
        if where == "u":
            u = bad
        else:
            source = {**source, where: bad}
        got = outcome(one_step, st0, st1, u, grid, **source)
        assert got == outcome(former_step_slices, st0, st1, u, grid, **source)
        assert got[0] is StabilityFailure

    @pytest.mark.parametrize("nan_slice", [1, 3, 5])
    def test_nan_source_stops_the_solve_at_the_former_step(self, nan_slice,
                                                          monkeypatch):
        # a NaN in source slice j enters step j - 1 (as f1) and fails it, so
        # the solve writes slices 0 .. j - 1, the former step's slices
        import lsvcal.linpde
        grid = GridSpec(s_min=0.0, s_max=1.0, y_min=0.0, y_max=1.0, n_s=12,
                        n_y=10, horizon=0.25, n_t=8)
        fields, fsrc, v_fn = mms_fields(grid)
        fsrc[nan_slice, 4, 5] = np.nan
        psi = v_fn(0.0, grid.s_nodes[:, None], grid.y_nodes[None, :])

        def written(step):
            monkeypatch.setattr(lsvcal.linpde, "step_slices", step)
            out = np.full((grid.n_t + 1,) + psi.shape, np.inf)
            with pytest.raises(StabilityFailure):
                solve_linear(fields, psi, grid, f=fsrc, out=out)
            return out.tobytes()
        got = written(step_slices)
        assert got == written(former_split)
        out = np.frombuffer(got).reshape((grid.n_t + 1,) + psi.shape)
        assert np.isfinite(out[:nan_slice]).all() and np.isinf(out[nan_slice:]).all()


def mms_fields(grid):
    """Manufactured solution with full variable coefficients and cross term."""
    ts, ss, ys = sp.symbols("t S y")
    v = sp.exp(-ts) * sp.sin(sp.pi * ss) * sp.sin(sp.pi * ys)
    coeffs = {
        "a_ss": sp.Rational(1, 10) + sp.Rational(3, 100) * sp.sin(sp.pi * ss) * sp.cos(sp.pi * ys),
        "a_yy": sp.Rational(12, 100) + sp.Rational(3, 100) * sp.cos(sp.pi * ss) * sp.sin(sp.pi * ys),
        "a_sy": sp.Rational(2, 100) * sp.sin(sp.pi * ss) * sp.sin(sp.pi * ys),
        "b_s": sp.Rational(2, 10) * sp.cos(sp.pi * ss),
        "b_y": -sp.Rational(15, 100) * sp.sin(sp.pi * ys),
        "c": sp.Rational(1, 10) + sp.Rational(5, 100) * ss * ys,
    }
    f = (sp.diff(v, ts) - coeffs["a_ss"] * sp.diff(v, ss, 2)
         - 2 * coeffs["a_sy"] * sp.diff(sp.diff(v, ss), ys)
         - coeffs["a_yy"] * sp.diff(v, ys, 2)
         + coeffs["b_s"] * sp.diff(v, ss) + coeffs["b_y"] * sp.diff(v, ys)
         + coeffs["c"] * v)
    lam = {k: sp.lambdify((ts, ss, ys), e, "numpy") for k, e in coeffs.items()}
    v_fn = sp.lambdify((ts, ss, ys), v, "numpy")
    f_fn = sp.lambdify((ts, ss, ys), f, "numpy")

    s2 = grid.s_nodes[:, None]
    y2 = grid.y_nodes[None, :]
    shape = grid.shape
    arrays = {k: np.asarray(fn(0.0, s2, y2), dtype=float) for k, fn in lam.items()}
    fsrc = np.empty(shape)
    for k, t in enumerate(grid.t_nodes):
        fsrc[k] = f_fn(t, s2, y2)
    # the products at unit anchor: a_s = a_ss, a_x = 2 a_sy
    fields = direct_fields(grid, a_s=arrays["a_ss"], a_x=2.0 * arrays["a_sy"],
                           a_yy=arrays["a_yy"], b_s=arrays["b_s"], b_y=arrays["b_y"],
                           c=arrays["c"])
    return fields, fsrc, v_fn


def mms_error(n, n_t, horizon=0.25):
    grid = GridSpec(s_min=0.0, s_max=1.0, y_min=0.0, y_max=1.0, n_s=n, n_y=n,
                    horizon=horizon, n_t=n_t)
    fields, fsrc, v_fn = mms_fields(grid)
    psi = v_fn(0.0, grid.s_nodes[:, None], grid.y_nodes[None, :])
    traj, rep = solve_linear(fields, psi, grid, f=fsrc)
    exact = v_fn(horizon, grid.s_nodes[:, None], grid.y_nodes[None, :])
    return float(np.max(np.abs(traj[-1] - exact))), traj[-1], rep


@functools.lru_cache(maxsize=None)
def mms_reference():
    """Final slice of the 48x48, n_t = 512 solve: the time ladder's reference."""
    return mms_error(48, 512)[1]


class TestManufacturedSolution:
    def test_spatial_order_two(self):
        errs = [mms_error(n, 2 * n)[0] for n in (16, 32, 64)]
        rate = -np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
        assert 1.7 <= rate <= 2.3

    def test_temporal_order_at_least_one(self):
        ref = mms_reference()
        errs = []
        for n_t in (8, 16, 32):
            errs.append(float(np.max(np.abs(mms_error(48, n_t)[1] - ref))))
        rate = np.polyfit(np.log([1 / 8, 1 / 16, 1 / 32]), np.log(errs), 1)[0]
        assert rate >= 1.0

    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_tridiag_solve_count_is_the_solves_made(self, n_steps,
                                                    monkeypatch):
        # the predictor and the corrector each make one batched solve per
        # axis, so every step adds four
        grid = GridSpec(s_min=0.0, s_max=1.0, y_min=0.0, y_max=1.0, n_s=32,
                        n_y=32, horizon=0.25, n_t=16)
        fields, fsrc, v_fn = mms_fields(grid)
        psi = v_fn(0.0, grid.s_nodes[:, None], grid.y_nodes[None, :])
        calls = []

        def solve_spy(*args, real=tridiag.solve_batch, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(tridiag, "solve_batch", solve_spy)
        _, rep = solve_linear(fields, psi, grid, f=fsrc, n_steps=n_steps)
        assert rep.n_steps == n_steps
        assert rep.n_tridiag_solves == len(calls) == 4 * n_steps

    def test_cross_term_warning_is_harmless(self):
        # CrossTermCFL is the explicit-Euler bound on the mixed term; the
        # Craig-Sneyd corrector with theta = 1/2 is stable past it.  From
        # nu = 3.00 down to 0.75 the time ladder's error falls at second
        # order, so it does not grow past the explicit bound
        ref = mms_reference()
        with pytest.warns(CrossTermCFL) as record:
            runs = [mms_error(48, n_t)[1:] for n_t in (8, 16, 32)]
        assert [str(w.message) for w in record] == [
            "explicit cross-term estimate 3.00 > 1",
            "explicit cross-term estimate 1.50 > 1"]
        assert runs[-1][1].cross_cfl == pytest.approx(0.75, abs=5e-3)
        errs = [float(np.max(np.abs(u - ref))) for u, _ in runs]
        assert errs[0] >= 3.0 * errs[1] >= 9.0 * errs[2]


class TestStepAndSolve:
    def test_out_that_raises_stops_the_solve_after_the_warning(self, monkeypatch):
        # the cross-term estimate depends on the operator alone: it is
        # issued before the first slice, so a solve its out stops issues it
        import lsvcal.linpde
        grid = make_grid(n_s=24, n_y=16, n_t=10, s_span=(0.0, 1.0), y_span=(0.0, 1.0))
        fields = direct_fields(grid, a_s=1.0, a_x=1.0, a_yy=1.0)
        steps = []

        def step_spy(*args, real=lsvcal.linpde.step_slices, **kwargs):
            steps.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(lsvcal.linpde, "step_slices", step_spy)

        class Stop(Exception):
            pass

        class Out:
            def __init__(self):
                self.seen = []     # (slice, warnings issued by then)

            def __setitem__(self, k, u):
                self.seen.append((k, len(record)))
                if k == 2:
                    raise Stop
        out = Out()
        with pytest.warns(CrossTermCFL) as record, pytest.raises(Stop):
            solve_linear(fields, np.ones(grid.shape[1:]), grid, out=out)
        nu = cross_cfl_number(fields, grid)
        assert nu > 1.0
        assert [str(w.message) for w in record] == [
            f"explicit cross-term estimate {nu:.2f} > 1"]
        assert out.seen == [(0, 1), (1, 1), (2, 1)] and len(steps) == 2

    def test_constants_are_exact_fixed_points(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        spec = const_spec(alpha1=0.4, alpha2=0.25, rho=-0.4)
        fields = assemble_frozen(spec, grid, b_ref=1.0)
        psi = np.full((grid.n_s + 2, grid.n_y + 2), 2.5)
        traj, _ = solve_linear(fields, psi, grid)
        assert np.array_equal(traj[-1], psi)

    def test_heat_kernel_widening(self):
        # 10 steps of the pure heat operator on a wide domain
        grid = GridSpec(s_min=-8, s_max=8, y_min=-8, y_max=8, n_s=100,
                        n_y=100, horizon=0.1, n_t=10)
        spec = const_spec()
        fields = assemble_frozen(spec, grid, b_ref=1.0)
        s = grid.s_nodes[:, None]
        y = grid.y_nodes[None, :]
        psi = np.exp(-(s * s + y * y) / 2.0) / (2 * np.pi)
        traj, _ = solve_linear(fields, psi, grid)
        var = 1.0 + grid.horizon
        exact = np.exp(-(s * s + y * y) / (2 * var)) / (2 * np.pi * var)
        l1 = np.sum(np.abs(traj[-1] - exact)) * grid.ds * grid.dy
        assert l1 < 1e-3

    def test_deterministic_repeat(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        spec = make_spec(grid)
        psi = make_psi(grid)
        fields = assemble_frozen(spec, grid, b_ref=1.0)
        t1, _ = solve_linear(fields, psi, grid)
        t2, _ = solve_linear(fields, psi, grid)
        assert np.array_equal(t1, t2)

    def test_linearity_with_zero_boundary(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        spec = const_spec(alpha1=0.5, alpha2=0.5)
        fields = assemble_frozen(spec, grid, b_ref=1.0)
        zero = np.zeros((grid.n_s + 2, grid.n_y + 2))
        rng = np.random.default_rng(0)
        f1 = rng.standard_normal(grid.shape)
        f2 = rng.standard_normal(grid.shape)
        u1, _ = solve_linear(fields, zero, grid, f=f1)
        u2, _ = solve_linear(fields, zero, grid, f=f2)
        u12, _ = solve_linear(fields, zero, grid, f=0.3 * f1 - 1.7 * f2)
        scale = np.max(np.abs(u12)) + 1.0
        assert np.max(np.abs(u12 - (0.3 * u1 - 1.7 * u2))) < 1e-10 * scale

    def test_doubling_source_doubles_solution_exactly(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        spec = const_spec(alpha1=0.5, alpha2=0.5)
        fields = assemble_frozen(spec, grid, b_ref=1.0)
        zero = np.zeros((grid.n_s + 2, grid.n_y + 2))
        f = np.broadcast_to(0.7, grid.shape)
        u1, _ = solve_linear(fields, zero, grid, f=f)
        u2, _ = solve_linear(fields, zero, grid, f=2.0 * np.asarray(f))
        assert np.array_equal(u2, 2.0 * u1)

    def test_discrete_maximum_principle_surrogate(self):
        # no cross term, nonpositive source, nonnegative zeroth order and
        # drift below the mesh Peclet limit: the max cannot grow
        grid = make_grid(n_s=32, n_y=24, n_t=20, s_span=(0.0, 1.0),
                         y_span=(0.0, 1.0))
        fields = direct_fields(grid, a_s=0.1, a_x=0.0, a_yy=0.1, b_s=0.5, b_y=-0.5, c=0.2)
        s = grid.s_nodes[:, None]
        y = grid.y_nodes[None, :]
        psi = 1.0 + np.sin(np.pi * s) * np.sin(np.pi * y)
        traj, _ = solve_linear(fields, psi, grid, f=np.broadcast_to(-0.1, grid.shape))
        assert traj.max() <= psi.max() + 1e-10

    def test_boundary_template_carried_exactly(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        spec = make_spec(grid)
        psi = make_psi(grid)
        fields = assemble_frozen(spec, grid, b_ref=1.0)
        traj, _ = solve_linear(fields, psi, grid)
        assert np.array_equal(traj[:, 0, :], np.broadcast_to(psi[0, :], (11, grid.n_y + 2)))
        assert np.array_equal(traj[:, -1, :], np.broadcast_to(psi[-1, :], (11, grid.n_y + 2)))
        assert np.array_equal(traj[:, :, 0], np.broadcast_to(psi[:, 0], (11, grid.n_s + 2)))
        assert np.array_equal(traj[:, :, -1], np.broadcast_to(psi[:, -1], (11, grid.n_s + 2)))

    def test_schauder_style_regression_bound(self):
        # corpus-fitted constant, frozen; every member and a held-out case
        # must stay below it
        grid = make_grid(n_s=48, n_y=32, n_t=40, horizon=0.5)
        sig = flat_sigma(grid)
        s2 = grid.s_nodes[:, None]
        y2 = grid.y_nodes[None, :]
        f_osc = np.broadcast_to(1e-4 * np.sin(s2 / 40.0) * np.cos(3.0 * y2),
                                grid.shape).copy()
        cases = []
        for rho, alpha2, rate in ((0.0, 0.2, 0.0), (-0.5, 0.3, 0.02)):
            spec = make_spec(grid, rho=rho, alpha2=alpha2, rate=rate)
            for bw_y, floor_rel in ((0.2, 1e-6), (0.4, 1e-3)):
                psi = make_psi(grid, bw_s=25.0, bw_y=bw_y, floor_rel=floor_rel)
                cases.append((spec, psi, None))
                cases.append((spec, psi, f_osc))
        ratios = []
        for spec, psi, f in cases:
            fields = assemble_frozen(spec, grid, b_ref=1.0)
            traj, _ = solve_linear(fields, psi, grid, f=f)
            nv = holder_norm(traj, 2, grid).value
            n_psi = holder_norm(psi[None], 2, grid).value
            n_f = holder_norm(f, 0, grid).value if f is not None else 0.0
            ratios.append(nv / (n_psi + n_f))
        assert max(ratios) <= SCHAUDER_KHAT


class TestSupnormTimeBound:
    def heat_fields(self, grid):
        spec = const_spec()
        return assemble_frozen(spec, grid, b_ref=1.0)

    def test_constant_source_bounded_monotone(self):
        grid = GridSpec(s_min=-1, s_max=1, y_min=-1, y_max=1, n_s=40, n_y=40,
                        horizon=1.0, n_t=50)
        fields = self.heat_fields(grid)
        out = supnorm_time_bound(fields, 1.0, grid)
        assert np.all(np.isfinite(out["ratio"]))
        assert out["k0"] <= 1.05
        # after the first step the normalized curve decays monotonically
        assert np.all(np.diff(out["ratio"][1:]) <= 1e-10)

    def test_zero_source_zero_solution(self):
        grid = make_grid(n_s=16, n_y=12, n_t=8)
        fields = self.heat_fields(grid)
        out = supnorm_time_bound(fields, 0.0, grid)
        assert np.all(out["ratio"] == 0.0)
        assert out["k0"] == 0.0

    def test_doubling_source_invariant_ratio(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        fields = self.heat_fields(grid)
        r1 = supnorm_time_bound(fields, 1.0, grid)
        r2 = supnorm_time_bound(fields, 2.0, grid)
        assert np.array_equal(r1["ratio"], r2["ratio"])
        assert np.array_equal(2.0 * r1["sup_curve"], r2["sup_curve"])


def test_cross_cfl_number_scales_with_dt():
    grid = make_grid(n_s=24, n_y=16, n_t=10)
    spec = const_spec(alpha1=20.0, alpha2=20.0, rho=0.9)
    fields = assemble_frozen(spec, grid, b_ref=1.0)
    nu = cross_cfl_number(fields, grid)
    assert nu == pytest.approx(grid.dt * 2 * 0.45 * 400 / (grid.ds * grid.dy))
