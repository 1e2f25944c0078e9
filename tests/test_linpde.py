import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lsvcal import (CrossTermCFL, ModelSpec, NonElliptic, NonEllipticAssembly,
                    assemble_frozen, assemble_slice, convert_correlation,
                    ellipticity_constant, holder_norm, solve_linear,
                    supnorm_time_bound)
from lsvcal.grids import GridSpec
from lsvcal.linpde import (CoefficientFields, _apply, _sweep, _sweep_system,
                           cross_cfl_number, stencil)

from conftest import b_const, b_perturbed, flat_sigma, make_grid, make_psi, make_spec

# regression constant fitted once on the calibration corpus below and frozen
SCHAUDER_KHAT = 5.0


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
        assert np.allclose(fields.a_s, 0.5 * 0.25, atol=1e-15)
        assert np.allclose(fields.a_x, 2 * 0.1 * 0.5 * 0.3, atol=1e-15)
        assert np.allclose(fields.a_yy, 0.5 * 0.09, atol=1e-15)
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
        # alpha2 agrees at t = 0, T/2 and T and differs in between: every
        # slice of the frozen operator is its own assembly, and the slice
        # formed from the stored unit-ratio products and the anchor is that
        # assembly bit for bit
        grid = make_grid(n_s=40, n_y=24, n_t=40)
        horizon = grid.horizon
        spec = make_spec(grid, b=b, rho=rho, alpha2=lambda t, s, y:
                         0.2 + 0.1 * np.sin(2 * np.pi * t / horizon) ** 2)
        fields = assemble_frozen(spec, grid, b_ref=b_ref)
        for k in range(grid.n_t + 1):
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


class TestEllipticity:
    def test_diagonal_case(self):
        grid = make_grid(n_s=16, n_y=12, n_t=4)
        shape = grid.shape
        mk = lambda v: np.broadcast_to(v, shape)
        fields = CoefficientFields(a_s=mk(0.5 * 0.04), a_x=mk(0.0),
                                   a_yy=mk(0.5 * 0.09), b_s=mk(0.0),
                                   b_y=mk(0.0), c=mk(0.0))
        assert ellipticity_constant(fields) == pytest.approx(0.02)

    def test_worked_example(self):
        # market rho 0.5, alpha1 = alpha2 = 0.3, unit anchor:
        # half of 0.09 times [[1, .5], [.5, 1]] has smallest eigenvalue 0.0225
        grid = make_grid(n_s=16, n_y=12, n_t=4)
        spec = const_spec(alpha1=0.3, alpha2=0.3, rho=0.5)
        fields = assemble_frozen(spec, grid, b_ref=1.0)
        assert ellipticity_constant(fields) == pytest.approx(0.0225, abs=1e-14)

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
        k2 = ellipticity_constant(fields)
        assert fields.ellipticity_floor <= k2
        a1_slice_min = min(0.5 - 0.3 * math.sin(1.5 * math.pi * t)
                           for t in grid.t_nodes)
        assert fields.ellipticity_floor == pytest.approx(
            spec.corr.min_eig * a1_slice_min ** 2, rel=1e-12)

    def test_degenerate_cross_rejected(self):
        grid = make_grid(n_s=16, n_y=12, n_t=4)
        shape = grid.shape
        mk = lambda v: np.broadcast_to(v, shape)
        with pytest.raises(NonElliptic):
            CoefficientFields(a_s=mk(0.02), a_x=mk(2 * np.sqrt(0.02 * 0.045)),
                              a_yy=mk(0.045), b_s=mk(0.0), b_y=mk(0.0),
                              c=mk(0.0))

    def test_assembly_raises_non_elliptic_assembly(self):
        # alpha1 = 0 leaves the S diffusion at zero: K2 = 0
        grid = make_grid(n_s=16, n_y=12, n_t=4)
        with pytest.raises(NonEllipticAssembly, match="K2 = 0") as info:
            assemble_frozen(const_spec(alpha1=0.0), grid, b_ref=1.0)
        assert type(info.value.__cause__) is NonElliptic

    def test_invariants_computed_once_per_operator(self, monkeypatch):
        import lsvcal.linpde
        calls = []

        def spy(fields, real=lsvcal.linpde.ellipticity_constant):
            calls.append(fields)
            return real(fields)
        monkeypatch.setattr(lsvcal.linpde, "ellipticity_constant", spy)
        grid = make_grid(n_s=24, n_y=16, n_t=6)
        fields = assemble_frozen(make_spec(grid, rho=-0.5), grid, b_ref=1.0)
        psi = make_psi(grid)
        reports = [solve_linear(fields, psi, grid, n_steps=n)[1] for n in (2, 6, 6)]
        assert len(calls) == 1 and calls[0] is fields
        for rep in reports:
            assert rep.k2 == fields.k2 == ellipticity_constant(fields)
            assert rep.cross_cfl == cross_cfl_number(fields, grid)
        # unit anchor: a_sy is half of a_x
        assert fields.a_sy_max == float(np.max(np.abs(0.5 * fields.a_x)))


@st.composite
def slices(draw):
    """A random coefficient slice, a field on it and the two spacings.

    The drifts stay within the mesh Peclet limit and c is nonnegative, so
    every sweep matrix is diagonally dominant.
    """
    shape = (draw(st.integers(3, 9)), draw(st.integers(3, 9)))
    pos = st.floats(0.01, 10.0)
    h_s, h_y = draw(pos), draw(pos)
    peclet = arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))
    sl = {"a_ss": draw(arrays(np.float64, shape, elements=pos)),
          "a_yy": draw(arrays(np.float64, shape, elements=pos)),
          "a_sy": draw(arrays(np.float64, shape, elements=st.floats(-10.0, 10.0))),
          "c": draw(arrays(np.float64, shape, elements=st.floats(0.0, 10.0)))}
    sl["b_s"] = draw(peclet) * 2.0 * sl["a_ss"] / h_s
    sl["b_y"] = draw(peclet) * 2.0 * sl["a_yy"] / h_y
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
        assert np.array_equal(_apply(sten, u, 0), _apply(sten_t, u.T, 1).T)
        assert np.array_equal(_apply(sten, u, 1), _apply(sten_t, u.T, 0).T)

    @settings(max_examples=200, deadline=None)
    @given(slices(), st.floats(1e-4, 0.5))
    def test_sweep(self, case, theta_dt):
        sl, rhs, h_s, h_y = case
        sten, sten_t = stencil(sl, (h_s, h_y)), stencil(transposed(sl), (h_y, h_s))

        def sweep(s, r, axis):
            return _sweep(_sweep_system(s, theta_dt, axis, True), r, axis)
        x0, r0 = sweep(sten, rhs, 0)
        x1, r1 = sweep(sten_t, rhs.T, 1)
        assert np.array_equal(x0, x1.T) and r0 == r1
        x0, r0 = sweep(sten, rhs, 1)
        x1, r1 = sweep(sten_t, rhs.T, 0)
        assert np.array_equal(x0, x1.T) and r0 == r1


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
    # the fields hold the products at unit anchor: a_s = a_ss, a_x = 2 a_sy
    arrays["a_s"], arrays["a_x"] = arrays.pop("a_ss"), 2.0 * arrays.pop("a_sy")
    fsrc = np.empty(shape)
    for k, t in enumerate(grid.t_nodes):
        fsrc[k] = f_fn(t, s2, y2)
    fields = CoefficientFields(**{k: np.broadcast_to(v, shape) for k, v in arrays.items()})
    return fields, fsrc, v_fn


def mms_error(n, n_t, horizon=0.25):
    grid = GridSpec(s_min=0.0, s_max=1.0, y_min=0.0, y_max=1.0, n_s=n, n_y=n,
                    horizon=horizon, n_t=n_t)
    fields, fsrc, v_fn = mms_fields(grid)
    psi = v_fn(0.0, grid.s_nodes[:, None], grid.y_nodes[None, :])
    traj, rep = solve_linear(fields, psi, grid, f=fsrc)
    exact = v_fn(horizon, grid.s_nodes[:, None], grid.y_nodes[None, :])
    return float(np.max(np.abs(traj[-1] - exact))), traj[-1], rep


class TestManufacturedSolution:
    def test_spatial_order_two(self):
        errs = [mms_error(n, 2 * n)[0] for n in (16, 32, 64)]
        rate = -np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
        assert 1.7 <= rate <= 2.3

    def test_temporal_order_at_least_one(self):
        ref = mms_error(48, 512)[1]
        errs = []
        for n_t in (8, 16, 32):
            errs.append(float(np.max(np.abs(mms_error(48, n_t)[1] - ref))))
        rate = np.polyfit(np.log([1 / 8, 1 / 16, 1 / 32]), np.log(errs), 1)[0]
        assert rate >= 1.0

    def test_solver_residual_tiny(self):
        _, _, rep = mms_error(24, 24)
        assert rep.max_residual < 1e-8

    def test_iterated_cross_mode_matches_and_tightens(self):
        # the implicit-cross variant agrees with the explicit corrector to
        # the splitting order and removes the cross part of the step error
        grid = GridSpec(s_min=0.0, s_max=1.0, y_min=0.0, y_max=1.0, n_s=32,
                        n_y=32, horizon=0.25, n_t=16)
        fields, fsrc, v_fn = mms_fields(grid)
        psi = v_fn(0.0, grid.s_nodes[:, None], grid.y_nodes[None, :])
        exact = v_fn(0.25, grid.s_nodes[:, None], grid.y_nodes[None, :])
        t1, _ = solve_linear(fields, psi, grid, f=fsrc)
        t2, _ = solve_linear(fields, psi, grid, f=fsrc, cross_iterations=8)
        e1 = np.max(np.abs(t1[-1] - exact))
        e2 = np.max(np.abs(t2[-1] - exact))
        assert np.max(np.abs(t1[-1] - t2[-1])) < 5.0 * grid.dt ** 2
        assert e2 < 1.5 * e1

    def test_cross_term_warning_is_harmless(self):
        # CrossTermCFL is the explicit-Euler bound on the mixed term; the
        # Craig-Sneyd corrector with theta = 1/2 is stable past it.  At
        # nu = 3, three corrector passes move the solution by a small
        # fraction of the one-pass scheme's own error
        grid = GridSpec(s_min=0.0, s_max=1.0, y_min=0.0, y_max=1.0, n_s=48,
                        n_y=48, horizon=0.25, n_t=8)
        fields, fsrc, v_fn = mms_fields(grid)
        psi = v_fn(0.0, grid.s_nodes[:, None], grid.y_nodes[None, :])
        exact = v_fn(0.25, grid.s_nodes[:, None], grid.y_nodes[None, :])
        with pytest.warns(CrossTermCFL):
            t1, rep = solve_linear(fields, psi, grid, f=fsrc)
        with pytest.warns(CrossTermCFL):
            t3, _ = solve_linear(fields, psi, grid, f=fsrc, cross_iterations=3)
        assert rep.cross_cfl > 1.0
        e1 = float(np.max(np.abs(t1[-1] - exact)))
        assert float(np.max(np.abs(t1 - t3))) < 0.05 * e1


class TestStepAndSolve:
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

    @pytest.mark.parametrize("n", [0, -3])
    def test_cross_iterations_below_one_rejected(self, n):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        fields = assemble_frozen(make_spec(grid), grid, b_ref=1.0)
        with pytest.raises(ValueError, match="cross_iterations"):
            solve_linear(fields, make_psi(grid), grid, cross_iterations=n)

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
        shape = grid.shape
        mk = lambda v: np.broadcast_to(v, shape)
        fields = CoefficientFields(a_s=mk(0.1), a_x=mk(0.0), a_yy=mk(0.1),
                                   b_s=mk(0.5), b_y=mk(-0.5), c=mk(0.2))
        s = grid.s_nodes[:, None]
        y = grid.y_nodes[None, :]
        psi = 1.0 + np.sin(np.pi * s) * np.sin(np.pi * y)
        traj, _ = solve_linear(fields, psi, grid, f=mk(-0.1))
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
        h = grid.holder_exp
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
            nv = holder_norm(traj, 2, h, grid, kind="tSy").value
            n_psi = holder_norm(psi, 2, h, grid, kind="Sy").value
            n_f = holder_norm(f, 0, h, grid, kind="tSy").value if f is not None else 0.0
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
