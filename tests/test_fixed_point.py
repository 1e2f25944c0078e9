import warnings
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lsvcal import (FixedPointReport, HorizonExhausted, IterateBounds,
                    MembershipLost, NotConverged, apply_map, assemble_frozen, check_membership,
                    iterate, shrink_horizon, solve_lagged, solve_linear)
from lsvcal import fd
from lsvcal.linpde import assemble_slice, stencil, step_slices
from lsvcal.mixing import mixing_ratio
from lsvcal.model import measured_bsq_slope, operator_coefficients

from conftest import b_const, b_perturbed, make_grid, make_psi, make_spec


def traj_of(psi, grid, n_steps=None):
    n = grid.n_t if n_steps is None else n_steps
    return np.broadcast_to(psi, (n + 1,) + psi.shape).copy()


def build_rhs(u, spec, b_ref, grid):
    """Whole-field oracle of the fixed point's source.

    ``d2_S[rho11 a1^2 (ratio - 1/b_ref^2) u]
    + d2_Sy[2 rho12 a1 a2 (sqrt(ratio) - 1/b_ref) u]`` on interior nodes,
    with the products evaluated afresh on each slice rather than read from
    a frozen operator.
    """
    mix = mixing_ratio(u, spec.b, grid)
    f = np.empty(u.shape)
    for k in range(u.shape[0]):
        co = operator_coefficients(spec, grid, k)
        gap_ratio = (mix.ratio[k] - 1.0 / (b_ref * b_ref))[:, None]
        gap_root = (mix.sqrt_ratio[k] - 1.0 / b_ref)[:, None]
        f[k] = fd.second_diff_interior(co["a_s"] * gap_ratio * u[k], grid.ds, axis=-2)
        f[k] += fd.cross_diff_interior(co["a_x"] * gap_root * u[k], grid.ds, grid.dy)
    return f


def iterate_oracle(spec, grid, psi, params, max_iter=50):
    """Whole-horizon oracle of ``iterate``: each map application runs out
    of place over the whole horizon, and membership is checked afterwards.

    Returns (outcome, iterations, last map output, per-slice steps of each
    application); the outcome is ``"converged"``, ``"MembershipLost"`` or
    ``"NotConverged"``.
    """
    frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
    k_star = max(1, min(grid.n_t, round(params.t_star / grid.dt)))
    p, steps = traj_of(psi, grid, k_star), []
    for n in range(1, max_iter + 1):
        v, _ = apply_map(p, spec, grid, frozen=frozen)
        steps.append(np.max(np.abs(v - p), axis=(1, 2)))
        p = v
        if not check_membership(p, params, grid).ok:
            return "MembershipLost", n, p, steps
        if steps[-1].max() <= params.tol:
            return "converged", n, p, steps
    return "NotConverged", max_iter, p, steps


class TestIterateBounds:
    def test_from_initial(self, grid):
        psi = make_psi(grid)
        b = IterateBounds.from_initial(psi, grid)
        assert b.p_lo == psi.min()
        assert b.p_hi == psi.max()
        assert b.t_star == grid.horizon
        assert b.tol == pytest.approx(1e-8 * psi.max())

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            IterateBounds(holder_cap=1.0, p_lo=0.0, p_hi=1.0, t_star=1.0, tol=1e-8)
        with pytest.raises(ValueError):
            IterateBounds(holder_cap=1.0, p_lo=0.1, p_hi=1.0, t_star=-1.0, tol=1e-8)
        with pytest.raises(ValueError):
            IterateBounds(holder_cap=0.0, p_lo=0.1, p_hi=1.0, t_star=1.0, tol=1e-8)


class TestBuildRhs:
    def test_constant_b_gives_exact_zero(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        spec = make_spec(grid, b=b_const)
        u = traj_of(make_psi(grid), grid)
        f = build_rhs(u, spec, b_ref=1.0, grid=grid)
        assert np.all(f == 0.0)

    def test_hand_assembled_stencil(self):
        # u depending on y only and S-dependent coefficient products:
        # the source reduces to the gap times explicit 3-node stencils
        grid = make_grid(n_s=24, n_y=16, n_t=4)
        from lsvcal import ModelSpec, convert_correlation
        alpha1 = lambda t, s, y: 0.2 + 0.001 * s + 0.0 * y
        b = lambda y: np.sqrt(1.0 + 0.2 * np.sin(np.asarray(y, dtype=float)))
        spec = ModelSpec(b=b, alpha1=alpha1, alpha2=0.3,
                         corr=convert_correlation(-0.4), spot0=100.0, y0=0.0)
        g = 1.0 + 0.1 * np.tanh(grid.y_nodes)
        u = traj_of(np.broadcast_to(g[None, :],
                                    (grid.n_s + 2, grid.n_y + 2)).copy(), grid)
        f = build_rhs(u, spec, b_ref=1.0, grid=grid)

        mix = mixing_ratio(u[0], b, grid)
        gap_i = mix.ratio[0] - 1.0
        gap_r = mix.sqrt_ratio[0] - 1.0
        s = grid.s_nodes
        p1 = 0.5 * (0.2 + 0.001 * s) ** 2
        p2 = 2.0 * (-0.2) * (0.2 + 0.001 * s) * 0.3
        for i, j in ((5, 6), (11, 3), (20, 10)):
            term1 = gap_i * g[j] * (p1[i + 1] - 2 * p1[i] + p1[i - 1]) / grid.ds ** 2
            term2 = gap_r * (p2[i + 1] - p2[i - 1]) * (g[j + 1] - g[j - 1]) \
                / (4 * grid.ds * grid.dy)
            assert f[2, i, j] == pytest.approx(term1 + term2, rel=1e-10, abs=1e-18)

    def test_scaling_in_perturbation_size(self):
        # |f(s)| / s stays constant within 20 percent for small s
        grid = make_grid(n_s=24, n_y=24, n_t=4)
        psi = make_psi(grid, y0=0.25)
        sup = {}
        for s in (1e-3, 1e-2):
            spec = make_spec(grid, b=b_perturbed(s))
            u = traj_of(psi, grid)
            f = build_rhs(u, spec, b_ref=float(spec.b(0.0)), grid=grid)
            sup[s] = np.max(np.abs(f))
        ratio = (sup[1e-2] / 1e-2) / (sup[1e-3] / 1e-3)
        assert abs(ratio - 1.0) < 0.2


def cross_diff_nested(u, hx, hy):
    """Oracle of ``fd.cross_diff_interior``: each node's two y-cells
    differenced in full, the y-differences taken twice."""
    out = np.zeros_like(u)
    dxp = u[..., 2:, 1:-1] - u[..., 2:, :-2] - (u[..., :-2, 1:-1] - u[..., :-2, :-2])
    dxm = u[..., 2:, 2:] - u[..., 2:, 1:-1] - (u[..., :-2, 2:] - u[..., :-2, 1:-1])
    out[..., 1:-1, 1:-1] = (dxp + dxm) / (4.0 * hx * hy)
    return out


def second_diff_nested(u, h, axis):
    """Oracle of ``fd.second_diff_interior``: both first differences of a
    node taken afresh."""
    u = np.moveaxis(u, axis, 0)
    out = np.zeros_like(u)
    out[1:-1] = ((u[2:] - u[1:-1]) - (u[1:-1] - u[:-2])) / (h * h)
    return np.moveaxis(out, 0, axis)


class TestInteriorStencils:
    # every element goes through the same IEEE operations as in the
    # nested forms, so the bits agree, NaN and inf included
    fields = arrays(np.float64, array_shapes(min_dims=2, max_dims=3, max_side=7),
                    elements=st.one_of(st.floats(-1e6, 1e6),
                                       st.sampled_from([np.nan, np.inf, -np.inf])))
    spacings = st.floats(1e-3, 1e3)

    @staticmethod
    def assert_bit_equal(stencil, oracle, u, nan_bits=True):
        # inf - inf is the one invalid operation these fields allow: its
        # warnings are recorded and checked here, not printed per example.
        # Without ``nan_bits`` the NaNs are compared by position only: a sum
        # of two NaNs returns one of them, which one depends on numpy's loop
        # rather than on the formula, and IEEE 754 leaves the sign unspecified
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            got, want = stencil(u), oracle(u)
        if nan_bits:
            assert got.tobytes() == want.tobytes()
        else:
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()
        assert all(w.category is RuntimeWarning
                   and str(w.message).startswith("invalid value") for w in seen)
        assert not seen or np.isinf(u).any()

    @settings(max_examples=200, deadline=None)
    @given(fields, spacings, spacings)
    @example(np.array([[np.inf] * 7] * 3 + [[np.inf] * 3 + [np.nan] + [np.inf] * 3]),
             1.0, 1.0)
    def test_cross_diff_bit_equal_to_nested_form(self, u, hx, hy):
        self.assert_bit_equal(lambda v: fd.cross_diff_interior(v, hx, hy),
                              lambda v: cross_diff_nested(v, hx, hy), u, nan_bits=False)

    @settings(max_examples=200, deadline=None)
    @given(fields, spacings, st.sampled_from([-2, -1]))
    def test_second_diff_bit_equal_to_nested_form(self, u, h, axis):
        self.assert_bit_equal(lambda v: fd.second_diff_interior(v, h, axis=axis),
                              lambda v: second_diff_nested(v, h, axis), u)


class TestApplyMap:
    def test_constant_b_is_constant_map(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        spec = make_spec(grid, b=b_const)
        psi = make_psi(grid)
        v1, _ = apply_map(traj_of(psi, grid), spec, grid)
        v2, _ = apply_map(v1, spec, grid)
        assert np.array_equal(v1, v2)

    def test_deterministic(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        spec = make_spec(grid, b=b_perturbed(0.1))
        psi = make_psi(grid)
        u = traj_of(psi, grid)
        assert np.array_equal(apply_map(u, spec, grid)[0],
                              apply_map(u, spec, grid)[0])

    def test_halving_horizon_halves_drift(self):
        # |v - p0| grows linearly in the horizon at leading order
        grid = make_grid(n_s=32, n_y=20, n_t=32, horizon=0.5)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        v_full, _ = apply_map(traj_of(psi, grid), spec, grid)
        v_half, _ = apply_map(traj_of(psi, grid, n_steps=grid.n_t // 2),
                              spec, grid)
        d_full = np.max(np.abs(v_full - psi))
        d_half = np.max(np.abs(v_half - psi))
        assert 0.35 <= d_half / d_full <= 0.65

    def test_streamed_source_equals_whole_field_source(self):
        # the map builds its source slice by slice from the operator's
        # products; the solve sees the same bits as with the oracle's field
        grid = make_grid(n_s=32, n_y=20, n_t=12)
        spec = make_spec(grid, b=b_perturbed(0.3), rho=-0.4)
        psi = make_psi(grid)
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
        u = apply_map(traj_of(psi, grid), spec, grid, frozen=frozen)[0]
        v, _ = apply_map(u, spec, grid, frozen=frozen)
        f = build_rhs(u, spec, frozen.b_ref, grid)
        assert np.array_equal(v, solve_linear(frozen, psi, grid, f=f)[0])

    @pytest.mark.parametrize("n_steps", [1, 5])
    def test_products_evaluated_once_per_slice(self, n_steps, monkeypatch):
        # a map application of n steps evaluates each slice's products once:
        # slice k's stencil and source read the same slice dict
        import lsvcal.linpde
        grid = make_grid(n_s=24, n_y=16, n_t=8)
        spec = make_spec(grid, b=b_perturbed(0.3), rho=-0.4)
        real, calls = lsvcal.linpde.diffusion_products, []

        def spy(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)
        monkeypatch.setattr(lsvcal.linpde, "diffusion_products", spy)
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
        assert calls == []      # assembly evaluates them through the model
        apply_map(traj_of(make_psi(grid), grid, n_steps=n_steps), spec, grid,
                  frozen=frozen)
        assert calls == list(range(n_steps + 1))

    @settings(max_examples=25, deadline=None)
    @given(n_s=st.integers(8, 16), n_y=st.integers(8, 14), n_t=st.integers(1, 6),
           amp=st.floats(0.0, 0.5), rho=st.floats(-0.9, 0.9))
    @example(n_s=8, n_y=8, n_t=1, amp=0.3, rho=-0.5)
    @example(n_s=8, n_y=8, n_t=2, amp=0.3, rho=0.5)
    def test_in_place_equals_out_of_place(self, n_s, n_y, n_t, amp, rho):
        # the map may write over its own input: the mixing ratio is taken
        # from the whole input first and each source slice is read before
        # the solve writes that slice, so the bits are the out-of-place ones
        from lsvcal import fixed_point
        # dt = 0.1 keeps the explicit cross-term estimate below 1
        grid = make_grid(n_s=n_s, n_y=n_y, n_t=n_t, horizon=0.1 * n_t)
        spec = make_spec(grid, b=b_perturbed(amp), rho=rho)
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
        # an input whose slices differ, so a slice read late would show
        u = apply_map(traj_of(make_psi(grid), grid), spec, grid, frozen=frozen)[0]
        v, _ = apply_map(u, spec, grid, frozen=frozen)
        w = u.copy()
        assert apply_map(w, spec, grid, frozen=frozen, out=w)[0] is w
        assert np.array_equal(w, v)
        w = u.copy()
        step = fixed_point._Overwrite(w, -np.inf, np.inf)
        apply_map(w, spec, grid, frozen=frozen, out=step)
        assert np.array_equal(w, v)
        assert step.residual == float(np.max(np.abs(v - u)))

    def test_one_pass_allocates_little_beyond_its_iterate(self, monkeypatch):
        # one map application and its membership check hold the new
        # iterate plus per-slice and per-slab scratch; each
        # whole-trajectory temporary would add one trajectory here.  A
        # time step's scratch is about 60 slices, so 160 steps keep it
        # below 0.4 of a trajectory
        import tracemalloc
        from lsvcal import holder
        grid = make_grid(n_s=32, n_y=20, n_t=160)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
        params = IterateBounds.from_initial(psi, grid)
        u = traj_of(psi, grid)
        # the slab budget is a byte count, not a share of the trajectory,
        # so it shrinks with the grid
        monkeypatch.setattr(holder, "_SLAB_BYTES", 4 * psi.nbytes)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            v, _ = apply_map(u, spec, grid, frozen=frozen)
            check_membership(v, params, grid)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * u.nbytes


class TestMembership:
    def test_initial_extension_passes(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        psi = make_psi(grid)
        params = IterateBounds.from_initial(psi, grid)
        mem = check_membership(traj_of(psi, grid), params, grid)
        assert mem.ok

    def test_scaling_breaks_upper_bound(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        psi = make_psi(grid)
        params = IterateBounds.from_initial(psi, grid)
        mem = check_membership(3.0 * traj_of(psi, grid), params, grid)
        assert not mem.upper_ok

    def test_one_cell_spike_breaks_norm_only(self):
        # near-uniform start: a spike of height p_lo passes the pointwise
        # band but wrecks the second differences
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        psi = make_psi(grid, bw_s=150.0, bw_y=1.5, floor_rel=1.0)
        params = IterateBounds.from_initial(psi, grid)
        p = traj_of(psi, grid)
        i, j = np.unravel_index(np.argmin(psi), psi.shape)
        p[grid.n_t // 2, i, j] += params.p_lo
        mem = check_membership(p, params, grid)
        assert mem.lower_ok and mem.upper_ok
        assert not mem.norm_ok


class TestIterate:
    def test_constant_b_two_iterations_bit_identical(self):
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_const)
        psi = make_psi(grid)
        dens, rep = iterate(spec, grid, psi)
        assert rep.converged and rep.iterations == 2
        assert rep.residuals[-1] == 0.0
        fields = assemble_frozen(spec, grid, b_ref=1.0)
        traj, _ = solve_linear(fields, psi, grid)
        assert np.array_equal(dens, traj)

    @settings(max_examples=10, deadline=None)
    @given(n_t=st.integers(12, 20), b0=st.floats(0.5, 2.0),
           amp=st.one_of(st.just(0.0), st.floats(0.0, 0.1)))
    def test_constant_b_degenerates_exactly(self, n_t, b0, amp):
        # any constant b, flat or time-varying Dupire rows: zero source,
        # and the fixed point is one linear solve bit for bit
        grid = make_grid(n_s=40, n_y=24, n_t=n_t)
        sigma = np.repeat((0.2 + amp * np.sin(3.0 * grid.t_nodes))[:, None],
                          grid.n_s + 2, axis=1)
        spec = make_spec(grid, b=lambda y: np.full_like(np.asarray(y, dtype=float), b0),
                         sigma=sigma)
        psi = make_psi(grid)
        b_ref = spec.b_ref(grid)
        dens, rep = iterate(spec, grid, psi)
        for u in (traj_of(psi, grid), dens):
            assert np.all(build_rhs(u, spec, b_ref=b_ref, grid=grid) == 0.0)
        assert rep.converged and rep.iterations == 2
        traj, _ = solve_linear(assemble_frozen(spec, grid, b_ref=b_ref), psi, grid)
        assert np.array_equal(dens, traj)

    @settings(max_examples=10, deadline=None)
    @given(n_t=st.integers(1, 6), amp=st.floats(0.0, 0.5),
           rho=st.floats(-0.9, 0.9))
    def test_deterministic(self, n_t, amp, rho):
        # the same inputs give the same trajectory and report bit for bit,
        # whether the iteration converges or fails
        grid = make_grid(n_s=10, n_y=10, n_t=n_t)
        spec = make_spec(grid, b=b_perturbed(amp), rho=rho)
        psi = make_psi(grid)

        def run():
            try:
                p, rep = iterate(spec, grid, psi)
            except (MembershipLost, NotConverged) as err:
                p, rep = err.density, err.report
            # repr: NaN entries compare equal, and -0.0 differs from 0.0
            return p, repr(asdict(rep))
        (p1, rep1), (p2, rep2) = run(), run()
        assert np.array_equal(p1, p2)
        assert rep1 == rep2

    @settings(max_examples=30, deadline=None)
    @given(n_s=st.integers(12, 32), n_y=st.integers(10, 24), n_t=st.integers(2, 16),
           horizon=st.floats(0.1, 1.0), share=st.floats(0.05, 1.0),
           s=st.floats(0.0, 6.0))
    # iterate 2 leaves at slice 2 of 16; iterate 1 leaves at slice 12 of
    # 16; convergence after 9 iterations
    @example(n_s=32, n_y=24, n_t=16, horizon=1.0, share=1.0, s=5.0)
    @example(n_s=24, n_y=16, n_t=16, horizon=1.0, share=1.0, s=1.0)
    @example(n_s=32, n_y=24, n_t=16, horizon=1.0, share=1.0, s=2.0)
    def test_stopped_applications_match_the_whole_horizon_oracle(
            self, n_s, n_y, n_t, horizon, share, s):
        # b = sqrt1p_sin:s over a range of horizons: stopping an
        # application at its first slice out of band changes no outcome, no
        # failing iteration and no converged trajectory; an escaped
        # trajectory is the oracle's up to that slice
        grid = make_grid(n_s=n_s, n_y=n_y, n_t=n_t, horizon=horizon)
        spec = make_spec(grid, b=b_perturbed(s))
        psi = make_psi(grid)
        params = replace(IterateBounds.from_initial(psi, grid),
                         t_star=share * horizon)
        outcome, n, want, steps = iterate_oracle(spec, grid, psi, params)
        try:
            p, rep = iterate(spec, grid, psi, params=params)
            got = "converged"
        except (MembershipLost, NotConverged) as err:
            p, rep, got = err.density, err.report, type(err).__name__
        assert (got, rep.iterations) == (outcome, n)
        assert rep.residuals[:-1] == [float(x.max()) for x in steps[:-1]]
        assert rep.residuals[-1] == float(steps[-1][:len(p)].max())
        if got != "MembershipLost":
            assert np.array_equal(p, want)
            return
        lo, hi = params.band
        inside = (want.min(axis=(1, 2)) >= lo) & (want.max(axis=(1, 2)) <= hi)
        # the first slice out of band ends the trajectory, or it is whole
        assert len(p) == (len(want) if inside.all() else int(np.argmin(inside)) + 1)
        assert np.array_equal(p, want[:len(p)])

    def test_escaping_application_stops_at_its_first_slice_out_of_band(
            self, monkeypatch):
        # the tests' recovery config: iterate 2 leaves the lower bound early
        # in the horizon, and its application makes no step after that slice
        import lsvcal.fixed_point
        import lsvcal.linpde
        grid = make_grid(n_s=48, n_y=32, n_t=32)
        spec = make_spec(grid, b=b_perturbed(5.0))
        psi = make_psi(grid)
        params = IterateBounds.from_initial(psi, grid)
        steps, starts = [], []

        def step_spy(*args, real=lsvcal.linpde.step_slices, **kwargs):
            steps.append(1)
            return real(*args, **kwargs)

        def map_spy(*args, real=lsvcal.fixed_point.apply_map, **kwargs):
            starts.append(len(steps))
            return real(*args, **kwargs)
        monkeypatch.setattr(lsvcal.linpde, "step_slices", step_spy)
        monkeypatch.setattr(lsvcal.fixed_point, "apply_map", map_spy)
        with pytest.raises(MembershipLost) as err:
            iterate(spec, grid, psi, params=params)
        rep, dens = err.value.report, err.value.density
        j = len(steps) - starts[-1]
        assert len(starts) == rep.iterations == err.value.iteration
        assert [b - a for a, b in zip(starts, starts[1:])] == [grid.n_t] * (len(starts) - 1)
        assert 1 <= j < grid.n_t
        assert dens.shape == (j + 1,) + psi.shape
        lo, hi = params.band
        assert [bool(u.min() >= lo and u.max() <= hi) for u in dens] == [True] * j + [False]
        mem = rep.membership[-1]
        assert not (mem["lower_ok"] and mem["upper_ok"])
        assert str(err.value).startswith(
            f"iterate {rep.iterations} left the admissible set at slice {j} "
            f"(t = {grid.t_nodes[j]:.6g}): ")
        assert ("< lower bound" in str(err.value)) is not mem["lower_ok"]
        assert ("> upper bound" in str(err.value)) is not mem["upper_ok"]

    def test_small_perturbation_contracts_geometrically(self):
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        dens, rep = iterate(spec, grid, psi)
        assert rep.converged
        assert rep.iterations >= 3
        assert rep.contraction is not None and rep.contraction < 0.9
        assert rep.r_squared > 0.95
        assert all(m["lower_ok"] and m["upper_ok"] and m["norm_ok"]
                   for m in rep.membership)

    def test_gap_monitor_reuses_membership_norm(self):
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_perturbed(0.05))
        _, rep = iterate(spec, grid, make_psi(grid))
        assert len(rep.gap_monitor) == rep.iterations >= 3
        bsq_slope = measured_bsq_slope(spec.b, grid)
        for mem, rec in zip(rep.membership, rep.gap_monitor):
            assert rec["scaled"] == rec["lhs"] / (bsq_slope * (1.0 + mem["norm"]) ** 6)

    def test_fixed_point_consistency(self):
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        _, rep = iterate(spec, grid, psi)
        assert rep.converged
        assert rep.fixed_point_residual == rep.residuals[-1] <= rep.tol

    def test_fixed_point_residual_uses_the_iterated_map(self, monkeypatch):
        # the residual check applies the map the loop iterated, mixed term
        # included: the answer is that map's output on the last input,
        # against an independent whole-trajectory source
        import lsvcal.fixed_point
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_perturbed(0.05), rho=-0.5)
        psi = make_psi(grid)
        inputs = []

        def spy(u, *args, real=lsvcal.fixed_point.apply_map, **kwargs):
            inputs.append(u.copy())
            return real(u, *args, **kwargs)
        monkeypatch.setattr(lsvcal.fixed_point, "apply_map", spy)
        p, rep = iterate(spec, grid, psi)
        b_ref = spec.b_ref(grid)
        fields = assemble_frozen(spec, grid, b_ref=b_ref)
        v, _ = solve_linear(fields, psi, grid, f=build_rhs(inputs[-1], spec, b_ref, grid),
                            n_steps=p.shape[0] - 1)
        assert np.array_equal(p, v)
        assert rep.fixed_point_residual == float(np.max(np.abs(v - inputs[-1])))

    def test_converged_run_applies_the_map_once_per_iteration(self, monkeypatch):
        # each application maps the previous one's output, and the answer
        # is the output of the application whose step passed tol, so no
        # application runs after the loop
        import lsvcal.fixed_point
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_perturbed(0.05))
        inputs, outputs = [], []

        def spy(u, *args, real=lsvcal.fixed_point.apply_map, **kwargs):
            inputs.append(u.copy())
            result = real(u, *args, **kwargs)
            outputs.append(u.copy())
            return result
        monkeypatch.setattr(lsvcal.fixed_point, "apply_map", spy)
        p, rep = iterate(spec, grid, make_psi(grid))
        assert rep.converged and rep.iterations >= 3
        assert len(inputs) == rep.iterations
        assert all(np.array_equal(a, b) for a, b in zip(outputs, inputs[1:]))
        assert np.array_equal(outputs[-1], p)
        assert rep.residuals == [float(np.max(np.abs(b - a)))
                                 for a, b in zip(inputs, outputs)]
        assert rep.fixed_point_residual == rep.residuals[-1] <= rep.tol

    def test_converged_run_holds_one_trajectory(self, monkeypatch):
        # each application writes over its input, so beyond the operator
        # and psi a run holds one trajectory plus per-slice and per-slab
        # scratch; holding the input beside the output would be two
        import tracemalloc
        from lsvcal import holder
        grid = make_grid(n_s=32, n_y=20, n_t=160)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
        params = IterateBounds.from_initial(psi, grid)
        # the slab budget is a byte count, not a share of the trajectory,
        # so it shrinks with the grid
        monkeypatch.setattr(holder, "_SLAB_BYTES", 4 * psi.nbytes)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            p, rep = iterate(spec, grid, psi, params=params, frozen=frozen)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert rep.converged and rep.iterations >= 3
        assert peak < 1.5 * p.nbytes

    def test_boundary_preserved_exactly(self):
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        p, _ = iterate(spec, grid, psi)
        assert np.all(p[0] == psi)
        assert np.all(p[:, 0, :] == psi[0, :]) and np.all(p[:, -1, :] == psi[-1, :])
        assert np.all(p[:, :, 0] == psi[:, 0]) and np.all(p[:, :, -1] == psi[:, -1])

    def test_adversarial_perturbation_loses_membership(self):
        grid = make_grid(n_s=48, n_y=32, n_t=40)
        spec = make_spec(grid, b=b_perturbed(5.0))
        psi = make_psi(grid)
        with pytest.raises(MembershipLost) as err:
            iterate(spec, grid, psi)
        assert err.value.report is not None
        assert err.value.density is not None

    def test_zero_iteration_budget_rejected(self):
        grid = make_grid(n_s=32, n_y=20, n_t=10)
        spec = make_spec(grid, b=b_perturbed(0.05))
        with pytest.raises(ValueError, match="max_iter"):
            iterate(spec, grid, make_psi(grid), max_iter=0)

    def test_iterations_on_a_handed_in_operator_evaluate_no_coefficients(self, monkeypatch):
        # the operator stores no products: assembly forms them once per
        # slice, and each map application once more per slice, for the
        # stencil and the source together; nothing else is evaluated
        import sys
        from lsvcal import model
        grid = make_grid(n_s=32, n_y=20, n_t=10)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        real, calls = model.diffusion_products, []

        def spy(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "lsvcal" and getattr(mod, "diffusion_products", None) is real:
                monkeypatch.setattr(mod, "diffusion_products", spy)
        coefficient_calls = []

        def coefficient_spy(c, k, *args, real=model.eval_coeff):
            coefficient_calls.append(k)
            return real(c, k, *args)
        monkeypatch.setattr(model, "eval_coeff", coefficient_spy)
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
        assert calls == list(range(grid.n_t + 1))
        calls.clear()
        coefficient_calls.clear()
        _, rep = iterate(spec, grid, psi, frozen=frozen)
        assert rep.converged and rep.iterations >= 3
        assert calls == list(range(grid.n_t + 1)) * rep.iterations
        # alpha1 and alpha2, for the products only
        assert coefficient_calls == [k for k in calls for _ in range(2)]

    def test_budget_exhaustion_raises_not_converged(self):
        grid = make_grid(n_s=32, n_y=20, n_t=10)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        with pytest.raises(NotConverged) as err:
            iterate(spec, grid, psi, max_iter=1)
        assert err.value.report.iterations == 1

    @pytest.mark.parametrize("scale,dims", [(0.05, (32, 20, 20)), (5.0, (48, 32, 40))],
                             ids=["converged", "MembershipLost"])
    def test_handed_in_operator_matches_own_assembly(self, scale, dims):
        grid = make_grid(*dims)
        spec = make_spec(grid, b=b_perturbed(scale))
        psi = make_psi(grid)
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))

        def outcome(**kwargs):
            try:
                dens, rep = iterate(spec, grid, psi, **kwargs)
            except MembershipLost as err:
                dens, rep = err.density, err.report
            return dens, asdict(rep)
        own, handed = outcome(), outcome(frozen=frozen)
        assert np.array_equal(own[0], handed[0])
        assert own[1] == handed[1]
        assert own[1]["converged"] is (scale < 1.0)

    def test_mismatched_operator_rejected(self):
        grid = make_grid(n_s=32, n_y=20, n_t=10)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        other = make_grid(n_s=32, n_y=20, n_t=10, horizon=0.5)
        frozen = assemble_frozen(make_spec(other, b=b_perturbed(0.05)), other,
                                 b_ref=spec.b_ref(grid))
        with pytest.raises(ValueError, match="frozen operator"):
            iterate(spec, grid, psi, frozen=frozen)


class TestShrinkHorizon:
    def test_immediate_success_unchanged(self):
        grid = make_grid(n_s=32, n_y=20, n_t=10)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        params = IterateBounds.from_initial(psi, grid)
        out = shrink_horizon(spec, grid, psi, params)
        assert out.t_star == params.t_star

    def test_recovers_failing_case(self):
        grid = make_grid(n_s=48, n_y=32, n_t=40)
        spec = make_spec(grid, b=b_perturbed(5.0))
        psi = make_psi(grid)
        params = IterateBounds.from_initial(psi, grid)
        out = shrink_horizon(spec, grid, psi, params)
        assert out.t_star < params.t_star
        dens, rep = iterate(spec, grid, psi, params=out)
        assert rep.converged
        assert rep.t_star == out.t_star

    def test_negative_halvings_rejected(self):
        grid = make_grid(n_s=32, n_y=20, n_t=10)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        with pytest.raises(ValueError, match="max_halvings"):
            shrink_horizon(spec, grid, psi, IterateBounds.from_initial(psi, grid),
                           max_halvings=-1)

    def test_exhaustion(self):
        grid = make_grid(n_s=48, n_y=32, n_t=40)
        spec = make_spec(grid, b=b_perturbed(5.0))
        psi = make_psi(grid)
        params = IterateBounds.from_initial(psi, grid)
        with pytest.raises(HorizonExhausted) as err:
            shrink_horizon(spec, grid, psi, params, max_halvings=1)
        assert err.value.report is err.value.last_error.report is not None
        assert err.value.density is err.value.last_error.density is not None

    @pytest.mark.parametrize("n_t,max_halvings,ladder", [
        (20, 6, [20, 10, 5, 2, 1]), (1, 6, [1]), (40, 2, [40, 20, 10])],
        ids=["one_step_reached", "one_step_grid", "allowance_spent"])
    def test_exhaustion_counts_the_halvings_made(self, monkeypatch, n_t,
                                                 max_halvings, ladder):
        import lsvcal.fixed_point
        grid = make_grid(n_s=16, n_y=12, n_t=n_t)
        psi = make_psi(grid)
        steps = []

        def fail(*args, params, **kwargs):
            steps.append(round(params.t_star / grid.dt))
            raise NotConverged()
        monkeypatch.setattr(lsvcal.fixed_point, "iterate", fail)
        n = len(ladder) - 1
        with pytest.raises(HorizonExhausted,
                           match=f"after {n} horizon halvings$") as err:
            shrink_horizon(make_spec(grid), grid, psi,
                           IterateBounds.from_initial(psi, grid),
                           max_halvings=max_halvings)
        assert steps == ladder
        assert err.value.halvings == n

    def test_ladder_starts_from_the_clamped_horizon(self, monkeypatch):
        # a horizon beyond the grid runs the same attempts as the grid's own
        import lsvcal.fixed_point
        grid = make_grid(n_s=48, n_y=32, n_t=40)
        spec = make_spec(grid, b=b_perturbed(5.0))
        psi = make_psi(grid)
        params = IterateBounds.from_initial(psi, grid)
        steps = []

        def spy(*args, real=lsvcal.fixed_point.iterate, **kwargs):
            try:
                dens, rep = real(*args, **kwargs)
            except (MembershipLost, NotConverged) as err:
                steps[-1].append(round(err.report.t_star / grid.dt))
                raise
            steps[-1].append(round(rep.t_star / grid.dt))
            return dens, rep
        monkeypatch.setattr(lsvcal.fixed_point, "iterate", spy)
        for t_star in (params.t_star, 2.5 * params.t_star):
            steps.append([])
            shrink_horizon(spec, grid, psi, replace(params, t_star=t_star))
        assert steps[0] == steps[1]
        assert steps[0][0] == grid.n_t and steps[0][-1] < grid.n_t

    def test_ladder_holds_one_failed_attempt_at_a_time(self, monkeypatch):
        # each rung's failure, and the trajectories its traceback pins, is
        # released before the next rung runs
        import lsvcal.fixed_point
        grid = make_grid(n_s=48, n_y=32, n_t=32)
        spec = make_spec(grid, b=b_perturbed(5.0))
        psi = make_psi(grid)
        failed = []

        def spy(*args, real=lsvcal.fixed_point.iterate, **kwargs):
            assert all(ref() is None for ref in failed)
            try:
                return real(*args, **kwargs)
            except (MembershipLost, NotConverged) as err:
                failed.append(weakref.ref(err.density))
                raise
        monkeypatch.setattr(lsvcal.fixed_point, "iterate", spy)
        out = shrink_horizon(spec, grid, psi, IterateBounds.from_initial(psi, grid))
        assert out.t_star < grid.horizon and len(failed) >= 2

    def test_ladder_assembles_the_operator_once(self, monkeypatch):
        import lsvcal.fixed_point
        grid = make_grid(n_s=48, n_y=32, n_t=40)
        spec = make_spec(grid, b=b_perturbed(5.0))
        psi = make_psi(grid)
        built, seen = [], []

        def assemble_spy(*args, real=lsvcal.fixed_point.assemble_frozen, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        def iterate_spy(*args, real=lsvcal.fixed_point.iterate, **kwargs):
            seen.append(kwargs.get("frozen"))
            return real(*args, **kwargs)
        monkeypatch.setattr(lsvcal.fixed_point, "assemble_frozen", assemble_spy)
        monkeypatch.setattr(lsvcal.fixed_point, "iterate", iterate_spy)
        out = shrink_horizon(spec, grid, psi, IterateBounds.from_initial(psi, grid))
        assert out.t_star < grid.horizon
        assert len(built) == 1
        assert len(seen) > 2 and all(f is built[0] for f in seen)

    def test_monotone_horizon_property(self):
        # a run that succeeds at t* succeeds at t*/2 with the same caps
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_perturbed(1.0))
        psi = make_psi(grid)
        params = IterateBounds.from_initial(psi, grid)
        _, rep_full = iterate(spec, grid, psi, params=params)
        assert rep_full.converged
        half = replace(params, t_star=params.t_star / 2)
        _, rep_half = iterate(spec, grid, psi, params=half)
        assert rep_half.converged


def outcome_of(*args, **kwargs):
    """``iterate``'s (trajectory, report, error) whether it converges or
    fails; error is None on convergence."""
    try:
        p, rep = iterate(*args, **kwargs)
        return p, rep, None
    except (MembershipLost, NotConverged) as err:
        return err.density, err.report, err


class TestMarch:
    @settings(max_examples=25, deadline=None)
    @given(n_s=st.integers(12, 32), n_y=st.integers(10, 24), n_t=st.integers(2, 16),
           horizon=st.floats(0.1, 1.0), s=st.floats(0.0, 3.0), rho=st.floats(-0.6, 0.6))
    # 6 Picard iterations, or 3 with the march (2 to 4 passes a step)
    @example(n_s=26, n_y=17, n_t=12, horizon=0.44, s=1.26, rho=0.0)
    def test_march_converges_no_later_and_near_the_picard_answer(
            self, n_s, n_y, n_t, horizon, s, rho):
        # wherever the constant-start Picard iteration converges, the
        # march's run converges in at most as many iterations, and the two
        # answers, each within about tol of the fixed point, agree to tol
        grid = make_grid(n_s=n_s, n_y=n_y, n_t=n_t, horizon=horizon)
        spec = make_spec(grid, b=b_perturbed(s), rho=rho)
        psi = make_psi(grid)
        params = IterateBounds.from_initial(psi, grid)
        want, rep, err = outcome_of(spec, grid, psi, params=params)
        assume(err is None)
        got, rep_m = iterate(spec, grid, psi, params=params, march=True)
        assert rep_m.converged and rep_m.iterations <= rep.iterations
        assert np.max(np.abs(got - want)) <= params.tol
        assert rep_m.fixed_point_residual == rep_m.residuals[-1] <= params.tol
        if rep.iterations > 2:
            # the march ran after the same two Picard iterates
            assert rep_m.residuals[:2] == rep.residuals[:2]
            assert rep_m.march_passes is not None
            assert rep_m.contraction == rep.residuals[1] / rep.residuals[0]
            assert rep_m.r_squared is None
        if rep_m.march_passes is not None and len(rep_m.march_passes) == len(got) - 1:
            # a march that reached the horizon is certified by the next
            # application, iteration 3
            assert rep_m.iterations == 3 and rep_m.residuals[2] <= params.tol

    def test_march_leaves_the_map_checks_one_per_iteration(self, monkeypatch):
        # the march makes time steps only: every linear solve, membership
        # check and gap monitor is one iteration's, and the march's passes
        # land between iterations 2 and 3
        import lsvcal.fixed_point
        import lsvcal.linpde
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_perturbed(1.0))
        calls = {name: 0 for name in ("solve_linear", "check_membership",
                                      "ratio_gap_monitor", "step_slices")}
        for mod, name in ((lsvcal.fixed_point, "solve_linear"),
                          (lsvcal.fixed_point, "check_membership"),
                          (lsvcal.fixed_point, "ratio_gap_monitor"),
                          (lsvcal.fixed_point, "step_slices"),
                          (lsvcal.linpde, "step_slices")):
            def spy(*args, real=getattr(mod, name), name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(mod, name, spy)
        p, rep = iterate(spec, grid, make_psi(grid), march=True)
        assert rep.converged and rep.iterations == 3
        assert len(rep.march_passes) == grid.n_t
        assert calls["solve_linear"] == calls["check_membership"] == 3
        assert calls["ratio_gap_monitor"] == 3
        # one step_slices per step and iteration, and one per marched step
        assert calls["step_slices"] == 4 * grid.n_t

    def test_recovery_config_fails_as_picard_does(self):
        # the tests' recovery config leaves the band at iteration 2, before
        # the march could start: the same error, slice, trajectory and report
        grid = make_grid(n_s=48, n_y=32, n_t=32)
        spec = make_spec(grid, b=b_perturbed(5.0))
        psi = make_psi(grid)
        params = IterateBounds.from_initial(psi, grid)
        runs = [outcome_of(spec, grid, psi, params=params, march=march)
                for march in (False, True)]
        (p0, rep0, err0), (p1, rep1, err1) = runs
        assert isinstance(err0, MembershipLost) and isinstance(err1, MembershipLost)
        assert err0.iteration == err1.iteration == 2
        assert str(err0) == str(err1)
        assert str(err0).startswith("iterate 2 left the admissible set at slice 2 ")
        assert np.array_equal(p0, p1)
        assert asdict(rep0) == asdict(rep1) and rep1.march_passes is None

    @pytest.mark.parametrize("max_iter", [1, 2])
    @pytest.mark.parametrize("scale", [0.05, 5.0], ids=["contracting", "escaping"])
    def test_budget_of_two_never_marches(self, max_iter, scale):
        # the march needs a third iteration to certify it; without one,
        # march=True is the Picard run bit for bit
        grid = make_grid(n_s=32, n_y=20, n_t=10)
        spec = make_spec(grid, b=b_perturbed(scale))
        psi = make_psi(grid)
        (p0, rep0, err0), (p1, rep1, err1) = (
            outcome_of(spec, grid, psi, max_iter=max_iter, march=march)
            for march in (False, True))
        assert type(err0) is type(err1) and str(err0) == str(err1)
        assert np.array_equal(p0, p1)
        assert repr(asdict(rep0)) == repr(asdict(rep1))
        assert rep1.march_passes is None

    def test_march_stopped_by_its_pass_cap_hands_back_to_picard(self, monkeypatch):
        # with one pass a step, no step settles, so the march stops at its
        # first step and writes nothing: the Picard iteration goes on from
        # iterate 2 and converges on the Picard answer bit for bit
        import lsvcal.fixed_point
        monkeypatch.setattr(lsvcal.fixed_point, "_MARCH_PASSES", 1)
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_perturbed(1.0))
        psi = make_psi(grid)
        want, rep = iterate(spec, grid, psi)
        got, rep_m = iterate(spec, grid, psi, march=True)
        assert rep.iterations > 3
        assert rep_m.converged and rep_m.march_passes == []
        assert np.array_equal(got, want)
        assert rep_m.residuals == rep.residuals
        assert rep_m.contraction == rep.residuals[1] / rep.residuals[0]
        assert rep_m.r_squared is None and rep.r_squared is not None

    @pytest.mark.parametrize("fault", ["band", "nan"])
    def test_march_stops_at_a_faulty_step_and_keeps_the_rest(self, monkeypatch, fault):
        # a step whose guesses leave the band, or whose corrector makes a
        # NaN, stops the march there: the steps before it are the whole
        # march's, and the slices after it keep iterate 2's values
        import lsvcal.fixed_point
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_perturbed(1.0))
        psi = make_psi(grid)
        params = IterateBounds.from_initial(psi, grid)
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
        start = outcome_of(spec, grid, psi, params=params, frozen=frozen, max_iter=2)[0]
        whole = start.copy()
        passes = lsvcal.fixed_point._march(whole, spec, grid, frozen, params)
        assert len(passes) == grid.n_t
        j, made = 7, []
        hi = params.band[1]

        def spy(*args, real=lsvcal.fixed_point.step_slices, **kwargs):
            finish = real(*args, **kwargs)
            made.append(1)
            if len(made) <= j:
                return finish
            if fault == "band":        # a settled guess above the band
                return lambda f1: finish(f1) + hi
            return lambda f1: finish(np.full_like(f1, np.nan))
        monkeypatch.setattr(lsvcal.fixed_point, "step_slices", spy)
        p = start.copy()
        assert lsvcal.fixed_point._march(p, spec, grid, frozen, params) == passes[:j]
        assert np.array_equal(p[:j + 1], whole[:j + 1])
        assert np.array_equal(p[j + 1:], start[j + 1:])

    def test_march_holds_no_second_trajectory(self, monkeypatch):
        # the march writes over the iterate slice by slice: beyond the
        # Picard run's own peak it holds one step's scratch, well under
        # half a trajectory (a copy of the iterate would be a whole one)
        import tracemalloc
        from lsvcal import holder
        grid = make_grid(n_s=32, n_y=20, n_t=160)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
        params = IterateBounds.from_initial(psi, grid)
        monkeypatch.setattr(holder, "_SLAB_BYTES", 4 * psi.nbytes)
        peaks = {}
        for march in (False, True):
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                p, rep = iterate(spec, grid, psi, params=params, frozen=frozen,
                                 march=march)
                peaks[march] = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
            assert rep.converged
        assert rep.march_passes is not None and len(rep.march_passes) == grid.n_t
        assert peaks[True] - peaks[False] < 0.5 * p.nbytes


class TestTimeLagged:
    def test_matches_fixed_point_for_small_perturbation(self):
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        dens_fp, _ = iterate(spec, grid, psi)
        dens_lag, rep = solve_lagged(spec, grid, psi)
        assert rep.converged and rep.mode == "time-lagged"
        gap = np.max(np.abs(dens_fp - dens_lag))
        assert gap < 1e-3 * psi.max()

    def test_report_holds_the_sweep_outcome(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        spec = make_spec(grid, b=b_perturbed(0.5))
        dens, rep = solve_lagged(spec, grid, make_psi(grid))
        # step k divides by the weighted marginal of slice k
        den_min = min(mixing_ratio(d, spec.b, grid).denominator_min for d in dens[:-1])
        assert asdict(rep) == asdict(FixedPointReport(
            converged=True, t_star=grid.n_t * grid.dt, mode="time-lagged",
            denominator_min=den_min))

    def test_out_takes_each_slice_as_the_sweep_makes_it(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        spec = make_spec(grid, b=b_perturbed(0.5))
        psi = make_psi(grid)
        dens, rep = solve_lagged(spec, grid, psi)
        got = {}

        class Sink:
            def __setitem__(self, k, u):
                got[k] = u.copy()
        sink = Sink()
        out, rep_out = solve_lagged(spec, grid, psi, out=sink)
        assert out is sink and asdict(rep_out) == asdict(rep)
        assert list(got) == list(range(grid.n_t + 1))
        assert np.array_equal(np.stack([got[k] for k in got]), dens)

    def test_unit_products_evaluated_once_per_slice(self, monkeypatch):
        # slice k+1's products serve step k and step k+1
        import sys
        from lsvcal import model
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        spec = make_spec(grid, b=b_perturbed(0.5))
        psi = make_psi(grid)
        real, calls = model.operator_coefficients, []

        def spy(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "lsvcal" and getattr(mod, "operator_coefficients", None) is real:
                monkeypatch.setattr(mod, "operator_coefficients", spy)
        dens, _ = solve_lagged(spec, grid, psi)
        assert calls == list(range(grid.n_t + 1))
        # the former sweep, which built both slices' products at every step
        u = psi.copy()
        hs = (grid.ds, grid.dy)
        for k in range(grid.n_t):
            mix = mixing_ratio(u, spec.b, grid)
            st0, st1 = (stencil(assemble_slice(spec, grid, j, mix.ratio, mix.sqrt_ratio), hs)
                        for j in (k, k + 1))
            u = step_slices(st0, st1, u, grid)()
            assert np.array_equal(u, dens[k + 1])

    def test_constant_b_reproduces_frozen_solver(self):
        # a constant b makes the lagged ratio the exact constant 1/b^2
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        spec = make_spec(grid, b=b_const)
        psi = make_psi(grid)
        dens, _ = solve_lagged(spec, grid, psi)
        fields = assemble_frozen(spec, grid, b_ref=1.0)
        traj, _ = solve_linear(fields, psi, grid)
        assert np.array_equal(dens, traj)
