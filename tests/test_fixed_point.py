from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsvcal import (HorizonExhausted, IterateBounds, MembershipLost,
                    NotConverged, apply_map, assemble_frozen, check_membership,
                    iterate, shrink_horizon, solve_lagged, solve_linear)
from lsvcal import fd
from lsvcal.mixing import mixing_ratio
from lsvcal.model import operator_coefficients

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


class TestApplyMap:
    def test_constant_b_is_constant_map(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        spec = make_spec(grid, b=b_const)
        psi = make_psi(grid)
        v1, _ = apply_map(traj_of(psi, grid), spec, grid)
        v2, _ = apply_map(v1, spec, grid, psi=psi)
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

    def test_one_pass_allocates_little_beyond_its_iterate(self, monkeypatch):
        # one map application, its successive difference and its membership
        # check hold the new iterate plus per-slice and per-slab scratch;
        # each whole-trajectory temporary would add one trajectory here.  A
        # time step's scratch is about 60 slices, so 160 steps keep it
        # below 0.4 of a trajectory
        import tracemalloc
        from lsvcal import fixed_point, holder
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
            v, _ = apply_map(u, spec, grid, psi=psi, frozen=frozen)
            fixed_point._sup_diff(v, u)
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
        assert len(rep.gap_records) == rep.iterations >= 3
        for norm, rec in zip(rep.norms, rep.gap_records):
            assert norm == rec["p_norm"]

    def test_fixed_point_consistency(self):
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        _, rep = iterate(spec, grid, psi)
        assert rep.fixed_point_residual <= 10.0 * (rep.tol + rep.solver_residual)

    def test_fixed_point_residual_uses_the_iterated_map(self):
        # the residual check applies the map the loop iterated, implicit
        # cross term included
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_perturbed(0.05), rho=-0.5)
        psi = make_psi(grid)
        p, rep = iterate(spec, grid, psi, cross_iterations=2)
        b_ref = spec.b_ref(grid)
        fields = assemble_frozen(spec, grid, b_ref=b_ref)
        v, _ = solve_linear(fields, psi, grid, f=build_rhs(p, spec, b_ref, grid),
                            n_steps=p.shape[0] - 1, cross_iterations=2)
        assert rep.fixed_point_residual == float(np.max(np.abs(v - p)))

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
        # the source reads the operator's unit-ratio products: assembly
        # evaluates the coefficients once per slice, the iterations never
        import sys
        from lsvcal import model
        grid = make_grid(n_s=32, n_y=20, n_t=10)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        real, calls = model.operator_coefficients, []

        def spy(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "lsvcal" and getattr(mod, "operator_coefficients", None) is real:
                monkeypatch.setattr(mod, "operator_coefficients", spy)
        frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
        assert calls == list(range(grid.n_t + 1))
        calls.clear()
        _, rep = iterate(spec, grid, psi, frozen=frozen)
        assert rep.converged and rep.iterations >= 3
        assert calls == []

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
            return dens, rep.as_json_dict()
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


class TestTimeLagged:
    def test_matches_fixed_point_for_small_perturbation(self):
        grid = make_grid(n_s=32, n_y=20, n_t=20)
        spec = make_spec(grid, b=b_perturbed(0.05))
        psi = make_psi(grid)
        dens_fp, _ = iterate(spec, grid, psi)
        dens_lag, rep = solve_lagged(spec, grid, psi)
        assert rep["converged"]
        gap = np.max(np.abs(dens_fp - dens_lag))
        assert gap < 1e-3 * psi.max()

    def test_override_reproduces_frozen_solver(self):
        grid = make_grid(n_s=24, n_y=16, n_t=10)
        spec = make_spec(grid, b=b_const)
        psi = make_psi(grid)
        dens, _ = solve_lagged(spec, grid, psi, mixing_override=1.0)
        fields = assemble_frozen(spec, grid, b_ref=1.0)
        traj, _ = solve_linear(fields, psi, grid)
        assert np.array_equal(dens, traj)
