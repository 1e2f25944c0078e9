import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from lsvcal import (BandwidthTooSmall, CorrelationMatrix, HypothesisViolation,
                    ModelSpec, OutOfRange, compatibility_residual,
                    convert_correlation, grid_mass, measured_bsq_slope,
                    smoothed_dirac, validate_model)
from lsvcal.mixing import b_values
from conftest import b_const, flat_sigma, make_grid, make_psi, make_spec


class TestCorrelation:
    def test_uncorrelated(self):
        m = convert_correlation(0.0)
        assert np.array_equal(m.entries, np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert m.min_eig == pytest.approx(0.5)

    def test_negative_half(self):
        # 2x2 eigenvalues are (1 +- rho)/2
        m = convert_correlation(-0.5)
        assert m.off_diag == pytest.approx(-0.25)
        eigs = np.sort(np.linalg.eigvalsh(m.entries))
        assert eigs == pytest.approx([0.25, 0.75])

    def test_near_singular_warns(self):
        with pytest.warns(UserWarning, match="singular"):
            m = convert_correlation(0.999)
        assert m.min_eig == pytest.approx(0.0005, rel=1e-9)

    @pytest.mark.parametrize("rho", [-1.0, 1.0, 1.7])
    def test_out_of_range(self, rho):
        with pytest.raises(OutOfRange):
            convert_correlation(rho)

    def test_half_scaled_convention_rejects_large_offdiag(self):
        # market rho = 0.6 puts the off-diagonal at 0.3 (fine); a raw entry
        # of 0.6 breaks the half-scaled convention
        with pytest.raises(HypothesisViolation):
            CorrelationMatrix(np.array([[0.5, 0.6], [0.6, 0.5]]))

    def test_min_eig_formula_randomized(self):
        rng = np.random.default_rng(7)
        for rho in rng.uniform(-0.99, 0.99, size=25):
            m = convert_correlation(float(rho))
            assert m.min_eig == pytest.approx((1 - abs(rho)) / 2, abs=1e-14)


class TestValidateModel:
    def test_constant_b_passes(self):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        spec = make_spec(grid, b=b_const, alpha2=0.3)
        rep = validate_model(spec, grid)
        assert set(asdict(rep)) == {"b_inf", "b_sup", "bsq_slope", "alpha1_min",
                                    "alpha2_min", "corr_min_eig"}
        assert rep.alpha2_min == 0.3
        assert rep.bsq_slope == 0.0
        assert rep.b_inf == rep.b_sup == 1.0

    def test_exponential_b_constants(self):
        # d(b^2)/dy = 2 e^{2y}, sup on [-1, 1] is 2 e^2
        grid = make_grid(n_s=40, n_y=254, n_t=20)
        spec = make_spec(grid, b=lambda y: np.exp(np.asarray(y, dtype=float)))
        rep = validate_model(spec, grid)
        assert rep.b_inf == pytest.approx(math.exp(-1), rel=1e-12)
        assert rep.b_sup == pytest.approx(math.e, rel=1e-12)
        assert rep.bsq_slope == pytest.approx(2 * math.e ** 2, abs=1e-2)

    def test_bsq_slope_second_order(self):
        errs = []
        for n_y in (62, 126, 254):
            grid = make_grid(n_s=40, n_y=n_y, n_t=20)
            slope = measured_bsq_slope(lambda y: np.exp(np.asarray(y)), grid)
            errs.append(abs(slope - 2 * math.e ** 2))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_nonpositive_b_rejected(self):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        spec = make_spec(grid, b=lambda y: np.asarray(y, dtype=float))  # b(y)<=0 for y<=0
        with pytest.raises(HypothesisViolation, match="b-positivity"):
            validate_model(spec, grid)

    @pytest.mark.parametrize("b", [
        lambda y: np.where(np.asarray(y) > 0.5, np.nan, 1.0),
        lambda y: np.where(np.asarray(y) < -0.5, np.inf, 1.0),
        lambda y: np.full_like(np.asarray(y, dtype=float), np.nan)],
        ids=["nan_on_some_nodes", "inf_on_some_nodes", "nan_everywhere"])
    def test_nonfinite_b_rejected(self, b):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        with pytest.raises(HypothesisViolation, match="b-positivity"):
            validate_model(make_spec(grid, b=b), grid)

    def test_zero_b_at_start_rejected(self):
        # y0 = 0 is not a y-node, so b = |y| is positive on every node, but
        # the center anchor divides by b(y0) = 0
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        b = lambda y: np.abs(np.asarray(y, dtype=float))
        assert 0.0 not in grid.y_nodes and b_values(b, grid).min() > 0
        with pytest.raises(HypothesisViolation, match="b-positivity"):
            validate_model(make_spec(grid, b=b), grid)

    def test_alpha_floor_rejected(self):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        spec = make_spec(grid, alpha2=1e-6)
        with pytest.raises(HypothesisViolation, match="alpha-floor"):
            validate_model(spec, grid)

    @pytest.mark.parametrize("alpha2", [math.nan, math.inf])
    def test_nonfinite_amplitude_rejected(self, alpha2):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        with pytest.raises(HypothesisViolation, match="alpha-floor"):
            validate_model(make_spec(grid, alpha2=alpha2), grid)

    def test_b_whose_square_overflows_rejected(self):
        # a constant alpha1, so that only b's own check can see b = 1e200
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        spec = ModelSpec(b=1e200, alpha1=0.2, alpha2=0.2,
                         corr=convert_correlation(0.0))
        with pytest.raises(HypothesisViolation, match=r"b\^2 overflows"):
            validate_model(spec, grid)

    @pytest.mark.parametrize("b", [1e154, 1e200])
    def test_spot_amplitude_whose_square_overflows_rejected(self, b):
        # the amplitude bound 0.2 * 330 * b is finite, its square is not
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        with pytest.raises(HypothesisViolation, match="model.b too large"):
            make_spec(grid, b=b)

    def test_amplitude_whose_square_overflows_rejected(self):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        with pytest.raises(HypothesisViolation, match="alpha2 too large"):
            validate_model(make_spec(grid, alpha2=1e308), grid)

    @pytest.mark.parametrize("change,name", [
        ({"alpha2": 1e100}, "model.alpha2"), ({"alpha2": 1e150}, "model.alpha2"),
        ({"beta2": 1e308}, "model.beta2"), ({"rate": 1e308}, "model.rate"),
        ({"sigma": np.full((21, 42), 3e150)}, "alpha1")],
        ids=["alpha2-1e100", "alpha2-1e150", "beta2", "rate", "alpha1"])
    def test_coefficient_whose_stencil_weight_overflows_rejected(self, change, name):
        # each value is finite and squares finitely by itself; the operator
        # coefficient it makes, over its stencil spacing, does not
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        with pytest.raises(HypothesisViolation, match=f"{name} too large: its operator coefficient"):
            validate_model(make_spec(grid, **change), grid)

    def test_nan_spot_amplitude_rejected(self):
        # one NaN local-vol node at a sampled time (the last) reaches alpha1
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        sigma = flat_sigma(grid)
        sigma[-1, 7] = np.nan
        with pytest.raises(HypothesisViolation, match="alpha1"):
            validate_model(make_spec(grid, sigma=sigma), grid)

    @pytest.mark.parametrize("floor", [0.0, -1.0, math.nan])
    def test_nonpositive_floor_rejected(self, floor):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        spec = replace(make_spec(grid), alpha_floor=floor)
        with pytest.raises(HypothesisViolation, match="alpha-floor"):
            validate_model(spec, grid)

    def test_start_outside_domain_rejected(self):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        spec = make_spec(grid, spot0=1000.0)
        with pytest.raises(HypothesisViolation, match="domain"):
            validate_model(spec, grid)


class TestAnchorValue:
    def test_center_mode_evaluates_at_start(self):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        spec = make_spec(grid, b=lambda y: np.exp(np.asarray(y, dtype=float)),
                         y0=0.3)
        assert spec.b_ref(grid) == pytest.approx(math.exp(0.3), rel=1e-12)

    def test_mean_mode_matches_weighted_rms(self):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        b = lambda y: 1.0 + 0.2 * np.sin(np.asarray(y, dtype=float))
        spec = make_spec(grid, b=b)
        psi = make_psi(grid)
        got = spec.b_ref(grid, mode="mean", psi=psi)
        from lsvcal.fd import trapezoid_weights
        w2 = np.outer(trapezoid_weights(grid.n_s + 2, grid.ds),
                      trapezoid_weights(grid.n_y + 2, grid.dy))
        bv2 = b(grid.y_nodes) ** 2
        want = math.sqrt(float((w2 * psi * bv2[None, :]).sum())
                         / float((w2 * psi).sum()))
        assert got == pytest.approx(want, rel=1e-12)
        assert b_values(spec.b, grid).min() <= got <= b_values(spec.b, grid).max()


class TestSmoothedDirac:
    @pytest.mark.parametrize("bw_s,bw_y,floor_rel",
                             [(40.0, 0.5, 1e-6), (25.0, 0.3, 1e-4), (60.0, 0.8, 1e-2)])
    def test_unit_mass_and_floor(self, bw_s, bw_y, floor_rel):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        floor = floor_rel / (2 * np.pi * bw_s * bw_y)
        psi = smoothed_dirac(100.0, 0.0, bw_s, bw_y, floor, grid)
        assert grid_mass(psi, grid) == pytest.approx(1.0, abs=1e-10)
        assert psi.min() >= floor

    def test_near_uniform_when_wide(self):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        psi = smoothed_dirac(100.0, 0.0, 5000.0, 50.0, 1e-4, grid)
        assert grid_mass(psi, grid) == pytest.approx(1.0, abs=1e-12)
        assert psi.max() / psi.min() < 1.2

    def test_bump_mass_matches_gaussian_integral(self):
        # trapezoid mass of the raw bump against the closed-form rectangle
        # integral of the 2D Gaussian
        grid = make_grid(n_s=126, n_y=126, n_t=8)
        bw_s, bw_y, s0, y0 = 30.0, 0.25, 100.0, 0.0
        s = grid.s_nodes[:, None]
        y = grid.y_nodes[None, :]
        bump = np.exp(-0.5 * ((s - s0) / bw_s) ** 2 - 0.5 * ((y - y0) / bw_y) ** 2) \
            / (2 * np.pi * bw_s * bw_y)
        exact = ((norm.cdf((grid.s_max - s0) / bw_s) - norm.cdf((grid.s_min - s0) / bw_s))
                 * (norm.cdf((grid.y_max - y0) / bw_y) - norm.cdf((grid.y_min - y0) / bw_y)))
        assert grid_mass(bump, grid) == pytest.approx(exact, rel=1e-3)

    def test_underresolved_bandwidth_rejected(self):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        with pytest.raises(BandwidthTooSmall):
            smoothed_dirac(100.0, 0.0, 1.5 * grid.ds, 0.5, 1e-6, grid)


class TestCompatibilityResidual:
    def test_constant_everything_is_exact_zero(self):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        spec = ModelSpec(b=1.0, alpha1=0.5, alpha2=0.3,
                         corr=convert_correlation(0.2), rate=0.0,
                         spot0=100.0, y0=0.0)
        psi = np.full((grid.n_s + 2, grid.n_y + 2), 0.25)
        assert compatibility_residual(psi, spec, grid) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(a1=st.floats(1e-3, 10.0), a2=st.floats(1e-3, 10.0),
           rho=st.floats(-0.99, 0.99), b=st.floats(0.1, 10.0),
           level=st.floats(1e-6, 1e3))
    def test_any_constants_give_exact_zero(self, a1, a2, rho, b, level):
        grid = make_grid(n_s=12, n_y=10, n_t=4)
        spec = ModelSpec(b=b, alpha1=a1, alpha2=a2, corr=convert_correlation(rho))
        psi = np.full((grid.n_s + 2, grid.n_y + 2), level)
        assert compatibility_residual(psi, spec, grid) == 0.0

    def test_generic_gaussian_positive(self):
        grid = make_grid(n_s=40, n_y=24, n_t=20)
        spec = make_spec(grid)
        psi = make_psi(grid, bw_s=25.0, bw_y=0.25)
        assert compatibility_residual(psi, spec, grid) > 0.0

    def test_stationary_profile_refines_to_zero(self):
        # -d2/dS2(A psi) + d/dS(psi) = 0 with A = 1/2 has psi = exp(2S);
        # the discrete residual is pure truncation and drops at order 2
        res = []
        for n_s in (40, 80, 160):
            grid = make_grid(n_s=n_s, n_y=24, n_t=8, s_span=(1.0, 3.0),
                             y_span=(-1.0, 1.0))
            spec = ModelSpec(b=1.0, alpha1=1.0, alpha2=1.0,
                             corr=convert_correlation(0.0),
                             beta1=lambda t, s, y: 1.0 + 0.0 * s + 0.0 * y,
                             rate=0.0, spot0=2.0, y0=0.0)
            psi = np.broadcast_to(np.exp(2.0 * grid.s_nodes)[:, None],
                                  (grid.n_s + 2, grid.n_y + 2)).copy()
            res.append(compatibility_residual(psi, spec, grid))
        assert res[0] / res[1] > 3.0
        assert res[1] / res[2] > 3.0
