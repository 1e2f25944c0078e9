import math

import numpy as np
import pytest

from lsvcal import (DegenerateDenominator, holder_norm, leverage, marginal,
                    mixing_ratio, ratio_gap_monitor)

from conftest import make_grid, make_psi


def uniform_density(grid, c=1.0):
    return np.full((grid.n_s + 2, grid.n_y + 2), c)


class TestMarginal:
    def test_uniform(self):
        grid = make_grid(n_s=20, n_y=30, n_t=8)
        q = marginal(uniform_density(grid, 0.7), grid)
        assert q == pytest.approx(0.7 * (grid.y_max - grid.y_min), rel=1e-14)

    def test_separable_against_fine_quadrature(self):
        # p(S, y) = f(S) g(y): the marginal is f(S) * integral(g), the
        # reference integral evaluated on a 100x finer ladder
        grid = make_grid(n_s=20, n_y=256, n_t=8)
        f = 1.0 + 0.5 * np.sin(grid.s_nodes / 50.0)
        g = np.exp(0.3 * np.sin(grid.y_nodes))
        yy = np.linspace(grid.y_min, grid.y_max, 25601)
        ref = np.trapezoid(np.exp(0.3 * np.sin(yy)), yy)
        q = marginal(f[:, None] * g[None, :], grid)
        assert np.max(np.abs(q / (f * ref) - 1.0)) < 1e-6

    def test_zero(self):
        grid = make_grid(n_s=20, n_y=30, n_t=8)
        assert np.all(marginal(np.zeros((grid.n_s + 2, grid.n_y + 2)), grid) == 0.0)


class TestMixingRatio:
    def test_constant_b_is_exact(self):
        grid = make_grid(n_s=20, n_y=30, n_t=8)
        psi = make_psi(grid, bw_s=25.0, bw_y=0.25)
        mix = mixing_ratio(psi, lambda y: np.full_like(np.asarray(y, float), 0.7), grid)
        assert np.all(mix.ratio == 1.0 / (0.7 * 0.7))
        assert np.all(mix.sqrt_ratio == 1.0 / 0.7)

    def test_uniform_p_linear_bsq(self):
        # p uniform on y in [1, 2], b^2 = y:  ratio = 1 / 1.5
        grid = make_grid(n_s=20, n_y=256, n_t=8, y_span=(1.0, 2.0))
        mix = mixing_ratio(uniform_density(grid), lambda y: np.sqrt(y), grid)
        assert np.max(np.abs(mix.ratio - 2.0 / 3.0)) < 1e-6

    # five more closed-form pairs on y in [0, 1] (gentle curvature so the
    # trapezoid error stays below 1e-6 at 256 interior nodes)
    CASES = [
        # (p(y), b^2(y), exact numerator, exact denominator)
        (lambda y: np.ones_like(y), lambda y: 1.0 + 0.1 * y, 1.0, 1.05),
        (lambda y: 1.0 + y, lambda y: 1.0 + 0.1 * y, 1.5, 1.0 + 0.55 + 0.1 / 3),
        (lambda y: np.ones_like(y), lambda y: np.exp(0.1 * y),
         1.0, 10.0 * (math.exp(0.1) - 1.0)),
        (lambda y: 2.0 - y, lambda y: 1.0 + 0.2 * y ** 2,
         1.5, 2.0 - 0.5 + 0.2 * (2.0 / 3.0 - 1.0 / 4.0)),
        (lambda y: 1.0 + 0.3 * np.sin(y), lambda y: 1.0 + 0.1 * y,
         1.0 + 0.3 * (1.0 - math.cos(1.0)),
         1.05 + 0.3 * (1.0 - math.cos(1.0)) + 0.03 * (math.sin(1.0) - math.cos(1.0))),
    ]

    @pytest.mark.parametrize("p_fn,bsq_fn,num,den", CASES)
    def test_closed_form_pairs(self, p_fn, bsq_fn, num, den):
        grid = make_grid(n_s=20, n_y=256, n_t=8, y_span=(0.0, 1.0))
        y = grid.y_nodes
        p = np.broadcast_to(p_fn(y)[None, :], (grid.n_s + 2, grid.n_y + 2)).copy()
        b = lambda yy: np.sqrt(bsq_fn(np.asarray(yy, dtype=float)))
        mix = mixing_ratio(p, b, grid)
        assert np.max(np.abs(mix.ratio - num / den)) < 1e-6
        bv = b(y)
        lo, hi = 1.0 / bv.max() ** 2, 1.0 / bv.min() ** 2
        assert np.all(mix.ratio >= lo - 1e-12)
        assert np.all(mix.ratio <= hi + 1e-12)

    def test_mass_at_upper_b_saturates_lower_bound(self):
        # all mass where b is largest drives the ratio to 1/b_max^2
        grid = make_grid(n_s=12, n_y=64, n_t=8, y_span=(0.0, 1.0))
        p = np.zeros((grid.n_s + 2, grid.n_y + 2))
        p[:, -3:] = 1.0        # mass near y = 1 where b^2 = 1 + y is largest
        b = lambda y: np.sqrt(1.0 + np.asarray(y, dtype=float))
        mix = mixing_ratio(p, b, grid)
        assert np.all(mix.ratio >= 1.0 / 2.0 - 1e-12)
        assert np.max(np.abs(mix.ratio - 0.5)) < 2e-2

    def test_degenerate_denominator(self):
        grid = make_grid(n_s=12, n_y=24, n_t=8)
        p = np.full((grid.n_s + 2, grid.n_y + 2), 1e-30)
        with pytest.raises(DegenerateDenominator) as err:
            mixing_ratio(p, lambda y: np.ones_like(y), grid)
        assert err.value.s_index >= 0

    def test_numerator_ratio_recovers_denominator(self):
        # marginal / ratio reproduces the weighted marginal computed from
        # the same quadrature values
        grid = make_grid(n_s=16, n_y=48, n_t=8)
        rng = np.random.default_rng(14)
        p = rng.uniform(0.05, 1.0, (grid.n_s + 2, grid.n_y + 2))
        b = lambda y: 1.0 + 0.3 * np.sin(np.asarray(y, dtype=float))
        mix = mixing_ratio(p, b, grid)
        num = marginal(p, grid)
        from lsvcal.fd import trapezoid_weights
        w = trapezoid_weights(grid.n_y + 2, grid.dy)
        den = p @ (w * b(grid.y_nodes) ** 2)
        np.testing.assert_allclose(num / mix.ratio, den, rtol=1e-13)

    def test_bounds_randomized(self):
        grid = make_grid(n_s=16, n_y=48, n_t=8)
        rng = np.random.default_rng(21)
        b = lambda y: 1.0 + 0.4 * np.sin(2.0 * np.asarray(y, dtype=float))
        bv = b(grid.y_nodes)
        for _ in range(10):
            p = rng.uniform(0.01, 1.0, (grid.n_s + 2, grid.n_y + 2))
            mix = mixing_ratio(p, b, grid)
            assert np.all(mix.ratio >= 1.0 / bv.max() ** 2 - 1e-12)
            assert np.all(mix.ratio <= 1.0 / bv.min() ** 2 + 1e-12)


class TestLeverage:
    def test_unit_b_gives_local_vol(self):
        grid = make_grid(n_s=16, n_y=24, n_t=8)
        psi = make_psi(grid, bw_s=25.0, bw_y=0.25)
        mix = mixing_ratio(psi, lambda y: np.ones_like(y), grid)
        sigma = np.full(grid.n_s + 2, 0.2)
        assert np.array_equal(leverage(sigma, mix), sigma)

    def test_arithmetic(self):
        grid = make_grid(n_s=16, n_y=24, n_t=8)
        from lsvcal.mixing import MixingField
        mix = MixingField(np.full(5, 4.0), np.full(5, 2.0), 1.0)
        a = leverage(np.full(5, 0.2), mix)
        assert a == pytest.approx(0.4)

    def test_consistency_identity(self):
        # a^2 * (int b^2 p / int p) recovers sigma_D^2 pointwise
        grid = make_grid(n_s=16, n_y=48, n_t=8)
        rng = np.random.default_rng(3)
        p = rng.uniform(0.01, 1.0, (grid.n_s + 2, grid.n_y + 2))
        b = lambda y: 1.0 + 0.3 * np.cos(np.asarray(y, dtype=float))
        mix = mixing_ratio(p, b, grid)
        sigma = rng.uniform(0.1, 0.4, grid.n_s + 2)
        a = leverage(sigma, mix)
        recovered = a * a / mix.ratio
        assert np.max(np.abs(recovered - sigma ** 2)) < 1e-12


class TestGapMonitor:
    def test_constant_b_gives_exact_zero(self):
        grid = make_grid(n_s=16, n_y=24, n_t=8)
        psi = make_psi(grid, bw_s=25.0, bw_y=0.25)
        p = np.broadcast_to(psi, (grid.n_t + 1,) + psi.shape).copy()
        rec = ratio_gap_monitor(p, lambda y: np.full_like(np.asarray(y, float), 0.8),
                                b_ref=0.8, grid=grid, bsq_slope=0.0,
                                p_norm=holder_norm(p, grid).value)
        assert rec.lhs == 0.0
        assert rec.scaled is None

    def test_lhs_scales_linearly_in_perturbation(self):
        # b^2 = 1 + s sin(y): the gap norm scales like s within 20 percent.
        # The density must be asymmetric in y, otherwise the odd perturbation
        # integrates to zero at first order.
        grid = make_grid(n_s=16, n_y=48, n_t=8)
        psi = make_psi(grid, bw_s=25.0, bw_y=0.25)
        s_mod = np.cos(grid.s_nodes[:, None] / 40.0)
        y_mod = np.tanh(grid.y_nodes[None, :])
        p2 = psi * (1.0 + 0.3 * y_mod * s_mod)
        p = np.broadcast_to(p2, (grid.n_t + 1,) + p2.shape).copy()
        p_norm = holder_norm(p, grid).value
        lhs = {}
        for s in (1e-3, 1e-2):
            b = lambda y, s=s: np.sqrt(1.0 + s * np.sin(np.asarray(y, dtype=float)))
            rec = ratio_gap_monitor(p, b, b_ref=1.0, grid=grid, bsq_slope=s,
                                    p_norm=p_norm)
            lhs[s] = rec.lhs
        ratio = (lhs[1e-2] / 1e-2) / (lhs[1e-3] / 1e-3)
        assert abs(ratio - 1.0) < 0.2
