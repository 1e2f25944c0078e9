import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import CubicSpline
from scipy.special import ndtr
from scipy.stats import norm

from lsvcal import (ArbitrageWarning, CalendarArbitrage, DegenerateSurface,
                    DuplicateQuote, InsufficientData, OptionQuote, ParseError,
                    StabilityFailure, build_implied_surface, dupire_forward_solve,
                    dupire_local_vol, fv_mass, load_quotes, reprice_calls)
from lsvcal.market import _bs_call, _ndtr, _Spline, implied_vol_from_price

from conftest import make_grid, run_fresh, write_flat_quotes


def grid_1d(n_s=400, n_t=800, s_span=(20.0, 450.0), horizon=1.0):
    return make_grid(n_s=n_s, n_y=8, n_t=n_t, s_span=s_span, horizon=horizon)


def lognormal(s, mu, vol):
    return np.exp(-0.5 * ((np.log(s) - mu) / vol) ** 2) / (s * vol * math.sqrt(2 * math.pi))


def bs_call(spot, strike, t, vol, rate=0.0):
    sq = vol * math.sqrt(t)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * t) / sq
    return spot * norm.cdf(d1) - strike * math.exp(-rate * t) * norm.cdf(d1 - sq)


class TestLoadQuotes:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("maturity,strike,implied_vol\n0.5,90,0.21\n0.5,100,0.2\n1.0,100,0.19\n")
        quotes = load_quotes(path)
        assert len(quotes) == 3
        assert quotes[0] == OptionQuote(0.5, 90.0, implied_vol=0.21)

    def test_negative_strike_reports_line(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("maturity,strike,implied_vol\n0.5,90,0.2\n0.5,-100,0.2\n")
        with pytest.raises(ParseError) as err:
            load_quotes(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("column, row", [
        ("implied_vol", "0.5,100,nan"), ("implied_vol", "0.5,90,inf"),
        ("implied_vol", "nan,80,0.2"), ("implied_vol", "0.5,inf,0.2"),
        ("price", "0.5,100,nan")])
    def test_nonfinite_value_reports_line(self, tmp_path, column, row):
        path = tmp_path / "q.csv"
        path.write_text(f"maturity,strike,{column}\n0.5,110,0.2\n{row}\n")
        with pytest.raises(ParseError, match="not finite") as err:
            load_quotes(path)
        assert err.value.line == 3

    def test_duplicates_rejected(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("maturity,strike,implied_vol\n0.5,100,0.2\n0.5,100,0.21\n")
        with pytest.raises(DuplicateQuote):
            load_quotes(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("T,K,vol\n0.5,100,0.2\n")
        with pytest.raises(ParseError) as err:
            load_quotes(path)
        assert err.value.line == 1

    def test_calendar_warning(self, tmp_path):
        path = tmp_path / "q.csv"
        # w(0.5) = 0.02, w(1.0) = 0.01: total variance drops
        path.write_text("maturity,strike,implied_vol\n0.5,100,0.2\n1.0,100,0.1\n")
        with pytest.warns(ArbitrageWarning):
            load_quotes(path)

    def test_price_quotes_and_inversion(self, tmp_path):
        px = bs_call(100.0, 100.0, 0.5, 0.25)
        path = tmp_path / "q.csv"
        path.write_text(f"maturity,strike,price\n0.5,100,{px}\n")
        quotes = load_quotes(path)
        assert quotes[0].price == pytest.approx(px)
        vol = implied_vol_from_price(px, 100.0, 100.0, 0.5, 0.0)
        assert vol == pytest.approx(0.25, abs=1e-9)


class TestImpliedSurface:
    def test_flat_quotes_give_flat_surface(self, tmp_path):
        quotes = load_quotes(write_flat_quotes(tmp_path / "q.csv", vol=0.2))
        surf = build_implied_surface(quotes, spot=100.0)
        for t in (0.1, 0.33, 0.77, 1.5):
            v = surf.vol(t, np.array([70.0, 100.0, 140.0]))
            assert v == pytest.approx(0.2, abs=1e-12)

    def test_term_structure_family_matches_at_midpoints(self):
        # sigma(T) = sqrt(0.04 + 0.01 T) sampled at five maturities is a
        # quadratic total variance, reproduced exactly between nodes
        quotes = [OptionQuote(t, k, implied_vol=math.sqrt(0.04 + 0.01 * t))
                  for t in (0.25, 0.5, 1.0, 1.5, 2.0)
                  for k in (60, 80, 100, 120, 160)]
        surf = build_implied_surface(quotes, spot=100.0)
        for t in (0.375, 0.75, 1.25, 1.75):
            assert float(surf.vol(t, 100.0)) == pytest.approx(
                math.sqrt(0.04 + 0.01 * t), abs=1e-4)

    def test_exact_at_nodes(self):
        mats = (0.25, 0.5, 1.0, 2.0)
        strikes = (70.0, 90.0, 100.0, 115.0, 140.0)
        vols = {(t, k): 0.2 + 0.03 * t + 0.01 * math.sin(k / 20.0)
                for t in mats for k in strikes}
        quotes = [OptionQuote(t, k, implied_vol=vols[(t, k)]) for t in mats for k in strikes]
        surf = build_implied_surface(quotes, spot=100.0)
        for (t, k), v in vols.items():
            assert float(surf.vol(t, k)) == pytest.approx(v, abs=1e-12)

    def test_single_maturity_insufficient(self):
        quotes = [OptionQuote(1.0, k, implied_vol=0.2) for k in (80, 90, 100, 110)]
        with pytest.raises(InsufficientData):
            build_implied_surface(quotes, spot=100.0)

    def test_too_few_strikes_insufficient(self):
        quotes = [OptionQuote(t, k, implied_vol=0.2)
                  for t in (0.25, 0.5, 1.0, 2.0) for k in (90, 100, 110)]
        with pytest.raises(InsufficientData):
            build_implied_surface(quotes, spot=100.0)

    def test_horizon_coverage(self):
        quotes = [OptionQuote(t, k, implied_vol=0.2)
                  for t in (0.1, 0.2, 0.3, 0.4) for k in (80, 90, 100, 110)]
        with pytest.raises(InsufficientData):
            build_implied_surface(quotes, spot=100.0, t_max=1.0)

    @pytest.mark.parametrize("extra", [
        (0.5, 100.0, 0.21),           # strike twice: the surface rejects it
        (0.5, 105.0, float("nan")),   # non-finite: the quote itself rejects it
        (0.5, 105.0, float("inf"))])
    def test_repeated_strike_or_nonfinite_vol_rejected(self, extra):
        quotes = [OptionQuote(t, k, implied_vol=0.2)
                  for t in (0.25, 0.5, 1.0, 2.0) for k in (80, 90, 100, 110)]
        t, k, vol = extra
        with pytest.raises(ValueError):
            build_implied_surface(quotes + [OptionQuote(t, k, implied_vol=vol)],
                                  spot=100.0)

    @pytest.mark.parametrize("spot", [0.0, -5.0])
    def test_nonpositive_spot_rejected_before_the_log(self, spot, recwarn):
        quotes = [OptionQuote(t, k, implied_vol=0.2)
                  for t in (0.25, 0.5, 1.0, 2.0) for k in (80, 90, 100, 110)]
        with pytest.raises(ValueError, match=f"^spot {spot} must be positive$"):
            build_implied_surface(quotes, spot=spot)
        assert not recwarn.list

    def test_calendar_arbitrage_detected(self):
        quotes = [OptionQuote(t, k, implied_vol=v)
                  for t, v in ((0.25, 0.30), (0.5, 0.22), (1.0, 0.16), (2.0, 0.11))
                  for k in (80, 90, 100, 110)]
        with pytest.raises(CalendarArbitrage):
            build_implied_surface(quotes, spot=100.0)


@st.composite
def spline_cases(draw):
    """Knots, values along axis 0 (1-D or 2-D) and evaluation points: inside,
    on the knots and beyond both ends."""
    n = draw(st.integers(4, 11))
    steps = draw(arrays(np.float64, n - 1, elements=st.floats(1e-3, 10.0)))
    x = draw(st.floats(-10.0, 10.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    shape = (n,) + draw(st.sampled_from([(), (1,), (3,)]))
    y = draw(arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)))
    inside = draw(arrays(np.float64, 5, elements=st.floats(x[0], x[-1])))
    beyond = draw(arrays(np.float64, 4, elements=st.floats(0.0, 20.0)))
    t = np.concatenate([inside, x, x[0] - beyond[:2], x[-1] + beyond[2:]])
    t = np.array(draw(st.permutations(list(t))))
    return x, y, t.reshape(draw(st.sampled_from([(-1,), (1, -1)])))


class TestSpline:
    @settings(max_examples=300, deadline=None)
    @given(spline_cases(), st.booleans())
    def test_equals_scipy_cubic_spline_bit_for_bit(self, case, scalar):
        x, y, t = case
        if scalar:
            t = t.flat[0]
        ref = CubicSpline(x, y, axis=0)(t)
        got = np.asarray(_Spline(x, y)(t))
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def ndtr_err_bound(a):
    """How far `_ndtr(a)` may lie from `scipy.special.ndtr(a)`: 1e-14
    relative, or x^2 eps with x = a / sqrt(2) where that is larger, and
    never less than the smallest normal number.  The oracle's erfc takes
    exp(-x^2) of a rounded x^2, so its own relative error grows like
    x^2 eps in the lower tail (up to 2.4e-13 against a 50-digit reference
    on [-38, -5]), and it returns 0 where the true value is subnormal
    (-38.5 < a < -37.6)."""
    a2 = min(a * a, 1600.0)             # both sides are exactly 0 or 1 beyond
    return max(max(1e-14, 0.5 * a2 * np.finfo(float).eps) * float(ndtr(a)),
               np.finfo(float).tiny)


class TestNormalCdf:
    def test_dense_grid_matches_ndtr(self):
        for a in np.linspace(-40.0, 40.0, 400_001).tolist():
            assert abs(_ndtr(a) - float(ndtr(a))) <= ndtr_err_bound(a), a

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False))
    def test_matches_ndtr(self, a):
        assert abs(_ndtr(a) - float(ndtr(a))) <= ndtr_err_bound(a)

    def test_exact_values(self):
        assert _ndtr(0.0) == _ndtr(-0.0) == 0.5
        assert _ndtr(math.inf) == 1.0
        assert _ndtr(-math.inf) == 0.0
        assert math.isnan(_ndtr(math.nan))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1.0, 1000.0), st.floats(1.0, 1000.0), st.floats(1e-3, 10.0),
           st.floats(-0.05, 0.2), st.floats(1e-6, 5.0))
    def test_call_price_matches_the_ndtr_formula(self, spot, strike, t, rate, vol):
        sq = vol * math.sqrt(t)
        d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * t) / sq
        d2 = d1 - sq
        disc = strike * math.exp(-rate * t)
        ref = spot * float(ndtr(d1)) - disc * float(ndtr(d2))
        bound = spot * ndtr_err_bound(d1) + disc * ndtr_err_bound(d2)
        assert abs(_bs_call(spot, strike, t, rate, vol) - ref) <= bound


def test_cli_import_loads_no_heavy_scipy_subpackage():
    mods = run_fresh("import lsvcal, lsvcal.cli; print(*sys.modules)").split()
    heavy = {f"scipy.{p}" for p in
             ("interpolate", "linalg", "optimize", "sparse", "spatial", "fft",
              "special", "stats")}
    assert "lsvcal.cli" in mods
    # the one SciPy module a run needs: the LAPACK extension, loaded by itself
    assert "scipy.linalg._flapack" in mods
    assert [m for m in mods if ".".join(m.split(".")[:2]) in heavy
            and m != "scipy.linalg._flapack"] == []
    # what the scipy.linalg package would pull in
    for name in ("scipy._lib._array_api", "numpy.f2py", "numpy.testing"):
        assert [m for m in mods if m == name or m.startswith(name + ".")] == []


def dupire_per_node(surface, rate, grid, floor=1e-2, cap=3.0):
    """The former extraction, one time node at a time (test oracle).

    Returns the clamped local vol and the count of degenerate nodes.
    """
    eps_t = eps_x = 1e-3
    x = np.log(grid.s_nodes / surface.spot)
    out = np.empty((grid.n_t + 1, grid.n_s + 2))
    n_bad = 0
    for k, t in enumerate(grid.t_nodes):
        te = max(float(t), eps_t)
        w0 = surface.w(te, x)
        w_tp = surface.w(te + eps_t, x)
        w_tm = surface.w(te - eps_t, x)
        w_xp = surface.w(te, x + eps_x)
        w_xm = surface.w(te, x - eps_x)
        dwdt = (w_tp - w_tm) / (2.0 * eps_t)
        dwdx = (w_xp - w_xm) / (2.0 * eps_x)
        d2wdx2 = (w_xp - 2.0 * w0 + w_xm) / (eps_x * eps_x)
        w_safe = np.maximum(w0, 1e-12)
        x_fwd = x - rate * te
        denom = (1.0 - (x_fwd / w_safe) * dwdx
                 + 0.25 * (-0.25 - 1.0 / w_safe + (x_fwd / w_safe) ** 2) * dwdx ** 2
                 + 0.5 * d2wdx2)
        numer = dwdt + rate * dwdx
        n_bad += int(np.sum(denom < 1e-6))
        var = np.where(denom > 1e-6, numer / np.where(denom > 1e-6, denom, 1.0),
                       cap * cap)
        out[k] = np.sqrt(np.clip(var, floor * floor, cap * cap))
    return out, n_bad


class FunctionSurface:
    """A stand-in for ``ImpliedSurface`` with an explicit w(T, x) of a scalar
    T: the ``spot`` and ``w`` that the Dupire extraction reads; an array of
    T evaluates ``w_fn`` once per maturity."""

    def __init__(self, spot: float, w_fn):
        self.spot, self.w_fn = spot, w_fn

    def w(self, t, x):
        x = np.asarray(x, dtype=float)
        if np.ndim(t) == 0:
            return np.asarray(self.w_fn(t, x))
        return np.array([np.broadcast_to(self.w_fn(ti, x), x.shape) for ti in t])


# the two explicit surfaces of the guard and clamp tests below
def degenerate_w(t, x):
    return 0.04 * t * (1.0 + 40.0 * x)


def tanh_w(t, x):
    return 0.04 * t * (1.0 + 0.8 * np.tanh(4 * x))


class TestDupireLocalVol:
    def test_flat_surface_flat_local_vol(self, tmp_path):
        quotes = load_quotes(write_flat_quotes(tmp_path / "q.csv", vol=0.2))
        surf = build_implied_surface(quotes, spot=100.0)
        for n_s in (60, 120):
            grid = make_grid(n_s=n_s, n_y=24, n_t=20)
            lv = dupire_local_vol(surf, 0.0, grid)
            assert np.max(np.abs(lv - 0.2)) < 1e-6

    def test_term_structure_time_derivative(self):
        # sigma_imp^2 T = (0.04 + 0.01 T) T gives sigma_D^2 = 0.04 + 0.02 T
        quotes = [OptionQuote(t, k, implied_vol=math.sqrt(0.04 + 0.01 * t))
                  for t in (0.25, 0.5, 1.0, 1.5, 2.0)
                  for k in (60, 80, 100, 120, 160)]
        surf = build_implied_surface(quotes, spot=100.0)
        grid = make_grid(n_s=60, n_y=24, n_t=40)
        lv = dupire_local_vol(surf, 0.0, grid)
        exact = np.sqrt(0.04 + 0.02 * grid.t_nodes)
        assert np.max(np.abs(lv - exact[:, None])) < 1e-4

    def test_degenerate_surface_guard(self):
        # a skew slope engineered to sink the denominator everywhere
        surf = FunctionSurface(100.0, lambda t, x: 0.04 * t * (1.0 + 40.0 * x))
        grid = make_grid(n_s=60, n_y=24, n_t=20)
        with pytest.raises(DegenerateSurface):
            dupire_local_vol(surf, 0.0, grid)

    def test_clamped_into_band(self):
        surf = FunctionSurface(100.0, lambda t, x: 0.04 * t * (1.0 + 0.8 * np.tanh(4 * x)))
        grid = make_grid(n_s=60, n_y=24, n_t=20)
        lv = dupire_local_vol(surf, 0.0, grid, floor=0.05, cap=0.5)
        assert lv.min() >= 0.05 - 1e-12
        assert lv.max() <= 0.5 + 1e-12

    @pytest.mark.parametrize("s_min", [0.0, -1.0])
    def test_nonpositive_s_min_rejected_before_the_log(self, tmp_path, s_min,
                                                         recwarn):
        surf = build_implied_surface(
            load_quotes(write_flat_quotes(tmp_path / "q.csv")), spot=100.0)
        grid = make_grid(n_s=48, n_y=24, n_t=20, s_span=(s_min, 330.0))
        with pytest.raises(ValueError,
                           match=f"^grid.s_min = {s_min} must be positive$"):
            dupire_local_vol(surf, 0.0, grid)
        assert not recwarn.list

    def test_vectorized_equals_per_node(self):
        grid = make_grid(n_s=60, n_y=24, n_t=40)
        quotes = [OptionQuote(t, k, implied_vol=math.sqrt(0.04 + 0.01 * t)
                              - 0.05 * math.log(k / 100.0))
                  for t in (0.25, 0.5, 1.0, 1.5, 2.0)
                  for k in (60, 80, 100, 120, 160)]
        quoted = build_implied_surface(quotes, spot=100.0)
        for surf, rate, band in ((quoted, 0.03, {}),
                                 (FunctionSurface(100.0, tanh_w),
                                  0.0, {"floor": 0.05, "cap": 0.5})):
            ref, n_bad = dupire_per_node(surf, rate, grid, **band)
            assert n_bad <= 0.05 * ref.size
            assert np.array_equal(dupire_local_vol(surf, rate, grid, **band), ref)
        degenerate = FunctionSurface(100.0, degenerate_w)
        ref, n_bad = dupire_per_node(degenerate, 0.0, grid)
        with pytest.raises(DegenerateSurface) as err:
            dupire_local_vol(degenerate, 0.0, grid)
        assert str(err.value) == f"Dupire denominator < 1e-6 on {n_bad}/{ref.size} nodes"


class TestForwardSolve:
    def test_lognormal_benchmark(self):
        grid = grid_1d()
        s = grid.s_nodes
        q0 = lognormal(s, math.log(100.0), 0.05)
        q0 /= fv_mass(q0, grid)
        traj = dupire_forward_solve(np.full((grid.n_t + 1, grid.n_s + 2), 0.2),
                                    0.0, grid, q0)
        veff = math.sqrt(0.05 ** 2 + 0.04)
        qex = lognormal(s, math.log(100.0) - 0.02, veff)
        assert np.sum(np.abs(traj[-1] - qex)) * grid.ds < 1e-3

    def test_zero_vol_is_identity(self):
        grid = grid_1d(n_s=100, n_t=50)
        q0 = lognormal(grid.s_nodes, math.log(100.0), 0.1)
        traj = dupire_forward_solve(np.zeros((grid.n_t + 1, grid.n_s + 2)),
                                    0.0, grid, q0)
        np.testing.assert_allclose(traj[-1], q0, rtol=0, atol=1e-14)

    def test_mass_conserved_and_nonnegative(self):
        grid = grid_1d(n_s=200, n_t=100)
        q0 = lognormal(grid.s_nodes, math.log(100.0), 0.08)
        q0 /= fv_mass(q0, grid)
        traj = dupire_forward_solve(np.full((grid.n_t + 1, grid.n_s + 2), 0.3),
                                    0.0, grid, q0)
        masses = [fv_mass(traj[k], grid) for k in range(0, grid.n_t + 1, 10)]
        assert max(abs(m - 1.0) for m in masses) < 1e-4
        assert traj.min() >= -1e-12

    def test_convergence_orders(self):
        # spatial order >= 2 (time fixed fine), temporal order >= 1
        def l1_error(n_s, n_t):
            grid = grid_1d(n_s=n_s, n_t=n_t)
            s = grid.s_nodes
            q0 = lognormal(s, math.log(100.0), 0.05)
            q0 /= fv_mass(q0, grid)
            traj = dupire_forward_solve(
                np.full((grid.n_t + 1, grid.n_s + 2), 0.2), 0.0, grid, q0)
            qex = lognormal(s, math.log(100.0) - 0.02, math.sqrt(0.0025 + 0.04))
            return np.sum(np.abs(traj[-1] - qex)) * grid.ds

        errs_s = [l1_error(n, 3200) for n in (50, 100, 200)]
        rate_s = np.polyfit(np.log([50, 100, 200]), np.log(errs_s), 1)[0]
        assert -rate_s >= 1.7

        # temporal rate against a reference solve at tiny dt
        def traj_at(n_t):
            grid = grid_1d(n_s=100, n_t=n_t)
            s = grid.s_nodes
            q0 = lognormal(s, math.log(100.0), 0.05)
            q0 /= fv_mass(q0, grid)
            return dupire_forward_solve(
                np.full((grid.n_t + 1, grid.n_s + 2), 0.2), 0.0, grid, q0)[-1]

        ref = traj_at(3200)
        errs_t = [np.sum(np.abs(traj_at(n) - ref)) for n in (25, 50, 100)]
        rate_t = np.polyfit(np.log([1 / 25, 1 / 50, 1 / 100]), np.log(errs_t), 1)[0]
        assert rate_t >= 0.9

    def test_nan_coefficients_fail_loudly(self):
        grid = grid_1d(n_s=60, n_t=20)
        sig = np.full((grid.n_t + 1, grid.n_s + 2), 0.2)
        sig[3, 10] = math.nan
        q0 = lognormal(grid.s_nodes, math.log(100.0), 0.1)
        with pytest.raises(StabilityFailure):
            dupire_forward_solve(sig, 0.0, grid, q0)


class TestReprice:
    def test_near_point_mass(self):
        grid = grid_1d(n_s=1000, n_t=8)
        s = grid.s_nodes
        q = np.exp(-0.5 * ((s - 100.0) / 2.0) ** 2)
        q /= fv_mass(q, grid)
        c = reprice_calls(q, [90.0], grid)
        assert c[0, 0] == pytest.approx(10.0, abs=1e-2)

    def test_lognormal_matches_black_scholes(self):
        # forward-solved flat-vol density prices calls at the effective
        # forward/variance of the widened start
        grid = grid_1d()
        s = grid.s_nodes
        s0v = 0.05
        q0 = lognormal(s, math.log(100.0), s0v)
        q0 /= fv_mass(q0, grid)
        traj = dupire_forward_solve(np.full((grid.n_t + 1, grid.n_s + 2), 0.2),
                                    0.0, grid, q0)
        veff = math.sqrt(s0v ** 2 + 0.04)
        fwd = 100.0 * math.exp(0.5 * s0v ** 2)
        strikes = np.array([80.0, 90.0, 100.0, 110.0, 120.0])
        prices = reprice_calls(traj[-1], strikes, grid)[0]
        for k, px in zip(strikes, prices):
            ref = bs_call(fwd, k, 1.0, veff / math.sqrt(1.0))
            assert px == pytest.approx(ref, rel=1e-3)

    def test_strike_beyond_domain_prices_zero(self):
        grid = grid_1d(n_s=100, n_t=8)
        q = lognormal(grid.s_nodes, math.log(100.0), 0.1)
        c = reprice_calls(q, [grid.s_max + 1.0], grid)
        assert c[0, 0] == 0.0

    def test_monotone_and_convex_in_strike(self):
        grid = grid_1d(n_s=300, n_t=8)
        rng = np.random.default_rng(6)
        for _ in range(5):
            vol = rng.uniform(0.05, 0.3)
            q = lognormal(grid.s_nodes, math.log(rng.uniform(80, 120)), vol)
            q /= fv_mass(q, grid)
            strikes = np.linspace(60.0, 150.0, 19)
            c = reprice_calls(q, strikes, grid)[0]
            assert np.all(np.diff(c) <= 1e-12)
            assert np.all(np.diff(c, 2) >= -1e-8 * 100.0)
