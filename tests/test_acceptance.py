"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a PASS line with the measured values; `pytest -v` therefore shows
one pass/fail line per criterion.  The heavyweight calibration runs are
shared through module-scoped fixtures.
"""
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.stats import norm

from lsvcal import (GridSpec, IterateBounds, MembershipLost, NotConverged,
                    OptionQuote, assemble_frozen, build_implied_surface,
                    dupire_local_vol, iterate, mixing_ratio, ratio_gap_monitor,
                    shrink_horizon, supnorm_time_bound, verify_calibration)
from lsvcal.linpde import solve_linear
from lsvcal.pipeline import RunConfig, run_pipeline

from conftest import make_psi, make_spec, verification_arrays, write_flat_quotes
from test_linpde import mms_error, mms_fields

BIG = dict(ns=200, ny=100, nt=200)


def bs_call_vec(spot, strike, t, vol, rate=0.0):
    spot = np.asarray(spot, dtype=float)
    sq = vol * math.sqrt(t)
    d1 = (np.log(spot / strike) + (rate + 0.5 * vol * vol) * t) / sq
    return spot * norm.cdf(d1) - strike * math.exp(-rate * t) * norm.cdf(d1 - sq)


def smeared_bs_call(q0, grid, strikes, t, vol, rate=0.0):
    """Closed-form kernel price for the regularized start: the Black-Scholes
    value seeded at s, integrated against the initial marginal on a refined
    ladder.  Independent of the forward solvers."""
    s = grid.s_nodes
    fine = np.linspace(s[0], s[-1], 8 * len(s))
    q = np.maximum(CubicSpline(s, q0)(fine), 0.0)
    q /= np.trapezoid(q, fine)
    return np.array([np.trapezoid(q * bs_call_vec(fine, k, t, vol, rate), fine)
                     for k in strikes])


def criterion(n, message):
    print(f"\n[criterion {n:02d}] PASS - {message}")


# ---------------------------------------------------------------------------
# shared heavyweight runs
# ---------------------------------------------------------------------------

CONFIG_BIG = """\
paths.quotes = quotes.csv
model.b = const:1.0
model.alpha2 = const:0.2
model.beta2 = mean_revert:0.25:0.0
model.rho = 0.0
grid.s_min = 40
grid.s_max = 285
grid.y_min = -1
grid.y_max = 1
grid.ns = {ns}
grid.ny = {ny}
grid.t = 1.0
grid.nt = {nt}
init.bandwidth_s = 9.0
init.bandwidth_y = 0.25
"""


@pytest.fixture(scope="module")
def local_vol_degenerate_run(tmp_path_factory):
    """Criterion 1's pipeline run: flat 20 percent quotes, constant b."""
    root = tmp_path_factory.mktemp("c01")
    write_flat_quotes(root / "quotes.csv")
    (root / "run.cfg").write_text(CONFIG_BIG.format(**BIG))
    config = RunConfig.from_file(root / "run.cfg")
    config.values["paths.output_dir"] = str(root / "out")
    t0 = time.perf_counter()
    rc = run_pipeline(config, log=lambda m: None)
    elapsed = time.perf_counter() - t0
    out = root / "out"
    return {
        "rc": rc,
        "elapsed": elapsed,
        "out": out,
        "grid": config.grid(),
        "fp": json.loads((out / "fixed_point.json").read_text()),
        "report": json.loads((out / "report.json").read_text()),
        "leverage": np.loadtxt(out / "leverage.csv", delimiter=",", skiprows=1),
        "marginals": np.loadtxt(out / "marginals.csv", delimiter=",", skiprows=1),
    }


def calibration_run(scale):
    """Criterion 2 machinery at a given resolution scale (1 = stated grid).

    The volatility factor mean-reverts fast enough (kappa = 4, stationary
    width 0.07) that the clamped-exponential transform stays in the
    short-time-workable regime at the full horizon; both resolutions share
    the same initial density so they discretize the same problem.
    """
    grid = GridSpec(s_min=30.0, s_max=330.0, y_min=-0.5, y_max=0.5,
                    n_s=200 // scale, n_y=100 // scale, horizon=1.0,
                    n_t=200 // scale)
    quotes = [OptionQuote(t, k, implied_vol=0.2)
              for t in (0.25, 0.5, 1.0, 1.5, 2.0)
              for k in (60.0, 80.0, 100.0, 120.0, 160.0)]
    surface = build_implied_surface(quotes, spot=100.0, t_max=1.0)
    sigma_d = dupire_local_vol(surface, 0.0, grid)
    b = lambda y: np.clip(np.exp(np.asarray(y, dtype=float)), 0.5, 2.0)
    spec = make_spec(grid, b=b, sigma=sigma_d, rho=-0.3,
                     beta2=lambda t, s, y: -4.0 * (y + 0.0 * s))
    psi = make_psi(grid, bw_s=10.0, bw_y=0.075)
    return grid, spec, sigma_d, psi


@pytest.fixture(scope="module")
def exp_b_calibration():
    """Criterion 2's fine and half-resolution runs (library level)."""
    out = {}
    t0 = time.perf_counter()
    grid, spec, sigma_d, psi = calibration_run(1)
    params = IterateBounds.from_initial(psi, grid)
    try:
        dens, rep = iterate(spec, grid, psi, params=params)
    except (MembershipLost, NotConverged):
        params = shrink_horizon(spec, grid, psi, params)
        dens, rep = iterate(spec, grid, psi, params=params)
    out["fine_elapsed"] = time.perf_counter() - t0
    n_k = dens.shape[0] - 1
    ks = list(range(n_k // 5, n_k + 1, max(1, n_k // 5)))
    sig = sigma_d
    ver = verify_calibration(dens, sig, *verification_arrays(dens, sig, spec, grid),
                             spec, grid, ks)
    out.update(fine_grid=grid, fine_density=dens, fine_report=rep,
               fine_ver=ver, t_star=rep.t_star, params=params)

    grid_c, spec_c, sigma_c, psi_c = calibration_run(2)
    params_c = replace(IterateBounds.from_initial(psi_c, grid_c),
                       t_star=rep.t_star)
    dens_c, rep_c = iterate(spec_c, grid_c, psi_c, params=params_c)
    n_kc = dens_c.shape[0] - 1
    ks_c = list(range(max(1, n_kc // 5), n_kc + 1, max(1, n_kc // 5)))
    sig_c = sigma_c
    ver_c = verify_calibration(dens_c, sig_c,
                               *verification_arrays(dens_c, sig_c, spec_c, grid_c),
                               spec_c, grid_c, ks_c)
    out.update(coarse_ver=ver_c, coarse_report=rep_c, coarse_density=dens_c)
    return out


@pytest.fixture(scope="module")
def contraction_run():
    """Criterion 3's run: b^2 = 1 + 0.05 sin(y)."""
    grid = GridSpec(s_min=30.0, s_max=330.0, y_min=-1.0, y_max=1.0,
                    n_s=100, n_y=60, horizon=1.0, n_t=100)
    b = lambda y: np.sqrt(1.0 + 0.05 * np.sin(np.asarray(y, dtype=float)))
    spec = make_spec(grid, b=b)
    psi = make_psi(grid, bw_s=8.0, bw_y=0.25)
    params = replace(IterateBounds.from_initial(psi, grid),
                     tol=1e-10 * float(psi.max()))
    dens, rep = iterate(spec, grid, psi, params=params, max_iter=20)
    return {"grid": grid, "spec": spec, "psi": psi, "density": dens,
            "report": rep, "params": params}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_local_vol_degeneracy(local_vol_degenerate_run):
    run = local_vol_degenerate_run
    assert run["rc"] == 0
    assert run["elapsed"] < 120.0
    assert run["fp"]["converged"] and run["fp"]["iterations"] <= 2

    lev = run["leverage"][:, 2]
    assert np.max(np.abs(lev - 0.2)) < 1e-6

    # repriced calls against the kernel oracle for the regularized start
    grid = run["grid"]
    marg = run["marginals"]
    q0 = marg[np.isclose(marg[:, 0], 0.0), 2]
    worst = 0.0
    for t_mat in (0.5, 1.0):
        q_t = marg[np.isclose(marg[:, 0], t_mat), 2]
        strikes = np.arange(80.0, 121.0, 5.0)
        from lsvcal import reprice_calls
        model_px = reprice_calls(q_t, strikes, grid)[0]
        oracle_px = smeared_bs_call(q0, grid, strikes, t_mat, 0.2)
        worst = max(worst, float(np.max(np.abs(model_px / oracle_px - 1.0))))
    assert worst < 1e-3
    criterion(1, f"2 iterations, leverage dev {np.max(np.abs(lev - 0.2)):.2e}, "
                 f"reprice rel err {worst:.2e}, {run['elapsed']:.0f}s")


def test_criterion_02_calibration_property(exp_b_calibration):
    run = exp_b_calibration
    assert run["fine_elapsed"] < 600.0
    assert run["fine_report"].converged
    l1_fine = run["fine_ver"].marginal_l1
    assert max(l1_fine.values()) < 1e-2

    l1_coarse = run["coarse_ver"].marginal_l1
    common = sorted(set(round(t, 9) for t in l1_fine)
                    & set(round(t, 9) for t in l1_coarse))
    assert common, "no common output maturities"
    fine_max = max(l1_fine[t] for t in l1_fine if round(t, 9) in common)
    coarse_max = max(l1_coarse[t] for t in l1_coarse if round(t, 9) in common)
    ratio = fine_max / coarse_max
    assert ratio < 0.6
    criterion(2, f"max L1 {max(l1_fine.values()):.2e} at t* = "
                 f"{run['t_star']:.3g}, refinement ratio {ratio:.2f}, "
                 f"{run['fine_elapsed']:.0f}s")


def test_criterion_03_fixed_point_contraction(contraction_run):
    rep = contraction_run["report"]
    assert rep.converged
    assert len(rep.residuals) >= 4
    assert rep.contraction is not None and rep.contraction < 0.9
    assert rep.r_squared > 0.95
    assert all(m["lower_ok"] and m["upper_ok"] and m["norm_ok"]
               for m in rep.membership)

    # the practical single-sweep mode lands on the same density
    from lsvcal import solve_lagged
    dens_lag, _ = solve_lagged(contraction_run["spec"],
                               contraction_run["grid"],
                               contraction_run["psi"])
    mode_gap = float(np.max(np.abs(contraction_run["density"] - dens_lag)))
    assert mode_gap < 1e-2 * contraction_run["psi"].max()
    criterion(3, f"{len(rep.residuals)} iterations, contraction "
                 f"{rep.contraction:.2e}, R^2 {rep.r_squared:.4f}; "
                 f"time-lagged mode within {mode_gap:.1e}")


def test_criterion_04_short_time_threshold():
    grid = GridSpec(s_min=30.0, s_max=330.0, y_min=-1.0, y_max=1.0,
                    n_s=80, n_y=48, horizon=1.0, n_t=64)
    psi = make_psi(grid, bw_s=12.0, bw_y=0.25)

    def family(s):
        return lambda y: np.sqrt(np.maximum(
            1.0 + s * np.sin(np.asarray(y, dtype=float)), 0.04))

    outcomes = {}
    for s in (0.5, 2.0, 5.0, 12.0):
        spec = make_spec(grid, b=family(s))
        try:
            _, rep = iterate(spec, grid, psi, max_iter=30)
            outcomes[s] = "converged"
        except MembershipLost:
            outcomes[s] = "membership-lost"
        except NotConverged:
            outcomes[s] = "not-converged"

    converged = [s for s, o in outcomes.items() if o == "converged"]
    failed = [s for s, o in outcomes.items() if o != "converged"]
    assert converged and failed
    s1, s2 = max(converged), min(failed)
    assert s2 > s1

    # horizon halving rescues the most marginal failing member
    spec = make_spec(grid, b=family(s2))
    params = IterateBounds.from_initial(psi, grid)
    good = shrink_horizon(spec, grid, psi, params)
    assert good.t_star < grid.horizon
    _, rep = iterate(spec, grid, psi, params=good)
    assert rep.converged
    criterion(4, f"outcomes {outcomes}; s1 = {s1}, s2 = {s2}; "
                 f"recovered s = {s2} at t* = {good.t_star:.4g}")


def test_criterion_05_gap_monitor(contraction_run):
    rep = contraction_run["report"]
    scaled = [g["scaled"] for g in rep.gap_monitor
              if isinstance(g, dict) and g.get("scaled")]
    assert len(scaled) >= 3
    band = max(scaled) / min(scaled)
    assert band <= 10.0

    # linearity of the gap norm in the perturbation size at the converged p
    grid = contraction_run["grid"]
    p = contraction_run["density"]
    lhs = {}
    for s in (1e-3, 1e-2):
        b = lambda y, s=s: np.sqrt(1.0 + s * np.sin(np.asarray(y, dtype=float)))
        rec = ratio_gap_monitor(p, b, b_ref=1.0, grid=grid, bsq_slope=s)
        lhs[s] = rec.lhs
    lin = (lhs[1e-2] / 1e-2) / (lhs[1e-3] / 1e-3)
    assert abs(lin - 1.0) <= 0.2
    criterion(5, f"scaled ratio band {band:.2f} (<= 10), "
                 f"linearity factor {lin:.3f}")


def test_criterion_06_supnorm_time_bound():
    # pure-diffusion member of the frozen family on the unit square: the
    # normalized sup starts at the source level, decays monotonically and
    # lands on (Poisson sup) / T, computed from the independent sine series
    from lsvcal import ModelSpec, convert_correlation
    grid = GridSpec(s_min=0.0, s_max=1.0, y_min=0.0, y_max=1.0, n_s=60,
                    n_y=60, horizon=1.0, n_t=100)
    spec = ModelSpec(b=1.0, alpha1=1.0, alpha2=1.0,
                     corr=convert_correlation(0.0), spot0=0.5, y0=0.5)
    fields = assemble_frozen(spec, grid, b_ref=1.0)

    out1 = supnorm_time_bound(fields, 1.0, grid)
    assert np.all(np.isfinite(out1["ratio"]))
    assert out1["k0"] <= 1.0 + 1e-6
    assert np.all(np.diff(out1["ratio"][1:]) <= 1e-10)

    poisson_sup = 0.0
    for m in range(1, 200, 2):
        for n in range(1, 200, 2):
            poisson_sup += 2.0 * 16.0 / (math.pi ** 4 * m * n * (m * m + n * n)) \
                * math.sin(m * math.pi / 2) * math.sin(n * math.pi / 2)
    assert out1["ratio"][-1] * grid.horizon == pytest.approx(poisson_sup, rel=5e-3)

    out2 = supnorm_time_bound(fields, 2.0, grid)
    assert np.array_equal(out2["sup_curve"], 2.0 * out1["sup_curve"])
    criterion(6, f"empirical K0 = {out1['k0']:.3f}, monotone curve ends at "
                 f"{out1['ratio'][-1]:.4f} vs Poisson {poisson_sup:.4f}, "
                 f"doubling exact")


def test_criterion_07_linear_solver_verification():
    errs = [mms_error(n, 2 * n)[0] for n in (16, 32, 64)]
    rate_s = -np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
    assert 1.7 <= rate_s <= 2.3

    ref = mms_error(48, 512)[1]
    errs_t = [float(np.max(np.abs(mms_error(48, nt)[1] - ref)))
              for nt in (8, 16, 32)]
    rate_t = np.polyfit(np.log([1 / 8, 1 / 16, 1 / 32]), np.log(errs_t), 1)[0]
    assert rate_t >= 1.0

    # constants exactly preserved once the zeroth-order term and source
    # are absent
    grid = GridSpec(s_min=0.0, s_max=1.0, y_min=0.0, y_max=1.0, n_s=24,
                    n_y=24, horizon=0.25, n_t=16)
    fields, _, _ = mms_fields(grid)
    fields = replace(fields, c=np.broadcast_to(0.0, grid.shape))
    psi = np.full((grid.n_s + 2, grid.n_y + 2), 1.37)
    traj, _ = solve_linear(fields, psi, grid)
    assert np.array_equal(traj[-1], psi)
    criterion(7, f"spatial order {rate_s:.2f}, temporal order {rate_t:.2f}, "
                 f"constants exact")


def test_criterion_08_positivity_and_bounds(local_vol_degenerate_run,
                                            exp_b_calibration,
                                            contraction_run):
    runs = []
    fp1 = local_vol_degenerate_run["fp"]
    runs.append(("local-vol", fp1["membership"][-1]))
    rep2 = exp_b_calibration["fine_report"]
    runs.append(("calibration", rep2.membership[-1]))
    rep3 = contraction_run["report"]
    runs.append(("contraction", rep3.membership[-1]))
    for name, mem in runs:
        assert mem["min"] >= mem["lower_bound"], name
        assert mem["max"] <= mem["upper_bound"], name
    criterion(8, "all converged runs inside the pointwise band "
                 + str({n: (f"{m['min']:.2e}>={m['lower_bound']:.2e}")
                        for n, m in runs}))


def test_criterion_09_ratio_quadrature():
    grid = GridSpec(s_min=30.0, s_max=330.0, y_min=1.0, y_max=2.0, n_s=12,
                    n_y=256, horizon=1.0, n_t=8)
    p = np.ones((grid.n_s + 2, grid.n_y + 2))
    mix = mixing_ratio(p, lambda y: np.sqrt(np.asarray(y, dtype=float)), grid)
    assert np.max(np.abs(mix.ratio - 2.0 / 3.0)) < 1e-6

    grid01 = GridSpec(s_min=30.0, s_max=330.0, y_min=0.0, y_max=1.0, n_s=12,
                      n_y=256, horizon=1.0, n_t=8)
    y = grid01.y_nodes
    cases = [
        (np.ones_like(y), lambda yy: 1.0 + 0.1 * yy, 1.0 / 1.05),
        (1.0 + y, lambda yy: 1.0 + 0.1 * yy, 1.5 / (1.0 + 0.55 + 0.1 / 3)),
        (np.ones_like(y), lambda yy: np.exp(0.1 * yy),
         1.0 / (10.0 * (math.exp(0.1) - 1.0))),
        (2.0 - y, lambda yy: 1.0 + 0.2 * yy ** 2,
         1.5 / (1.5 + 0.2 * (2.0 / 3.0 - 1.0 / 4.0))),
        (1.0 + 0.3 * np.sin(y), lambda yy: 1.0 + 0.1 * yy,
         (1.0 + 0.3 * (1.0 - math.cos(1.0)))
         / (1.05 + 0.3 * (1.0 - math.cos(1.0))
            + 0.03 * (math.sin(1.0) - math.cos(1.0)))),
    ]
    worst = 0.0
    for p_vals, bsq, exact in cases:
        p = np.broadcast_to(p_vals[None, :], (grid01.n_s + 2, grid01.n_y + 2)).copy()
        b = lambda yy, bsq=bsq: np.sqrt(bsq(np.asarray(yy, dtype=float)))
        mix = mixing_ratio(p, b, grid01)
        worst = max(worst, float(np.max(np.abs(mix.ratio - exact))))
        bv = b(y)
        assert np.all(mix.ratio >= 1.0 / bv.max() ** 2 - 1e-12)
        assert np.all(mix.ratio <= 1.0 / bv.min() ** 2 + 1e-12)
    assert worst < 1e-6
    criterion(9, f"six closed-form ratios within {worst:.1e} at 256 nodes, "
                 f"bounds hold")


def test_criterion_10_determinism(tmp_path):
    write_flat_quotes(tmp_path / "quotes.csv")
    (tmp_path / "run.cfg").write_text("""\
paths.quotes = quotes.csv
model.b = sqrt1p_sin:0.05
model.alpha2 = const:0.2
model.beta2 = mean_revert:0.25:0.0
model.rho = -0.3
grid.s_min = 30
grid.s_max = 330
grid.y_min = -1
grid.y_max = 1
grid.ns = 48
grid.ny = 28
grid.t = 1.0
grid.nt = 24
init.bandwidth_s = 20.0
init.bandwidth_y = 0.25
""")
    config = RunConfig.from_file(tmp_path / "run.cfg")
    for out in ("a", "b"):
        config.values["paths.output_dir"] = str(tmp_path / out)
        assert run_pipeline(config, log=lambda m: None) == 0
    for name in ("leverage.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    criterion(10, "leverage.csv and report.json byte-identical across runs")
