#!/usr/bin/env python3
"""The fixed-point construction: contraction, thresholds, horizon halving.

Shows the three regimes of the successive-substitution scheme: exact
degeneracy when the volatility transform is constant, geometric contraction
for a small perturbation, and loss of admissibility for large ones with
recovery by shrinking the horizon.
"""
import numpy as np

from lsvcal import (GridSpec, IterateBounds, MembershipLost, ModelSpec,
                    NotConverged, SpotAmplitude, assemble_frozen,
                    convert_correlation, iterate, shrink_horizon, smoothed_dirac)

print("=" * 70)
print("  04 - fixed-point construction")
print("=" * 70)

grid = GridSpec(s_min=30.0, s_max=330.0, y_min=-1.0, y_max=1.0,
                n_s=80, n_y=48, horizon=1.0, n_t=64)
sigma = np.full((grid.n_t + 1, grid.n_s + 2), 0.2)
peak = 1.0 / (2.0 * np.pi * 12.0 * 0.25)
psi = smoothed_dirac(100.0, 0.0, 12.0, 0.25, 1e-6 * peak, grid)


def spec_for(b):
    return ModelSpec(b=b, alpha1=SpotAmplitude(sigma, b, grid), alpha2=0.2,
                     corr=convert_correlation(-0.3), rate=0.0, spot0=100.0,
                     y0=0.0, beta2=lambda t, s, y: -0.25 * (y + 0.0 * s))


def family(s):
    return lambda y: np.sqrt(np.maximum(
        1.0 + s * np.sin(np.asarray(y, dtype=float)), 0.04))


# --- constant transform: the map is constant, one application suffices --------
b_const = lambda y: np.ones_like(np.asarray(y, dtype=float))
dens, rep = iterate(spec_for(b_const), grid, psi)
print(f"\nconstant b : converged in {rep.iterations} iterations, "
      f"residuals {['%.1e' % r for r in rep.residuals]}")

# --- small perturbation: geometric residual ladder ------------------------------
dens, rep = iterate(spec_for(family(0.05)), grid, psi)
print(f"\nb^2 = 1 + 0.05 sin(y): {rep.iterations} iterations")
for n, (r, m) in enumerate(zip(rep.residuals, rep.membership), start=1):
    print(f"  it {n}: residual {r:.3e}   norm {m['norm']:.3f} "
          f"(cap {m['norm_cap']:.3f})")
print(f"  contraction {rep.contraction:.2e}, fit R^2 {rep.r_squared:.4f}")
print(f"  one extra map application moves the solution by "
      f"{rep.fixed_point_residual:.2e}")

# --- threshold sweep -------------------------------------------------------------
print("\nperturbation sweep at the full horizon:")
outcomes = {}
for s in (0.5, 2.0, 5.0):
    try:
        _, r = iterate(spec_for(family(s)), grid, psi)
        outcomes[s] = f"converged in {r.iterations}"
    except MembershipLost as err:
        outcomes[s] = f"left the admissible set at iterate {err.iteration}"
    except NotConverged:
        outcomes[s] = "no convergence"
    print(f"  s = {s:4.1f}: {outcomes[s]}")

# --- recovery by horizon halving -------------------------------------------------
failing = [s for s, o in outcomes.items() if "admissible" in o or "no conv" in o]
if failing:
    s_fail = min(failing)
    params = IterateBounds.from_initial(psi, grid)
    # one frozen operator serves every attempt of the ladder and the rerun
    spec = spec_for(family(s_fail))
    frozen = assemble_frozen(spec, grid, b_ref=spec.b_ref(grid))
    good = shrink_horizon(spec, grid, psi, params, frozen=frozen)
    _, r = iterate(spec, grid, psi, params=good, frozen=frozen)
    print(f"\ns = {s_fail} recovered by halving: t* = {good.t_star:.4g}, "
          f"{r.iterations} iterations, converged = {r.converged}")

print("\n[OK] demo 04 complete")
