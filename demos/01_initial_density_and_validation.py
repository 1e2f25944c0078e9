#!/usr/bin/env python3
"""Model setup walkthrough: grids, the regularized start, hypothesis checks.

Builds the strictly positive initial density that replaces the point mass,
validates the structural assumptions of a two-factor model on the grid and
reports the corner-compatibility residual of the initial data.
"""
import numpy as np

from lsvcal import (GridSpec, ModelSpec, SpotAmplitude, compatibility_residual,
                    convert_correlation, grid_mass, smoothed_dirac,
                    validate_model)

print("=" * 70)
print("  01 - initial density and model validation")
print("=" * 70)

grid = GridSpec(s_min=40.0, s_max=285.0, y_min=-1.0, y_max=1.0,
                n_s=120, n_y=60, horizon=1.0, n_t=100)
print(f"grid: {grid.n_s}x{grid.n_y} interior nodes, dS={grid.ds:.3f}, "
      f"dy={grid.dy:.4f}, dt={grid.dt:.4f}")

# --- regularized point mass -------------------------------------------------
bw_s, bw_y = 9.0, 0.25
peak = 1.0 / (2.0 * np.pi * bw_s * bw_y)
psi = smoothed_dirac(100.0, 0.0, bw_s, bw_y, floor=1e-6 * peak, grid=grid)
print(f"\nsmoothed start: bandwidths ({bw_s}, {bw_y}), floor 1e-6 of peak")
print(f"  total mass       : {grid_mass(psi, grid):.15f}")
print(f"  min / max        : {psi.min():.3e} / {psi.max():.3e}")
print(f"  floor respected  : {psi.min() >= 1e-6 * peak}")

# --- hypothesis constants on the grid ----------------------------------------
corr = convert_correlation(-0.3)
print(f"\ncorrelation: market rho = -0.3 -> half-scaled off-diagonal "
      f"{corr.off_diag}, smallest eigenvalue {corr.min_eig:.3f}")

sigma_flat = np.full((grid.n_t + 1, grid.n_s + 2), 0.2)
b = lambda y: np.clip(np.exp(np.asarray(y, dtype=float)), 0.5, 2.0)
spec = ModelSpec(b=b, alpha1=SpotAmplitude(sigma_flat, b, grid), alpha2=0.2,
                 corr=corr, rate=0.0, spot0=100.0, y0=0.0,
                 beta2=lambda t, s, y: -4.0 * (y + 0.0 * s))
report = validate_model(spec, grid)      # raises HypothesisViolation on a failure
print("\nvalidation report (every hypothesis holds):")
print(f"  b range          : [{report.b_inf:.4f}, {report.b_sup:.4f}]")
print(f"  sup |d(b^2)/dy|  : {report.bsq_slope:.4f}")
print(f"  min alpha_1/2    : {report.alpha1_min:.4f} / {report.alpha2_min:.4f}")
print(f"  corr min eig     : {report.corr_min_eig:.4f}")

# --- corner compatibility -----------------------------------------------------
res = compatibility_residual(psi, spec, grid)
print(f"\ncorner-compatibility residual of the start: {res:.3e}")
print("  (reported, not enforced: generic initial data never satisfies the")
print("   operator exactly on the boundary ring; the solver tolerates it)")

print("\n[OK] demo 01 complete")
