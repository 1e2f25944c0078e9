#!/usr/bin/env python3
"""Market-data leg: quotes -> implied surface -> local vol -> forward density.

Uses a synthetic term-structure quote set whose total variance is an exact
quadratic, so every interpolation and derivative step has a closed form to
compare against, then pushes a density through the one-dimensional forward
equation and reprices calls against the Black-Scholes formula.
"""
import math

import numpy as np

from lsvcal import (GridSpec, OptionQuote, build_implied_surface,
                    dupire_forward_solve, dupire_local_vol, fv_mass,
                    reprice_calls)

print("=" * 70)
print("  02 - Dupire pipeline on synthetic quotes")
print("=" * 70)

grid = GridSpec(s_min=20.0, s_max=450.0, y_min=-1.0, y_max=1.0,
                n_s=400, n_y=8, horizon=1.0, n_t=800)

# --- surface from sigma(T) = sqrt(0.04 + 0.01 T) ------------------------------
quotes = [OptionQuote(t, k, implied_vol=math.sqrt(0.04 + 0.01 * t))
          for t in (0.25, 0.5, 1.0, 1.5, 2.0)
          for k in (60, 80, 100, 120, 160)]
surface = build_implied_surface(quotes, spot=100.0, t_max=1.0)
print(f"\nsurface built from {len(quotes)} quotes")
for t in (0.375, 0.75, 1.25):
    got = float(surface.vol(t, 100.0))
    want = math.sqrt(0.04 + 0.01 * t)
    print(f"  sigma({t:5.3f}, ATM): interpolated {got:.6f}  closed form {want:.6f}")

# --- local volatility: d(sigma^2 T)/dT = 0.04 + 0.02 T ------------------------
sigma_d = dupire_local_vol(surface, 0.0, grid)
exact = np.sqrt(0.04 + 0.02 * grid.t_nodes)
err = np.max(np.abs(sigma_d - exact[:, None]))
print(f"\nlocal vol vs closed-form time derivative: max |err| = {err:.2e}")

# --- forward density vs the lognormal family ----------------------------------
s = grid.s_nodes
s0_width = 0.05
q0 = np.exp(-0.5 * ((np.log(s) - math.log(100.0)) / s0_width) ** 2) \
    / (s * s0_width * math.sqrt(2 * math.pi))
q0 /= fv_mass(q0, grid)

flat = np.full((grid.n_t + 1, grid.n_s + 2), 0.2)
traj = dupire_forward_solve(flat, 0.0, grid, q0)
veff = math.sqrt(s0_width ** 2 + 0.04)
qex = np.exp(-0.5 * ((np.log(s) - (math.log(100.0) - 0.02)) / veff) ** 2) \
    / (s * veff * math.sqrt(2 * math.pi))
l1 = np.sum(np.abs(traj[-1] - qex)) * grid.ds
print(f"\nflat-vol forward solve at T=1 vs lognormal: L1 = {l1:.2e}")
print(f"mass drift over the run: {abs(fv_mass(traj[-1], grid) - 1.0):.2e}")

# --- repricing ----------------------------------------------------------------
from scipy.stats import norm
strikes = np.array([80.0, 90.0, 100.0, 110.0, 120.0])
prices = reprice_calls(traj[-1], strikes, grid)[0]
fwd = 100.0 * math.exp(0.5 * s0_width ** 2)
print("\nrepriced calls at T=1 (model vs kernel closed form):")
for k, px in zip(strikes, prices):
    d1 = (math.log(fwd / k) + 0.5 * veff ** 2) / veff
    ref = fwd * norm.cdf(d1) - k * norm.cdf(d1 - veff)
    print(f"  K={k:5.0f}: {px:8.4f} vs {ref:8.4f}  (rel {abs(px / ref - 1):.1e})")

print("\n[OK] demo 02 complete")
