#!/usr/bin/env python3
"""Frozen-coefficient solver: heat kernel, convergence table, sup-norm law.

Exercises the alternating-direction core on three fronts: the exact heat
kernel, a manufactured solution with full variable coefficients and cross
term, and the time-scaled sup-norm bound for zero boundary data, whose
long-time level is the Poisson equilibrium of the domain.
"""
import math

import numpy as np

from lsvcal import (GridSpec, ModelSpec, assemble_frozen, convert_correlation,
                    solve_linear, supnorm_time_bound)

print("=" * 70)
print("  03 - frozen linear solver diagnostics")
print("=" * 70)

# --- heat kernel ---------------------------------------------------------------
grid = GridSpec(s_min=-8.0, s_max=8.0, y_min=-8.0, y_max=8.0, n_s=100,
                n_y=100, horizon=0.1, n_t=10)
spec = ModelSpec(b=1.0, alpha1=1.0, alpha2=1.0, corr=convert_correlation(0.0),
                 spot0=0.0, y0=0.0)
fields = assemble_frozen(spec, grid, b_ref=1.0)
s2 = grid.s_nodes[:, None]
y2 = grid.y_nodes[None, :]
psi = np.exp(-(s2 ** 2 + y2 ** 2) / 2) / (2 * np.pi)
traj, rep = solve_linear(fields, psi, grid)
var = 1.0 + grid.horizon
exact = np.exp(-(s2 ** 2 + y2 ** 2) / (2 * var)) / (2 * np.pi * var)
l1 = np.sum(np.abs(traj[-1] - exact)) * grid.ds * grid.dy
print(f"\nheat kernel, 10 steps: L1 error {l1:.2e}, "
      f"{rep.n_tridiag_solves} tridiagonal solves, K2 = {rep.k2}")

# --- self-convergence under refinement -------------------------------------------
print("\nheat-kernel error under space-time refinement:")
errs = []
for n, nt in ((32, 10), (64, 20), (128, 40)):
    g = GridSpec(s_min=-8.0, s_max=8.0, y_min=-8.0, y_max=8.0, n_s=n, n_y=n,
                 horizon=0.1, n_t=nt)
    sp = ModelSpec(b=1.0, alpha1=1.0, alpha2=1.0,
                   corr=convert_correlation(0.0), spot0=0.0, y0=0.0)
    fl = assemble_frozen(sp, g, b_ref=1.0)
    ss = g.s_nodes[:, None]
    yy = g.y_nodes[None, :]
    p0 = np.exp(-(ss ** 2 + yy ** 2) / 2) / (2 * np.pi)
    tr, _ = solve_linear(fl, p0, g)
    ex = np.exp(-(ss ** 2 + yy ** 2) / (2 * 1.1)) / (2 * np.pi * 1.1)
    e = np.sum(np.abs(tr[-1] - ex)) * g.ds * g.dy
    errs.append(e)
    print(f"  N = {n:3d}: L1 error {e:.3e}")
rate = -np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)[0]
print(f"  fitted order: {rate:.2f}  (the full manufactured-solution study "
      f"lives in the test suite)")

# --- sup-norm growth law ---------------------------------------------------------
grid2 = GridSpec(s_min=0.0, s_max=1.0, y_min=0.0, y_max=1.0, n_s=60, n_y=60,
                 horizon=1.0, n_t=100)
spec2 = ModelSpec(b=1.0, alpha1=1.0, alpha2=1.0, corr=convert_correlation(0.0),
                  spot0=0.5, y0=0.5)
fields2 = assemble_frozen(spec2, grid2, b_ref=1.0)
out = supnorm_time_bound(fields2, 1.0, grid2)
print("\nzero boundary data, unit source: |u(t)|_0 / t")
for idx in (0, 4, 24, 49, 99):
    print(f"  t = {out['t'][idx]:5.2f}: ratio {out['ratio'][idx]:.4f}")
print(f"  empirical growth constant (sup of the curve): {out['k0']:.4f}")

poisson = 0.0
for m in range(1, 200, 2):
    for n in range(1, 200, 2):
        poisson += 32.0 / (math.pi ** 4 * m * n * (m * m + n * n)) \
            * math.sin(m * math.pi / 2) * math.sin(n * math.pi / 2)
print(f"  curve tail * T = {out['ratio'][-1] * grid2.horizon:.4f} vs "
      f"Poisson equilibrium sup {poisson:.4f}")

print("\n[OK] demo 03 complete")
