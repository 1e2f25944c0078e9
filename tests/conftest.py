import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lsvcal import (GridSpec, ModelSpec, SpotAmplitude, convert_correlation,
                    dupire_forward_solve, leverage, marginal, mixing_ratio,
                    smoothed_dirac)


def make_grid(n_s=80, n_y=40, n_t=80, horizon=1.0, s_span=(30.0, 330.0),
              y_span=(-1.0, 1.0), h=0.5):
    return GridSpec(s_min=s_span[0], s_max=s_span[1], y_min=y_span[0],
                    y_max=y_span[1], n_s=n_s, n_y=n_y, horizon=horizon,
                    n_t=n_t, holder_exp=h)


def flat_sigma(grid, level=0.2):
    return np.full((grid.n_t + 1, grid.n_s + 2), level)


def b_const(y):
    return np.ones_like(np.asarray(y, dtype=float))


def b_perturbed(s):
    def b(y):
        return np.sqrt(np.maximum(1.0 + s * np.sin(np.asarray(y, dtype=float)), 0.04))
    return b


def ou_drift(t, s, y):
    # gentle mean reversion: stationary width 0.2/sqrt(0.5) = 0.28 matches
    # the default initial bandwidths even on coarse test grids
    return -0.25 * (y + 0.0 * s)


def make_spec(grid, b=b_const, sigma=None, rho=0.0, rate=0.0, alpha2=0.2,
              beta2=ou_drift, spot0=100.0, y0=0.0):
    sig = flat_sigma(grid) if sigma is None else sigma
    return ModelSpec(b=b, alpha1=SpotAmplitude(sig, b, grid), alpha2=alpha2,
                     corr=convert_correlation(rho), rate=rate, spot0=spot0,
                     y0=y0, beta2=beta2)


def make_psi(grid, spot0=100.0, y0=0.0, bw_s=16.0, bw_y=0.25, floor_rel=1e-6):
    # widen to the coarsest admissible bump on very coarse test grids
    bw_s = max(bw_s, 3.05 * grid.ds)
    bw_y = max(bw_y, 3.05 * grid.dy)
    peak = 1.0 / (2.0 * np.pi * bw_s * bw_y)
    return smoothed_dirac(spot0, y0, bw_s, bw_y, floor_rel * peak, grid)


def verification_arrays(p, sigma, spec, grid):
    """(q_p, q_d, leverage) of a density trajectory, as the pipeline writes them."""
    q_p = marginal(p, grid)
    q_d = dupire_forward_solve(sigma, spec.rate, grid, q_p[0], n_steps=p.shape[0] - 1)
    return q_p, q_d, leverage(sigma[:p.shape[0]], mixing_ratio(p, spec.b, grid))


@pytest.fixture
def grid():
    return make_grid()


@pytest.fixture
def small_grid():
    return make_grid(n_s=40, n_y=24, n_t=20)


def write_flat_quotes(path, vol=0.2, maturities=(0.25, 0.5, 1.0, 1.5, 2.0),
                      strikes=(60, 80, 100, 120, 160)):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("maturity,strike,implied_vol\n")
        for t in maturities:
            for k in strikes:
                fh.write(f"{t},{k},{vol}\n")
    return path


def run_fresh(code, *args):
    """Stdout of ``code`` run in a fresh, isolated interpreter with this
    checkout's ``src`` first on the path and ``args`` in ``sys.argv[1:]``;
    this interpreter may already hold the modules a test looks for."""
    src = Path(__file__).resolve().parents[1] / "src"
    prelude = "import sys; sys.path.insert(0, {!r}); ".format(str(src))
    return subprocess.run([sys.executable, "-I", "-c", prelude + code, *map(str, args)],
                          capture_output=True, text=True, check=True).stdout
