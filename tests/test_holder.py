import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lsvcal import fd, holder, holder_norm
from lsvcal.holder import HolderNormEstimate

from conftest import make_grid


def brute_force_quotient(values, coords, h):
    """All-pairs Hoelder quotient with explicit python loops (oracle)."""
    best = 0.0
    pts = list(range(len(values)))
    for i, j in itertools.combinations(pts, 2):
        dx2 = sum((a - b) ** 2 for a, b in zip(coords[i][1:], coords[j][1:]))
        d = math.sqrt(dx2 + abs(coords[i][0] - coords[j][0]))
        if d > 0:
            best = max(best, abs(values[i] - values[j]) / d ** h)
    return best


def all_pairs_quotient(u, kind, grid, h_exp):
    """Hoelder quotient over every node pair of a small field (oracle)."""
    dt, hs = holder._spacings(grid, kind)
    axes_h = ([None] if holder._HAS_TIME[kind] else []) + list(hs)
    grids = np.meshgrid(*[np.arange(n) for n in u.shape], indexing="ij")
    flat = u.ravel()
    n = flat.size
    assert n <= 4000, "all-pairs quotient restricted to <= 4000 nodes"
    cols = [g.ravel().astype(float) for g in grids]
    best = 0.0
    for i in range(n - 1):
        d2 = np.zeros(n - i - 1)
        for c, h in zip(cols, axes_h):
            delta = c[i + 1:] - c[i]
            if h is None:
                d2 += np.abs(delta) * dt
            else:
                d2 += (delta * h) ** 2
        dist = np.sqrt(d2)
        gaps = np.abs(flat[i + 1:] - flat[i])
        mask = dist > 0
        if mask.any():
            best = max(best, float(np.max(gaps[mask] / dist[mask] ** h_exp)))
    return best


def unblocked_base_norm(u, kind, dt, hs, h_exp):
    """Sup norm and neighbor quotient with one full-array pass per offset."""
    has_time = holder._HAS_TIME[kind]
    sup = float(np.max(np.abs(u))) if u.size else 0.0
    best = 0.0
    for off in holder._OFFSETS[kind]:
        a, b = holder._pair_views(u, off)
        if a is None or a.size == 0:
            continue
        d2 = abs(off[0]) * dt if has_time else 0.0
        for o, h in zip(off[1:] if has_time else off, hs):
            d2 += (o * h) ** 2
        gap = float(np.max(np.abs(a - b)))
        best = max(best, gap / np.sqrt(d2) ** h_exp)
    return sup, best


def smooth_random_field(rng, grid, kind="Sy"):
    s = grid.s_nodes[:, None] / grid.s_max
    y = grid.y_nodes[None, :]
    a, b, c = rng.uniform(-1, 1, 3)
    f = a * np.sin(2 * s + y) + b * np.cos(s - 2 * y) + c * s * y
    if kind == "tSy":
        t = grid.t_nodes[:, None, None]
        return f[None] * (1.0 + 0.3 * np.sin(t))
    return f


class TestBaseNorm:
    def test_constant_field(self):
        grid = make_grid(n_s=16, n_y=12, n_t=8)
        u = np.full((grid.n_s + 2, grid.n_y + 2), -4.2)
        est = holder_norm(u, 0, 0.5, grid, kind="Sy")
        assert est.value == 4.2
        assert est.quotient == 0.0

    def test_linear_1d_neighbor_quotient(self):
        # u(x) = x on [0, 1]; neighbor pairs give gap/d^h = (k dx)^(1/2),
        # largest for the next-nearest offset
        grid = make_grid(n_s=98, n_y=12, n_t=8, s_span=(0.0, 1.0))
        u = grid.s_nodes.copy()
        est = holder_norm(u, 0, 0.5, grid, kind="S")
        dx = grid.ds
        assert est.sup_norm == pytest.approx(1.0)
        assert est.quotient == pytest.approx(math.sqrt(2 * dx), rel=1e-12)
        assert est.value == pytest.approx(1.0 + math.sqrt(2 * dx), rel=1e-12)

    def test_linear_1d_all_pairs_matches_brute_force(self):
        grid = make_grid(n_s=30, n_y=12, n_t=8, s_span=(0.0, 1.0))
        u = grid.s_nodes ** 2
        quot = all_pairs_quotient(u, "S", grid, 0.5)
        coords = [(0.0, s) for s in grid.s_nodes]
        oracle = brute_force_quotient(list(u), coords, 0.5)
        assert quot == pytest.approx(oracle, rel=1e-12)

    def test_space_time_all_pairs_matches_brute_force(self):
        grid = make_grid(n_s=8, n_y=8, n_t=5, horizon=0.3)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((grid.n_t + 1, grid.n_s + 2))
        quot = all_pairs_quotient(u, "tS", grid, 0.4)
        coords = [(t, s) for t in grid.t_nodes for s in grid.s_nodes]
        oracle = brute_force_quotient(list(u.ravel()), coords, 0.4)
        assert quot == pytest.approx(oracle, rel=1e-12)

    def test_neighbor_below_all_pairs(self):
        grid = make_grid(n_s=14, n_y=10, n_t=6)
        rng = np.random.default_rng(11)
        u = smooth_random_field(rng, grid)
        near = holder_norm(u, 0, 0.5, grid, kind="Sy").quotient
        full = all_pairs_quotient(u, "Sy", grid, 0.5)
        assert near <= full + 1e-12


class TestAlgebraAndMonotonicity:
    def test_product_inequality_20_random_pairs(self):
        # the space is an algebra: |uv| <= |u| |v| at the base level
        grid = make_grid(n_s=20, n_y=16, n_t=8)
        rng = np.random.default_rng(42)
        for _ in range(20):
            u = smooth_random_field(rng, grid)
            v = smooth_random_field(rng, grid)
            nu = holder_norm(u, 0, 0.5, grid, kind="Sy").value
            nv = holder_norm(v, 0, 0.5, grid, kind="Sy").value
            nuv = holder_norm(u * v, 0, 0.5, grid, kind="Sy").value
            assert nuv <= nu * nv + 1e-12

    @pytest.mark.parametrize("kind", ["Sy", "tSy"])
    def test_monotone_in_k(self, kind):
        grid = make_grid(n_s=20, n_y=16, n_t=8)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = smooth_random_field(rng, grid, kind=kind)
            n0 = holder_norm(u, 0, 0.5, grid, kind=kind).value
            n1 = holder_norm(u, 1, 0.5, grid, kind=kind).value
            n2 = holder_norm(u, 2, 0.5, grid, kind=kind).value
            assert n0 <= n1 <= n2

    def test_value_at_least_sup(self):
        grid = make_grid(n_s=20, n_y=16, n_t=8)
        rng = np.random.default_rng(9)
        u = smooth_random_field(rng, grid)
        est = holder_norm(u, 2, 0.5, grid, kind="Sy")
        assert est.value >= est.sup_norm
        assert all(v >= 0 for v in est.derivative_parts.values())

    def test_invalid_estimate_rejected(self):
        with pytest.raises(ValueError):
            HolderNormEstimate(value=0.5, sup_norm=1.0, quotient=0.0)

    def test_constant_in_time_extension_equals_slice_norm(self):
        # a field constant in time has no time contributions, so its
        # space-time norm equals the spatial-slice norm
        grid = make_grid(n_s=20, n_y=16, n_t=8)
        rng = np.random.default_rng(13)
        u2 = smooth_random_field(rng, grid)
        u3 = np.broadcast_to(u2, (grid.n_t + 1,) + u2.shape)
        n2 = holder_norm(u2, 2, 0.5, grid, kind="Sy").value
        n3 = holder_norm(u3, 2, 0.5, grid, kind="tSy").value
        assert n3 == pytest.approx(n2, rel=1e-12)


@st.composite
def fields(draw):
    """A field of any kind; time lengths 1-3 leave time offsets unpaired."""
    kind = draw(st.sampled_from(["tSy", "tS", "Sy", "S"]))
    n_space = holder._N_SPACE[kind]
    shape = tuple(draw(st.integers(0, 5)) for _ in range(n_space))
    if holder._HAS_TIME[kind]:
        shape = (draw(st.integers(1, 11)),) + shape
    u = draw(arrays(np.float64, shape,
                    elements=st.floats(-1e6, 1e6)))
    return kind, u


class TestSlabBlocking:
    @settings(max_examples=300, deadline=None)
    @given(fields(), st.integers(1, 5), st.sampled_from([0.3, 0.5, 0.9]))
    def test_blocked_equals_unblocked(self, field, slab, h_exp):
        kind, u = field
        dt, hs = 0.01, (3.0, 0.02)[:holder._N_SPACE[kind]]
        ref = unblocked_base_norm(u, kind, dt, hs, h_exp)
        # slab lengths 1..5 slices, so most time lengths are no multiple
        slice_bytes = u[0].nbytes if holder._HAS_TIME[kind] else u.nbytes
        with mock.patch.object(holder, "_SLAB_BYTES", slab * slice_bytes):
            got = holder._base_norm(u, kind, dt, hs, h_exp)
        assert got == ref

    @pytest.mark.parametrize("n_t", [1, 2, 3, 17])
    def test_default_slab_matches_unblocked(self, n_t):
        # a time slice of 40 kB gives slabs of 13, so n_t = 17 ends mid-slab
        rng = np.random.default_rng(n_t)
        u = rng.standard_normal((n_t, 100, 50))
        dt, hs = 0.01, (3.0, 0.02)
        ref = unblocked_base_norm(u, "tSy", dt, hs, 0.5)
        assert holder._base_norm(u, "tSy", dt, hs, 0.5) == ref


def whole_field_holder_norm(u, k, h_exp, grid, kind):
    """(value, derivative parts) of the order-(k+h) norm with every
    derivative built over the whole field (oracle)."""
    dt, hs = holder._spacings(grid, kind)
    has_time = holder._HAS_TIME[kind]
    ax0 = 1 if has_time else 0
    named = list(zip("Sy", hs, range(ax0, ax0 + len(hs))))
    derivs = []
    if k >= 1:
        derivs += [(f"d{n}", fd.d1(u, h, axis=ax)) for n, h, ax in named]
    if k >= 2:
        derivs += [(f"d{n}{n}", fd.d2(u, h, axis=ax)) for n, h, ax in named]
        if len(hs) == 2:
            derivs.append(("dSy", fd.d2_cross(u, *hs)))
    if k >= 1 and has_time:
        derivs.append(("dt", fd.d1(u, dt, axis=0)))
    sup, quot = unblocked_base_norm(u, kind, dt, hs, h_exp)
    value = sup + quot
    parts = {}
    for name, f in derivs:
        s, q = unblocked_base_norm(f, kind, dt, hs, h_exp)
        parts[name] = float(s + q)
        value += s + q
    return float(value), parts


class TestSlabDerivatives:
    @pytest.mark.parametrize("one_slice_slabs", [True, False])
    @pytest.mark.parametrize("n_times", [1, 2, 3, 4, 9])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_slab_derivatives_equal_whole_field(self, n_times, one_slice_slabs,
                                                data):
        # derivatives taken slab by slab, time derivative included, give the
        # norm of the whole-field derivatives bit for bit; n_times 1-3 cover
        # the zero, first-order and shortest second-order time derivative
        kind = data.draw(st.sampled_from(["tSy", "tS"]))
        shape = (n_times,) + tuple(data.draw(st.integers(0, 6))
                                   for _ in range(holder._N_SPACE[kind]))
        u = data.draw(arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)))
        k = data.draw(st.sampled_from([0, 1, 2]))
        h_exp = data.draw(st.sampled_from([0.3, 0.5, 0.9]))
        grid = make_grid(n_s=20, n_y=10, n_t=8)
        slab = 1 if one_slice_slabs else holder._SLAB_BYTES
        with mock.patch.object(holder, "_SLAB_BYTES", slab):
            est = holder_norm(u, k, h_exp, grid, kind=kind)
        assert (est.value, est.derivative_parts) == \
            whole_field_holder_norm(u, k, h_exp, grid, kind)
