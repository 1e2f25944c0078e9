import collections
import functools
import itertools
import math
import warnings
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


def all_pairs_quotient(u, grid, h_exp):
    """Hoelder quotient over every node pair of a small (t, S, y) field
    (oracle); a length-1 axis adds no separation."""
    spacings = (None, grid.ds, grid.dy)
    grids = np.meshgrid(*[np.arange(n) for n in u.shape], indexing="ij")
    flat = u.ravel()
    n = flat.size
    assert n <= 4000, "all-pairs quotient restricted to <= 4000 nodes"
    cols = [g.ravel().astype(float) for g in grids]
    best = 0.0
    for i in range(n - 1):
        d2 = np.zeros(n - i - 1)
        for c, h in zip(cols, spacings):
            delta = c[i + 1:] - c[i]
            if h is None:
                d2 += np.abs(delta) * grid.dt
            else:
                d2 += (delta * h) ** 2
        dist = np.sqrt(d2)
        gaps = np.abs(flat[i + 1:] - flat[i])
        mask = dist > 0
        if mask.any():
            best = max(best, float(np.max(gaps[mask] / dist[mask] ** h_exp)))
    return best


def unblocked_base_norm(u, dt, hs, h_exp):
    """Sup norm and neighbor quotient of a (t, S, y) field with one
    full-array pass per offset; offsets longer than an axis pair nothing."""
    sup = float(np.max(np.abs(u))) if u.size else 0.0
    best = 0.0
    for off in holder._OFFSETS:
        a, b = holder._pair_views(u, off)
        if a is None or a.size == 0:
            continue
        d2 = abs(off[0]) * dt
        for o, h in zip(off[1:], hs):
            d2 += (o * h) ** 2
        gap = float(np.max(np.abs(a - b)))
        best = max(best, gap / np.sqrt(d2) ** h_exp)
    return sup, best


def smooth_random_field(rng, grid, kind="Sy"):
    """A smooth (t, S, y) field: one slice for kind "Sy", every time node
    for "tSy"."""
    s = grid.s_nodes[:, None] / grid.s_max
    y = grid.y_nodes[None, :]
    a, b, c = rng.uniform(-1, 1, 3)
    f = a * np.sin(2 * s + y) + b * np.cos(s - 2 * y) + c * s * y
    if kind == "tSy":
        t = grid.t_nodes[:, None, None]
        return f[None] * (1.0 + 0.3 * np.sin(t))
    return f[None]


class TestBaseNorm:
    def test_constant_field(self):
        grid = make_grid(n_s=16, n_y=12, n_t=8)
        u = np.full((1, grid.n_s + 2, grid.n_y + 2), -4.2)
        est = holder_norm(u, 0, grid)
        assert est.value == 4.2
        assert est.quotient == 0.0

    def test_linear_1d_neighbor_quotient(self):
        # u(x) = x on [0, 1]; neighbor pairs give gap/d^h = (k dx)^(1/2),
        # largest for the next-nearest offset
        grid = make_grid(n_s=98, n_y=12, n_t=8, s_span=(0.0, 1.0))
        u = grid.s_nodes[None, :, None].copy()
        est = holder_norm(u, 0, grid)
        dx = grid.ds
        assert est.sup_norm == pytest.approx(1.0)
        assert est.quotient == pytest.approx(math.sqrt(2 * dx), rel=1e-12)
        assert est.value == pytest.approx(1.0 + math.sqrt(2 * dx), rel=1e-12)

    def test_linear_1d_all_pairs_matches_brute_force(self):
        grid = make_grid(n_s=30, n_y=12, n_t=8, s_span=(0.0, 1.0))
        u = grid.s_nodes ** 2
        quot = all_pairs_quotient(u[None, :, None], grid, 0.5)
        coords = [(0.0, s) for s in grid.s_nodes]
        oracle = brute_force_quotient(list(u), coords, 0.5)
        assert quot == pytest.approx(oracle, rel=1e-12)

    def test_space_time_all_pairs_matches_brute_force(self):
        grid = make_grid(n_s=8, n_y=8, n_t=5, horizon=0.3)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((grid.n_t + 1, grid.n_s + 2))
        quot = all_pairs_quotient(u[..., None], grid, 0.4)
        coords = [(t, s) for t in grid.t_nodes for s in grid.s_nodes]
        oracle = brute_force_quotient(list(u.ravel()), coords, 0.4)
        assert quot == pytest.approx(oracle, rel=1e-12)

    def test_neighbor_below_all_pairs(self):
        grid = make_grid(n_s=14, n_y=10, n_t=6)
        rng = np.random.default_rng(11)
        u = smooth_random_field(rng, grid)
        near = holder_norm(u, 0, grid).quotient
        full = all_pairs_quotient(u, grid, 0.5)
        assert near <= full + 1e-12


class TestAlgebraAndMonotonicity:
    def test_product_inequality_20_random_pairs(self):
        # the space is an algebra: |uv| <= |u| |v| at the base level
        grid = make_grid(n_s=20, n_y=16, n_t=8)
        rng = np.random.default_rng(42)
        for _ in range(20):
            u = smooth_random_field(rng, grid)
            v = smooth_random_field(rng, grid)
            nu = holder_norm(u, 0, grid).value
            nv = holder_norm(v, 0, grid).value
            nuv = holder_norm(u * v, 0, grid).value
            assert nuv <= nu * nv + 1e-12

    @pytest.mark.parametrize("kind", ["Sy", "tSy"])
    def test_monotone_in_k(self, kind):
        grid = make_grid(n_s=20, n_y=16, n_t=8)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = smooth_random_field(rng, grid, kind=kind)
            n0 = holder_norm(u, 0, grid).value
            n1 = holder_norm(u, 1, grid).value
            n2 = holder_norm(u, 2, grid).value
            assert n0 <= n1 <= n2

    def test_value_at_least_sup(self):
        grid = make_grid(n_s=20, n_y=16, n_t=8)
        rng = np.random.default_rng(9)
        u = smooth_random_field(rng, grid)
        est = holder_norm(u, 2, grid)
        assert est.value >= est.sup_norm
        assert all(v >= 0 for v in est.derivative_parts.values())

    def test_invalid_estimate_rejected(self):
        with pytest.raises(ValueError):
            HolderNormEstimate(value=0.5, sup_norm=1.0, quotient=0.0)

    @pytest.mark.parametrize("shape", [(22, 18), (9, 22, 18, 1), (22,)])
    def test_field_without_three_axes_rejected(self, shape):
        grid = make_grid(n_s=20, n_y=16, n_t=8)
        with pytest.raises(ValueError, match="expected a"):
            holder_norm(np.ones(shape), 2, grid)

    def test_constant_in_time_extension_equals_slice_norm(self):
        # a field constant in time has no time contributions, so its
        # space-time norm equals the norm of one slice: the spatial parts
        # bit for bit, while the second-order one-sided edge formula of
        # d/dt leaves round-off where one slice gives an exact zero
        grid = make_grid(n_s=20, n_y=16, n_t=8)
        rng = np.random.default_rng(13)
        u2 = smooth_random_field(rng, grid)[0]
        u3 = np.broadcast_to(u2, (grid.n_t + 1,) + u2.shape)
        n2 = holder_norm(u2[None], 2, grid)
        n3 = holder_norm(u3, 2, grid)
        assert (n3.sup_norm, n3.quotient) == (n2.sup_norm, n2.quotient)
        dt2, dt3 = n2.derivative_parts.pop("dt"), n3.derivative_parts.pop("dt")
        assert n3.derivative_parts == n2.derivative_parts
        assert dt2 == 0.0 and dt3 <= 1e-12 * n2.sup_norm
        assert n3.value == pytest.approx(n2.value, rel=1e-12)


# the layouts the norm is taken of, as (t, S, y) fields: a trajectory, a
# (t, S) field, one slice and one S line; an axis a layout lacks has length 1
LAYOUTS = {"tSy": (True, True), "tS": (True, False), "Sy": (False, True),
           "S": (False, False)}


@st.composite
def fields(draw):
    """A (t, S, y) field of any layout; time lengths 1-3 leave time offsets
    unpaired."""
    has_t, has_y = LAYOUTS[draw(st.sampled_from(list(LAYOUTS)))]
    shape = (draw(st.integers(1, 11)) if has_t else 1, draw(st.integers(0, 5)),
             draw(st.integers(0, 5)) if has_y else 1)
    return draw(arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)))


class TestSlabBlocking:
    @settings(max_examples=300, deadline=None)
    @given(fields(), st.integers(1, 5), st.sampled_from([0.3, 0.5, 0.9]))
    def test_blocked_equals_unblocked(self, u, slab, h_exp):
        dt, hs = 0.01, (3.0, 0.02)
        ref = unblocked_base_norm(u, dt, hs, h_exp)
        # slab lengths 1..5 slices, so most time lengths are no multiple
        with mock.patch.object(holder, "_SLAB_BYTES", slab * u[0].nbytes):
            got, = holder._base_norm(u, dt, hs, h_exp)
        assert got == ref

    @pytest.mark.parametrize("n_t", [1, 2, 3, 17])
    def test_default_slab_matches_unblocked(self, n_t):
        # a time slice of 40 kB gives slabs of 13, so n_t = 17 ends mid-slab
        rng = np.random.default_rng(n_t)
        u = rng.standard_normal((n_t, 100, 50))
        dt, hs = 0.01, (3.0, 0.02)
        ref = unblocked_base_norm(u, dt, hs, 0.5)
        assert holder._base_norm(u, dt, hs, 0.5) == [ref]


@st.composite
def smooth_fields(draw):
    """A smooth (t, S, y) field of any layout with up to two NaN or infinite
    entries: the bounds of the pruned scan fire on smooth values, where on
    noise they rarely do."""
    has_t, has_y = LAYOUTS[draw(st.sampled_from(list(LAYOUTS)))]
    shape = (draw(st.integers(1, 11)) if has_t else 1, draw(st.integers(1, 8)),
             draw(st.integers(1, 8)) if has_y else 1)
    t, s, y = np.meshgrid(*map(np.arange, shape), indexing="ij")
    a, b, c, w = (draw(st.floats(-1, 1)) for _ in range(4))
    u = (a * np.sin(w * s + 0.3 * y) + b * np.cos(0.2 * t - w * y)
         + c * s * y / 10)
    for _ in range(draw(st.integers(0, 2))):
        node = tuple(draw(st.integers(0, n - 1)) for n in shape)
        u[node] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return u


class TestPrunedScan:
    @staticmethod
    def assert_pruned_equals_unblocked(u, slab_bytes, dt, hs, h_exp):
        # inf - inf is the one invalid operation these fields allow: its
        # warnings are recorded and checked here, not printed per example
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            ref = unblocked_base_norm(u, dt, hs, h_exp)
            with mock.patch.object(holder, "_SLAB_BYTES", slab_bytes):
                got, = holder._base_norm(u, dt, hs, h_exp)
        assert np.array(got).tobytes() == np.array(ref).tobytes()
        assert all(w.category is RuntimeWarning
                   and str(w.message).startswith("invalid value") for w in seen)
        assert not seen or np.isinf(u).any()

    @settings(max_examples=300, deadline=None)
    @given(smooth_fields(), st.integers(1, 5), st.sampled_from([0.3, 0.5, 0.9]),
           st.tuples(*[st.sampled_from([1e-4, 1e-2, 1.0, 30.0])] * 3))
    def test_pruned_equals_unblocked_on_smooth_fields(self, u, slab, h_exp,
                                                      spacings):
        # dt, dS and dy of any ratio, so each offset can hold the maximum
        dt, *hs = spacings
        self.assert_pruned_equals_unblocked(u, slab * u[0].nbytes, dt, hs, h_exp)

    @pytest.mark.parametrize("u", [
        # a linear field makes the triangle inequality an equality: the
        # (0, 1, 1) quotient tops the (0, 0, 2) one by 0.05%, so it is read
        np.arange(2)[None, :, None] * (1.0005 * 2 ** 0.75 - 1)
        + np.arange(3)[None, None, :],
        # the (1, 0, 0) pairs that start in slice 0 bound the (2, 0, 0)
        # pairs by 2.02, below the 2.2 of its (0, 1, 0) pair, but the one
        # at S = 0 reads 2.52: its larger half, 1 -> 3, starts in slice 1
        np.array([[0.0, 2.2], [1.0, 1.0], [3.0, 3.0]])[..., None],
        # infinite parts bound nothing: inf - inf is NaN, which drops the
        # (0, 2, 0) quotient from the full scan
        np.array([[np.inf, -np.inf, np.inf], [0.0, -np.inf, -np.inf]])[..., None],
    ], ids=["tight-triangle", "next-slice-half", "infinite-parts"])
    def test_bound_edges_equal_unblocked(self, u):
        self.assert_pruned_equals_unblocked(u, u[0].nbytes, 1.0, (1.0, 1.0), 0.5)

    @settings(max_examples=300, deadline=None)
    @given(smooth_fields(), st.integers(1, 5), st.sampled_from([0.3, 0.5, 0.9]),
           st.sampled_from([1e-6, 1e-4]), st.sampled_from([30.0, 1e3]),
           st.sampled_from([30.0, 1e3]))
    def test_pruned_equals_unblocked_where_the_extremes_bound_fires(
            self, u, slab, h_exp, dt, ds, dy):
        # time steps far below the squared spatial ones make the time
        # quotients the largest, so the spread of a slab bounds the spatial
        # offsets, unit ones included, below them
        self.assert_pruned_equals_unblocked(u, slab * u[0].nbytes, dt, (ds, dy), h_exp)

    @pytest.mark.parametrize("u", [
        np.zeros((3, 4, 5)),
        np.full((3, 4, 5), -0.0),
        # -0.0 at both extremes: the sup is |-0.0| = +0.0, as np.abs gives
        np.array([[[-0.0]]]),
        np.array([[[-0.0, 0.0], [0.0, -0.0]]]),
        np.array([[[1.0, -2.0], [np.nan, 0.5]], [[0.0, 1.0], [2.0, 3.0]]]),
        np.array([[[1.0, -2.0], [0.25, 0.5]], [[0.0, np.inf], [2.0, 3.0]]]),
        np.array([[[1.0, -np.inf], [0.25, 0.5]], [[0.0, 1.0], [np.inf, 3.0]]]),
    ], ids=["zero", "negative-zero", "one-negative-zero", "signed-zeros", "nan",
            "inf", "both-infs"])
    @pytest.mark.parametrize("slab", [1, 2])
    def test_special_values_equal_unblocked(self, u, slab):
        self.assert_pruned_equals_unblocked(u, slab * u[0].nbytes, 1e-4, (30.0, 1e3), 0.5)
        self.assert_pruned_equals_unblocked(u, slab * u[0].nbytes, 1.0, (1.0, 1.0), 0.5)

    def test_extremes_bound_skips_unit_offsets(self):
        # a smooth trajectory on a grid whose spatial steps dwarf sqrt(dt):
        # (0, 1, 0), the first offset, is read in the first slab alone, and
        # every other spatial offset in none, as the (1, 0, 0) quotient tops
        # each one's bound; the result is the full scan's
        t, s, y = np.meshgrid(*map(np.arange, (12, 6, 5)), indexing="ij")
        u = np.sin(0.3 * t + 0.2 * s) * np.cos(0.1 * y)
        counts = collections.Counter()

        def spy(v, off, real=holder._pair_views):
            counts[off] += 1
            return real(v, off)
        with mock.patch.object(holder, "_SLAB_BYTES", 2 * u[0].nbytes), \
                mock.patch.object(holder, "_pair_views", spy):
            got, = holder._base_norm(u, 1e-6, (30.0, 1e3), 0.5)
        assert got == unblocked_base_norm(u, 1e-6, (30.0, 1e3), 0.5)
        assert counts[(1, 0, 0)] == 6 and counts[(0, 1, 0)] == 1
        assert sum(counts[off] for off in counts if not off[0]) == 1

    def test_nan_after_a_skip_rescans(self):
        # slice 0 skips pairs on the strength of offsets that the NaN of
        # slice 1 drops from the maximum; without the rescan the quotient
        # would read 0.816 instead of 2.041
        u = np.array([[[2., 2., 0.], [-1., -3., -1.], [-1., -3., -3.]],
                      [[3., 1., -2.], [0., 3., np.nan], [2., -1., 0.]]])
        dt, hs = 0.01, (3.0, 0.02)
        with mock.patch.object(holder, "_SLAB_BYTES", u[0].nbytes), \
                mock.patch.object(holder, "_base_norm",
                                  wraps=holder._base_norm) as base:
            got, = holder._base_norm(u, dt, hs, 0.5)
        assert base.call_count == 2
        ref = unblocked_base_norm(u, dt, hs, 0.5)
        assert np.array(got).tobytes() == np.array(ref).tobytes()

    def test_mixed_offsets_are_skipped_on_a_smooth_trajectory(self):
        # the demo-05 grid
        grid = make_grid(n_s=100, n_y=50, n_t=100, y_span=(-0.5, 0.5))
        u = smooth_random_field(np.random.default_rng(0), grid, kind="tSy")
        pair_views = holder._pair_views

        def scan(parts):
            counts = collections.Counter()

            def spy(v, off):
                counts[off] += 1
                return pair_views(v, off)
            with mock.patch.object(holder, "_PARTS", parts), \
                    mock.patch.object(holder, "_pair_views", spy):
                return holder_norm(u, 2, grid), counts
        est, pruned = scan(holder._PARTS)
        # no bounds: every offset, every slab
        with mock.patch.object(holder, "_base_norm",
                               functools.partial(holder._base_norm, prune=False)):
            full_est, full = scan(holder._PARTS)
        assert est == full_est
        assert [pruned[off] for off in [(0, 1, 1), (0, 1, -1), (1, 1, 0),
                                        (1, 0, 1)]] == [0, 0, 0, 0]
        # 10 offsets per slab in full, the 3 unit ones and a few more pruned
        assert sum(pruned.values()) < 0.45 * sum(full.values())


def whole_field_holder_norm(u, k, grid):
    """(value, derivative parts) of the order-(k+h) norm of a (t, S, y)
    field with every derivative built over the whole field (oracle)."""
    dt, hs, h_exp = grid.dt, (grid.ds, grid.dy), grid.holder_exp
    named = list(zip("Sy", hs, (1, 2)))
    derivs = []
    if k >= 1:
        derivs += [(f"d{n}", fd.d1(u, h, axis=ax)) for n, h, ax in named]
    if k >= 2:
        derivs += [(f"d{n}{n}", fd.d2(u, h, axis=ax)) for n, h, ax in named]
        derivs.append(("dSy", fd.d2_cross(u, *hs)))
    if k >= 1:
        derivs.append(("dt", fd.d1(u, dt, axis=0)))
    sup, quot = unblocked_base_norm(u, dt, hs, h_exp)
    value = sup + quot
    parts = {}
    for name, f in derivs:
        s, q = unblocked_base_norm(f, dt, hs, h_exp)
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
        _, has_y = LAYOUTS[data.draw(st.sampled_from(["tSy", "tS"]))]
        shape = (n_times, data.draw(st.integers(0, 6)),
                 data.draw(st.integers(0, 6)) if has_y else 1)
        u = data.draw(arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)))
        k = data.draw(st.sampled_from([0, 1, 2]))
        h_exp = data.draw(st.sampled_from([0.3, 0.5, 0.9]))
        grid = make_grid(n_s=20, n_y=10, n_t=8, h=h_exp)
        slab = 1 if one_slice_slabs else holder._SLAB_BYTES
        with mock.patch.object(holder, "_SLAB_BYTES", slab):
            est = holder_norm(u, k, grid)
        assert (est.value, est.derivative_parts) == \
            whole_field_holder_norm(u, k, grid)


class TestShortAxisDerivatives:
    @pytest.mark.parametrize("n_y, scanned", [
        (1, ["dS", "dSS", "dt"]),
        (2, ["dS", "dy", "dSS", "dSy", "dt"]),
        (3, ["dS", "dy", "dSS", "dyy", "dSy", "dt"])])
    def test_zero_parts_are_not_scanned(self, n_y, scanned):
        # a derivative along an axis too short for it is exactly 0.0 and
        # is not scanned; the value is the whole-field oracle's
        u = np.random.default_rng(n_y).standard_normal((6, 7, n_y))
        grid = make_grid(n_s=20, n_y=10, n_t=8)
        with mock.patch.object(holder, "_base_norm",
                               wraps=holder._base_norm) as base:
            est = holder_norm(u, 2, grid)
        # u, then each link of each derivative chain (dSy extends dS's)
        walked = [len(call.args[4]) if len(call.args) > 4 else 1
                  for call in base.call_args_list]
        assert walked[0] == 1 and sum(walked) == 1 + len(scanned)
        assert all(p != 0.0 for n, p in est.derivative_parts.items()
                   if n in scanned)
        assert all(p == 0.0 for n, p in est.derivative_parts.items()
                   if n not in scanned)
        assert (est.value, est.derivative_parts) == \
            whole_field_holder_norm(u, 2, grid)
