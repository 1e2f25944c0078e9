"""Discrete Hoelder-norm estimation under the parabolic distance.

The distance between grid points P = (t, x) and Q = (t', x') is
``sqrt(|x - x'|^2 + |t - t'|)``; a field's order-(k+h) norm adds the plain
sup norm, the Hoelder quotient, the same quotient applied to every spatial
derivative up to order k, and (for k >= 1) the time derivative's
contribution.  Every field is laid out over (t, S, y).

Quotients are estimated over nearest and next-nearest neighbor pairs; for
smooth fields the supremum is attained in the small-separation limit, so
this is the relevant restriction.  Every pair of the ten offsets counts,
but not every pair is read: a compound offset, such as (0, 1, 1) or
(0, 0, 2), chains two unit offsets, so by the triangle inequality the
unit offsets' gaps bound its quotient.  A slab of time slices skips it
where that bound, with a slack that covers the rounding, cannot exceed the
largest quotient already found, so the estimate is the full scan's bit
for bit.  On a smooth trajectory the mixed offsets are almost never read.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import fd

# (t, S, y) index offsets defining the neighbor pairs, in the order each
# slab scans them: the unit offsets, whose gaps make every bound; the
# doubled ones, which hold the largest quotient of a smooth field; and the
# mixed ones, which that quotient usually bounds
_OFFSETS = [(0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 2, 0), (0, 0, 2), (2, 0, 0),
            (0, 1, 1), (0, 1, -1), (1, 1, 0), (1, 0, 1)]
# the two unit offsets a compound offset chains: a pair P, P + off passes
# through a middle node, spatial step first, so each of its two unit pairs
# starts in P's time slice or, for (2, 0, 0), the next one, and a slab's
# gaps of the parts bound its gap of off
_PARTS = {(0, 2, 0): ((0, 1, 0), (0, 1, 0)), (0, 0, 2): ((0, 0, 1), (0, 0, 1)),
          (2, 0, 0): ((1, 0, 0), (1, 0, 0)),
          (0, 1, 1): ((0, 1, 0), (0, 0, 1)), (0, 1, -1): ((0, 1, 0), (0, 0, 1)),
          (1, 1, 0): ((0, 1, 0), (1, 0, 0)), (1, 0, 1): ((0, 0, 1), (1, 0, 0))}
# relative slack of those bounds; `_base_norm` shows it covers the rounding
_SLACK = 1 + 1e-12
# byte budget of one slab of time slices in `_base_norm`.  Each slab of a
# derivative is differentiated on its own, with a few slab-sized
# temporaries: at 256 kB the per-slab calls made a 200x100x200 norm about
# 1.2x slower than whole-field derivatives, at 512 kB it is as fast, and
# larger slabs only raise peak memory
_SLAB_BYTES = 1 << 19


@dataclass
class HolderNormEstimate:
    """Norm estimate split into its constituent parts."""

    value: float
    sup_norm: float
    quotient: float
    derivative_parts: dict = field(default_factory=dict)
    k: int = 0
    h: float = 0.5

    def __post_init__(self):
        if self.value < self.sup_norm - 1e-12:
            raise ValueError("norm estimate below its sup-norm part")


def _pair_views(u, offset):
    """Views of ``u`` pairing every two nodes ``offset`` apart, or (None, None)."""
    a, b = [], []
    for o, n in zip(offset, u.shape):
        if o and abs(o) >= n:
            return None, None
        a.append(slice(o, None) if o > 0 else slice(None, o or None))
        b.append(slice(None, n - o) if o > 0 else slice(-o, None))
    return u[tuple(a)], u[tuple(b)]


def _offset_distance(offset, dt, hs):
    """Parabolic length of a (t, S, y) index offset."""
    d2 = abs(offset[0]) * dt
    for o, h in zip(offset[1:], hs):
        d2 += (o * h) ** 2
    return np.sqrt(d2)


def _base_norm(u, dt, hs, h_exp, fn=None, halo=0, prune=True):
    """Sup norm and largest neighbor-pair quotient |v(P) - v(Q)| / d(P, Q)^h
    of v = u, or of v = fn(u) for a derivative (fn, halo) of `_derivatives`.

    The field is walked in slabs of consecutive time slices, each read with
    a halo of the largest time offset, so one slab serves every offset
    while it is in cache.  A derivative is taken slab by slab, on the slab
    and its halos, so no derivative field of the whole trajectory is built
    and the slices kept are computed exactly as on the whole field.  Both
    parts are maxima, so the result does not depend on the slab length,
    nor on a pair read twice: a time offset reads the halo slices too, so
    the (1, 0, 0) gaps also cover the pairs that start in the slice after
    the slab, as the bound of (2, 0, 0) needs.

    A slab skips an offset of `_PARTS` whose bound cannot exceed the
    largest quotient scanned so far.  The bound is the sum of the slab's
    gaps of the two parts, times `_SLACK`, over the offset's distance^h,
    and it must be finite: the triangle inequality fails for infinities.
    The slack is a proof, not a tolerance.  With unit roundoff u,
    |fl(a - c)| <= (1 + u)/(1 - u) (fl|a - b| + fl|b - c|); the sum and
    the product lose at most two more factors (1 - u), and (1 - u)^3
    `_SLACK` > 1 + u; in the subnormal range every difference involved is
    exact.  Correctly rounded division is monotone, so a skipped quotient
    is at most a scanned one, and the result is the full scan's bit for
    bit, NaN and inf included.  A NaN quotient never enters the maximum,
    so a NaN gap in a later slab can drop the quotient a skip leaned on;
    the scan is then redone without skips (``prune=False``).
    """
    if u.size == 0:
        return 0.0, 0.0
    nt = u.shape[0]
    offsets = [off for off in _OFFSETS
               if all(abs(o) < n for o, n in zip(off, u.shape))]
    den = {off: _offset_distance(off, dt, hs) ** h_exp for off in offsets}
    reach = max((off[0] for off in offsets), default=0)
    step = max(1, _SLAB_BYTES // u[0].nbytes)
    buf = np.empty(min(step + 1, nt) * u[0].size)
    sup = 0.0
    gaps = dict.fromkeys(offsets, 0.0)
    best = skipped = 0.0     # largest quotient scanned, largest bound skipped
    for t0 in range(0, nt, step):
        t1 = min(t0 + step, nt)
        t2 = min(t1 + reach, nt)
        if fn is None:
            v = u[t0:t2]
        else:
            w0, w1 = max(0, t0 - halo), min(nt, t2 + halo)
            v = fn(u[w0:w1])[t0 - w0:t2 - w0]
        d = buf[:(t1 - t0) * u[0].size].reshape((t1 - t0,) + u.shape[1:])
        np.abs(v[:t1 - t0], out=d)
        sup = np.maximum(sup, d.max())
        slab = {}            # this slab's gap of each offset scanned
        for off in offsets:
            if prune and off in _PARTS:
                p, q = _PARTS[off]
                bound = (slab[p] + slab[q]) * _SLACK / den[off]
                if bound <= best < np.inf:       # so the bound is finite
                    skipped = max(skipped, bound)
                    continue
            a, b = _pair_views(v if off[0] else v[:t1 - t0], off)
            if a is None:
                slab[off] = 0.0
                continue
            d = buf[:a.size].reshape(a.shape)
            np.subtract(a, b, out=d)
            np.abs(d, out=d)
            slab[off] = d.max()
            gaps[off] = np.maximum(gaps[off], slab[off])
            best = max(best, slab[off] / den[off])
    quot = 0.0
    for off, gap in gaps.items():
        quot = max(quot, float(gap) / den[off])
    if quot < skipped:
        return _base_norm(u, dt, hs, h_exp, fn, halo, prune=False)
    return float(sup), quot


def _derivatives(dt, hs, k, shape):
    """Yield (name, fn, halo) for spatial derivatives up to order k plus d/dt.

    Each ``fn`` differentiates a window of consecutive time slices;
    ``halo`` is the number of neighbor slices per side the window needs.
    d/dt needs one for its centered difference and takes two, so that a
    window at either end of the time axis holds the three slices of
    `fd.d1`'s second-order one-sided formula.  ``fn`` is None where `fd`
    gives zeros: along an axis of ``shape`` shorter than 2 nodes for a
    first and 3 for a second derivative (the y-axis of a (t, S) field
    passed as ``u[..., None]``).
    """
    named = [(n, h, ax, shape[ax]) for n, h, ax in zip("Sy", hs, (1, 2))]
    if k >= 1:
        for n, h, ax, m in named:
            yield f"d{n}", partial(fd.d1, h=h, axis=ax) if m >= 2 else None, 0
    if k >= 2:
        for n, h, ax, m in named:
            yield f"d{n}{n}", partial(fd.d2, h=h, axis=ax) if m >= 3 else None, 0
        yield "dSy", (partial(fd.d2_cross, hx=hs[0], hy=hs[1])
                      if min(shape[1:]) >= 2 else None), 0
    if k >= 1:
        yield "dt", partial(fd.d1, h=dt, axis=0) if shape[0] >= 2 else None, 2


def holder_norm(u: np.ndarray, k: int, grid) -> HolderNormEstimate:
    """Estimate the order-(k+h) Hoelder norm of a (t, S, y) grid field.

    Args:
        u: field over (t, S, y) nodes.  Pass one slice as ``u[None]`` and a
            (t, S) field as ``u[..., None]``; a length-1 axis adds no pairs,
            and the derivative parts along it are 0.0 without a scan.
        k: number of spatial derivative orders to include (0, 1 or 2).
        grid: GridSpec supplying the spacings and the exponent
            ``grid.holder_exp``.

    Raises:
        ValueError: ``k`` is not 0, 1 or 2, or ``u`` does not have 3 axes.
    """
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    u = np.asarray(u, dtype=float)
    if u.ndim != 3:
        raise ValueError(f"expected a (t, S, y) field, got {u.ndim} axes")
    h, dt, hs = grid.holder_exp, grid.dt, (grid.ds, grid.dy)
    sup, quot = _base_norm(u, dt, hs, h)
    value = sup + quot
    parts = {}
    for name, fn, halo in _derivatives(dt, hs, k, u.shape):
        if fn is None:
            parts[name] = 0.0
            continue
        s, q = _base_norm(u, dt, hs, h, fn, halo)
        parts[name] = float(s + q)
        value += s + q
    return HolderNormEstimate(float(value), float(sup), float(quot), parts, k, h)
