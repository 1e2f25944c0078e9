"""Discrete Hoelder-norm estimation under the parabolic distance.

The distance between grid points P = (t, x) and Q = (t', x') is
``sqrt(|x - x'|^2 + |t - t'|)``; a field's order-(k+h) norm adds the plain
sup norm, the Hoelder quotient, the same quotient applied to every spatial
derivative up to order k, and (for k >= 1) the time derivative's
contribution.  Every field is laid out over (t, S, y).

Quotients are estimated over nearest and next-nearest neighbor pairs; for
smooth fields the supremum is attained in the small-separation limit, so
this is the relevant restriction.  Every pair of the ten offsets counts,
but not every pair is read.  A slab of time slices skips an offset where
a bound on its quotient cannot exceed the largest quotient already found,
so the estimate is the full scan's bit for bit.  Two bounds serve:

- the spread max - min of the slab bounds the gap of every pair in it,
  and it is exact, as rounding is monotone;
- a compound offset, such as (0, 1, 1) or (0, 0, 2), chains two unit
  offsets, so by the triangle inequality the unit offsets' gaps bound
  its quotient, with a slack that covers the rounding.

The slab's extremes also give its sup norm.  On a smooth trajectory the
mixed offsets are almost never read, and on a grid whose spatial steps
are large against sqrt(dt) the spatial ones rarely are.
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


class _Scan:
    """The running sup norm and quotient of one field, fed its slabs in
    time order; `_base_norm` shows why skipping is exact."""

    def __init__(self, offsets, den, prune):
        self.offsets, self.den, self.prune = offsets, den, prune
        self.sup = 0.0
        self.gaps = dict.fromkeys(offsets, 0.0)
        self.best = self.skipped = 0.0   # largest quotient scanned, largest bound skipped

    def feed(self, v, n, buf):
        """Scan a slab: the pairs of its first ``n`` slices, and for the
        time offsets those that end in the halo slices after them."""
        # the extremes of the slab and its halo: the largest |v| is one of
        # them, and no two of its nodes lie further apart than they do
        hi, lo = v.max(), v.min()
        self.sup = np.maximum(self.sup, max(abs(hi), abs(lo)))
        spread = float(hi) - float(lo)
        slab = {}            # this slab's gap of each offset scanned
        for off in self.offsets:
            if self.prune:
                bound = spread / self.den[off]
                if off in _PARTS and all(p in slab for p in _PARTS[off]):
                    p, q = _PARTS[off]
                    by_parts = (slab[p] + slab[q]) * _SLACK / self.den[off]
                    if not bound <= by_parts:
                        bound = by_parts
                if bound <= self.best < np.inf:      # so the bound is finite
                    self.skipped = max(self.skipped, bound)
                    continue
            a, b = _pair_views(v if off[0] else v[:n], off)
            if a is None:
                slab[off] = 0.0
                continue
            d = buf[:a.size].reshape(a.shape)
            np.subtract(a, b, out=d)
            slab[off] = max(abs(d.max()), abs(d.min()))
            self.gaps[off] = np.maximum(self.gaps[off], slab[off])
            self.best = max(self.best, slab[off] / self.den[off])

    def result(self):
        quot = 0.0
        for off, gap in self.gaps.items():
            quot = max(quot, float(gap) / self.den[off])
        return float(self.sup), quot


def _base_norm(u, dt, hs, h_exp, fns=(), halo=0, prune=True):
    """Sup norm and largest neighbor-pair quotient |v(P) - v(Q)| / d(P, Q)^h
    of each field of a derivative chain (fns, halo) of `_derivatives`: of
    v = u for an empty chain, else of fns[0](u), fns[1](fns[0](u)), ...
    Returns one (sup, quotient) pair per field.

    The field is walked in slabs of consecutive time slices, each read with
    a halo of the largest time offset, so one slab serves every offset
    while it is in cache.  A derivative is taken slab by slab, on the slab
    and its halos (``halo`` slices per side of the window, then the time
    offset's), so no derivative field of the whole trajectory is built and
    the slices kept are computed exactly as on the whole field; each link
    of a chain differentiates the window the link before made.  Both
    parts are maxima, so the result does not depend on the slab length,
    nor on a pair read twice: a time offset reads the halo slices too, so
    the (1, 0, 0) gaps also cover the pairs that start in the slice after
    the slab, as the bound of (2, 0, 0) needs.

    A slab skips an offset whose bound cannot exceed the largest quotient
    scanned so far, and the bound must be finite.  Two bounds hold:

    - The spread hi - lo of the slab and its halo bounds the gap of every
      pair in it, so spread / distance^h bounds every offset's quotient.
      No slack is needed: for a and b in [lo, hi], |a - b| <= hi - lo, and
      rounding is monotone, so fl|a - b| <= fl(hi - lo).
    - An offset of `_PARTS` chains two unit offsets: the sum of the slab's
      gaps of the two parts, times `_SLACK`, over the offset's
      distance^h.  Here the slack is a proof, not a tolerance; the
      triangle inequality fails for infinities.  With unit roundoff u,
      |fl(a - c)| <= (1 + u)/(1 - u) (fl|a - b| + fl|b - c|); the sum and
      the product lose at most two more factors (1 - u), and (1 - u)^3
      `_SLACK` > 1 + u; in the subnormal range every difference involved
      is exact.

    Correctly rounded division is monotone, so a skipped quotient is at
    most a scanned one, and the result is the full scan's bit for bit, NaN
    and inf included: a NaN or an inf in a slab makes its spread NaN or
    inf, which skips nothing.  A NaN quotient never enters the maximum, so
    a NaN gap in a later slab can drop the quotient a skip leaned on; the
    chain is then scanned again without skips (``prune=False``).
    """
    n_fields = max(1, len(fns))
    if u.size == 0:
        return [(0.0, 0.0)] * n_fields
    nt = u.shape[0]
    offsets = [off for off in _OFFSETS
               if all(abs(o) < n for o, n in zip(off, u.shape))]
    den = {off: _offset_distance(off, dt, hs) ** h_exp for off in offsets}
    reach = max((off[0] for off in offsets), default=0)
    step = max(1, _SLAB_BYTES // u[0].nbytes)
    buf = np.empty(min(step + 1, nt) * u[0].size)
    scans = [_Scan(offsets, den, prune) for _ in range(n_fields)]
    for t0 in range(0, nt, step):
        t1 = min(t0 + step, nt)
        t2 = min(t1 + reach, nt)
        w0, w1 = max(0, t0 - halo), min(nt, t2 + halo)
        v = u[w0:w1]
        for fn, scan in zip(fns or (None,), scans):
            if fn is not None:
                v = fn(v)
            scan.feed(v[t0 - w0:t2 - w0], t1 - t0, buf)
    results = [scan.result() for scan in scans]
    if any(quot < scan.skipped for (_, quot), scan in zip(results, scans)):
        return _base_norm(u, dt, hs, h_exp, fns, halo, prune=False)
    return results


# the derivative parts of an order-(k+h) norm, in the order it adds them
_PART_NAMES = ("dS", "dy", "dSS", "dyy", "dSy", "dt")


def _derivatives(dt, hs, k, shape):
    """Yield (names, fns, halo) for spatial derivatives up to order k plus d/dt.

    Each ``fns`` is a chain for `_base_norm`: ``fns[0]`` differentiates a
    window of consecutive time slices, and each later link the window the
    one before made; ``names[i]`` is the field after ``fns[i]``.  dSy is the
    y-derivative of dS, so its chain extends dS's, the computation of
    ``fd.d2_cross``.  ``halo`` is the number of neighbor slices per side the
    window needs.  d/dt needs one for its centered difference and takes
    two, so that a window at either end of the time axis holds the three
    slices of `fd.d1`'s second-order one-sided formula.  A chain stops
    where `fd` gives zeros: along an axis of ``shape`` shorter than 2
    nodes for a first and 3 for a second derivative (the y-axis of a
    (t, S) field passed as ``u[..., None]``); the names past its end are
    those fields, which are not scanned.
    """
    n_s, n_y = shape[1:]
    d_s, d_y = (partial(fd.d1, h=h, axis=ax) for h, ax in zip(hs, (1, 2)))
    if k >= 1:
        names = ("dS", "dSy") if k >= 2 else ("dS",)
        chain = (d_s, d_y) if n_s >= 2 and n_y >= 2 else (d_s,) if n_s >= 2 else ()
        yield names, chain[:len(names)], 0
        yield ("dy",), (d_y,) if n_y >= 2 else (), 0
    if k >= 2:
        for name, h, ax, m in (("dSS", hs[0], 1, n_s), ("dyy", hs[1], 2, n_y)):
            yield (name,), (partial(fd.d2, h=h, axis=ax),) if m >= 3 else (), 0
    if k >= 1:
        yield ("dt",), (partial(fd.d1, h=dt, axis=0),) if shape[0] >= 2 else (), 2


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
    (sup, quot), = _base_norm(u, dt, hs, h)
    parts = {}
    for names, fns, halo in _derivatives(dt, hs, k, u.shape):
        norms = _base_norm(u, dt, hs, h, fns, halo) if fns else []
        parts.update(zip(names, (float(s + q) for s, q in norms)))
        parts.update(dict.fromkeys(names[len(norms):], 0.0))
    parts = {name: parts[name] for name in _PART_NAMES if name in parts}
    value = sup + quot
    for part in parts.values():
        value += part
    return HolderNormEstimate(float(value), float(sup), float(quot), parts, k, h)
