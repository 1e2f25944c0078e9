"""End-to-end calibration pipeline: quotes in, leverage surface out.

Configuration is a flat ``key = value`` text file (see README for the key
table).  The pipeline builds the implied-variance surface, extracts Dupire
local volatility, solves the nonlocal forward equation for the joint
density, derives the leverage surface and verifies the calibration by
comparing the solution's spot marginal against the one-dimensional forward
solve.  All artifacts are written atomically; timestamps live only in a
metadata sidecar so identical inputs give byte-identical outputs.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from . import fixed_point
from ._version import __version__
from .errors import (CalibrationError, HorizonExhausted, MembershipLost,
                     NotConverged)
from .fixed_point import (IterateBounds, iterate, shrink_horizon,
                          solve_lagged)
from .fd import trapezoid_weights
from .grids import GridSpec
from .linpde import compatibility_residual
from .market import (_bs_call, build_implied_surface, check_price_bounds,
                     dupire_forward_solve, dupire_local_vol,
                     implied_vol_from_price, load_quotes)
from .mixing import b_values, leverage, ratio_of_marginals
from .model import (B_REF_MODES, ModelSpec, SpotAmplitude, convert_correlation,
                    grid_mass, smoothed_dirac, validate_model)


# ---------------------------------------------------------------------------
# coefficient builtins
# ---------------------------------------------------------------------------

def _table_fn(path):
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in fh.readlines()[1:] if r.split("#", 1)[0].strip()]
    # fewer than two rows fail the check below unparsed: loadtxt warns on none
    data = (np.loadtxt(rows, delimiter=",", ndmin=2) if len(rows) > 1
            else np.empty((0, 0)))
    if (data.shape[0] < 2 or data.shape[1] < 2 or not np.all(np.isfinite(data[:, :2]))
            or not np.all(np.diff(data[:, 0]) > 0)):
        raise ValueError(f"table {path}: needs two or more finite x,value rows "
                         f"with strictly increasing x")
    xs, vs = data[:, 0], data[:, 1]

    def fn(y):
        return np.interp(np.asarray(y, dtype=float), xs, vs)
    return fn


_BUILTIN_FORMS = {
    "const": "const:v", "exp": "exp", "exp_clamped": "exp_clamped:lo:hi",
    "sqrt1p_sin": "sqrt1p_sin:s[:floor]", "cir": "cir:nu:floor",
    "mean_revert": "mean_revert:kappa:theta", "table": "table:file.csv",
}


def builtin_y_function(spec_str: str, base_dir: str = "."):
    """Resolve a named y-function written in one of the ``_BUILTIN_FORMS``.

    Raises:
        ValueError: unknown name, an argument count the form rejects, an
            argument that is not a finite number, a negative floor, or
            ``exp_clamped`` with lo > hi.
    """
    name, *args = spec_str.strip().split(":")
    form = _BUILTIN_FORMS.get(name)
    if form is None:
        raise ValueError(f"unknown builtin {spec_str!r}")
    # a form's colons count its arguments, its brackets the optional ones
    n_max = form.count(":")
    if not n_max - form.count("[") <= len(args) <= n_max:
        raise ValueError(f"builtin {spec_str!r} does not have the form {form}")
    if name == "table":
        return _table_fn(os.path.join(base_dir, args[0]))
    try:
        v = [float(a) for a in args]
    except ValueError:        # a word that is no number fails as NaN does
        v = [math.nan]
    if not all(map(math.isfinite, v)):
        raise ValueError(f"builtin {spec_str!r} needs finite numbers for {form}")
    # the floor keeps the square root's argument at 0 or above
    if name in ("sqrt1p_sin", "cir") and len(v) == 2 and v[1] < 0:
        raise ValueError(f"builtin {spec_str!r} has a floor below 0")
    if name == "const":
        return lambda y: np.full_like(np.asarray(y, dtype=float), v[0])
    if name == "exp":
        return lambda y: np.exp(np.asarray(y, dtype=float))
    if name == "exp_clamped":
        lo, hi = v
        if lo > hi:            # np.clip would return hi everywhere
            raise ValueError(f"builtin {spec_str!r} has lo > hi")
        return lambda y: np.clip(np.exp(np.asarray(y, dtype=float)), lo, hi)
    if name == "sqrt1p_sin":
        s, floor = v[0], (v[1] if len(v) > 1 else 0.04)
        return lambda y: np.sqrt(np.maximum(1.0 + s * np.sin(np.asarray(y, dtype=float)), floor))
    if name == "cir":
        nu, floor = v
        return lambda y: nu * np.sqrt(np.maximum(np.asarray(y, dtype=float), floor))
    kappa, theta = v                                     # mean_revert:kappa:theta
    return lambda y: kappa * (theta - np.asarray(y, dtype=float))


def _as_txy(fn):
    """Lift a y-function to the (t, S, y) coefficient signature; on the
    y-nodes' row it gives a row (``model.eval_coeff``)."""
    return lambda t, s, y: fn(y)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# Every config key: (type, default, lower bound).  The type is str, int,
# float, bool or a tuple of the words the key takes; a default of None marks a
# required key; the bound is the least value taken (for a str, the least
# length).  Checks that span keys, or that a library function makes (GridSpec,
# validate_model, IterateBounds), stay there.
_POSITIVE = math.ulp(0.0)        # the least float above 0, as a bound
_KEYS = {
    "paths.quotes": (str, None, None),
    "paths.output_dir": (str, "out", 1),         # empty would write beside the config
    "model.b": (str, "const:1.0", None), "model.alpha2": (str, "const:0.2", None),
    "model.beta1": (str, "", None), "model.beta2": (str, "mean_revert:1.0:0.0", None),
    "model.gamma": (str, "", None), "model.b_ref": (B_REF_MODES, "center", None),
    "model.rho": (float, "0.0", None), "model.rate": (float, "0.0", None),
    "model.spot0": (float, "100.0", _POSITIVE), "model.y0": (float, "0.0", None),
    "model.alpha_floor": (float, "1e-4", _POSITIVE),
    "grid.s_min": (float, None, _POSITIVE), "grid.s_max": (float, None, None),
    "grid.y_min": (float, None, None), "grid.y_max": (float, None, None),
    "grid.ns": (int, None, None), "grid.ny": (int, None, None),
    "grid.t": (float, None, None), "grid.nt": (int, None, None),
    "grid.holder_exp": (float, "0.5", None),
    "init.bandwidth_s": (float, None, _POSITIVE),
    "init.bandwidth_y": (float, None, _POSITIVE),
    "init.floor_rel": (float, "1e-6", None),
    "fp.mode": (("fixed-point", "time-lagged"), "fixed-point", None),
    "fp.max_iter": (int, "50", 1), "fp.tol_factor": (float, "1e-8", _POSITIVE),
    "fp.cap_factor": (float, "1.5", _POSITIVE),
    "fp.max_halvings": (int, "6", 0),
    "run.verify": (bool, "true", None),
    "run.snapshot_every": (int, "0", 0),
    "run.snapshot_format": (("csv", "bin"), "csv", None),
    "vol.floor": (float, "0.01", None), "vol.cap": (float, "3.0", None),
    "verify.l1_tol": (float, "1e-2", 0.0), "verify.mass_tol": (float, "5e-3", 0.0),
    "verify.identity_tol": (float, "1e-8", 0.0),
}

_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


@dataclass
class RunConfig:
    """Parsed configuration plus the directory paths are resolved against."""

    values: dict
    base_dir: str = "."

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        values = {k: d for k, (_, d, _) in _KEYS.items() if d is not None}
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{line_no}: expected key = value")
                key, val = (s.strip() for s in line.split("=", 1))
                if key not in _KEYS:
                    raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
                values[key] = val
        missing = [k for k in _KEYS if k not in values]
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        return cls(values=values, base_dir=os.path.dirname(os.path.abspath(path)))

    def get(self, key):
        """The value of ``key`` as its ``_KEYS`` type: one of its words, a
        bool, a str, or a number (a float finite) at or above its bound.
        Each error names the key."""
        kind, _, low = _KEYS[key]
        v = self.values[key]
        if kind is bool or isinstance(kind, tuple):
            words = _BOOLEANS if kind is bool else {w: w for w in kind}
            word = v.strip().lower() if kind is bool else v
            if word not in words:
                raise ValueError(f"{key} = {v!r} is not one of {'/'.join(words)}")
            return words[word]
        try:
            value = kind(v)
        except ValueError:
            raise ValueError(f"{key} = {v!r} does not parse as {kind.__name__}") from None
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{key} = {v!r} is not finite")
        if low is not None and (len(value) if kind is str else value) < low:
            raise ValueError(f"{key} is empty" if value == "" else
                             f"{key} = {v!r} is below {low}")
        return value

    def path(self, key) -> str:
        return os.path.join(self.base_dir, self.get(key))

    def grid(self) -> GridSpec:
        g = self.get
        return GridSpec(s_min=g("grid.s_min"), s_max=g("grid.s_max"),
                        y_min=g("grid.y_min"), y_max=g("grid.y_max"),
                        n_s=g("grid.ns"), n_y=g("grid.ny"), horizon=g("grid.t"),
                        n_t=g("grid.nt"), holder_exp=g("grid.holder_exp"))


# ---------------------------------------------------------------------------
# pricing and verification
# ---------------------------------------------------------------------------

def reprice_calls(q: np.ndarray, strikes, grid: GridSpec) -> np.ndarray:
    """Call prices by quadrature of each spot-marginal row against the payoff.

    ``q`` is one marginal slice (n_s+2,) or a stack of them (n_rows, n_s+2);
    returns an array of shape (n_rows, len(strikes)).  The marginals carry
    the discount already, so the prices are discounted as they are.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if np.any(q < -1e-10):
        raise ValueError("marginal density must be nonnegative")
    strikes = np.asarray(strikes, dtype=float)
    w = trapezoid_weights(grid.n_s + 2, grid.ds)
    payoff = np.maximum(grid.s_nodes[None, :] - strikes[:, None], 0.0)   # (nK, nS)
    return np.array([(payoff * (w * row)[None, :]).sum(axis=1) for row in q])


class DensityRecord:
    """What the artifacts and their verification read of a density
    trajectory, filled one slice at a time by ``record[k] = u``.

    Per slice it keeps the spot marginal ``u @ w``, the weighted marginal
    ``u @ (w b^2)`` (``w`` the trapezoid weights in y) and the mass
    ``grid_mass(u)``; it keeps a copy of the slices whose indices are in
    ``keep``, under ``snapshots`` in the order of ``keep``.  So a sweep that
    fills it slice by slice never holds the whole trajectory.
    """

    def __init__(self, b, grid: GridSpec, n_slices: int, keep=()):
        self.grid = grid
        self._w = trapezoid_weights(grid.n_y + 2, grid.dy)
        bv = b_values(b, grid)
        self._wb = self._w * bv * bv
        self.marginal = np.empty((n_slices, grid.n_s + 2))
        self.weighted = np.empty((n_slices, grid.n_s + 2))
        self.mass = np.empty(n_slices)
        self.snapshots = dict.fromkeys(keep)

    def __len__(self) -> int:
        return len(self.mass)

    def __setitem__(self, k: int, u) -> None:
        self.marginal[k] = u @ self._w
        self.weighted[k] = u @ self._wb
        self.mass[k] = grid_mass(u, self.grid)
        if k in self.snapshots:
            self.snapshots[k] = np.array(u, dtype=float)

    def fill(self, p) -> "DensityRecord":
        """Record each slice of the trajectory ``p`` in turn; returns self."""
        for k, u in enumerate(p):
            self[k] = u
        return self


@dataclass
class VerificationReport:
    """Calibration-quality metrics for one converged run."""

    marginal_l1: dict                  # time -> L1 distance q_p vs q_D
    mass_drift: float
    identity_max_rel: float
    reprice_max_rel_err: float | None
    gates: dict
    extras: dict = field(default_factory=dict)

    @property
    def all_within_tolerance(self) -> bool:
        return all(self.gates.values())

    def as_json_dict(self) -> dict:
        """The fields as JSON keys, the float maturities written as text."""
        return {**asdict(self), "marginal_l1": {
            f"{t:.10g}": v for t, v in self.marginal_l1.items()}}


def verify_calibration(p, sigma_d: np.ndarray,
                       q_p: np.ndarray, q_d: np.ndarray, lev: np.ndarray,
                       spec: ModelSpec, grid: GridSpec, snapshot_ks,
                       quotes=None, l1_tol: float = 1e-2, mass_tol: float = 5e-3,
                       identity_tol: float = 1e-8) -> VerificationReport:
    """Check the arrays a run wrote against the joint density.

    ``p`` is the density trajectory, shape (k*+1, n_s+2, n_y+2), or its
    ``DensityRecord``; only the record's per-slice reductions are read, so
    a trajectory is reduced one slice at a time.  ``sigma_d`` is the local
    volatility on the (t, S) nodes.  ``q_p`` is the
    density's spot marginal, ``q_d`` the one-dimensional forward solve from
    ``q_p[0]`` and ``lev`` the leverage surface, each over the density's
    time slices.  Records the L1 marginal distance at each index of
    ``snapshot_ks``, the mass drift of the density from its discounted
    initial mass ``e^{-rt}``, the pointwise leverage identity
    ``lev^2 E[b^2 | S] = sigma_d^2`` with ``E[b^2 | S]`` taken from the
    density, and (when quotes are given) repricing errors against them.
    """
    rec = p if isinstance(p, DensityRecord) else DensityRecord(spec.b, grid, len(p)).fill(p)
    n_k = len(rec) - 1
    sig = sigma_d[:n_k + 1]

    l1 = {}
    for k in snapshot_ks:
        l1[float(grid.t_nodes[k])] = float(
            np.sum(np.abs(q_p[k] - q_d[k])) * grid.ds)

    decay = np.exp(-spec.rate * grid.t_nodes[:n_k + 1])
    mass_drift = float(np.max(np.abs(rec.mass - rec.mass[0] * decay)))

    cond = rec.weighted / np.maximum(rec.marginal, 1e-300)
    identity = float(np.max(np.abs(lev * lev * cond - sig ** 2)
                            / np.maximum(sig ** 2, 1e-300)))

    # two repricing views: literally against the quoted Black-Scholes prices
    # (includes the bias of the regularized start) and against the
    # one-dimensional target densities (pure cross-scheme error)
    reprice_err = None
    reprice_vs_target = None
    if quotes:
        errs_quote = []
        errs_target = []
        for q in quotes:
            if q.implied_vol is None or q.maturity > grid.t_nodes[n_k] + 1e-12:
                continue
            if not 0.8 <= q.strike / spec.spot0 <= 1.2:
                continue
            k = int(round(q.maturity / grid.dt))
            if abs(k * grid.dt - q.maturity) > 1e-9 or k > n_k:
                continue
            model_px = float(reprice_calls(q_p[k], [q.strike], grid)[0, 0])
            target_px = float(reprice_calls(q_d[k], [q.strike], grid)[0, 0])
            quote_px = _bs_call(spec.spot0, q.strike, q.maturity, spec.rate,
                                q.implied_vol)
            if target_px > 1e-12:
                errs_target.append(abs(model_px - target_px) / target_px)
            if quote_px > 1e-12:
                errs_quote.append(abs(model_px - quote_px) / quote_px)
        reprice_err = max(errs_quote) if errs_quote else None
        reprice_vs_target = max(errs_target) if errs_target else None

    gates = {
        "marginal_l1": max(l1.values()) <= l1_tol if l1 else True,
        "mass_drift": mass_drift <= mass_tol,
        "identity": identity <= identity_tol,
    }
    return VerificationReport(
        marginal_l1=l1, mass_drift=mass_drift, identity_max_rel=identity,
        reprice_max_rel_err=reprice_err, gates=gates,
        extras={"final_mass": float(rec.mass[-1]),
                "reprice_vs_target_rel_err": reprice_vs_target})


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _atomic_write(path, write, mode: str = "w") -> None:
    """Call ``write`` on the open ``<path>.tmp``, then rename it to ``path``;
    a failed write removes the ``.tmp`` it opened (and only that)."""
    tmp = f"{path}.tmp"
    fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _json_default(o):
    if isinstance(o, np.generic):
        return o.item()
    return asdict(o)       # a solver's report; TypeError on anything else


def _write_json(path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"
    _atomic_write(path, lambda fh: fh.write(text))


def _write_csv(path, header: str, outer, inner, *columns) -> None:
    """Write rows ``o,i,v1,...`` for every (outer, inner) coordinate pair,
    atomically; each column is an array of shape (len(outer), len(inner)).

    Every coordinate and value is formatted once, with ``%.17g`` (the same
    text as ``{:.17g}``), and one outer row goes to the file per write: its
    template, the outer cell ahead of each inner line, takes all of the
    row's values in one ``%``.  Both coordinate arrays must be nonempty.
    """
    fields = ",".join(["%.17g"] * len(columns))
    lines = ["%.17g," % x + fields + "\n" for x in np.asarray(inner).tolist()]

    def rows(fh):
        fh.write(header + "\n")
        for r, o in enumerate(np.asarray(outer).tolist()):
            head = "%.17g," % o
            vals = np.stack([col[r] for col in columns], axis=-1).ravel().tolist()
            fh.write((head + head.join(lines)) % tuple(vals))
    _atomic_write(path, rows)


def _write_density_bin(path, p_slice, grid) -> None:
    """Flat binary: magic, dims (2 int64), origin+spacing (4 float64),
    then the row-major float64 payload."""
    data = b"".join([b"LSVD0001", np.array(p_slice.shape, dtype=np.int64).tobytes(),
                     np.array([grid.s_min, grid.ds, grid.y_min, grid.dy],
                              dtype=np.float64).tobytes(),
                     np.ascontiguousarray(p_slice, dtype=np.float64).tobytes()])
    _atomic_write(path, lambda fh: fh.write(data), "wb")


def read_density_bin(path) -> tuple:
    """Read a density snapshot written by the binary writer."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != b"LSVD0001":
            raise ValueError(f"bad magic {magic!r}")
        dims = np.fromfile(fh, dtype=np.int64, count=2)
        meta = np.fromfile(fh, dtype=np.float64, count=4)
        payload = np.fromfile(fh, dtype=np.float64).reshape(tuple(dims))
    return payload, {"s_min": meta[0], "ds": meta[1], "y_min": meta[2], "dy": meta[3]}


# ---------------------------------------------------------------------------
# pipeline: three stages that raise; run_pipeline decides the exit status
# ---------------------------------------------------------------------------

def _inputs(config: RunConfig, log) -> SimpleNamespace:
    """Stage 1: parse and check every input, then make the output directory."""
    quotes_path = config.path("paths.quotes")
    if not os.path.exists(quotes_path):
        raise FileNotFoundError(f"quotes file not found: {quotes_path}")
    grid = config.grid()
    spot0 = config.get("model.spot0")
    rate = config.get("model.rate")
    y0 = config.get("model.y0")

    quotes = load_quotes(quotes_path)
    t_max = max([grid.horizon] + [q.maturity for q in quotes if q.price is not None])
    if math.exp(-abs(rate) * t_max) < sys.float_info.min:    # e^(-rate t) over the run
        raise ValueError(f"model.rate = {rate}: e^(-|rate| t) at t = {t_max} "
                         f"is not a normal float")
    if any(q.price is not None for q in quotes):
        check_price_bounds(quotes, spot0, rate)
        quotes = [q if q.implied_vol is not None else
                  type(q)(q.maturity, q.strike, implied_vol=implied_vol_from_price(
                      q.price, spot0, q.strike, q.maturity, rate))
                  for q in quotes]
    surface = build_implied_surface(quotes, spot0, t_max=grid.horizon)
    vol_floor, vol_cap = config.get("vol.floor"), config.get("vol.cap")
    if not 0 < vol_floor <= vol_cap:
        raise ValueError(f"vol.floor = {vol_floor} and vol.cap = {vol_cap} "
                         f"do not satisfy 0 < vol.floor <= vol.cap")
    sigma_d = dupire_local_vol(surface, rate, grid, floor=vol_floor, cap=vol_cap)

    def y_fn(key):
        return builtin_y_function(config.get(key), config.base_dir)

    def optional(key):        # an empty key is no coefficient
        return _as_txy(y_fn(key)) if config.get(key) else None
    b_fn = y_fn("model.b")
    spec = ModelSpec(
        b=b_fn, alpha1=SpotAmplitude(sigma_d, b_fn, grid),
        alpha2=_as_txy(y_fn("model.alpha2")), beta1=optional("model.beta1"),
        beta2=optional("model.beta2"), gamma=optional("model.gamma"),
        corr=convert_correlation(config.get("model.rho")),
        rate=rate, spot0=spot0, y0=y0,
        alpha_floor=config.get("model.alpha_floor"))

    bw_s, bw_y = config.get("init.bandwidth_s"), config.get("init.bandwidth_y")
    area = 2.0 * math.pi * bw_s * bw_y
    if not area > 1.0 / sys.float_info.max:      # the bump's peak 1 / area overflows
        raise ValueError(f"init.bandwidth_s = {bw_s} and init.bandwidth_y = {bw_y} "
                         f"put the bump's peak 1 / (2 pi bw_s bw_y) past the float range")
    peak = 1.0 / area
    floor = config.get("init.floor_rel") * peak
    psi = smoothed_dirac(spot0, y0, bw_s, bw_y, floor, grid)
    validation = validate_model(spec, grid)
    corner_residual = compatibility_residual(psi, spec, grid)
    if corner_residual > 1.0:
        log(f"note: corner-compatibility residual {corner_residual:.3e} "
            f"(accuracy is locally degraded near t = 0)")

    # the remaining settings, parsed before anything is written
    mode = config.get("fp.mode")
    bound_factors = {"cap_factor": config.get("fp.cap_factor"),
                     "tol_factor": config.get("fp.tol_factor")}
    run = SimpleNamespace(
        grid=grid, quotes=quotes, sigma_d=sigma_d, spec=spec, psi=psi,
        report={"validation": asdict(validation), "corner_residual": corner_residual},
        mode=mode,
        params=(IterateBounds.from_initial(psi, grid, **bound_factors)
                if mode == "fixed-point" else None),
        max_iter=config.get("fp.max_iter"),
        b_ref=spec.b_ref(grid, mode=config.get("model.b_ref"), psi=psi),
        max_halvings=config.get("fp.max_halvings"), verify=config.get("run.verify"),
        verify_tols={k: config.get(f"verify.{k}")
                     for k in ("l1_tol", "mass_tol", "identity_tol")},
        snap_every=config.get("run.snapshot_every") or max(1, grid.n_t // 10),
        snap_format=config.get("run.snapshot_format"),
        out_dir=config.path("paths.output_dir"))
    # last, so that an input error leaves nothing on disk
    os.makedirs(run.out_dir, exist_ok=True)
    return run


def _solve(run: SimpleNamespace, log) -> tuple:
    """Stage 2: the density trajectory and the solver's report; a fixed point
    that fails at every horizon it may try raises with its last attempt."""
    if run.mode == "time-lagged":
        return solve_lagged(run.spec, run.grid, run.psi,
                            out=_record(run, run.grid.n_t + 1))
    # one operator, carrying the anchor, serves every attempt; built
    # through iterate's binding.  Each attempt may finish by the march.
    kwargs = {"max_iter": run.max_iter, "march": True,
              "frozen": fixed_point.assemble_frozen(run.spec, run.grid, b_ref=run.b_ref)}
    try:
        return iterate(run.spec, run.grid, run.psi, params=run.params, **kwargs)
    except (MembershipLost, NotConverged) as err:
        log(f"fixed point failed at full horizon: {err}")
        if run.max_halvings == 0:        # no horizon search
            raise
    # outside the handler, which holds the attempt
    params = shrink_horizon(run.spec, run.grid, run.psi, run.params,
                            max_halvings=run.max_halvings, **kwargs)
    density, report = iterate(run.spec, run.grid, run.psi, params=params, **kwargs)
    log(f"recovered at t_star = {report.t_star:.6g}")
    return density, report


def _record(run: SimpleNamespace, n_slices: int) -> DensityRecord:
    """An empty record of ``n_slices`` slices that keeps the snapshot slices:
    every ``run.snap_every``-th and the last."""
    n_k = n_slices - 1
    return DensityRecord(run.spec.b, run.grid, n_slices,
                         keep=[*range(0, n_k, run.snap_every), n_k])


def _artifacts(run: SimpleNamespace, density, fp_report, verify: bool):
    """Stage 3: write the solver's report and the density's arrays; returns
    their verification if ``verify``, else None.

    ``density`` is the time-lagged sweep's ``DensityRecord`` or a fixed
    point's trajectory, which is reduced to one slice by slice; either way
    only the record is read.
    """
    grid, path = run.grid, lambda name: os.path.join(run.out_dir, name)
    _write_json(path("fixed_point.json"), fp_report)
    rec = (density if isinstance(density, DensityRecord)
           else _record(run, len(density)).fill(density))
    n_k = len(rec) - 1
    ks = list(rec.snapshots)

    _write_csv(path("local_vol.csv"), "t,S,sigma_D",
               grid.t_nodes, grid.s_nodes, run.sigma_d)

    q_p = rec.marginal
    q_d = dupire_forward_solve(run.sigma_d, run.spec.rate, grid, q_p[0], n_steps=n_k)
    _write_csv(path("marginals.csv"), "t,S,q_p,q_D",
               grid.t_nodes[ks], grid.s_nodes, q_p[ks], q_d[ks])

    for k, snap in rec.snapshots.items():
        name = path(f"density_{k}.{run.snap_format}")
        if run.snap_format == "bin":
            _write_density_bin(name, snap, grid)
        else:
            _write_csv(name, "S,y,p", grid.s_nodes, grid.y_nodes, snap)

    # last, as the mixing ratio of an escaped iterate can fail
    lev = leverage(run.sigma_d[:n_k + 1],
                   ratio_of_marginals(rec.marginal, rec.weighted, run.spec.b, grid))
    _write_csv(path("leverage.csv"), "t,S,a", grid.t_nodes[:n_k + 1], grid.s_nodes, lev)
    return verify_calibration(
        rec, run.sigma_d, q_p, q_d, lev, run.spec, grid, ks[1:] or [n_k],
        quotes=run.quotes, **run.verify_tols) if verify else None


def run_pipeline(config: RunConfig, log=None) -> int:
    """Execute the full calibration; returns the process exit status.

    Every setting comes from ``config``; ``log`` receives the progress and
    error lines (standard error by default).

    0: converged and every enabled verification within tolerance.
    1: input/configuration error (no artifacts written).
    2: no convergence at any horizon, verification out of tolerance, or
       another failure once the inputs are accepted, such as an artifact
       that cannot be written (the artifacts before it are still written;
       report.json then names the failure under ``error``).
    """
    log = log or (lambda msg: print(msg, file=sys.stderr))
    t_start = time.time()
    try:
        run = _inputs(config, log)
    except (CalibrationError, OSError, ValueError) as err:
        log(f"input error: {err}")
        return 1

    report, status = run.report, 0
    try:
        try:
            density, fp_report = _solve(run, log)
        except (MembershipLost, NotConverged, HorizonExhausted) as err:
            # artifacts of the last attempt are still written
            log(f"fixed point not converged: {err}")
            status, density, fp_report = 2, err.density, err.report
        ver = _artifacts(run, density, fp_report, verify=run.verify and status == 0)
        if ver is not None:
            report["verification"] = ver.as_json_dict()
            if not ver.all_within_tolerance:
                log(f"verification out of tolerance: {ver.gates}")
                status = 2
    except (CalibrationError, OSError, ValueError) as err:
        log(f"run failed: {err}")
        status, report["error"] = 2, f"{type(err).__name__}: {err}"
    report["status_hint"] = status
    try:
        _write_json(os.path.join(run.out_dir, "report.json"), report)
        _write_json(os.path.join(run.out_dir, "run_meta.json"), {
            "wall_seconds": time.time() - t_start, "version": __version__,
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())})
    except OSError as err:
        log(f"report not written: {err}")
        return 2
    return status
