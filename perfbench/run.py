#!/usr/bin/env python3
"""lsvcal benchmark: calibration runs of the ``calibrate`` command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` tree and from nowhere else. Each repetition is a fresh interpreter
(closed loop: one run at a time from this process) that calibrates the
workload's generated quotes and config. Repetitions start until the next
one would end after S seconds. With ``--trace 0`` a few set-up probes,
interpreters that only import the package, come first and more fill the
time left at the end.

Every repetition is checked: exit status, convergence, horizon, every
verification gate, the expected artifacts, and byte-identical
``leverage.csv``/``fixed_point.json``/``report.json`` across the
repetitions of one run (same code, same seed).

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead; see
``tracing.py``. The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")

# a run must end within 180 s whatever S is; repetitions still running at
# this age are killed and counted as failed
HARD_LIMIT_S = 170.0
# set-up probes made before the repetitions; more fill the time left after
SETUP_PROBES = 2
# pin BLAS/OpenMP pools to one thread: the machine this was tuned on has
# two shared cores, and a second pool thread only adds contention noise
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

DEMO05 = {
    "model.b": "exp_clamped:0.5:2.0",
    "model.alpha2": "const:0.2",
    "model.beta2": "mean_revert:4.0:0.0",
    "model.rho": "-0.3",
    "model.rate": "0.0",
    "model.spot0": "100.0",
    "grid.s_min": "30", "grid.s_max": "330",
    "grid.y_min": "-0.5", "grid.y_max": "0.5",
    "grid.ns": "100", "grid.ny": "50", "grid.t": "1.0", "grid.nt": "100",
    "init.bandwidth_s": "10.0", "init.bandwidth_y": "0.075",
}

# test_auto_shrink_recovers at the demo grid
RECOVER = {
    "model.b": "sqrt1p_sin:5.0",
    "model.alpha2": "const:0.2",
    "model.beta2": "mean_revert:0.25:0.0",
    "model.rho": "0.0",
    "grid.s_min": "30", "grid.s_max": "330",
    "grid.y_min": "-1", "grid.y_max": "1",
    "grid.ns": "100", "grid.ny": "50", "grid.t": "1.0", "grid.nt": "100",
    "init.bandwidth_s": "20", "init.bandwidth_y": "0.25",
}


@dataclass
class Workload:
    config: dict
    cli_args: list = field(default_factory=list)
    full_horizon: bool = True     # t_star == grid.t, else t_star < grid.t


WORKLOADS = {
    "demo05_cli": Workload(DEMO05),
    "recover_cli": Workload(RECOVER, full_horizon=False),
    "lagged_cli": Workload(dict(DEMO05, **{"grid.ns": "200", "grid.ny": "100",
                                           "grid.nt": "200"}),
                           cli_args=["--mode", "time-lagged"]),
}

MATURITIES = (0.25, 0.5, 1.0, 1.5, 2.0)
STRIKES = (60, 80, 100, 120, 160)


def quote_surface(seed: int) -> tuple:
    """(level, skew, term) shifts of the flat 20% surface.

    Seed 0 is the flat surface itself. Other seeds draw a mild shift; the
    ranges are small enough that every workload keeps its horizon, its exit
    status and its gates (a skew of +-0.02 already fails the time-lagged
    L1 gate and moves the recovered horizon).
    """
    if seed == 0:
        return 0.0, 0.0, 0.0
    rng = random.Random(seed)
    return (rng.uniform(-0.002, 0.002), rng.uniform(-0.003, 0.003),
            rng.uniform(-0.001, 0.001))


def write_inputs(wl: Workload, seed: int, work: str) -> str:
    level, skew, term = quote_surface(seed)
    with open(os.path.join(work, "quotes.csv"), "w", encoding="utf-8") as fh:
        fh.write("maturity,strike,implied_vol\n")
        for t in MATURITIES:
            for k in STRIKES:
                vol = 0.2 + level + skew * math.log(k / 100.0) + term * (t - 1.0)
                fh.write(f"{t},{k},{vol:.6g}\n")
    cfg = dict(wl.config, **{"paths.quotes": "quotes.csv", "paths.output_dir": "out"})
    path = os.path.join(work, "run.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in cfg.items())
    return path


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

class RepTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise RepTimeout


@dataclass
class Rep:
    traced: bool
    wall_s: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    l1_max: float = 0.0
    digest: str = ""
    artifact_bytes: int = 0
    trace: dict | None = None


def spawn(args: list, work: str, result: str, spans: str, probe: bool,
          time_left: float) -> tuple:
    """Run child.py once; returns (wall_s, setup_s, rss_mb, status, result dict)."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "child.py"), SRC, result,
           spans] + (["--probe"] if probe else []) + ["--"] + args
    env = dict(os.environ, **CHILD_THREADS)
    with open(os.path.join(work, "child.log"), "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, max(time_left, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except RepTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise
        t1 = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    try:
        with open(result, encoding="utf-8") as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        res = {}
    setup = res.get("t_imported", t1) - t0
    return t1 - t0, setup, usage.ru_maxrss / 1024.0, code, res


def expected_snapshots(cfg: dict, t_star: float) -> set:
    n_t = int(cfg["grid.nt"])
    n_k = round(t_star / (float(cfg["grid.t"]) / n_t))
    every = max(1, n_t // 10)
    ks = set(range(0, n_k + 1, every)) | {n_k}
    return {f"density_{k}.csv" for k in ks}


def check_outputs(wl: Workload, out: str, code: int, res: dict, rep: Rep):
    """Correctness gate of one repetition; appends to ``rep.problems``."""
    bad = rep.problems
    if code != 0 or res.get("status") != 0:
        bad.append(f"exit status {code} (child says {res.get('status')}; "
                   f"{res.get('error', 'see child.log')})")
    try:
        with open(os.path.join(out, "fixed_point.json"), encoding="utf-8") as fh:
            fp = json.load(fh)
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as err:
        bad.append(f"unreadable artifact: {err}")
        return
    if fp.get("converged") is not True:
        bad.append("not converged")
    t_star, horizon = float(fp.get("t_star", 0.0)), float(wl.config["grid.t"])
    if wl.full_horizon and abs(t_star - horizon) > 1e-12:
        bad.append(f"t_star {t_star} != {horizon}")
    if not wl.full_horizon and not 0.0 < t_star < horizon:
        bad.append(f"t_star {t_star} not shrunk below {horizon}")
    ver = report.get("verification")
    if not ver:
        bad.append("no verification block")
    else:
        failed = [g for g, ok in ver["gates"].items() if ok is not True]
        if failed:
            bad.append(f"gates failed: {failed}")
        rep.l1_max = max(ver["marginal_l1"].values())
    names = set(os.listdir(out))
    expected = {"fixed_point.json", "report.json", "run_meta.json",
                "leverage.csv", "local_vol.csv", "marginals.csv"}
    expected |= expected_snapshots(wl.config, t_star)
    if names != expected:
        bad.append(f"artifacts missing {sorted(expected - names)}, "
                   f"unexpected {sorted(names - expected)}")
    hashed = ("leverage.csv", "fixed_point.json", "report.json")
    if names.issuperset(hashed):
        h = hashlib.sha256()
        for name in hashed:
            h.update(name.encode())
            with open(os.path.join(out, name), "rb") as fh:
                h.update(fh.read())
        rep.digest = h.hexdigest()
    rep.artifact_bytes = sum(os.path.getsize(os.path.join(out, n)) for n in names
                             if n != "run_meta.json")   # holds timings
    if rep.traced:
        check_trace(wl, fp, rep)


def check_trace(wl: Workload, fp: dict, rep: Rep):
    """Coverage self-check: the traced counts must agree with the run's own
    outcome, which they only do if every binding of a layer was wrapped."""
    tr = rep.trace
    bad = rep.problems
    if tr is None:
        bad.append("traced repetition returned no trace")
        return
    calls = {name: f["calls"] for name, f in tr["functions"].items()}
    counts = tr["counts"]
    if tr["min_self_s"] < -1e-9:
        bad.append(f"negative self time {tr['min_self_s']}")
    for name in ("cli.main", "pipeline.run_pipeline"):
        if calls.get(name) != 1:
            bad.append(f"{name} traced {calls.get(name, 0)} times, not once")
    if wl.cli_args:      # time-lagged: no fixed point, no Hoelder norms
        if calls.get("fixed_point.solve_lagged") != 1:
            bad.append("solve_lagged not traced once")
        if calls.get("holder.holder_norm", 0) != 0:
            bad.append("holder_norm called in time-lagged mode")
        return
    iterations = counts.get("fixed_point.iterations", 0)
    n_iterate = calls.get("fixed_point.iterate", 0)
    returned = n_iterate - tr["functions"].get("fixed_point.iterate", {}).get("failed", 0)
    # one solve per iteration, plus the fixed_point_residual solve of each
    # returned iterate while that extra solve exists
    if calls.get("linpde.solve_linear", 0) not in (iterations, iterations + returned):
        bad.append(f"solve_linear calls {calls.get('linpde.solve_linear', 0)} vs "
                   f"{iterations} iterations, {returned} returned iterates")
    for name in ("fixed_point.check_membership", "mixing.ratio_gap_monitor"):
        if calls.get(name, 0) != iterations:
            bad.append(f"{name} calls {calls.get(name, 0)} != {iterations} iterations")
    if counts.get("fixed_point.iterate.kept", 0) != 1:
        bad.append(f"{counts.get('fixed_point.iterate.kept', 0)} kept iterates, not 1")
    if wl.full_horizon:
        if n_iterate != 1:
            bad.append(f"iterate called {n_iterate} times at the full horizon")
        return
    # the halving ladder from the full horizon down to the recovered one is
    # walked inside shrink_horizon; run_pipeline itself makes the first
    # attempt and, while the rerun exists, repeats the winning horizon
    n_t = int(wl.config["grid.nt"])
    k, k_star, ladder = n_t, round(fp["t_star"] / (float(wl.config["grid.t"]) / n_t)), 1
    while k > k_star:
        k //= 2
        ladder += 1
    in_shrink = counts.get("fixed_point.iterate.in_shrink", 0)
    if in_shrink != ladder or n_iterate - in_shrink not in (1, 2):
        bad.append(f"iterate calls {n_iterate} ({in_shrink} in shrink_horizon) "
                   f"do not match a ladder of {ladder} horizons")


def run_rep(wl: Workload, cfg_path: str, work: str, traced: bool,
            time_left: float) -> Rep:
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    result = os.path.join(work, "result.json")
    spans = os.path.join(work, "spans.json") if traced else "-"
    rep = Rep(traced=traced)
    args = ["--config", cfg_path, "--output-dir", out] + wl.cli_args
    try:
        rep.wall_s, rep.setup_s, rep.rss_mb, code, res = spawn(
            args, work, result, spans, False, time_left)
    except RepTimeout:
        rep.problems.append("killed at the run's time limit")
        rep.wall_s = time_left
        return rep
    rep.trace = res.get("trace")
    check_outputs(wl, out, code, res, rep)
    return rep


def probe_setup(work: str, time_left: float) -> float:
    result = os.path.join(work, "probe.json")
    wall, setup, _, code, res = spawn([], work, result, "-", True, time_left)
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {res.get('error', code)}")
    return setup


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(reps: list, setups: list) -> dict:
    return {
        "wall_s": (statistics.median(r.wall_s for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in reps), "MB"),
        "marginal_l1_max": (statistics.median(r.l1_max for r in reps), "1"),
    }


# traced function -> fields reported: `s` self time, `incl_s` time including
# callees, `calls`, `failed` calls that raised
PER_LAYER_FUNCS = [
    ("holder.holder_norm", ("s", "calls")),
    ("fixed_point.check_membership", ("s", "calls")),
    ("mixing.ratio_gap_monitor", ("s", "calls")),
    ("tridiag.solve_batch", ("s", "calls")),
    ("tridiag.residual_batch", ("s", "calls")),
    ("linpde.solve_linear", ("s", "incl_s", "calls")),
    ("linpde.step_slices", ("s", "calls")),
    ("linpde.assemble_frozen", ("s",)),
    ("linpde.assemble_slice", ("s", "calls")),
    ("fd.cross_diff_interior", ("s", "calls")),
    ("fixed_point.iterate", ("s", "incl_s", "calls", "failed")),
    ("fixed_point.shrink_horizon", ("s", "incl_s")),
    ("fixed_point.build_rhs", ("s", "calls")),
    ("fixed_point.apply_map", ("s", "calls")),
    ("mixing.mixing_ratio", ("s", "calls")),
    ("fixed_point.solve_lagged", ("s", "incl_s")),
    ("market.build_implied_surface", ("s",)),
    ("market.dupire_local_vol", ("s",)),
    ("market.dupire_forward_solve", ("s", "calls")),
    ("model.smoothed_dirac", ("s",)),
    ("model.validate_model", ("s",)),
    ("model.compatibility_residual", ("s",)),
    ("pipeline.verify_calibration", ("s", "incl_s")),
    ("pipeline.run_pipeline", ("s", "incl_s")),
]
PER_LAYER_COUNTS = [
    ("holder.holder_norm.cells", "count"),
    ("tridiag.solve_batch.unknowns", "count"),
    ("linpde.n_tridiag_solves", "count"),
    ("linpde.cross_cfl_max", "1"),
    ("linpde.k2_min", "1"),
    ("fixed_point.iterations", "count"),
]


def per_layer_names() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for func, fields in PER_LAYER_FUNCS:
        for f in fields:
            unit = "s" if f in ("s", "incl_s") else "count"
            out.append((f"{func}.{f}", unit, "lower"))
    out += [(n, u, "higher" if n == "linpde.k2_min" else "lower")
            for n, u in PER_LAYER_COUNTS]
    out += [("linpde.warnings.CrossTermCFL", "count", "lower"),
            ("fixed_point.iterate.useful_ratio", "1", "higher"),
            ("pipeline.artifact_bytes", "bytes", "lower")]
    for layer in LAYERS:
        out += [(f"layer.{layer}.self_s", "s", "lower"),
                (f"layer.{layer}.calls", "count", "lower")]
    out += [("trace.spans", "count", "lower"),
            ("trace.traced_wall_s", "s", "lower"),
            ("trace.untraced_wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


def per_layer(reps: list) -> tuple:
    """Per-layer metrics of the traced repetitions and the names of counts
    that differed between them (they must repeat exactly)."""
    traced = [r for r in reps if r.traced and r.trace]
    untraced = [r for r in reps if not r.traced]

    def one(rep):
        tr = rep.trace
        vals = {}
        for func, fields in PER_LAYER_FUNCS:
            f = tr["functions"].get(func, {})
            for name in fields:
                vals[f"{func}.{name}"] = f.get(name, 0)
        for name, _ in PER_LAYER_COUNTS:
            vals[name] = tr["counts"].get(name, 0)
        vals["linpde.warnings.CrossTermCFL"] = tr["counts"].get("warnings.CrossTermCFL", 0)
        n_iterate = vals["fixed_point.iterate.calls"]
        vals["fixed_point.iterate.useful_ratio"] = (
            tr["counts"].get("fixed_point.iterate.kept", 0) / n_iterate if n_iterate else 0.0)
        vals["pipeline.artifact_bytes"] = rep.artifact_bytes
        for layer, v in tr["layers"].items():
            vals[f"layer.{layer}.self_s"] = v["self_s"]
            vals[f"layer.{layer}.calls"] = v["calls"]
        vals["trace.spans"] = tr["n_spans"]
        return vals

    def median(vals):     # 0 when every repetition of a kind failed
        return statistics.median(vals) if vals else 0.0

    samples = [one(r) for r in traced]
    metrics, unsteady = {}, []
    for name, unit, _ in per_layer_names():
        if name.startswith("trace.") and name != "trace.spans":
            continue
        vals = [s[name] for s in samples]
        if unit == "s":
            metrics[name] = (median(vals), unit)
        else:
            if any(v != vals[0] for v in vals):
                unsteady.append(name)
            metrics[name] = (vals[0] if vals else 0, unit)
    t_wall = median([r.wall_s for r in traced])
    u_wall = median([r.wall_s for r in untraced])
    metrics["trace.traced_wall_s"] = (t_wall, "s")
    metrics["trace.untraced_wall_s"] = (u_wall, "s")
    metrics["trace.overhead_s"] = (t_wall - u_wall, "s")
    return metrics, unsteady


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
           "python": platform.python_version()}
    try:
        import numpy
        import importlib.metadata as md
        env["numpy"] = numpy.__version__
        env["scipy"] = md.version("scipy")
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError, ValueError) as err:
        env["blas"] = f"unknown ({err})"
    env["blas_threads"] = ",".join(f"{k}={v}" for k, v in CHILD_THREADS.items())
    pkg = os.path.join(SRC, "lsvcal")
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    env["src_lines"] = lines
    return env


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t_begin = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "lsvcal", "__init__.py")):
        print(f"no lsvcal source tree under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg_path = write_inputs(wl, args.seed, work)
    compileall.compile_dir(os.path.join(SRC, "lsvcal"), quiet=1)

    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}, seed {args.seed} (quote shifts "
          f"level/skew/term {quote_surface(args.seed)}), {args.seconds:g} s, "
          f"trace {args.trace}")

    def time_left():
        return HARD_LIMIT_S - (time.monotonic() - t_begin)

    probe_setup(work, time_left())          # warm the file cache; discarded
    deadline = time.monotonic() + args.seconds
    setups = [] if args.trace else [probe_setup(work, time_left())
                                    for _ in range(SETUP_PROBES)]
    reps, cycle = [], []
    while True:
        now = time.monotonic()
        need_more = not reps or (args.trace and len(reps) < 2)
        if not need_more and now + statistics.median(cycle) > deadline:
            break
        if time_left() <= 0:
            break
        traced = bool(args.trace) and len(reps) % 2 == 0
        rep = run_rep(wl, cfg_path, work, traced, time_left())
        cycle.append(time.monotonic() - now)
        reps.append(rep)
        print(f"rep {len(reps)}{' traced' if traced else ''}: wall {rep.wall_s:.3f} s, "
              f"setup {rep.setup_s:.3f} s, rss {rep.rss_mb:.1f} MB, "
              f"l1 {rep.l1_max:.6g}, {'ok' if not rep.problems else rep.problems}",
              flush=True)
        if any("time limit" in pr for pr in rep.problems):
            break

    # byte-identical artifacts across repetitions of the same code and seed
    digests = [r.digest for r in reps if r.digest]
    if digests:
        majority = max(set(digests), key=digests.count)
        for r in reps:
            if r.digest and r.digest != majority:
                r.problems.append("artifacts differ from the other repetitions")

    if not args.trace:
        setups += [r.setup_s for r in reps]
        probe_cost = statistics.median(setups) + 0.1
        while time.monotonic() + probe_cost <= deadline:
            setups.append(probe_setup(work, time_left()))

    if args.trace:
        metrics, unsteady = per_layer(reps)
        for r in reps:
            if r.traced and unsteady:
                r.problems.append(f"counts differ between traced repetitions: {unsteady}")
    else:
        metrics = end_to_end(reps, setups)
        walls = sorted(r.wall_s for r in reps)
        print(f"wall_s: median {statistics.median(walls):.4f} s, max {walls[-1]:.4f} s "
              f"over n={len(walls)} (no lower percentile has ten samples above "
              f"it at this n)")
        print(f"setup_s: median over n={len(setups)} interpreter starts")
    failed = sum(1 for r in reps if r.problems)
    attempted = len(reps)
    print(f"fail_frac: {failed / attempted:.4g} ({failed} of {attempted} runs)")
    for r in reps:
        if r.problems:
            print(f"failure: {r.problems}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
