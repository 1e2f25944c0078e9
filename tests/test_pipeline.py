import json
import math
import os
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lsvcal import (DegenerateDenominator, FixedPointReport, MembershipLost,
                    NonEllipticAssembly, StabilityFailure, assemble_frozen,
                    dupire_forward_solve, iterate, leverage, marginal,
                    mixing_ratio, solve_lagged, solve_linear,
                    verify_calibration)
from lsvcal.cli import main
from lsvcal.market import _bs_call
from lsvcal.pipeline import (_KEYS, RunConfig, _inputs, _write_csv, builtin_y_function,
                             read_density_bin, run_pipeline)

from conftest import (flat_sigma, make_grid, make_psi, make_spec, run_fresh,
                      verification_arrays, write_flat_quotes)

CONFIG_TEMPLATE = """\
paths.quotes = quotes.csv
paths.output_dir = out
model.b = {b}
model.alpha2 = const:0.2
model.beta2 = mean_revert:0.25:0.0
model.rho = {rho}
grid.s_min = 30
grid.s_max = 330
grid.y_min = -1
grid.y_max = 1
grid.ns = {ns}
grid.ny = {ny}
grid.t = 1.0
grid.nt = {nt}
init.bandwidth_s = 20
init.bandwidth_y = 0.25
{extra}
"""


def write_config(tmp_path, b="const:1.0", rho="0.0", ns=48, ny=28, nt=24,
                 extra=""):
    write_flat_quotes(tmp_path / "quotes.csv")
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEMPLATE.format(b=b, rho=rho, ns=ns, ny=ny, nt=nt,
                                           extra=extra))
    return path


class TestConfig:
    def test_parse_and_defaults(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path))
        assert cfg.get("grid.ns") == 48
        assert cfg.get("fp.mode") == "fixed-point"
        assert cfg.get("run.verify") is True
        grid = cfg.grid()
        assert grid.n_t == 24

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("paths.quotes = q.csv\n")
        with pytest.raises(ValueError, match="missing config keys"):
            RunConfig.from_file(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a key value line\n")
        with pytest.raises(ValueError, match="expected key = value"):
            RunConfig.from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, extra="fp.max_iters = 3")
        with pytest.raises(ValueError, match="unknown config key 'fp.max_iters'"):
            RunConfig.from_file(path)

    def test_unknown_key_exits_one_writing_nothing(self, tmp_path):
        path = write_config(tmp_path, extra="fp.max_iters = 3")
        assert main(["--config", str(path)]) == 1
        assert not os.path.exists(tmp_path / "out")

    def test_auto_shrink_key_exits_one(self, tmp_path, capsys):
        # fp.max_halvings = 0 is the one way to turn the horizon search off
        path = write_config(tmp_path, extra="fp.auto_shrink = false")
        assert main(["--config", str(path)]) == 1
        assert "unknown config key 'fp.auto_shrink'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg_path = write_config(tmp_path, extra="# a comment\n\nfp.max_iter = 7")
        cfg = RunConfig.from_file(cfg_path)
        assert cfg.get("fp.max_iter") == 7


class TestBuiltins:
    def test_const(self):
        f = builtin_y_function("const:0.3")
        assert np.all(f(np.linspace(-1, 1, 5)) == 0.3)

    def test_exp_clamped(self):
        f = builtin_y_function("exp_clamped:0.5:2.0")
        y = np.linspace(-3, 3, 7)
        v = f(y)
        assert v.min() == 0.5 and v.max() == 2.0
        assert f(np.array([0.0]))[0] == 1.0

    def test_cir(self):
        f = builtin_y_function("cir:0.4:0.01")
        assert f(np.array([0.25]))[0] == pytest.approx(0.4 * 0.5)
        assert f(np.array([-3.0]))[0] == pytest.approx(0.4 * 0.1)

    def test_mean_revert(self):
        f = builtin_y_function("mean_revert:2.0:0.5")
        assert f(np.array([1.0]))[0] == pytest.approx(-1.0)

    def test_table(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("y,value\n-1,0.5\n0,1.0\n1,2.0\n")
        f = builtin_y_function(f"table:{path.name}", base_dir=str(tmp_path))
        assert f(np.array([0.5]))[0] == pytest.approx(1.5)

    @pytest.mark.parametrize("rows", ["", "0,1.0\n", "-1,0.5\n1,2.0\n0,1.0\n",
                                      "-1,0.5\n0,nan\n1,2.0\n"],
                             ids=["header_only", "one_row", "x_not_increasing",
                                  "not_finite"])
    def test_bad_table_rejected_naming_the_file(self, tmp_path, rows, recwarn):
        path = tmp_path / "b.csv"
        path.write_text("y,value\n" + rows)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            builtin_y_function(f"table:{path.name}", base_dir=str(tmp_path))
        assert not recwarn.list

    def test_bad_table_exits_one_writing_nothing(self, tmp_path):
        (tmp_path / "b.csv").write_text("y,value\n1,2.0\n0,1.0\n")
        cfg = RunConfig.from_file(write_config(tmp_path, b="table:b.csv"))
        assert run_pipeline(cfg, log=lambda m: None) == 1
        assert not os.path.exists(tmp_path / "out")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            builtin_y_function("warp:9")

    @pytest.mark.parametrize("spec_str,fault", [
        ("const:nan", "needs finite numbers"), ("const:inf", "needs finite numbers"),
        ("const:abc", "needs finite numbers"),
        ("mean_revert:inf:0", "needs finite numbers"),
        ("exp_clamped:0.5:nan", "needs finite numbers"),
        ("cir:1:-1", "has a floor below 0"), ("sqrt1p_sin:5:-1", "has a floor below 0"),
        ("exp_clamped:2:1", "has lo > hi")])
    def test_bad_argument_rejected_naming_the_builtin(self, spec_str, fault, recwarn):
        with pytest.raises(ValueError, match=f"^builtin {re.escape(repr(spec_str))} {fault}"):
            builtin_y_function(spec_str)
        assert not recwarn.list

    def test_zero_floor_accepted(self):
        assert builtin_y_function("cir:1:0")(np.array([-1.0]))[0] == 0.0
        assert builtin_y_function("sqrt1p_sin:5:0")(np.array([-1.0]))[0] == 0.0

    @pytest.mark.parametrize("spec_str,form", [
        ("const", "const:v"), ("exp_clamped:0.5", "exp_clamped:lo:hi"),
        ("cir:1.0", "cir:nu:floor"), ("mean_revert:1.0", "mean_revert:kappa:theta"),
        ("sqrt1p_sin", "sqrt1p_sin:s[:floor]"), ("exp:2", "exp")])
    def test_wrong_argument_count_names_the_form(self, spec_str, form):
        with pytest.raises(ValueError, match=f"form {re.escape(form)}$"):
            builtin_y_function(spec_str)


def edge_values(kind, low) -> tuple:
    """Config text of a key of ``_KEYS`` type ``kind``: a value at its lower
    bound ``low`` and one just below it, or, for a word-list key, one of its
    words and a word outside the list."""
    if low is None:
        return ("true" if kind is bool else kind[0]), "bogus"
    if kind is float:
        return repr(low), repr(math.nextafter(low, -math.inf))
    return ("x" * low, "x" * (low - 1)) if kind is str else (str(low), str(low - 1))


class TestExitCodes:
    def test_missing_quotes_no_artifacts(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEMPLATE.format(b="const:1.0", rho="0.0",
                                               ns=48, ny=28, nt=24, extra=""))
        cfg = RunConfig.from_file(path)
        logged = []
        rc = run_pipeline(cfg, log=logged.append)
        assert rc == 1
        assert not os.path.exists(tmp_path / "out")
        assert any("quotes" in msg for msg in logged)

    def test_flat_run_exits_zero(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path))
        rc = run_pipeline(cfg, log=lambda m: None)
        assert rc == 0
        out = tmp_path / "out"
        for name in ("leverage.csv", "marginals.csv", "report.json",
                     "fixed_point.json", "local_vol.csv", "run_meta.json",
                     "density_0.csv"):
            assert (out / name).exists()
        rep = json.loads((out / "report.json").read_text())
        assert rep["verification"]["gates"] == {
            "identity": True, "marginal_l1": True, "mass_drift": True}

    def test_unconverged_exits_two_with_artifacts(self, tmp_path, monkeypatch):
        # fp.max_halvings = 0: no horizon search, the first attempt's own error
        import lsvcal.pipeline

        def no_search(*args, **kwargs):
            raise AssertionError("shrink_horizon called")
        monkeypatch.setattr(lsvcal.pipeline, "shrink_horizon", no_search)
        extra = "fp.max_iter = 1\nfp.max_halvings = 0"
        cfg = RunConfig.from_file(write_config(tmp_path, b="sqrt1p_sin:0.05",
                                               extra=extra))
        logged = []
        rc = run_pipeline(cfg, log=logged.append)
        assert rc == 2
        assert logged[:2] == [
            "fixed point failed at full horizon: no convergence after 1 iterations",
            "fixed point not converged: no convergence after 1 iterations"]
        out = tmp_path / "out"
        assert (out / "fixed_point.json").exists()
        assert (out / "leverage.csv").exists()
        fp = json.loads((out / "fixed_point.json").read_text())
        assert fp["converged"] is False

    def test_auto_shrink_recovers(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path, b="sqrt1p_sin:5.0",
                                               ns=48, ny=32, nt=32))
        rc = run_pipeline(cfg, log=lambda m: None)
        assert rc == 0
        fp = json.loads((tmp_path / "out" / "fixed_point.json").read_text())
        assert fp["converged"] is True
        assert fp["t_star"] < 1.0

    def test_recovery_keeps_max_iter(self, tmp_path, monkeypatch):
        # the full-horizon attempt, every rung of the horizon search and the
        # rerun all get the configured iteration budget
        import lsvcal.fixed_point
        import lsvcal.pipeline
        seen = []

        def spy(*args, real=lsvcal.fixed_point.iterate, **kwargs):
            seen.append(kwargs.get("max_iter"))
            return real(*args, **kwargs)
        monkeypatch.setattr(lsvcal.fixed_point, "iterate", spy)
        monkeypatch.setattr(lsvcal.pipeline, "iterate", spy)
        cfg = RunConfig.from_file(write_config(
            tmp_path, b="sqrt1p_sin:5.0", ns=48, ny=32, nt=32,
            extra="fp.max_iter = 40"))
        assert run_pipeline(cfg, log=lambda m: None) == 0
        fp = json.loads((tmp_path / "out" / "fixed_point.json").read_text())
        assert fp["t_star"] < 1.0
        assert len(seen) > 2 and seen == [40] * len(seen)

    def test_recovery_assembles_the_operator_once(self, tmp_path, monkeypatch):
        import lsvcal.fixed_point
        import lsvcal.pipeline
        built, seen = [], []

        def assemble_spy(*args, real=lsvcal.fixed_point.assemble_frozen, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        def iterate_spy(*args, real=lsvcal.fixed_point.iterate, **kwargs):
            seen.append(kwargs.get("frozen"))
            return real(*args, **kwargs)
        monkeypatch.setattr(lsvcal.fixed_point, "assemble_frozen", assemble_spy)
        monkeypatch.setattr(lsvcal.fixed_point, "iterate", iterate_spy)
        monkeypatch.setattr(lsvcal.pipeline, "iterate", iterate_spy)
        cfg = RunConfig.from_file(write_config(tmp_path, b="sqrt1p_sin:5.0",
                                               ns=48, ny=32, nt=32))
        assert run_pipeline(cfg, log=lambda m: None) == 0
        assert len(built) == 1
        assert len(seen) > 2 and all(f is built[0] for f in seen)

    def test_failed_attempt_released_before_shrink(self, tmp_path, monkeypatch):
        # the full-horizon failure, and the products and trajectories its
        # traceback holds, are gone when the ladder starts
        import gc
        import weakref
        import lsvcal.pipeline
        failures, alive = [], []

        def iterate_spy(*args, real=lsvcal.pipeline.iterate, **kwargs):
            try:
                return real(*args, **kwargs)
            except MembershipLost as err:
                failures.append(weakref.ref(err))
                raise

        def shrink_spy(*args, real=lsvcal.pipeline.shrink_horizon, **kwargs):
            gc.collect()
            alive.append(failures[0]() is not None)
            return real(*args, **kwargs)
        monkeypatch.setattr(lsvcal.pipeline, "iterate", iterate_spy)
        monkeypatch.setattr(lsvcal.pipeline, "shrink_horizon", shrink_spy)
        cfg = RunConfig.from_file(write_config(tmp_path, b="sqrt1p_sin:5.0",
                                               ns=48, ny=32, nt=32))
        assert run_pipeline(cfg, log=lambda m: None) == 0
        assert alive == [False]

    @pytest.mark.parametrize("extra", ["fp.mode = bogus", "fp.max_iter = abc",
                                       "model.b_ref = centre",
                                       "verify.l1_tol = tight",
                                       "run.verify = ture",
                                       "run.snapshot_format = binary",
                                       "fp.tol_factor = 0", "fp.cap_factor = 0",
                                       "fp.cap_factor = -1.5",
                                       "run.snapshot_every = -1",
                                       "fp.max_iter = 0",
                                       "fp.max_halvings = -1",
                                       "fp.tol_factor = inf",
                                       "vol.floor = nan", "model.rate = nan",
                                       "vol.cap = -1", "vol.floor = 5",
                                       "verify.l1_tol = nan",
                                       "verify.l1_tol = -1",
                                       "verify.mass_tol = -1",
                                       "init.bandwidth_s = 0",
                                       "init.bandwidth_y = 0",
                                       "model.spot0 = 0", "model.spot0 = -5",
                                       "grid.s_min = 0", "grid.s_min = -1",
                                       "grid.s_min = 330", "grid.s_min = 400",
                                       "grid.y_min = 1", "grid.y_max = -2",
                                       "model.b = cir:1:-1",
                                       "model.b = cir:1:0",
                                       "model.b = sqrt1p_sin:5:-1",
                                       "model.b = const:nan",
                                       "model.b = const:1e308",
                                       "model.b = const:1e200",
                                       "model.b = const:1e154",
                                       "model.alpha2 = const:1e308",
                                       "model.alpha2 = const:1e150",
                                       "model.alpha2 = const:1e100",
                                       "model.beta2 = const:1e308",
                                       "model.rate = 1e308",
                                       "model.alpha2 = const:nan",
                                       "model.beta2 = const:inf",
                                       "model.beta1 = mean_revert:inf:0",
                                       "model.gamma = const:1e308",
                                       "model.gamma = const:1e200",
                                       "model.b = exp_clamped:2:1",
                                       "model.alpha_floor = 0",
                                       "model.alpha_floor = -1",
                                       "paths.output_dir ="])
    def test_bad_setting_exits_one_writing_nothing(self, tmp_path, extra, recwarn):
        cfg = RunConfig.from_file(write_config(tmp_path, extra=extra))
        before = sorted(os.listdir(tmp_path))
        assert run_pipeline(cfg, log=lambda m: None) == 1
        assert sorted(os.listdir(tmp_path)) == before
        assert not recwarn.list

    @pytest.mark.parametrize("extra,message", [
        ("model.b = cir:1:0", "b-positivity"),
        ("model.alpha_floor = 0", "alpha-floor"),
        ("model.b = const:1e308", "model.b too large"),
        ("model.b = const:1e200", "model.b too large"),
        ("model.b = const:1e154", "model.b too large"),
        ("model.alpha2 = const:1e308", "alpha2 too large"),
        ("model.alpha2 = const:1e150", "model.alpha2 too large"),
        ("model.alpha2 = const:1e100", "model.alpha2 too large"),
        ("model.beta2 = const:1e308", "model.beta2 too large"),
        ("model.gamma = const:1e308", "model.gamma too large"),
        ("model.gamma = const:1e200", "model.gamma too large"),
        ("model.rate = 1e308", "model.rate = 1e+308"),
        ("paths.output_dir =", "paths.output_dir is empty"),
        ("grid.y_max = -2", "empty spatial domain")])
    def test_bad_setting_names_its_fault(self, tmp_path, extra, message):
        cfg = RunConfig.from_file(write_config(tmp_path, extra=extra))
        logged = []
        assert run_pipeline(cfg, log=logged.append) == 1
        assert len(logged) == 1 and logged[0].startswith("input error: ")
        assert message in logged[0]

    @pytest.mark.parametrize("key,at,below", [
        (key, *edge_values(kind, low)) for key, (kind, _, low) in _KEYS.items()
        if low is not None or kind is bool or isinstance(kind, tuple)])
    def test_value_outside_its_table_range_exits_one_naming_the_key(
            self, tmp_path, key, at, below, recwarn):
        # the table's bound is taken and the value just below it is not; a
        # word-list key takes none of the words outside its list
        cfg = RunConfig.from_file(write_config(tmp_path))
        cfg.values[key] = at
        cfg.get(key)
        cfg.values[key] = below
        before, logged = sorted(os.listdir(tmp_path)), []
        assert run_pipeline(cfg, log=logged.append) == 1
        assert len(logged) == 1 and logged[0].startswith("input error: ")
        assert key in logged[0]
        assert sorted(os.listdir(tmp_path)) == before
        assert not recwarn.list

    def test_nonfinite_quote_exits_one_writing_nothing(self, tmp_path, capsys):
        path = write_config(tmp_path)
        with open(tmp_path / "quotes.csv", "a", encoding="utf-8") as fh:
            fh.write("0.75,100,nan\n")     # line 27, after the header and 25 rows
        assert main(["--config", str(path)]) == 1
        assert not os.path.exists(tmp_path / "out")
        assert "line 27: implied vol nan is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["-400", "400"])
    def test_rate_discounting_past_price_quotes_exits_one(self, tmp_path, rate):
        # at rate -400, e^(400 * 2) overflowed the no-arbitrage bounds'
        # math.exp; the horizon (grid.t = 1) alone discounts within range
        path = write_config(tmp_path, extra=f"model.rate = {rate}")
        with open(tmp_path / "quotes.csv", "w", encoding="utf-8") as fh:
            fh.write("maturity,strike,price\n")
            for t in (0.25, 0.5, 1.0, 1.5, 2.0):
                for k in (60, 80, 100, 120, 160):
                    fh.write(f"{t},{k},{_bs_call(100.0, k, t, 0.0, 0.2)}\n")
        logged = []
        assert run_pipeline(RunConfig.from_file(path), log=logged.append) == 1
        assert logged == [f"input error: model.rate = {float(rate)}: e^(-|rate| t) "
                          f"at t = 2.0 is not a normal float"]
        assert not os.path.exists(tmp_path / "out")

    def test_short_builtin_exits_one_naming_the_form(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path, b="const"))
        logged = []
        assert run_pipeline(cfg, log=logged.append) == 1
        assert logged == ["input error: builtin 'const' does not have the form const:v"]
        assert not os.path.exists(tmp_path / "out")

    def test_output_dir_under_a_file_exits_one_writing_nothing(self, tmp_path):
        # the output directory is made last in stage 1: a path it cannot
        # make is an input error like any other
        path = write_config(tmp_path)
        (tmp_path / "blocker").write_text("")
        before = sorted(os.listdir(tmp_path))
        cfg = RunConfig.from_file(path)
        cfg.values["paths.output_dir"] = "blocker/out"
        logged = []
        assert run_pipeline(cfg, log=logged.append) == 1
        assert len(logged) == 1 and logged[0].startswith("input error: ")
        assert main(["--config", str(path),
                     "--output-dir", str(tmp_path / "blocker" / "out")]) == 1
        assert sorted(os.listdir(tmp_path)) == before

    def test_empty_output_dir_flag_exits_one(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        assert main(["--config", str(path), "--output-dir", ""]) == 1
        assert "input error: paths.output_dir is empty" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    def test_mean_anchor_reaches_the_operator(self, tmp_path, monkeypatch):
        # model.b_ref = mean travels only inside the assembled operator
        import lsvcal.fixed_point
        import lsvcal.pipeline
        seen = {}

        def psi_spy(*args, real=lsvcal.pipeline.smoothed_dirac, **kwargs):
            seen["psi"] = real(*args, **kwargs)
            return seen["psi"]

        def assemble_spy(spec, grid, b_ref, real=lsvcal.fixed_point.assemble_frozen):
            seen.update(spec=spec, grid=grid, b_ref=b_ref)
            return real(spec, grid, b_ref=b_ref)
        monkeypatch.setattr(lsvcal.pipeline, "smoothed_dirac", psi_spy)
        monkeypatch.setattr(lsvcal.fixed_point, "assemble_frozen", assemble_spy)
        cfg = RunConfig.from_file(write_config(tmp_path, b="exp_clamped:0.5:2.0",
                                               extra="model.b_ref = mean"))
        assert run_pipeline(cfg, log=lambda m: None) == 0
        spec, grid = seen["spec"], seen["grid"]
        assert seen["b_ref"] == spec.b_ref(grid, mode="mean", psi=seen["psi"])
        assert seen["b_ref"] == pytest.approx(1.0636, abs=1e-4)
        assert spec.b_ref(grid) == 1.0

    @pytest.mark.parametrize("target,err,mode,written", [
        ("lsvcal.fixed_point.solve_linear", StabilityFailure("NaNs"),
         "fixed-point", set()),
        ("lsvcal.fixed_point.assemble_frozen", NonEllipticAssembly("K2 = -1"),
         "fixed-point", set()),
        ("lsvcal.fixed_point.mixing_ratio", DegenerateDenominator(3, 0.0),
         "fixed-point", set()),
        ("lsvcal.fixed_point.mixing_ratio", ValueError("mixing ratio left"),
         "fixed-point", set()),
        ("lsvcal.pipeline.ratio_of_marginals", ValueError("mixing ratio left"),
         "fixed-point", {"fixed_point.json", "local_vol.csv", "marginals.csv"}
         | {f"density_{k}.csv" for k in range(0, 25, 2)}),
        ("lsvcal.pipeline.solve_lagged", DegenerateDenominator(3, 0.0),
         "time-lagged", set()),
    ], ids=["StabilityFailure", "NonEllipticAssembly", "DegenerateDenominator",
            "ValueError-solve", "ValueError-artifacts", "solve_lagged"])
    def test_failure_exits_two_with_report(self, tmp_path, monkeypatch,
                                           target, err, mode, written):
        def fail(*args, **kwargs):
            raise err
        monkeypatch.setattr(target, fail)
        cfg = RunConfig.from_file(write_config(tmp_path, extra=f"fp.mode = {mode}"))
        assert run_pipeline(cfg, log=lambda m: None) == 2
        out = tmp_path / "out"
        assert set(os.listdir(out)) == {"report.json", "run_meta.json"} | written
        rep = json.loads((out / "report.json").read_text())
        assert rep["error"] == f"{type(err).__name__}: {err}"
        assert rep["status_hint"] == 2

    def test_gate_failure_exits_two_with_status_hint(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path,
                                               extra="verify.l1_tol = 1e-12"))
        assert run_pipeline(cfg, log=lambda m: None) == 2
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["verification"]["gates"]["marginal_l1"] is False
        assert rep["status_hint"] == 2
        assert "error" not in rep

    def test_elliptic_operator_with_far_apart_diagonal_is_not_k2_zero(self, tmp_path):
        # a_yy near 1e99 and a_ss near 18: the smallest eigenvalue once
        # cancelled to exactly 0, and stage 2 failed with "K2 = 0 <= 0"
        cfg = RunConfig.from_file(write_config(tmp_path,
                                               extra="model.alpha2 = const:1e50"))
        logged = []
        assert run_pipeline(cfg, log=logged.append) == 2
        assert not [m for m in logged if "K2" in m]
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "K2" not in rep.get("error", "")
        assert (tmp_path / "out" / "fixed_point.json").exists()

    def test_exhausted_horizon_writes_last_attempt(self, tmp_path):
        cfg = RunConfig.from_file(write_config(
            tmp_path, b="sqrt1p_sin:5.0", ns=48, ny=32, nt=32,
            extra="fp.max_halvings = 0"))
        logged = []
        assert run_pipeline(cfg, log=logged.append) == 2
        # iterate 2 stops at slice 2, the first below the lower bound, and
        # the last attempt's artifacts end there
        assert [m.split(": min ")[0] for m in logged] == [
            f"fixed point {how}: iterate 2 left the admissible set at slice 2 (t = 0.0625)"
            for how in ("failed at full horizon", "not converged")]
        assert all(m.endswith(" < lower bound 1.59155e-08") for m in logged)
        out = tmp_path / "out"
        fp = json.loads((out / "fixed_point.json").read_text())
        assert set(fp) == FIXED_POINT_KEYS
        assert fp["converged"] is False and fp["t_star"] == 1.0
        assert not all(fp["membership"][-1][k]
                       for k in ("lower_ok", "upper_ok", "norm_ok"))
        assert fp["membership"][-1]["lower_ok"] is False
        rep = json.loads((out / "report.json").read_text())
        assert rep["status_hint"] == 2
        assert "verification" not in rep
        # the prefix's mixing ratio is measurable, so the leverage is
        # written too and nothing failed after the solve
        assert "error" not in rep
        assert set(os.listdir(out)) == (
            {"fixed_point.json", "report.json", "run_meta.json", "local_vol.csv",
             "marginals.csv", "leverage.csv"} | {f"density_{k}.csv" for k in (0, 2)})
        # the marginals at the snapshots, the leverage at every slice made
        for name, ts in (("marginals.csv", [0.0, 0.0625]),
                         ("leverage.csv", [0.0, 0.03125, 0.0625])):
            rows = (out / name).read_text().splitlines()[1:]
            assert sorted({float(r.split(",")[0]) for r in rows}) == ts

    @pytest.mark.parametrize("name", ["fixed_point.json", "local_vol.csv",
                                      "marginals.csv", "density_12.csv",
                                      "leverage.csv", "report.json",
                                      "run_meta.json"])
    @pytest.mark.parametrize("how", ["rename", "blocked"])
    def test_failed_write_exits_two(self, tmp_path, monkeypatch, name, how):
        # "rename": the rename of name's .tmp fails, the writer removes it;
        # "blocked": a directory the writer did not make sits at the .tmp
        # path and is left alone
        import lsvcal.pipeline
        out = tmp_path / "out"
        if how == "blocked":
            (out / f"{name}.tmp").mkdir(parents=True)
        else:
            def replace(src, dst, real=os.replace):
                if os.path.basename(dst) == name:
                    raise OSError(f"cannot rename onto {name}")
                real(src, dst)
            monkeypatch.setattr(lsvcal.pipeline.os, "replace", replace)
        cfg = RunConfig.from_file(write_config(tmp_path))
        logged = []
        assert run_pipeline(cfg, log=logged.append) == 2
        left = set(os.listdir(out))
        if how == "blocked":
            assert (out / f"{name}.tmp").is_dir()
            left.remove(f"{name}.tmp")
        assert not [n for n in left if n.endswith(".tmp")]
        # written in this order; a failed write stops the ones after it
        order = ["fixed_point.json", "local_vol.csv", "marginals.csv",
                 *(f"density_{k}.csv" for k in range(0, 25, 2)), "leverage.csv",
                 "report.json", "run_meta.json"]
        if name in ("report.json", "run_meta.json"):
            assert left == set(order[:order.index(name)])
            assert len(logged) == 1 and logged[0].startswith("report not written: ")
            return
        assert left == set(order[:order.index(name)]) | {"report.json",
                                                         "run_meta.json"}
        rep = json.loads((out / "report.json").read_text())
        assert rep["status_hint"] == 2 and name in rep["error"]
        assert rep["error"].startswith("OSError: " if how == "rename"
                                       else "IsADirectoryError: ")

    def test_time_lagged_mode(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path, b="sqrt1p_sin:0.05",
                                               extra="fp.mode = time-lagged"))
        rc = run_pipeline(cfg, log=lambda m: None)
        assert rc == 0
        fp = json.loads((tmp_path / "out" / "fixed_point.json").read_text())
        assert set(fp) == FIXED_POINT_KEYS
        assert fp["mode"] == "time-lagged" and fp["converged"] is True
        assert fp["iterations"] == 0 and fp["t_star"] == 1.0
        assert fp["denominator_min"] > 0


# values that each break some config key
HOSTILE_VALUES = ["", "nan", "inf", "-1", "0", "bogus", "const", "exp_clamped:1",
                  "table:missing.csv", "1e308", "const:nan", "const:inf",
                  "cir:1:-1", "sqrt1p_sin:5:-1"]


def assert_exit_code_contract(changes: dict) -> int:
    """Run the test config with ``changes`` set: exit 0, 1 or 2, nothing
    raised, and an exit 1 writes nothing and warns nothing.  A fresh
    directory per call, as tmp_path is made once per test; returns the
    status."""
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        cfg = RunConfig.from_file(write_config(Path(tmp)))
        cfg.values.update(changes)
        before = sorted(os.listdir(tmp))
        status = run_pipeline(cfg, log=lambda m: None)
        assert status in (0, 1, 2)
        if status == 1:
            assert sorted(os.listdir(tmp)) == before
            assert not [str(w.message) for w in seen]
    return status


# values that each pass stage 1 on the test config, and can fail it in
# pairs: the vol band, the start against the grid bounds, the bandwidths
# against the mesh (3 cells: 19 < 3 dS at grid.ns = 46 or grid.s_max = 350,
# 0.21 < 3 dy at grid.ny = 26 or grid.y_min = -1.2) and the discount
# factor e^(-rate t) over the horizon
PAIR_VALUES = {
    "vol.floor": ["0.05", "2.5"], "vol.cap": ["0.02", "1.0"],
    "model.spot0": ["40", "300"], "grid.s_min": ["20", "90"],
    "grid.s_max": ["150", "350"], "model.y0": ["-0.8", "0.8"],
    "grid.y_min": ["-1.2", "-0.5"], "grid.y_max": ["0.5", "1.2"],
    "init.bandwidth_s": ["19", "40"], "grid.ns": ["46", "64"],
    "init.bandwidth_y": ["0.21", "0.6"], "grid.ny": ["26", "40"],
    "model.rate": ["0.05", "400"], "grid.t": ["0.5", "2.0"],
}


@st.composite
def two_settings(draw):
    keys = draw(st.lists(st.sampled_from(sorted(PAIR_VALUES)), min_size=2,
                         max_size=2, unique=True))
    return {key: draw(st.sampled_from(PAIR_VALUES[key])) for key in keys}


class TestHostileConfig:
    # as many examples as (key, value) pairs: 38 keys x 14 values
    @settings(max_examples=532, deadline=None)
    @given(st.sampled_from(sorted(_KEYS)),
           st.sampled_from(HOSTILE_VALUES))
    @example("grid.s_min", "0")
    @example("grid.s_min", "-1")
    def test_exit_code_contract(self, key, value):
        # one key set to one hostile value
        assert_exit_code_contract({key: value})

    @pytest.mark.parametrize("key,value", [
        (key, value) for key, values in PAIR_VALUES.items() for value in values])
    def test_pair_value_passes_stage_one_alone(self, tmp_path, key, value):
        cfg = RunConfig.from_file(write_config(tmp_path))
        cfg.values[key] = value
        _inputs(cfg, log=lambda m: None)

    # 160 of the 364 (pair, values) draws, about 15 s
    @settings(max_examples=160, deadline=None)
    @given(two_settings())
    def test_two_key_exit_code_contract(self, changes):
        # two keys, each set to a value it takes alone
        assert_exit_code_contract(changes)

    @pytest.mark.parametrize("changes", [
        {"vol.floor": "2.5", "vol.cap": "0.02"},
        {"model.spot0": "300", "grid.s_max": "150"},
        {"model.y0": "0.8", "grid.y_max": "0.5"},
        {"init.bandwidth_s": "19", "grid.ns": "46"},
        {"init.bandwidth_y": "0.21", "grid.y_min": "-1.2"},
        {"model.rate": "400", "grid.t": "2.0"}], ids=lambda c: "+".join(c))
    def test_conflicting_pair_exits_one(self, changes):
        assert assert_exit_code_contract(changes) == 1


class TestCli:
    def test_flags_replace_their_config_keys(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, extra="run.verify = false")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["--config", str(path), "--output-dir", "rel",
                     "--mode", "time-lagged", "--snapshot-every", "6",
                     "--verify"]) == 0
        out = work / "rel"
        assert not os.path.exists(tmp_path / "rel")
        fp = json.loads((out / "fixed_point.json").read_text())
        assert fp["mode"] == "time-lagged"
        assert sorted(p.name for p in out.glob("density_*")) == sorted(
            f"density_{k}.csv" for k in (0, 6, 12, 18, 24))
        assert "verification" in json.loads((out / "report.json").read_text())

    @pytest.mark.parametrize("argv,name", [
        (["--config", "run.cfg", "--mode", "bogus"], "fp.mode"),
        (["--config", "run.cfg", "--snapshot-every", "abc"], "run.snapshot_every"),
        (["--config", "run.cfg", "--snapshot-every", "-1"], "run.snapshot_every"),
        (["--config", "run.cfg", "--bogus"], "--bogus"),
        (["--mode", "bogus"], "--config")])
    def test_bad_command_line_exits_one_writing_nothing(self, tmp_path, monkeypatch,
                                                        capsys, argv, name):
        # a bad flag value reaches stage 1 as its key's value; a flag the
        # parser does not know, or a missing --config, stops the parser
        write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        try:
            status = main(argv)
        except SystemExit as stop:
            status = stop.code
        assert status == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error: ") and name in err[0]
        assert sorted(os.listdir(tmp_path)) == before

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0 and "--snapshot-every" in capsys.readouterr().out

    def test_calibration_loads_no_scipy_linalg_or_special(self, tmp_path):
        # verification on, implied-vol quotes, some of them repriced; the
        # run's own interpreter, as this one may hold the modules already
        path = write_config(tmp_path)
        mods = run_fresh("import lsvcal.cli; status = lsvcal.cli.main("
                         "['--config', sys.argv[1]]); print(status, *sys.modules)",
                         path).split()
        assert mods[0] == "0"
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verification"]["reprice_max_rel_err"] is not None
        assert [m for m in mods if m in ("scipy.linalg", "scipy.special")
                or m.startswith("scipy.special.")] == []


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path, b="sqrt1p_sin:0.05"))
        for out in ("o1", "o2"):
            cfg.values["paths.output_dir"] = out
            assert run_pipeline(cfg, log=lambda m: None) == 0
        for name in ("leverage.csv", "report.json", "fixed_point.json",
                     "marginals.csv"):
            b1 = (tmp_path / "o1" / name).read_bytes()
            b2 = (tmp_path / "o2" / name).read_bytes()
            assert b1 == b2, name


class TestStreamedRecord:
    """A time-lagged run reduces each slice as the sweep makes it."""

    def test_artifacts_equal_those_of_the_full_array(self, tmp_path, monkeypatch):
        import lsvcal.pipeline
        cfg = RunConfig.from_file(write_config(tmp_path, b="sqrt1p_sin:0.5",
                                               extra="fp.mode = time-lagged"))
        cfg.values["paths.output_dir"] = "streamed"
        assert run_pipeline(cfg, log=lambda m: None) == 0
        # the same sweep handing stage 3 its whole trajectory
        seen = {}

        def whole(run, log):
            seen["run"] = run
            seen["p"], report = solve_lagged(run.spec, run.grid, run.psi)
            return seen["p"], report
        monkeypatch.setattr(lsvcal.pipeline, "_solve", whole)
        cfg.values["paths.output_dir"] = "whole"
        assert run_pipeline(cfg, log=lambda m: None) == 0
        streamed, whole_out = tmp_path / "streamed", tmp_path / "whole"
        names = sorted(set(os.listdir(streamed)) - {"run_meta.json"})
        assert names == sorted(set(os.listdir(whole_out)) - {"run_meta.json"})
        for name in names:
            assert (streamed / name).read_bytes() == (whole_out / name).read_bytes(), name

        # and the arrays the writers read equal the whole-trajectory
        # reductions bit for bit (the former stage 3 as oracle)
        run, p, grid = seen["run"], seen["p"], seen["run"].grid
        ks = [*range(0, grid.n_t, run.snap_every), grid.n_t]
        q_p = marginal(p, grid)
        q_d = dupire_forward_solve(run.sigma_d, run.spec.rate, grid, q_p[0])
        oracle = tmp_path / "oracle"
        oracle.mkdir()
        _write_csv(oracle / "marginals.csv", "t,S,q_p,q_D", grid.t_nodes[ks],
                   grid.s_nodes, q_p[ks], q_d[ks])
        _write_csv(oracle / "leverage.csv", "t,S,a", grid.t_nodes, grid.s_nodes,
                   leverage(run.sigma_d, mixing_ratio(p, run.spec.b, grid)))
        for k in ks:
            _write_csv(oracle / f"density_{k}.csv", "S,y,p", grid.s_nodes,
                       grid.y_nodes, p[k])
        for name in os.listdir(oracle):
            assert (oracle / name).read_bytes() == (streamed / name).read_bytes(), name

    def test_run_never_holds_the_trajectory(self, tmp_path, monkeypatch):
        import tracemalloc
        import lsvcal.pipeline
        # enough steps that one trajectory outweighs a step's working set
        cfg = RunConfig.from_file(write_config(tmp_path, b="sqrt1p_sin:0.5", nt=200,
                                               extra="fp.mode = time-lagged"))
        grid = cfg.grid()
        trajectory_bytes = (grid.n_t + 1) * (grid.n_s + 2) * (grid.n_y + 2) * 8
        after_inputs = []

        def inputs(*args, real=lsvcal.pipeline._inputs):
            run = real(*args)
            after_inputs.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return run
        monkeypatch.setattr(lsvcal.pipeline, "_inputs", inputs)
        tracemalloc.start()
        try:
            assert run_pipeline(cfg, log=lambda m: None) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - after_inputs[0] < trajectory_bytes

    def test_failure_in_the_sweep_writes_no_artifact(self, tmp_path, monkeypatch):
        import lsvcal.fixed_point
        calls = []

        def mixing_ratio_failing_at_step_4(*args, real=lsvcal.fixed_point.mixing_ratio):
            calls.append(args[0].shape)
            if len(calls) == 5:
                raise DegenerateDenominator(3, 0.0)
            return real(*args)
        monkeypatch.setattr(lsvcal.fixed_point, "mixing_ratio",
                            mixing_ratio_failing_at_step_4)
        cfg = RunConfig.from_file(write_config(tmp_path, b="sqrt1p_sin:0.5",
                                               extra="fp.mode = time-lagged"))
        assert run_pipeline(cfg, log=lambda m: None) == 2
        grid = cfg.grid()
        assert calls == [(grid.n_s + 2, grid.n_y + 2)] * 5
        out = tmp_path / "out"
        assert set(os.listdir(out)) == {"report.json", "run_meta.json"}
        rep = json.loads((out / "report.json").read_text())
        assert rep["error"].startswith("DegenerateDenominator: ")
        assert rep["status_hint"] == 2


def per_row_csv(path, header, outer, inner, *columns):
    """The former writers: one f-string per row, with one or two value
    columns (test oracle)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for r, o in enumerate(outer):
            for i, x in enumerate(inner):
                if len(columns) == 1:
                    fh.write(f"{o:.17g},{x:.17g},{columns[0][r, i]:.17g}\n")
                else:
                    fh.write(f"{o:.17g},{x:.17g},{columns[0][r, i]:.17g},"
                             f"{columns[1][r, i]:.17g}\n")


# any double, with the values where formatting is most fragile drawn often
doubles = st.one_of(st.floats(width=64), st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
     0.1, 1.0 / 3.0]))


@st.composite
def csv_tables(draw):
    n_out, n_in = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    outer = draw(arrays(np.float64, n_out, elements=doubles))
    inner = draw(arrays(np.float64, n_in, elements=doubles))
    columns = [draw(arrays(np.float64, (n_out, n_in), elements=doubles))
               for _ in range(draw(st.integers(1, 2)))]
    return outer, inner, columns


class TestCsvWriter:
    @settings(max_examples=300, deadline=None)
    @given(csv_tables())
    def test_bytes_equal_per_row_writer(self, table):
        outer, inner, columns = table
        header = "t,S," + ",".join(f"v{j}" for j in range(len(columns)))
        with tempfile.TemporaryDirectory() as tmp:
            new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
            _write_csv(new, header, outer, inner, *columns)
            per_row_csv(old, header, outer, inner, *columns)
            with open(new, "rb") as a, open(old, "rb") as b:
                assert a.read() == b.read()
            assert sorted(os.listdir(tmp)) == ["new.csv", "old.csv"]   # no .tmp left


class TestSnapshots:
    def test_binary_roundtrip(self, tmp_path):
        extra = "run.snapshot_format = bin\nrun.snapshot_every = 12"
        cfg = RunConfig.from_file(write_config(tmp_path, extra=extra))
        assert run_pipeline(cfg, log=lambda m: None) == 0
        payload, meta = read_density_bin(tmp_path / "out" / "density_24.bin")
        assert payload.shape == (50, 30)
        assert meta["s_min"] == 30.0
        assert payload.min() > 0

    def test_snapshot_cadence(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path, extra="run.snapshot_every = 6"))
        assert run_pipeline(cfg, log=lambda m: None) == 0
        names = sorted(p.name for p in (tmp_path / "out").glob("density_*.csv"))
        assert names == [f"density_{k}.csv" for k in (0, 12, 18, 24, 6)]


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_keys(after: str, until: str) -> set:
    """The backquoted key names the README's file-format notes list between
    the first ``after`` and the next ``until``."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index(after) + len(after)
    return set(re.findall(r"`(\w+)(?:\[\])?`", text[start:text.index(until, start)]))


# the one key list of fixed_point.json, in both modes
FIXED_POINT_KEYS = readme_keys("`fixed_point.json`: keys", ".")


def readme_config_defaults() -> dict:
    """The keys the README's configuration table names in its first column,
    each with the default its third column gives it (None if required).

    A cell lists keys as backquoted names; ``grid.s_min/s_max`` names
    ``grid.s_min`` and ``grid.s_max``, ``init.bandwidth_s/_y`` names
    ``init.bandwidth_s`` and ``init.bandwidth_y``.  A default cell is
    ``required``, ``none`` (the empty default) or one backquoted default per
    key, in the order of the keys."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("| key | meaning | default |")
    defaults = {}
    for row in text[start:text.index("\n\n", start)].splitlines()[2:]:
        keys = []
        for name in re.findall(r"`([\w./]+)`", row.split("|")[1]):
            head, *rest = name.split("/")
            section, stem = head.split(".")[0], head.rsplit("_", 1)[0]
            keys += [head] + [stem + p if p.startswith("_") else f"{section}.{p}"
                              for p in rest]
        cell = row.split("|")[3].strip()
        values = ([None] * len(keys) if cell == "required" else
                  [""] * len(keys) if cell == "none" else re.findall(r"`([^`]*)`", cell))
        defaults.update(zip(keys, values, strict=True))
    return defaults


class TestArtifactKeys:
    def test_config_table_lists_every_key(self):
        # and each key's default, which the table carries
        assert readme_config_defaults() == {key: d for key, (_, d, _) in _KEYS.items()}

    def test_json_keys_are_the_documented_ones(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path))
        assert run_pipeline(cfg, log=lambda m: None) == 0
        out = tmp_path / "out"
        fp = json.loads((out / "fixed_point.json").read_text())
        report = json.loads((out / "report.json").read_text())
        assert set(fp) == FIXED_POINT_KEYS == {f.name for f in fields(FixedPointReport)}
        assert fp["mode"] == "fixed-point" and fp["denominator_min"] is None
        assert set(report["verification"]) == readme_keys("verification\n  block (", ")")
        assert set(report["validation"]) == readme_keys("`validation` block (", ")")


class TestVerification:
    def test_nonzero_rate_passes_mass_gate(self, tmp_path):
        # the discount term makes the mass decay like e^{-rt} by design
        cfg = RunConfig.from_file(write_config(tmp_path, extra="model.rate = 0.03"))
        assert run_pipeline(cfg, log=lambda m: None) == 0
        ver = json.loads((tmp_path / "out" / "report.json").read_text())["verification"]
        assert ver["gates"]["mass_drift"] is True

    def test_checks_run_once_on_the_written_arrays(self, tmp_path, monkeypatch):
        import lsvcal.pipeline
        seen = {"dupire_forward_solve": [], "ratio_of_marginals": []}
        for name, calls in seen.items():
            def spy(*args, real=getattr(lsvcal.pipeline, name), calls=calls, **kwargs):
                calls.append(args[0].shape)
                return real(*args, **kwargs)
            monkeypatch.setattr(lsvcal.pipeline, name, spy)
        cfg = RunConfig.from_file(write_config(tmp_path))
        assert run_pipeline(cfg, log=lambda m: None) == 0
        grid = cfg.grid()
        assert seen["dupire_forward_solve"] == [(grid.n_t + 1, grid.n_s + 2)]
        assert seen["ratio_of_marginals"] == [(grid.n_t + 1, grid.n_s + 2)]
        assert "verification" in json.loads((tmp_path / "out" / "report.json").read_text())

    def test_report_l1_equals_written_marginals(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path))
        assert run_pipeline(cfg, log=lambda m: None) == 0
        out = tmp_path / "out"
        l1 = json.loads((out / "report.json").read_text())["verification"]["marginal_l1"]
        rows = np.loadtxt(out / "marginals.csv", delimiter=",", skiprows=1)
        ds = cfg.grid().ds
        recomputed = {}
        for t in np.unique(rows[:, 0])[1:]:
            sl = rows[rows[:, 0] == t]
            recomputed[f"{t:.10g}"] = float(np.sum(np.abs(sl[:, 2] - sl[:, 3])) * ds)
        assert len(recomputed) == len(l1) > 1
        assert recomputed == l1

    def test_cross_scheme_marginals_close(self):
        grid = make_grid(n_s=64, n_y=32, n_t=48)
        spec = make_spec(grid)
        psi = make_psi(grid)
        dens, _ = iterate(spec, grid, psi)
        sigma = flat_sigma(grid)
        n_k = dens.shape[0] - 1
        ks = list(range(n_k // 10, n_k + 1, n_k // 10))
        rep = verify_calibration(dens, sigma, *verification_arrays(dens, sigma, spec, grid),
                                 spec, grid, ks)
        assert max(rep.marginal_l1.values()) < 5e-3
        assert rep.identity_max_rel < 1e-8
        assert rep.mass_drift < 1e-3
        assert rep.all_within_tolerance

    def test_uncorrected_baseline_is_worse(self):
        # dropping the conditional correction with nonconstant b visibly
        # degrades the marginal match
        grid = make_grid(n_s=64, n_y=32, n_t=48)
        b = lambda y: np.clip(np.exp(np.asarray(y, dtype=float)), 0.5, 2.0)
        spec = make_spec(grid, b=b)
        psi = make_psi(grid)
        sigma = flat_sigma(grid)

        dens, _ = solve_lagged(spec, grid, psi)
        dens_off, _ = solve_linear(assemble_frozen(spec, grid, b_ref=1.0), psi, grid)
        q0 = marginal(psi, grid)
        q_d = dupire_forward_solve(sigma, 0.0, grid, q0)

        def l1_at_end(d):
            q = marginal(d[-1], grid)
            return float(np.sum(np.abs(q - q_d[-1])) * grid.ds)

        corrected = l1_at_end(dens)
        uncorrected = l1_at_end(dens_off)
        assert corrected < 1e-2
        assert uncorrected > 3.0 * corrected
