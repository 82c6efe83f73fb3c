import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from stppfit import (
    CovariateSample,
    MarkedPointPattern,
    PointPattern,
    SpaceTimePoint,
    Window,
    cli,
)
from stppfit.io import load_model, write_covariate_samples, write_pattern_csv

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
UNIT = Window.unit_cube()


def run_cli(*args, cwd):
    """Run ``stppfit`` in process from ``cwd``; the result has subprocess.run's shape."""
    argv = [str(a) for a in args]
    out, err = io.StringIO(), io.StringIO()
    with (
        pytest.MonkeyPatch.context() as mp,
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        mp.chdir(cwd)
        code = cli.main(argv)
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def run_python(*args, cwd, **env_vars):
    """Run the interpreter with ``src/`` on its path in a subprocess; ``env_vars`` join its environment."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def run_module(*args, cwd, **env_vars):
    """Run ``python -m stppfit`` in a subprocess."""
    return run_python("-m", "stppfit", *args, cwd=cwd, **env_vars)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(100)
    write_pattern_csv(PointPattern.from_arrays(UNIT, *rng.random((3, 100))), d / "u100.csv")
    pts = [(SpaceTimePoint(*rng.random(3)), "A") for _ in range(30)]
    pts += [(SpaceTimePoint(*rng.random(3)), "B") for _ in range(70)]
    write_pattern_csv(MarkedPointPattern.from_labeled(UNIT, pts), d / "marked.csv")
    samples = [
        CovariateSample(SpaceTimePoint(*rng.random(3)), float(rng.normal())) for _ in range(10)
    ]
    write_covariate_samples(samples, d / "cov.csv")
    dense = np.random.default_rng(101).random((3, 1000))
    write_pattern_csv(PointPattern.from_arrays(UNIT, *dense), d / "u1000.csv")
    return d


WINDOW = "0,1,0,1,0,1"


class TestSimulateCommand:
    def test_writes_csv_and_metadata(self, workdir):
        r = run_cli(
            "simulate", "--window", WINDOW, "--log-intensity", "4 + 1.2*x",
            "--lambda-max", "185", "--seed", "7", "--out", "sim.csv", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        lines = (workdir / "sim.csv").read_text().splitlines()
        assert lines[0] == "x,y,t"
        meta = json.loads((workdir / "sim.meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["n_points"] == len(lines) - 1
        assert "philox" in meta["generator"]

    def test_same_flags_give_identical_files(self, workdir):
        args = (
            "simulate", "--window", WINDOW, "--log-intensity", "2 + 0.5*t",
            "--lambda-max", "13", "--seed", "3",
        )
        run_cli(*args, "--out", "rep1.csv", cwd=workdir)
        run_cli(*args, "--out", "rep2.csv", cwd=workdir)
        assert (workdir / "rep1.csv").read_bytes() == (workdir / "rep2.csv").read_bytes()

    def test_module_entry_point_matches_in_process_run(self, workdir):
        args = (
            "simulate", "--window", WINDOW, "--log-intensity", "3 + 0.5*y",
            "--lambda-max", "34", "--seed", "5",
        )
        sub = run_module(*args, "--out", "entry_sub.csv", cwd=workdir)
        inproc = run_cli(*args, "--out", "entry_in.csv", cwd=workdir)
        assert sub.returncode == inproc.returncode == 0, sub.stderr
        assert sub.stdout.replace("entry_sub", "entry_in") == inproc.stdout
        assert (workdir / "entry_sub.csv").read_bytes() == (workdir / "entry_in.csv").read_bytes()

    def test_negligible_intensity_gives_header_only(self, workdir):
        r = run_cli(
            "simulate", "--window", WINDOW, "--log-intensity", "-50",
            "--lambda-max", "1e-20", "--seed", "1", "--out", "empty.csv", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        assert (workdir / "empty.csv").read_text() == "x,y,t\n"

    def test_bad_expression_is_usage_error(self, workdir):
        r = run_cli(
            "simulate", "--window", WINDOW, "--log-intensity", "4 + 2*z",
            "--lambda-max", "10", "--seed", "1", "--out", "z.csv", cwd=workdir,
        )
        assert r.returncode == 2
        assert "unknown variable" in r.stderr

    def test_terms_without_operator_are_usage_error(self, workdir):
        r = run_cli(
            "simulate", "--window", WINDOW, "--log-intensity", "4 + 1.2x - 0.8t",
            "--lambda-max", "185", "--seed", "1", "--out", "juxt.csv", cwd=workdir,
        )
        assert r.returncode == 2
        assert "expected '+' or '-'" in r.stderr
        assert not (workdir / "juxt.csv").exists()

    @pytest.mark.parametrize("command, extra", [
        ("simulate", ("--seed", "1", "--out", "p.csv")),
        ("convergence-study", ("--seeds", "1", "--resolutions", "3", "--out", "s.csv")),
    ])
    def test_degree_above_cap_is_usage_error_before_any_file(self, tmp_path, command, extra):
        r = run_cli(command, "--window", WINDOW, "--log-intensity", "3 + x^7", "--lambda-max", "60", *extra,
                    cwd=tmp_path)
        assert r.returncode == 2
        assert "argument --log-intensity: total monomial degree is capped at 6" in r.stderr
        assert list(tmp_path.iterdir()) == []


class TestFitCommand:
    def test_intercept_only_prints_closed_form(self, workdir):
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, "--terms", "1",
            "--grid", "8,8,8", "--out", "m0.json", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        row = next(ln for ln in r.stdout.splitlines() if ln.startswith("1 "))
        estimate = float(row.split()[1])
        assert abs(estimate - 4.605170185988092) < 1e-6
        assert (workdir / "m0.json").exists()

    def test_zero_degree_product_writes_the_intercept(self, workdir):
        files = []
        for n, terms in enumerate(["1,x", "x^0,x", "y^0*t^0,x"]):
            r = run_cli("fit", "--pattern", "u100.csv", "--window", WINDOW, "--terms", terms,
                        "--grid", "5,5,5", "--out", f"const{n}.json", cwd=workdir)
            assert r.returncode == 0, r.stderr
            files.append((workdir / f"const{n}.json").read_bytes())
        assert json.loads(files[0])["terms"][0] == {"type": "intercept"}
        assert files[1] == files[0] and files[2] == files[0]

    def test_unknown_term_is_usage_error(self, workdir):
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, "--terms", "1,ndvi",
            "--out", "bad.json", cwd=workdir,
        )
        assert r.returncode == 2
        assert "unknown term" in r.stderr

    def test_missing_covariate_file_is_io_error(self, workdir):
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, "--terms", "1,ndvi",
            "--covariate", "ndvi=missing.csv", "--out", "bad.json", cwd=workdir,
        )
        assert r.returncode == 3

    def test_missing_window_is_usage_error(self, workdir):
        r = run_cli("fit", "--pattern", "u100.csv", "--terms", "1", "--out", "m.json", cwd=workdir)
        assert r.returncode == 2
        assert "--window" in r.stderr or "window" in r.stderr

    def test_infer_window_logged_to_stderr(self, workdir):
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--infer-window", "--terms", "1",
            "--grid", "6,6,6", "--out", "minf.json", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        assert "inferred window" in r.stderr

    def test_window_with_infer_window_is_usage_error(self, workdir):
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, "--infer-window",
            "--terms", "1", "--grid", "6,6,6", "--out", "both.json", cwd=workdir,
        )
        assert r.returncode == 2
        assert "conflict" in r.stderr
        assert not (workdir / "both.json").exists()

    def test_external_covariate_fit(self, workdir):
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, "--terms", "1,ndvi",
            "--covariate", "ndvi=cov.csv", "--covariate-grid", "8,8,8",
            "--grid", "6,6,6", "--out", "mcov.json", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        model = load_model(workdir / "mcov.json")
        assert model.column_names == ("1", "ndvi")

    def test_overflowing_idw_weights_name_the_cell_and_power(self, workdir):
        # at power 400 a cell within about 0.03 scaled units of a sample has
        # weight (d^2)^-200 = inf, so its IDW value is nan
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, "--terms", "1,ndvi",
            "--covariate", "ndvi=cov.csv", "--covariate-grid", "8,8,8", "--idw-power", "400",
            "--grid", "6,6,6", "--out", "overflow.json", cwd=workdir,
        )
        assert r.returncode == 2
        assert r.stderr == (
            "error: grid values must all be finite: at the cell centred at (0.3125, 0.0625, 0.0625), "
            "the IDW weights 1/d^p at power 400 leave the range of double precision\n"
        )
        assert not (workdir / "overflow.json").exists()

    def test_covariate_file_without_samples_is_usage_error(self, workdir):
        (workdir / "header_only.csv").write_text("x,y,t,value\n", encoding="utf-8")
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, "--terms", "1,z",
            "--covariate", "z=header_only.csv", "--grid", "6,6,6", "--out", "nocov.json", cwd=workdir,
        )
        assert r.returncode == 2
        assert r.stderr == "error: --covariate z=header_only.csv: the file has a header but no sample rows\n"
        assert not (workdir / "nocov.json").exists()

    def test_repeated_covariate_name_is_usage_error(self, workdir):
        # the second file does not exist: exit 2 rather than 3 shows no file was read
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, "--terms", "1,z",
            "--covariate", "z=cov.csv", "--covariate", "z=missing.csv",
            "--covariate-grid", "8,8,8", "--grid", "6,6,6", "--out", "dup.json", cwd=workdir,
        )
        assert r.returncode == 2
        assert "declared twice" in r.stderr
        assert not (workdir / "dup.json").exists()

    def test_coordinate_as_covariate_name_is_usage_error(self, workdir):
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, "--terms", "1,x",
            "--covariate", "x=missing.csv", "--grid", "6,6,6", "--out", "xcov.json", cwd=workdir,
        )
        assert r.returncode == 2
        assert "coordinate" in r.stderr
        assert not (workdir / "xcov.json").exists()

    def test_marked_fit_of_one_level_is_usage_error(self, workdir):
        pts = [(SpaceTimePoint(0.1 * i, 0.5, 0.5), "A") for i in range(1, 6)]
        write_pattern_csv(MarkedPointPattern.from_labeled(UNIT, pts), workdir / "one_level.csv")
        r = run_cli(
            "fit", "--pattern", "one_level.csv", "--window", WINDOW, "--marked", "--terms", "1",
            "--grid", "6,6,6", "--out", "one_level.json", cwd=workdir,
        )
        assert r.returncode == 2
        assert r.stderr == (
            "error: --marked needs two or more mark levels, but one_level.csv has only the level 'A'; "
            "drop its mark column to fit the ground pattern\n"
        )
        assert not (workdir / "one_level.json").exists()

    def test_marked_fit_prints_per_level_blocks(self, workdir):
        r = run_cli(
            "fit", "--pattern", "marked.csv", "--window", WINDOW, "--marked",
            "--interact-all", "--terms", "1", "--grid", "6,6,6", "--out", "mm.json",
            cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        assert any(ln.startswith("A:1") for ln in r.stdout.splitlines())
        assert any(ln.startswith("B:1") for ln in r.stdout.splitlines())

    @pytest.mark.parametrize("mode", [[], ["--interact-all"]])
    def test_mark_ridge_without_shared_terms_is_usage_error(self, workdir, mode):
        r = run_cli(
            "fit", "--pattern", "marked.csv", "--window", WINDOW, "--marked", *mode,
            "--ridge-marks", "0.5", "--terms", "1,x", "--grid", "6,6,6", "--out", "ridge.json",
            cwd=workdir,
        )
        assert r.returncode == 2
        assert "interact_all=False" in r.stderr
        assert not (workdir / "ridge.json").exists()

    @pytest.mark.parametrize(
        "flags",
        [("--ridge-marks", "0.5"), ("--shared-terms",), ("--interact-all",)],
        ids=["ridge-marks", "shared-terms", "interact-all"],
    )
    def test_multitype_flag_without_marked_is_usage_error(self, workdir, flags):
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, *flags, "--terms", "1,x",
            "--grid", "6,6,6", "--out", "unmarked_flag.json", cwd=workdir,
        )
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert not (workdir / "unmarked_flag.json").exists()

    @pytest.mark.parametrize(
        "pattern, mode",
        [("u100.csv", []), ("marked.csv", ["--marked", "--interact-all"])],
        ids=["unmarked", "interact-all"],
    )
    def test_mark_ridge_error_names_the_flags_it_needs(self, workdir, pattern, mode):
        r = run_cli(
            "fit", "--pattern", pattern, "--window", WINDOW, *mode, "--ridge-marks", "0.5",
            "--terms", "1,x", "--grid", "6,6,6", "--out", "ridge_flags.json", cwd=workdir,
        )
        assert r.returncode == 2
        assert r.stderr.startswith("error: --ridge-marks applies to --marked --shared-terms fits only")
        assert not (workdir / "ridge_flags.json").exists()

    def test_inferred_window_reaches_a_showwarning_hook(self, workdir, monkeypatch):
        shown = []
        monkeypatch.setattr(warnings, "showwarning", lambda message, *_: shown.append(str(message)))
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--infer-window", "--terms", "1",
            "--grid", "6,6,6", "--out", "minf_hook.json", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        assert len(shown) == 1 and shown[0].startswith("inferred window from data: x=(")
        assert "inferred window" not in r.stderr

    def test_non_convergence_warning_is_one_stderr_line(self, workdir):
        # a subprocess, so that Python's own warning filters and output apply
        r = run_module(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, "--terms", "1,x,y",
            "--grid", "6,6,6", "--max-iterations", "1", "--out", "partial_warn.json",
            cwd=workdir,
        )
        assert r.returncode == 4
        assert r.stderr == "warning: fit did not converge; output is partial\n"

    def test_non_convergence_exits_4_with_partial_output(self, workdir):
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, "--terms", "1,x,y",
            "--grid", "6,6,6", "--max-iterations", "1", "--out", "partial.json",
            cwd=workdir,
        )
        assert r.returncode == 4
        assert (workdir / "partial.json").exists()
        assert not load_model(workdir / "partial.json").fit.converged

    def test_config_file_supplies_flags(self, workdir):
        cfg = {
            "schema_version": 1,
            "window": WINDOW,
            "terms": "1",
            "grid": "6,6,6",
            "out": "mcfg.json",
        }
        (workdir / "fit.json").write_text(json.dumps(cfg))
        r = run_cli("fit", "--config", "fit.json", "--pattern", "u100.csv", cwd=workdir)
        assert r.returncode == 0, r.stderr
        assert (workdir / "mcfg.json").exists()

    def test_flags_override_config(self, workdir):
        cfg = {"schema_version": 1, "window": WINDOW, "terms": "1", "out": "a.json"}
        (workdir / "fit2.json").write_text(json.dumps(cfg))
        r = run_cli(
            "fit", "--config", "fit2.json", "--pattern", "u100.csv",
            "--out", "b.json", "--grid", "5,5,5", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        assert (workdir / "b.json").exists()
        assert not (workdir / "a.json").exists()

    @pytest.mark.parametrize("key, value", [("tolerence", 5), ("seeds", 7)])
    def test_config_key_that_is_no_fit_option_is_usage_error(self, workdir, key, value):
        cfg = {"window": WINDOW, "terms": "1", "grid": "5", "out": f"{key}.json", key: value}
        (workdir / f"{key}_cfg.json").write_text(json.dumps(cfg))
        r = run_cli("fit", "--config", f"{key}_cfg.json", "--pattern", "u100.csv", cwd=workdir)
        assert r.returncode == 2
        assert repr(key) in r.stderr and "stppfit fit" in r.stderr
        assert not (workdir / f"{key}.json").exists()

    def test_config_with_interact_all_and_shared_terms_is_usage_error(self, workdir):
        cfg = {"window": WINDOW, "marked": True, "interact_all": True, "shared_terms": True,
               "grid": "5", "out": "both_modes.json"}
        (workdir / "modes_cfg.json").write_text(json.dumps(cfg))
        r = run_cli("fit", "--config", "modes_cfg.json", "--pattern", "marked.csv", cwd=workdir)
        assert r.returncode == 2
        assert "conflict" in r.stderr
        assert not (workdir / "both_modes.json").exists()

    def test_config_values_parse_like_flags(self, workdir):
        cfg = {"window": [0, 1, 0, 1, 0, 1], "terms": "1", "grid": 5, "max_iterations": 50,
               "tolerance": 1e-10, "out": "native.json"}
        (workdir / "native_cfg.json").write_text(json.dumps(cfg))
        r = run_cli("fit", "--config", "native_cfg.json", "--pattern", "u100.csv", cwd=workdir)
        assert r.returncode == 0, r.stderr
        flags = run_cli(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, "--grid", "5,5,5",
            "--max-iterations", "50", "--out", "native_flags.json", cwd=workdir,
        )
        assert flags.stdout == r.stdout
        assert (workdir / "native.json").read_bytes() == (workdir / "native_flags.json").read_bytes()

    @pytest.mark.parametrize("key, value", [
        ("max_iterations", 50.5), ("grid", 6.5), ("tolerance", True), ("marked", "false"), ("verbose", "no"),
    ])
    def test_config_value_its_flag_would_reject_is_usage_error(self, workdir, key, value):
        cfg = {"window": WINDOW, "out": f"lossy_{key}.json", key: value}
        (workdir / f"lossy_{key}_cfg.json").write_text(json.dumps(cfg))
        r = run_cli("fit", "--config", f"lossy_{key}_cfg.json", "--pattern", "u100.csv", cwd=workdir)
        assert r.returncode == 2
        assert f"argument --{key.replace('_', '-')}" in r.stderr
        assert not (workdir / f"lossy_{key}.json").exists()

    def test_bad_config_value_reports_its_flag(self, workdir):
        cfg = {"window": "0,1", "out": "badwin.json"}
        (workdir / "badwin_cfg.json").write_text(json.dumps(cfg))
        r = run_cli("fit", "--config", "badwin_cfg.json", "--pattern", "u100.csv", cwd=workdir)
        assert r.returncode == 2
        assert "argument --window: needs 6 comma-separated numbers" in r.stderr
        assert not (workdir / "badwin.json").exists()

    def test_covariate_flag_replaces_config_list(self, workdir):
        cfg = {"window": WINDOW, "terms": "1,ndvi", "covariate": ["ndvi=missing.csv"],
               "covariate_grid": "8,8,8", "grid": "6", "out": "cov_cfg.json"}
        (workdir / "cov_cfg_in.json").write_text(json.dumps(cfg))
        r = run_cli(
            "fit", "--config", "cov_cfg_in.json", "--pattern", "u100.csv",
            "--covariate", "ndvi=cov.csv", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        assert load_model(workdir / "cov_cfg.json").column_names == ("1", "ndvi")

    @pytest.mark.parametrize("decl", ["1=cov.csv", "x*t=cov.csv", "z=cov.csv"])
    def test_covariate_the_terms_cannot_use_is_usage_error(self, workdir, decl):
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, "--terms", "1,x,x*t",
            "--covariate", decl, "--covariate-grid", "8,8,8", "--grid", "6,6,6",
            "--out", "unused.json", cwd=workdir,
        )
        assert r.returncode == 2
        assert repr(decl.partition("=")[0]) in r.stderr and "not a covariate" in r.stderr
        assert not (workdir / "unused.json").exists()

    def test_covariate_declarations_are_checked_before_any_file_is_read(self, workdir):
        # the first file does not exist: exit 2 rather than 3 shows it was not read
        r = run_cli(
            "fit", "--pattern", "u100.csv", "--window", WINDOW, "--terms", "1,ndvi",
            "--covariate", "ndvi=missing.csv", "--covariate", "z=cov.csv",
            "--grid", "6,6,6", "--out", "unread.json", cwd=workdir,
        )
        assert r.returncode == 2
        assert "'z'" in r.stderr

    def test_cubature_warning_is_one_stderr_line(self, workdir):
        # a subprocess, so that Python's own warning filters and output apply
        r = run_module(
            "fit", "--pattern", "u1000.csv", "--window", WINDOW, "--grid", "5",
            "--out", "coarse.json", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        assert r.stderr == (
            "warning: only 125 dummy points for 1000 data points; "
            "refine the grid so that dummies outnumber the data\n"
        )
        assert ".py:" not in r.stderr

    def test_help_shows_library_defaults(self, workdir):
        r = run_cli("fit", "--help", cwd=workdir)
        assert r.returncode == 0
        text = " ".join(r.stdout.split())
        for default in ("(default 10,10,10)", "(default 64,64,64)", "(default 100)", "(default 1e-10)",
                        "(default 2.0)", "(default 0.0)"):
            assert default in text


@pytest.fixture(scope="module")
def fitted(workdir):
    run_cli(
        "fit", "--pattern", "u100.csv", "--window", WINDOW, "--terms", "1",
        "--grid", "8,8,8", "--out", "const.json", cwd=workdir,
    )
    run_cli(
        "fit", "--pattern", "marked.csv", "--window", WINDOW, "--marked",
        "--terms", "1", "--grid", "6,6,6", "--out", "marked.json", cwd=workdir,
    )
    return workdir


class TestPredictGridCommand:

    def test_constant_surface(self, fitted):
        r = run_cli(
            "predict-grid", "--model", "const.json", "--grid", "3,3,3",
            "--out", "surface.csv", cwd=fitted,
        )
        assert r.returncode == 0, r.stderr
        rows = (fitted / "surface.csv").read_text().splitlines()
        assert rows[0] == "x,y,t,intensity"
        values = [float(ln.split(",")[3]) for ln in rows[1:]]
        assert len(values) == 27
        assert all(abs(v - 100.0) < 1e-6 for v in values)

    def test_marginal_equals_sum_of_levels(self, fitted):
        run_cli(
            "predict-grid", "--model", "marked.json", "--grid", "3,3,3",
            "--out", "levels.csv", cwd=fitted,
        )
        run_cli(
            "predict-grid", "--model", "marked.json", "--grid", "3,3,3",
            "--marginal", "--out", "marginal.csv", cwd=fitted,
        )
        level_rows = (fitted / "levels.csv").read_text().splitlines()[1:]
        marg_rows = (fitted / "marginal.csv").read_text().splitlines()[1:]
        by_cell = {}
        for ln in level_rows:
            x, y, t, v, mark = ln.split(",")
            by_cell.setdefault((x, y, t), 0.0)
            by_cell[(x, y, t)] += float(v)
        for ln in marg_rows:
            x, y, t, v = ln.split(",")
            assert abs(by_cell[(x, y, t)] - float(v)) < 1e-9

    def test_single_mark_selection(self, fitted):
        r = run_cli(
            "predict-grid", "--model", "marked.json", "--grid", "2,2,2",
            "--mark", "A", "--out", "a.csv", cwd=fitted,
        )
        assert r.returncode == 0, r.stderr
        rows = (fitted / "a.csv").read_text().splitlines()[1:]
        assert all(ln.endswith(",A") for ln in rows)
        assert len(rows) == 8

    def test_percent_label_round_trips_through_fit_and_surface(self, workdir):
        pts = [(SpaceTimePoint(*np.random.default_rng(i).random(3)), label)
               for i, label in enumerate(["50%", "B"] * 20)]
        write_pattern_csv(MarkedPointPattern.from_labeled(UNIT, pts), workdir / "percent.csv")
        r = run_cli("fit", "--pattern", "percent.csv", "--window", WINDOW, "--marked", "--terms", "1",
                    "--grid", "4", "--out", "percent.json", cwd=workdir)
        assert r.returncode == 0, r.stderr
        assert load_model(workdir / "percent.json").levels == ("50%", "B")
        r = run_cli("predict-grid", "--model", "percent.json", "--grid", "2", "--mark", "50%",
                    "--out", "percent_surface.csv", cwd=workdir)
        assert r.returncode == 0, r.stderr
        rows = (workdir / "percent_surface.csv").read_text().splitlines()
        assert rows[0] == "x,y,t,intensity,mark"
        assert len(rows) == 9 and all(row.endswith(",50%") and row.count(",") == 4 for row in rows[1:])

    def test_unknown_mark_is_usage_error_naming_the_levels(self, fitted):
        r = run_cli(
            "predict-grid", "--model", "marked.json", "--grid", "2,2,2",
            "--mark", "Z", "--out", "z.csv", cwd=fitted,
        )
        assert r.returncode == 2
        assert r.stderr == "error: --mark 'Z' is not one of the model's levels ['A', 'B']\n"
        assert not (fitted / "z.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("[]", "a model must be a JSON object, got list"),
        ('{"schema_version": 1, "levels": [], "coefficients": [], "fit": []}',
         "entry 'fit' must be a JSON object, got list"),
    ])
    def test_model_file_of_wrong_json_type_is_usage_error(self, fitted, text, message):
        # both ended in a traceback, exit 1
        (fitted / "wrong.json").write_text(text)
        r = run_cli("predict-grid", "--model", "wrong.json", "--grid", "2", "--out", "wrong.csv", cwd=fitted)
        assert r.returncode == 2
        assert r.stderr == f"error: model file 'wrong.json': {message}\n"
        assert not (fitted / "wrong.csv").exists()

    def test_marginal_on_unmarked_model_is_usage_error(self, fitted):
        r = run_cli(
            "predict-grid", "--model", "const.json", "--grid", "2,2,2",
            "--marginal", "--out", "x.csv", cwd=fitted,
        )
        assert r.returncode == 2

    def test_marginal_with_mark_is_usage_error(self, fitted):
        r = run_cli(
            "predict-grid", "--model", "marked.json", "--grid", "2,2,2",
            "--marginal", "--mark", "A", "--out", "marginal_a.csv", cwd=fitted,
        )
        assert r.returncode == 2
        assert "conflict" in r.stderr
        assert not (fitted / "marginal_a.csv").exists()


class TestConvergenceStudyCommand:
    def test_constant_truth_error_is_resolution_independent(self, workdir):
        r = run_cli(
            "convergence-study", "--window", WINDOW, "--log-intensity", "4",
            "--lambda-max", "54.7", "--seeds", "11,12", "--resolutions", "3,5,8",
            "--out", "study.csv", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        rows = (workdir / "study.csv").read_text().splitlines()
        header = rows[0].split(",")
        err_col = header.index("err_1")
        seed_col = header.index("seed")
        by_seed = {}
        for ln in rows[1:]:
            cells = ln.split(",")
            by_seed.setdefault(cells[seed_col], []).append(float(cells[err_col]))
        for errors in by_seed.values():
            assert len(errors) == 3
            assert max(errors) - min(errors) <= 1e-8

    def test_summary_and_timings_written(self, workdir):
        assert (workdir / "study_summary.csv").exists()
        summary = (workdir / "study_summary.csv").read_text().splitlines()
        assert summary[0].startswith("resolution,n_seeds,n_ok")
        assert len(summary) == 4
        timings = (workdir / "study_timings.csv").read_text().splitlines()
        assert timings[0] == "seed,resolution,wall_ms"

    def test_empty_seed_list_is_usage_error(self, workdir):
        r = run_cli(
            "convergence-study", "--window", WINDOW, "--log-intensity", "4",
            "--lambda-max", "55", "--seeds", "", "--resolutions", "3,5",
            "--out", "s.csv", cwd=workdir,
        )
        assert r.returncode == 2

    def test_rmse_non_increasing_for_shipped_truth(self, workdir):
        r = run_cli(
            "convergence-study", "--window", WINDOW, "--log-intensity", "4 + 1.2*x",
            "--lambda-max", "185", "--seeds", "1,2,3,4", "--resolutions", "4,8,16",
            "--out", "ladder.csv", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        rows = (workdir / "ladder_summary.csv").read_text().splitlines()
        header = rows[0].split(",")
        col = header.index("max_rmse")
        rmse = [float(ln.split(",")[col]) for ln in rows[1:]]
        for a, b in zip(rmse, rmse[1:]):
            assert b <= a * 1.10  # one mild inversion tolerated

    def test_config_scalars_are_one_element_lists(self, workdir):
        config = {"window": [0, 1, 0, 1, 0, 1], "seeds": 7, "resolutions": 4}
        (workdir / "scalars.json").write_text(json.dumps(config))
        r = run_cli(
            "convergence-study", "--config", "scalars.json", "--log-intensity", "4",
            "--lambda-max", "54.7", "--out", "scalars.csv", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        assert len((workdir / "scalars.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("use_config", [False, True])
    def test_error_rows_and_empty_rung_match_golden_bytes(self, workdir, use_config):
        # seeds 1 and 4 simulate no points; seeds 2 and 6 simulate one point,
        # whose fits have no maximum-likelihood estimate: at rung 2 (and seed 6
        # at rung 3) the Fisher information becomes singular first, with fitted
        # rates spanning more than 1/eps, and seed 2 at rung 3 runs into the
        # linear-predictor bound. No rung has a successful cell
        out = f"golden_{use_config}.csv"
        if use_config:
            cfg = {"window": [0, 1, 0, 1, 0, 1], "log_intensity": "-0.5 + 0.3*x", "lambda_max": 0.9,
                   "seeds": [6, 4, 2, 1], "resolutions": [2, 3], "out": out}
            (workdir / "golden.json").write_text(json.dumps(cfg))
            r = run_cli("convergence-study", "--config", "golden.json", cwd=workdir)
        else:
            r = run_cli(
                "convergence-study", "--window", WINDOW, "--log-intensity", "-0.5 + 0.3*x",
                "--lambda-max", "0.9", "--seeds", "1,2,4,6", "--resolutions", "2,3",
                "--out", out, cwd=workdir,
            )
        assert r.returncode == 0, r.stderr
        summary = (FIXTURES / "convergence_errors_summary.csv").read_bytes()
        assert (workdir / out).read_bytes() == (FIXTURES / "convergence_errors.csv").read_bytes()
        assert (workdir / out.replace(".csv", "_summary.csv")).read_bytes() == summary
        assert r.stdout.encode() == summary

    def test_repeated_warning_prints_once(self, workdir):
        # one dummy point per cell: seeds 2, 3 and 6 each simulate one point, and
        # seeds 1, 5 and 7 two, so the same warning is raised more than once; a
        # subprocess, so that Python's default warning filter applies
        r = run_module(
            "convergence-study", "--window", WINDOW, "--log-intensity", "0.5",
            "--lambda-max", "1.7", "--seeds", "1,2,3,4,5,6,7,8", "--resolutions", "1",
            "--out", "once.csv", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        assert r.stderr.splitlines() == [
            f"warning: only 1 dummy points for {n} data points; "
            "refine the grid so that dummies outnumber the data"
            for n in (2, 1, 3)
        ]

    def test_usage_without_subcommand(self, workdir):
        r = run_cli(cwd=workdir)
        assert r.returncode == 2


# a fit on an IDW-smoothed covariate and its surface; the model JSON keeps the
# 20 samples, so the surface recomputes the IDW cells it reads
COVARIATE_FIT = ("fit", "--pattern", "cov_u.csv", "--window", WINDOW, "--terms", "1,x,z",
                 "--covariate", "z=cov20.csv", "--covariate-grid", "8", "--grid", "6",
                 "--out", "covariate.json")
COVARIATE_SURFACE = ("predict-grid", "--model", "covariate.json", "--grid", "5",
                     "--out", "covariate_surface.csv")


def write_covariate_inputs(d: Path) -> None:
    """Write the seeded pattern and 20 covariate samples of ``COVARIATE_FIT`` to ``d``."""
    rng = np.random.default_rng(2025)
    write_pattern_csv(PointPattern.from_arrays(UNIT, *rng.random((3, 150))), d / "cov_u.csv")
    samples = [CovariateSample(SpaceTimePoint(*rng.random(3)), float(rng.normal())) for _ in range(20)]
    write_covariate_samples(samples, d / "cov20.csv")


# every output file of the golden runs, compared byte for byte with tests/fixtures/golden_<name>
GOLDEN_RUNS = [
    ("fit", "--pattern", "golden_u.csv", "--window", WINDOW, "--terms", "1,x,t", "--grid", "6",
     "--out", "unmarked.json"),
    ("predict-grid", "--model", "unmarked.json", "--grid", "3", "--out", "unmarked_surface.csv"),
    ("fit", "--pattern", "golden_m.csv", "--window", WINDOW, "--marked", "--terms", "1,x,y",
     "--grid", "6", "--out", "interact_all.json"),
    ("fit", "--pattern", "golden_m.csv", "--window", WINDOW, "--marked", "--shared-terms",
     "--ridge-marks", "1.0", "--terms", "1,x,t", "--grid", "6", "--out", "shared_ridge.json"),
    ("predict-grid", "--model", "shared_ridge.json", "--grid", "3", "--marginal",
     "--out", "shared_ridge_marginal.csv"),
    ("simulate", "--window", WINDOW, "--log-intensity", "5 + 0.5*x - 0.4*t", "--lambda-max", "245",
     "--seed", "7", "--out", "simulated.csv"),
    ("predict-grid", "--model", "interact_all.json", "--grid", "3", "--out", "interact_all_surface.csv"),
    ("predict-grid", "--model", "interact_all.json", "--grid", "3", "--mark", "B",
     "--out", "interact_all_surface_B.csv"),
    COVARIATE_FIT,
    COVARIATE_SURFACE,
]


def golden_outputs(d: Path) -> dict[str, bytes]:
    """Write the seeded input patterns to ``d``, run ``GOLDEN_RUNS`` there, and
    return each output file's bytes by name.

    To regenerate the fixtures after an intended output change, write this
    dict's values to ``tests/fixtures/golden_<name>``.
    """
    rng = np.random.default_rng(2024)
    write_pattern_csv(PointPattern.from_arrays(UNIT, *rng.random((3, 150))), d / "golden_u.csv")
    pts = [(SpaceTimePoint(*rng.random(3)), label) for label, n in (("A", 40), ("B", 60), ("C", 80))
           for _ in range(n)]
    write_pattern_csv(MarkedPointPattern.from_labeled(UNIT, pts), d / "golden_m.csv")
    write_covariate_inputs(d)  # its own generator: the streams above do not move
    outputs = {}
    for args in GOLDEN_RUNS:
        r = run_cli(*args, cwd=d)
        assert r.returncode == 0, r.stderr
        out = args[-1]
        outputs[out] = (d / out).read_bytes()
    return outputs


class TestGoldenOutputs:
    def test_successful_fits_and_surfaces_match_golden_bytes(self, tmp_path):
        # the unmarked fit, both multitype modes (the shared-terms one ridged),
        # a fit on an IDW covariate and their surfaces, pinned so that a
        # refactor of the fitting path shows any change in the bytes it writes
        for name, data in golden_outputs(tmp_path).items():
            assert data == (FIXTURES / f"golden_{name}").read_bytes(), name


# each derived entry of a model file: how to alter it, and the words of the load error that name it
DERIVED_EDITS = {
    "kind": (lambda d: d.update(kind={"unmarked": "multitype", "multitype": "unmarked"}[d["kind"]]), "entry 'kind'"),
    "n_dummy": (lambda d: d.update(n_dummy=d["n_dummy"] + 1), "entry 'n_dummy'"),
    "levels.index": (lambda d: d["levels"][-1].update(index=len(d["levels"]) + 1), "level indices"),
    "coefficients.name": (lambda d: d["coefficients"][-1].update(name="zzz"), "coefficient names"),
    "coefficients.std_error": (lambda d: d["coefficients"][0].update(std_error=2 * d["coefficients"][0]["std_error"]),
                               "coefficient 'std_error' entries"),
    "fit.deviance": (lambda d: d["fit"].update(deviance=d["fit"]["deviance"] + 1.0), "entry 'deviance'"),
    "fit.aic": (lambda d: d["fit"].update(aic=d["fit"]["aic"] + 1.0), "entry 'aic'"),
    "fit.iterations": (lambda d: d["fit"].update(iterations=d["fit"]["iterations"] + 1), "entry 'iterations'"),
}
# library-written files of the four modes (test_io checks that each is what saving its model writes)
DERIVED_CASES = [(model, entry) for model in ("unmarked", "interact_all", "shared_ridge", "covariate")
                 for entry in DERIVED_EDITS if entry != "levels.index" or model in ("interact_all", "shared_ridge")]


class TestDerivedModelEntries:
    @pytest.mark.parametrize("model, entry", DERIVED_CASES)
    def test_altered_entry_fails_load_and_predict_grid(self, tmp_path, model, entry):
        alter, words = DERIVED_EDITS[entry]
        d = json.loads((FIXTURES / f"golden_{model}.json").read_text())
        alter(d)
        (tmp_path / "model.json").write_text(json.dumps(d, indent=2))
        with pytest.raises(ValueError, match=re.escape(f"model file {str(tmp_path / 'model.json')!r}: {words}")):
            load_model(tmp_path / "model.json")
        r = run_cli("predict-grid", "--model", "model.json", "--grid", "2", "--out", "surface.csv", cwd=tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: model file 'model.json': {words}")
        assert not (tmp_path / "surface.csv").exists()


# legacy_external_model.json and legacy_external_surface.csv are COVARIATE_FIT
# and COVARIATE_SURFACE written before the model file stored IDW samples: the
# model JSON holds the older "external" term with one value per fine cell.
# Regenerate them only from a checkout of that older format.
class TestCovariateModelFormats:
    def test_older_external_model_predicts_the_same_bytes(self, tmp_path):
        (tmp_path / "covariate.json").write_bytes((FIXTURES / "legacy_external_model.json").read_bytes())
        assert json.loads((tmp_path / "covariate.json").read_text())["terms"][2]["type"] == "external"
        r = run_cli(*COVARIATE_SURFACE, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        want = (FIXTURES / "legacy_external_surface.csv").read_bytes()
        assert (tmp_path / "covariate_surface.csv").read_bytes() == want

    def test_sample_model_predicts_the_older_bytes(self, tmp_path):
        write_covariate_inputs(tmp_path)
        for args in (COVARIATE_FIT, COVARIATE_SURFACE):
            r = run_cli(*args, cwd=tmp_path)
            assert r.returncode == 0, r.stderr
        term = json.loads((tmp_path / "covariate.json").read_text())["terms"][2]
        assert term["type"] == "external_idw" and len(term["samples"]) == 20
        assert "values" not in term
        # the model recomputes its IDW cells, which may differ from the older stored
        # grid in the last bits: the same header and x,y,t text, intensities within 1e-12
        got, want = ([line.rsplit(",", 1) for line in path.read_text().splitlines()]
                     for path in (tmp_path / "covariate_surface.csv", FIXTURES / "legacy_external_surface.csv"))
        assert [row[0] for row in got] == [row[0] for row in want]
        np.testing.assert_allclose([float(row[1]) for row in got[1:]], [float(row[1]) for row in want[1:]],
                                   rtol=1e-12, atol=0)


# a fresh interpreter: only a fit may load scipy, so the commands that do not
# fit start without its import cost; a fit loads scipy's LAPACK extension but
# not the scipy.linalg package, which a later import still gets whole
COLD_START = f"""
import sys
import stppfit, stppfit.cli as cli
runs = [
    ["--help"],
    ["simulate", "--window", "{WINDOW}", "--log-intensity", "3 + 0.5*x", "--lambda-max", "34",
     "--seed", "1", "--out", "cold_sim.csv"],
    ["predict-grid", "--model", {str(FIXTURES / "golden_unmarked.json")!r}, "--out", "cold_u.csv"],
    ["predict-grid", "--model", {str(FIXTURES / "golden_shared_ridge.json")!r}, "--marginal",
     "--out", "cold_m.csv"],
    ["predict-grid", "--model", {str(FIXTURES / "legacy_external_model.json")!r}, "--out", "cold_c.csv"],
    ["fit", "--window", "{WINDOW}"],  # a usage error: no --pattern
]
assert [cli.main(argv) for argv in runs] == [0, 0, 0, 0, 0, 2]
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
assert cli.main(["fit", "--pattern", "cold_sim.csv", "--window", "{WINDOW}", "--terms", "1,x",
                 "--out", "cold_fit.json"]) == 0
assert "scipy.linalg._flapack" in sys.modules and "scipy.linalg" not in sys.modules
flapack = sys.modules["scipy.linalg._flapack"]
import scipy.linalg
assert scipy.linalg.lapack._flapack is flapack
assert scipy.linalg.cho_factor([[4.0]])[0][0, 0] == 2.0
"""


class TestProcessEnvironment:
    def test_only_a_fit_loads_scipy(self, workdir):
        r = run_python("-c", COLD_START, cwd=workdir)
        assert r.returncode == 0, r.stderr

    def test_blas_thread_count_keeps_fit_and_surface(self, tmp_path):
        # OpenBLAS splits a dot product of more than 10,000 entries across
        # threads, so the log-likelihood's last digits may move with the thread
        # count; the IRLS iterates, the covariance and the surface do not. The
        # 4-level interact-all fit covers the block-diagonal design and the
        # covariance solved one unit vector at a time
        rng = np.random.default_rng(0)
        write_pattern_csv(PointPattern.from_arrays(UNIT, *rng.random((3, 10_001))), tmp_path / "big.csv")
        labeled = [(SpaceTimePoint(*row), f"L{i % 4}") for i, row in enumerate(rng.random((10_001, 3)))]
        write_pattern_csv(MarkedPointPattern.from_labeled(UNIT, labeled), tmp_path / "marked.csv")
        fits, marked_fits, surfaces = [], [], []
        for threads in ("1", "2"):
            fit = run_module("fit", "--pattern", "big.csv", "--window", WINDOW, "--terms", "1,x,t,x*t",
                             "--grid", "30", "--out", f"fit{threads}.json",
                             cwd=tmp_path, OPENBLAS_NUM_THREADS=threads)
            surface = run_module("predict-grid", "--model", f"fit{threads}.json", "--out", f"surface{threads}.csv",
                                 cwd=tmp_path, OPENBLAS_NUM_THREADS=threads)
            marked = run_module("fit", "--pattern", "marked.csv", "--window", WINDOW, "--marked", "--interact-all",
                                "--terms", "1,x,t,x*t", "--grid", "30", "--out", f"marked{threads}.json",
                                cwd=tmp_path, OPENBLAS_NUM_THREADS=threads)
            assert fit.returncode == surface.returncode == marked.returncode == 0, (
                fit.stderr + surface.stderr + marked.stderr
            )
            fits.append(json.loads((tmp_path / f"fit{threads}.json").read_text()))
            marked_fits.append(json.loads((tmp_path / f"marked{threads}.json").read_text()))
            surfaces.append((tmp_path / f"surface{threads}.csv").read_bytes())
        for one, two in (fits, marked_fits):
            assert one["coefficients"] == two["coefficients"]
            assert one["covariance"] == two["covariance"]
            assert one["fit"]["deviance_trace"] == two["fit"]["deviance_trace"]
        assert len(marked_fits[0]["coefficients"]) == 16
        assert surfaces[0] == surfaces[1]
