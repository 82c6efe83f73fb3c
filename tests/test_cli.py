import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stppfit import (
    CovariateSample,
    MarkedPointPattern,
    PointPattern,
    SpaceTimePoint,
    Window,
)
from stppfit.io import load_model, write_covariate_samples, write_pattern_csv

SRC = Path(__file__).resolve().parents[1] / "src"
UNIT = Window.unit_cube()


def run_cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "stppfit", *map(str, args)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


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

    def test_marked_fit_prints_per_level_blocks(self, workdir):
        r = run_cli(
            "fit", "--pattern", "marked.csv", "--window", WINDOW, "--marked",
            "--interact-all", "--terms", "1", "--grid", "6,6,6", "--out", "mm.json",
            cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        assert any(ln.startswith("A:1") for ln in r.stdout.splitlines())
        assert any(ln.startswith("B:1") for ln in r.stdout.splitlines())

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

    def test_usage_without_subcommand(self, workdir):
        r = run_cli(cwd=workdir)
        assert r.returncode == 2
