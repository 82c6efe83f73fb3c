import re
import struct

import numpy as np
import pytest

from stppfit import (
    CoordinateMonomial,
    CovariateSample,
    ExternalCovariate,
    GridResolution,
    Intercept,
    MarkedPointPattern,
    MarkFixedEffects,
    ModelSpec,
    PointPattern,
    SpaceTimePoint,
    Window,
    build_scheme,
    build_replicated_scheme,
    fit_multitype,
    fit_stpp,
    smooth_to_grid,
)
from stppfit.cubature import cell_centers
from stppfit.io import (
    fmt,
    load_grid,
    load_model,
    model_from_dict,
    model_to_dict,
    read_covariate_samples,
    read_pattern_csv,
    save_grid,
    save_model,
    window_from_dict,
    window_to_dict,
    write_covariate_samples,
    write_grid_csv,
    write_pattern_csv,
    write_scheme_csv,
)

UNIT = Window.unit_cube()


def random_pattern(n, seed=0):
    rng = np.random.default_rng(seed)
    return PointPattern.from_arrays(UNIT, *rng.random((3, n)))


class TestFmt:
    def test_round_trips_doubles(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            v = float(rng.normal(scale=10.0 ** rng.integers(-8, 8)))
            assert float(fmt(v)) == v


class TestPatternCsv:
    def test_unmarked_roundtrip_is_exact(self, tmp_path):
        pat = random_pattern(37, seed=1)
        path = tmp_path / "pattern.csv"
        write_pattern_csv(pat, path)
        again = read_pattern_csv(path, window=UNIT)
        assert again.coords().tobytes() == pat.coords().tobytes()

    def test_header_written(self, tmp_path):
        path = tmp_path / "pattern.csv"
        write_pattern_csv(PointPattern(UNIT), path)
        assert path.read_text() == "x,y,t\n"

    def test_marked_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        pts = [(SpaceTimePoint(*rng.random(3)), "fire") for _ in range(4)]
        pts += [(SpaceTimePoint(*rng.random(3)), "theft") for _ in range(6)]
        pat = MarkedPointPattern.from_labeled(UNIT, pts)
        path = tmp_path / "marked.csv"
        write_pattern_csv(pat, path)
        again = read_pattern_csv(path, window=UNIT, marked=True)
        assert [m.label for _, m in again.points] == [m.label for _, m in pat.points]
        assert [lv.label for lv in again.levels] == ["fire", "theft"]

    def test_window_required_without_inference(self, tmp_path):
        path = tmp_path / "pattern.csv"
        write_pattern_csv(random_pattern(5, seed=3), path)
        with pytest.raises(ValueError, match="window"):
            read_pattern_csv(path)

    def test_inferred_window_is_bounding_box(self, tmp_path):
        pat = random_pattern(20, seed=4)
        path = tmp_path / "pattern.csv"
        write_pattern_csv(pat, path)
        again = read_pattern_csv(path, infer_window=True)
        coords = pat.coords()
        assert again.window.x_range == (coords[:, 0].min(), coords[:, 0].max())

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_pattern_csv(path, window=UNIT)

    def test_bad_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,t\n0.1,0.2\n")
        with pytest.raises(ValueError, match="columns"):
            read_pattern_csv(path, window=UNIT)

    def test_unparsable_cell_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,t\n0.1,0.2,0.3\n\n0.1,abc,0.3\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: could not convert string to float: 'abc'")):
            read_pattern_csv(path, window=UNIT)

    def test_nonfinite_coordinate_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,t\n0.1,0.2,0.3\n0.1,nan,0.3\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: column y must be finite, got nan")):
            read_pattern_csv(path, window=UNIT)

    def test_empty_mark_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,t,mark\n0.1,0.2,0.3,a\n0.2,0.2,0.3,\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: mark label must be a nonempty string")):
            read_pattern_csv(path, window=UNIT, marked=True)


class TestCovariateCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        samples = [
            CovariateSample(SpaceTimePoint(*rng.random(3)), float(rng.normal()))
            for _ in range(12)
        ]
        path = tmp_path / "samples.csv"
        write_covariate_samples(samples, path)
        again = read_covariate_samples(path)
        assert [s.value for s in again] == [s.value for s in samples]
        assert [s.location for s in again] == [s.location for s in samples]


class TestGridStorage:
    def make_grid(self):
        rng = np.random.default_rng(6)
        samples = [
            CovariateSample(SpaceTimePoint(*rng.random(3)), float(rng.normal()))
            for _ in range(8)
        ]
        return smooth_to_grid(samples, UNIT, GridResolution(4, 3, 2))

    def test_binary_sidecar_roundtrip_bit_exact(self, tmp_path):
        grid = self.make_grid()
        save_grid(grid, tmp_path / "grid.json")
        again = load_grid(tmp_path / "grid.json")
        assert again.values.tobytes() == grid.values.tobytes()
        assert again.window == grid.window
        assert again.resolution == grid.resolution

    def test_sidecar_is_packed_little_endian_float64(self, tmp_path):
        grid = self.make_grid()
        save_grid(grid, tmp_path / "grid.json")
        raw = (tmp_path / "grid.bin").read_bytes()
        assert raw == struct.pack(f"<{grid.values.size}d", *grid.values)

    def check_resized_sidecar_rejected(self, tmp_path, new_size):
        save_grid(self.make_grid(), tmp_path / "grid.json")
        bin_path = tmp_path / "grid.bin"
        raw = bin_path.read_bytes()
        assert len(raw) == 192
        bin_path.write_bytes((raw + b"\0" * 64)[:new_size])
        with pytest.raises(ValueError) as exc:
            load_grid(tmp_path / "grid.json")
        msg = str(exc.value)
        assert str(bin_path) in msg
        assert "192 bytes" in msg and f"found {new_size}" in msg

    def test_truncated_sidecar_rejected(self, tmp_path):
        self.check_resized_sidecar_rejected(tmp_path, 189)

    def test_overlong_sidecar_rejected(self, tmp_path):
        self.check_resized_sidecar_rejected(tmp_path, 200)

    def test_csv_dump_has_header_and_rows(self, tmp_path):
        grid = self.make_grid()
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "cell_id,x_center,y_center,t_center,value"
        assert len(lines) == 1 + 24
        centers = cell_centers(grid.window, grid.resolution)
        rows = enumerate(zip(centers, grid.values))
        assert lines[1:] == [f"{i},{fmt(x)},{fmt(y)},{fmt(t)},{fmt(v)}" for i, ((x, y, t), v) in rows]

    def test_schema_version_checked(self, tmp_path):
        grid = self.make_grid()
        save_grid(grid, tmp_path / "grid.json")
        import json

        header = json.loads((tmp_path / "grid.json").read_text())
        header["schema_version"] = 99
        (tmp_path / "grid.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match="schema"):
            load_grid(tmp_path / "grid.json")


class TestSchemeCsv:
    def test_plain_scheme(self, tmp_path):
        scheme = build_scheme(random_pattern(6, seed=7), GridResolution(2, 2, 2))
        path = tmp_path / "scheme.csv"
        write_scheme_csv(scheme, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,t,is_data,weight"
        assert len(lines) == 1 + scheme.size

    def test_replicated_scheme_has_mark_column(self, tmp_path):
        rng = np.random.default_rng(8)
        pts = [(SpaceTimePoint(*rng.random(3)), "A") for _ in range(2)]
        pts += [(SpaceTimePoint(*rng.random(3)), "B") for _ in range(3)]
        pat = MarkedPointPattern.from_labeled(UNIT, pts)
        rep = build_replicated_scheme(pat, GridResolution(2, 2, 2))
        path = tmp_path / "rep.csv"
        write_scheme_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,t,is_data,weight,mark"
        assert len(lines) == 1 + 2 * rep.size
        assert lines[1].endswith(",A") and lines[-1].endswith(",B")


class TestModelJson:
    def unmarked_model(self):
        rng = np.random.default_rng(9)
        samples = [
            CovariateSample(SpaceTimePoint(*rng.random(3)), float(rng.normal()))
            for _ in range(5)
        ]
        grid = smooth_to_grid(samples, UNIT, GridResolution(3, 3, 3))
        spec = ModelSpec(
            (Intercept(), CoordinateMonomial(1, 0, 0), ExternalCovariate(grid, "z"))
        )
        return fit_stpp(random_pattern(60, seed=10), spec, GridResolution(6, 6, 6))

    def test_roundtrip_preserves_fit(self, tmp_path):
        model = self.unmarked_model()
        save_model(model, tmp_path / "model.json")
        again = load_model(tmp_path / "model.json")
        np.testing.assert_array_equal(again.fit.coefficients, model.fit.coefficients)
        np.testing.assert_array_equal(again.fit.covariance, model.fit.covariance)
        assert again.column_names == model.column_names
        assert again.fit.deviance == model.fit.deviance
        assert again.resolution == model.resolution

    def test_roundtrip_preserves_predictions_exactly(self, tmp_path):
        model = self.unmarked_model()
        save_model(model, tmp_path / "model.json")
        again = load_model(tmp_path / "model.json")
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = SpaceTimePoint(*rng.random(3))
            assert again.predict_intensity(p) == model.predict_intensity(p)

    def test_marked_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        pts = [(SpaceTimePoint(*rng.random(3)), "A") for _ in range(20)]
        pts += [(SpaceTimePoint(*rng.random(3)), "B") for _ in range(30)]
        pat = MarkedPointPattern.from_labeled(UNIT, pts)
        spec = ModelSpec((Intercept(),), multitype_mode=MarkFixedEffects(True))
        model = fit_multitype(pat, spec, GridResolution(6, 6, 6))
        save_model(model, tmp_path / "model.json")
        again = load_model(tmp_path / "model.json")
        assert [lv.label for lv in again.levels] == ["A", "B"]
        p = SpaceTimePoint(0.5, 0.5, 0.5)
        assert again.marginal_intensity(p) == model.marginal_intensity(p)

    def test_schema_version_checked(self, tmp_path):
        model = self.unmarked_model()
        save_model(model, tmp_path / "model.json")
        import json

        d = json.loads((tmp_path / "model.json").read_text())
        d["schema_version"] = 7
        (tmp_path / "model.json").write_text(json.dumps(d))
        with pytest.raises(ValueError, match="schema"):
            load_model(tmp_path / "model.json")


    @pytest.mark.parametrize("rename", [{"x": "t", "t": "x"}, {"1": "zzz"}])
    def test_mislabelled_coefficients_rejected(self, tmp_path, rename):
        spec = ModelSpec((Intercept(), CoordinateMonomial(1, 0, 0), CoordinateMonomial(0, 0, 1)))
        model = fit_stpp(random_pattern(60, seed=13), spec, GridResolution(6, 6, 6))
        save_model(model, tmp_path / "model.json")
        import json

        d = json.loads((tmp_path / "model.json").read_text())
        for c in d["coefficients"]:
            c["name"] = rename.get(c["name"], c["name"])
        (tmp_path / "model.json").write_text(json.dumps(d))
        with pytest.raises(ValueError, match=re.escape("columns ['1', 'x', 't']")):
            load_model(tmp_path / "model.json")

    def test_interact_all_model_with_mark_ridge_rejected(self):
        # the mark ridge acts on shared-terms contrasts only, so an interact_all
        # file that stores one fails to load with the ModelSpec message
        rng = np.random.default_rng(14)
        pat = MarkedPointPattern.from_labeled(UNIT, [(SpaceTimePoint(*rng.random(3)), lab) for lab in "AB" * 10])
        spec = ModelSpec((Intercept(),), multitype_mode=MarkFixedEffects(True))
        d = model_to_dict(fit_multitype(pat, spec, GridResolution(4, 4, 4)))
        d["ridge_on_marks"] = 0.5
        with pytest.raises(ValueError, match="multitype mode"):
            model_from_dict(d)


class TestWindowDict:
    def test_roundtrip(self):
        w = Window.from_bounds(-1.5, 2.5, 0, 1, 10, 20)
        assert window_from_dict(window_to_dict(w)) == w
