import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    fit_multitype,
    fit_stpp,
    smooth_to_grid,
)
from stppfit.cubature import cell_centers
from stppfit.io import (
    fmt,
    load_model,
    model_from_dict,
    model_to_dict,
    read_covariate_samples,
    read_json,
    read_pattern_csv,
    save_model,
    window_from_dict,
    window_to_dict,
    write_covariate_samples,
    write_pattern_csv,
    write_surface_csv,
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
        assert [m for _, m in again.points] == [m for _, m in pat.points]
        assert again.levels == ("fire", "theft")

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

    @pytest.mark.parametrize(
        "rows, message",
        [
            # the earlier of two bad rows of different kinds is the one reported
            (["0.1,abc,0.3", "0.1,0.2"], "3: could not convert string to float: 'abc'"),
            (["0.1,0.2", "0.1,abc,0.3"], "3: expected 3 columns, got 2"),
            # one row too long and the next too short still hold 3 cells per row on average
            (["0.1,0.2,0.3,0.4", "0.1,0.2"], "3: expected 3 columns, got 4"),
            # a parse error beats a non-finite value on an earlier line
            (["0.1,nan,0.3", "0.1,abc,0.3"], "4: could not convert string to float: 'abc'"),
        ],
    )
    def test_first_bad_row_is_reported(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["x,y,t", "0.5,0.5,0.5", *rows]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{message}")):
            read_pattern_csv(path, window=UNIT)

    def test_bad_rows_past_the_first_block_name_their_line(self, tmp_path):
        lines = ["x,y,t,mark"] + ["0.5,0.5,0.5,a"] * 9000
        lines[6000], lines[8000] = "0.5,0.5,0.5, ", "0.5,0.5"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:6001: mark label must be a nonempty string")):
            read_pattern_csv(path, window=UNIT, marked=True)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffx,y,t,mark\r\n0.1,0.2,0.3,a\r\n", encoding="utf-8")
        again = read_pattern_csv(path, window=UNIT, marked=True)
        assert again.xyt.tolist() == [[0.1, 0.2, 0.3]]
        assert again.levels == ("a",)

    def test_percent_label_round_trips(self, tmp_path):
        pat = MarkedPointPattern.from_labeled(UNIT, [(SpaceTimePoint(0.1, 0.2, 0.3), "50%"),
                                                     (SpaceTimePoint(0.4, 0.5, 0.6), "%s")])
        path = tmp_path / "marked.csv"
        write_pattern_csv(pat, path)
        assert path.read_text().splitlines()[1:] == ["0.10000000000000001,0.20000000000000001,0.29999999999999999,50%",
                                                     "0.40000000000000002,0.5,0.59999999999999998,%s"]
        again = read_pattern_csv(path, window=UNIT, marked=True)
        assert [m for _, m in again.points] == ["50%", "%s"]

    def test_reading_16500_rows_peaks_below_the_row_loop_parser(self, tmp_path):
        # the per-row parser this one replaced peaked at 4.6 MB on this file
        path = tmp_path / "pattern.csv"
        write_pattern_csv(random_pattern(16_500, seed=9), path)
        tracemalloc.start()
        try:
            read_pattern_csv(path, window=UNIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.6e6


MAX_DOUBLE = 1.7976931348623157e308
WIDE = Window((-MAX_DOUBLE, MAX_DOUBLE), (-MAX_DOUBLE, MAX_DOUBLE), (-MAX_DOUBLE, MAX_DOUBLE))
# rows in every drawn pattern: signed zero, subnormals and the extremes
EDGE_ROWS = [(-0.0, 5e-324, MAX_DOUBLE), (-MAX_DOUBLE, -5e-324, 2.2250738585072014e-308), (0.0, -1e-310, 1.0)]
finite = st.floats(allow_nan=False, allow_infinity=False)
# labels a UTF-8 CSV cell can carry: no surrogate (no UTF-8 form), no comma, one line, no surrounding whitespace
labels = st.text(st.characters(blacklist_characters=",", blacklist_categories=("Cs",)), min_size=1, max_size=4).filter(
    lambda s: s == s.strip() and s.splitlines() == [s]
)


class TestCsvProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(finite, finite, finite), max_size=25),
           st.none() | st.lists(labels, min_size=1, max_size=3, unique=True), st.data())
    def test_finite_doubles_round_trip_bit_for_bit(self, rows, levels, data):
        xyt = np.array(EDGE_ROWS + rows, dtype=float)
        if levels is None:
            pat = PointPattern(WIDE, xyt)
        else:
            codes = data.draw(st.lists(st.integers(0, len(levels) - 1), min_size=len(xyt), max_size=len(xyt)))
            pat = MarkedPointPattern(WIDE, xyt, np.array(codes), tuple(levels))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "pattern.csv"
            write_pattern_csv(pat, path)
            # the reader skips blank lines and the spaces around a cell
            lines = path.read_text(encoding="utf-8").splitlines()
            pads = data.draw(st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=len(lines),
                                      max_size=len(lines)))
            text = "".join((" \n" if blank else "") + ",".join(" " * pad + c + " " * pad for c in ln.split(",")) + "\n"
                           for ln, (pad, blank) in zip(lines, pads))
            path.write_text(text, encoding="utf-8")
            again = read_pattern_csv(path, window=WIDE, marked=levels is not None)
        assert again.xyt.tobytes() == pat.xyt.tobytes()
        if levels is not None:
            assert [m for _, m in again.points] == [m for _, m in pat.points]

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*3 * [st.integers(1, 4)]), st.floats(-1e6, 1e6), st.lists(st.none(), min_size=1, max_size=1)
           | st.lists(labels | st.sampled_from(["50%", "%s", "%%"]), min_size=1, max_size=3), st.data())
    def test_surface_equals_per_row_reference(self, per_axis, x0, marks, data):
        res = GridResolution(*per_axis)
        window = Window((x0, x0 + 3.7), (0.0, 1e-3), (2000.0, 2020.0))
        blocks = [(np.array(data.draw(st.lists(finite, min_size=res.n_cells, max_size=res.n_cells))), m) for m in marks]
        want = "x,y,t,intensity,mark\n" if marks[0] is not None else "x,y,t,intensity\n"
        for values, mark in blocks:
            suffix = "" if mark is None else f",{mark}"
            want += "".join(f"{fmt(x)},{fmt(y)},{fmt(t)},{fmt(v)}{suffix}\n"
                            for (x, y, t), v in zip(cell_centers(window, res).tolist(), values.tolist()))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "surface.csv"
            assert write_surface_csv(path, window, res, blocks) == res.n_cells * len(blocks)
            assert path.read_bytes() == want.encode("utf-8")

    def test_writing_64000_surface_rows_streams(self, tmp_path):
        # holding the whole file as text peaked at 17 MB; one t-slice at a time stays far below
        res = GridResolution(40, 40, 40)
        values = np.random.default_rng(10).random(res.n_cells) * 100
        tracemalloc.start()
        try:
            write_surface_csv(tmp_path / "surface.csv", UNIT, res, [(values, None)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


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
        assert again.shape == (12, 4)
        assert again.tolist() == [[*s.location, s.value] for s in samples]

    def test_array_rows_write_the_bytes_of_their_samples(self, tmp_path):
        rng = np.random.default_rng(6)
        table = rng.random((7, 4))
        write_covariate_samples(table, tmp_path / "rows.csv")
        write_covariate_samples([CovariateSample(SpaceTimePoint(*r[:3]), r[3]) for r in table], tmp_path / "objects.csv")
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "objects.csv").read_bytes()
        assert read_covariate_samples(tmp_path / "rows.csv").tolist() == table.tolist()

    @pytest.mark.parametrize("rows", [[], [[0.5, 0.5, np.inf, 1.0]], [[0.5, 0.5, 0.5]]], ids=["empty", "inf", "short"])
    def test_rows_idw_cannot_use_are_not_written(self, tmp_path, rows):
        with pytest.raises(ValueError, match="at least one covariate sample"):
            write_covariate_samples(np.array(rows), tmp_path / "samples.csv")
        assert not (tmp_path / "samples.csv").exists()


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

    def test_covariate_term_stores_samples_not_grid_values(self, tmp_path):
        model = self.unmarked_model()
        save_model(model, tmp_path / "model.json")
        term = model_to_dict(model)["terms"][2]
        grid = model.spec.terms[2].grid
        assert list(term) == ["type", "name", "window", "resolution", "idw", "samples"]
        assert term["type"] == "external_idw"
        assert term["idw"] == {"power": 2.0, "scaling": [1.0, 1.0, 1.0]}
        again = load_model(tmp_path / "model.json").spec.terms[2].grid
        assert again.samples.tobytes() == grid.samples.tobytes()
        assert again.idw == grid.idw and again.resolution == grid.resolution
        assert again.values.tobytes() == grid.values.tobytes()

    def test_older_external_values_term_loads_into_a_given_grid(self):
        model = self.unmarked_model()
        d = model_to_dict(model)
        grid = model.spec.terms[2].grid
        d["terms"][2] = {"type": "external", "name": "z", "window": window_to_dict(UNIT),
                         "resolution": [3, 3, 3], "values": grid.values.tolist()}
        again = model_from_dict(d)
        assert again.spec.terms[2].grid.samples is None
        assert model_to_dict(again)["terms"][2] == d["terms"][2]
        p = SpaceTimePoint(0.4, 0.2, 0.9)
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
        assert again.levels == ("A", "B")
        p = SpaceTimePoint(0.5, 0.5, 0.5)
        assert again.marginal_intensity(p) == model.marginal_intensity(p)

    def marked_dict(self):
        pts = [(SpaceTimePoint(0.1 * k, 0.5, 0.5), "AB"[k % 2]) for k in range(1, 9)]
        spec = ModelSpec((Intercept(),), multitype_mode=MarkFixedEffects(True))
        return model_to_dict(fit_multitype(MarkedPointPattern.from_labeled(UNIT, pts), spec, GridResolution(3, 3, 3)))

    def test_repeated_level_label_rejected(self):
        # with the coefficient names renamed to match, a repeated label hid level 2's coefficients
        d = self.marked_dict()
        d["levels"][1]["label"], d["coefficients"][1]["name"] = "A", "A:1"
        with pytest.raises(ValueError, match=re.escape("mark labels must be distinct, got ['A', 'A']")):
            model_from_dict(d)

    def test_level_index_must_be_its_position(self):
        d = self.marked_dict()
        assert d["levels"] == [{"label": "A", "index": 1}, {"label": "B", "index": 2}]
        d["levels"][0]["index"], d["levels"][1]["index"] = 2, 1
        with pytest.raises(ValueError, match=re.escape("1-based positions 1..2 in order, got [2, 1]")):
            model_from_dict(d)

    def test_schema_version_checked(self, tmp_path):
        model = self.unmarked_model()
        save_model(model, tmp_path / "model.json")
        import json

        d = json.loads((tmp_path / "model.json").read_text())
        d["schema_version"] = 7
        (tmp_path / "model.json").write_text(json.dumps(d))
        with pytest.raises(ValueError, match="schema"):
            load_model(tmp_path / "model.json")

    @pytest.mark.parametrize("section, key", [(None, "multitype_mode"), ("fit", "deviance_trace")])
    def test_missing_entry_names_file_and_entry(self, tmp_path, section, key):
        import json

        d = json.loads((Path(__file__).parent / "fixtures" / "golden_unmarked.json").read_text())
        del (d if section is None else d[section])[key]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=re.escape(f"model file {str(path)!r} lacks the entry {key!r}")):
            load_model(path)


    @pytest.mark.parametrize("entry, value, message", [
        (None, [], "a model must be a JSON object, got list"),
        ("fit", [], "entry 'fit' must be a JSON object, got list"),
        ("levels", {}, "entry 'levels' must be a JSON array of objects, got dict"),
        ("coefficients", "x", "entry 'coefficients' must be a JSON array of objects, got str"),
        ("coefficients", ["x"], "entry 'coefficients' must be a JSON array of objects, got list"),
        ("window", [0, 1], "entry 'window' must be a JSON object, got list"),
    ])
    def test_entry_of_wrong_json_type_names_file_and_entry(self, tmp_path, entry, value, message):
        import json

        d = json.loads((Path(__file__).parent / "fixtures" / "golden_unmarked.json").read_text())
        if entry is None:
            d = value
        else:
            d[entry] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=re.escape(f"model file {str(path)!r}: {message}")):
            load_model(path)

    @pytest.mark.parametrize("entry, value", [("ridge_on_marks", None), ("grid_resolution", 5), ("n_data", [])])
    def test_scalar_entry_of_wrong_json_type_names_file(self, tmp_path, entry, value):
        # these ended in a TypeError traceback
        import json

        d = json.loads((Path(__file__).parent / "fixtures" / "golden_unmarked.json").read_text())
        d[entry] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=re.escape(f"model file {str(path)!r}: ")):
            load_model(path)

    def test_deviance_must_be_the_last_trace_entry(self, tmp_path):
        import json

        d = json.loads((Path(__file__).parent / "fixtures" / "golden_unmarked.json").read_text())
        last = d["fit"]["deviance_trace"][-1]
        assert d["fit"]["deviance"] == last
        d["fit"]["deviance"] = last + 1.0
        path = tmp_path / "model.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=re.escape(
                f"model file {str(path)!r}: entry 'deviance' is not {last!r}, the last entry of 'deviance_trace'")):
            load_model(path)
        d["fit"]["deviance_trace"] = []
        with pytest.raises(ValueError, match="deviance_trace needs at least the starting deviance"):
            model_from_dict(d)

    def test_n_dummy_must_be_the_cell_count(self, tmp_path):
        import json

        d = json.loads((Path(__file__).parent / "fixtures" / "golden_unmarked.json").read_text())
        assert d["n_dummy"] == np.prod(d["grid_resolution"])
        d["n_dummy"] = 5
        path = tmp_path / "model.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=re.escape(
                f"model file {str(path)!r}: entry 'n_dummy' is not 216, the cell count of 'grid_resolution'")):
            load_model(path)

    def test_levels_without_multitype_mode_rejected(self):
        d = self.marked_dict()
        d["multitype_mode"] = None
        with pytest.raises(ValueError, match="a model has mark levels exactly when its spec has a multitype mode"):
            model_from_dict(d)

    def test_label_without_utf8_form_rejected(self, tmp_path):
        import json

        d = self.marked_dict()
        d["levels"][1]["label"], d["coefficients"][1]["name"] = "\ud800", "\ud800:1"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(d))  # ASCII JSON: the surrogate is written as an escape
        with pytest.raises(ValueError, match=re.escape(
                f"model file {str(path)!r}: mark label '\\ud800' cannot be written to a CSV cell")):
            load_model(path)

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


FIXTURES = Path(__file__).parent / "fixtures"
MODEL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json") if isinstance(read_json(p), dict))


class TestModelFormatStability:
    def test_fixture_search_finds_every_mode(self):
        assert MODEL_FIXTURES == ["golden_covariate.json", "golden_interact_all.json", "golden_shared_ridge.json",
                                  "golden_unmarked.json", "legacy_external_model.json"]

    @pytest.mark.parametrize("name", MODEL_FIXTURES)
    def test_fixture_is_what_saving_its_model_writes(self, tmp_path, name):
        # unmarked, interact_all, shared terms with ridge, IDW covariate and the older grid-values form
        model = load_model(FIXTURES / name)
        assert model_to_dict(model) == read_json(FIXTURES / name)
        save_model(model, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()
        assert model.fit.iterations == len(model.fit.deviance_trace) - 1


class TestWindowDict:
    def test_roundtrip(self):
        w = Window.from_bounds(-1.5, 2.5, 0, 1, 10, 20)
        assert window_from_dict(window_to_dict(w)) == w
