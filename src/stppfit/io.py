"""File formats: pattern/covariate/scheme CSV, grid sidecars, model JSON.

All CSV output is UTF-8 with `\n` line endings and floats printed with 17
significant digits; JSON uses Python's round-tripping float repr. Outputs
are therefore byte-deterministic for identical inputs. FORMATS.md in the
repository root documents every column.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .covariates import (
    CoordinateMonomial,
    CovariateGrid,
    CovariateSample,
    ExternalCovariate,
    IdwConfig,
    Intercept,
)
from .cubature import CubatureScheme, GridResolution, ReplicatedCubatureScheme, cell_axes
from .glm import FitResult
from .model import FittedModel, MarkFixedEffects, ModelSpec
from .patterns import MarkedPointPattern, MarkLevel, PointPattern, SpaceTimePoint, Window, _mark_codes

__all__ = [
    "fmt",
    "write_pattern_csv",
    "read_pattern_csv",
    "read_covariate_samples",
    "write_covariate_samples",
    "write_scheme_csv",
    "write_grid_csv",
    "write_surface_csv",
    "save_grid",
    "load_grid",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "window_to_dict",
    "window_from_dict",
    "write_json",
    "read_json",
]

SCHEMA_VERSION = 1


def fmt(v: float) -> str:
    """Float → text with 17 significant digits (round-trips exactly)."""
    return format(float(v), ".17g")


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def window_to_dict(window: Window) -> dict:
    return {
        "x_range": list(window.x_range),
        "y_range": list(window.y_range),
        "t_range": list(window.t_range),
    }


def window_from_dict(d: dict) -> Window:
    return Window(tuple(d["x_range"]), tuple(d["y_range"]), tuple(d["t_range"]))


# ---------------------------------------------------------------------------
# point patterns


def write_pattern_csv(pattern, path) -> None:
    """Write `x,y,t` rows, with a `mark` column for marked patterns."""
    rows = [f"{fmt(x)},{fmt(y)},{fmt(t)}" for x, y, t in pattern.xyt.tolist()]
    header = "x,y,t"
    if isinstance(pattern, MarkedPointPattern):
        header += ",mark"
        labels = [lv.label for lv in pattern.levels]
        rows = [f"{row},{labels[c]}" for row, c in zip(rows, pattern.marks.tolist())]
    Path(path).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def _read_csv(path, expected_header, n_numeric):
    """Data rows of a CSV with a fixed header: the first ``n_numeric`` columns as a finite
    float array, and the remaining cells as one flat list. Errors name ``path:line``."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    used = [i for i, ln in enumerate(lines) if ln.strip()]
    if not used:
        raise ValueError(f"{path}: empty file, expected header {expected_header!r}")
    if [c.strip() for c in lines[used[0]].split(",")] != expected_header:
        raise ValueError(f"{path}: expected header {','.join(expected_header)!r}, got {lines[used[0]]!r}")
    values, texts = [], []
    for i in used[1:]:
        cells = [c.strip() for c in lines[i].split(",")]
        if len(cells) != len(expected_header):
            raise ValueError(f"{path}:{i + 1}: expected {len(expected_header)} columns, got {len(cells)}")
        if "" in cells[n_numeric:]:  # the only text column is a pattern's mark
            raise ValueError(f"{path}:{i + 1}: mark label must be a nonempty string, got ''")
        try:
            values.extend([float(c) for c in cells[:n_numeric]])
        except ValueError as exc:
            raise ValueError(f"{path}:{i + 1}: {exc}") from None
        texts.extend(cells[n_numeric:])
    table = np.array(values, dtype=float).reshape(-1, n_numeric)
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        r, c = bad[0]
        raise ValueError(f"{path}:{used[r + 1] + 1}: column {expected_header[c]} must be finite, got {table[r, c]}")
    return table, texts


def read_pattern_csv(path, window: Window | None = None, infer_window: bool = False, marked: bool = False):
    """Read a pattern CSV; the window comes from the caller, never silently.

    With ``infer_window=True`` the bounding box of the points is used (the
    caller is expected to report it).
    """
    xyt, labels = _read_csv(path, ["x", "y", "t", "mark"] if marked else ["x", "y", "t"], 3)
    if window is None:
        if not infer_window:
            raise ValueError("no window given: pass one explicitly or opt into inference")
        window = Window.bounding(xyt)
    if not marked:
        return PointPattern(window, xyt)
    return MarkedPointPattern(window, xyt, *_mark_codes(labels))


# ---------------------------------------------------------------------------
# covariate samples and grids


def read_covariate_samples(path) -> list[CovariateSample]:
    table, _ = _read_csv(path, ["x", "y", "t", "value"], 4)
    return [CovariateSample(SpaceTimePoint(x, y, t), v) for x, y, t, v in table.tolist()]


def write_covariate_samples(samples, path) -> None:
    lines = ["x,y,t,value"]
    for s in samples:
        p = s.location
        lines.append(f"{fmt(p.x)},{fmt(p.y)},{fmt(p.t)},{fmt(s.value)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cell_rows(window: Window, res: GridResolution) -> Iterator[str]:
    """`x,y,t` text of every cell centre in cell-id order (x fastest), each axis value
    formatted once; a generator, so no list of prefixes is held next to the rows."""
    fx, fy, ft = ([fmt(v) for v in axis.tolist()] for axis in cell_axes(window, res))
    return (f"{x},{y},{t}" for t in ft for y in fy for x in fx)


def write_grid_csv(grid: CovariateGrid, path) -> None:
    """Human-readable grid dump: one row per cell in cell-id order."""
    cells = _cell_rows(grid.window, grid.resolution)
    lines = ["cell_id,x_center,y_center,t_center,value"]
    lines += [f"{i},{c},{fmt(v)}" for i, (c, v) in enumerate(zip(cells, grid.values.tolist()))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_surface_csv(path, window: Window, res: GridResolution, blocks) -> int:
    """Write `x,y,t,intensity` rows, one per cell centre in cell-id order for each
    ``(values, label)`` block, with a `mark` column when the labels are not None.
    Returns the number of rows written."""
    marked = blocks[0][1] is not None
    lines = ["x,y,t,intensity,mark" if marked else "x,y,t,intensity"]
    for values, label in blocks:
        suffix = f",{label}" if marked else ""
        lines += [f"{c},{fmt(v)}{suffix}" for c, v in zip(_cell_rows(window, res), values.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


def save_grid(grid: CovariateGrid, header_path) -> None:
    """Bit-exact grid storage: JSON header plus raw little-endian float64 sidecar."""
    header_path = Path(header_path)
    bin_path = header_path.with_suffix(".bin")
    header = {
        "schema_version": SCHEMA_VERSION,
        "window": window_to_dict(grid.window),
        "resolution": list(grid.resolution.per_axis),
        "count": int(grid.values.size),
        "dtype": "<f8",
        "sidecar": bin_path.name,
    }
    write_json(header_path, header)
    bin_path.write_bytes(grid.values.astype("<f8").tobytes())


def load_grid(header_path) -> CovariateGrid:
    header_path = Path(header_path)
    header = read_json(header_path)
    if header.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{header_path}: unsupported schema version {header.get('schema_version')!r}")
    count = header["count"]
    bin_path = header_path.parent / header["sidecar"]
    raw = bin_path.read_bytes()
    if len(raw) != 8 * count:
        raise ValueError(
            f"{bin_path}: grid sidecar should hold {8 * count} bytes "
            f"({count} float64 values), found {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f8")
    return CovariateGrid(
        window_from_dict(header["window"]),
        GridResolution(*header["resolution"]),
        values,
    )


# ---------------------------------------------------------------------------
# cubature schemes


def write_scheme_csv(scheme, path) -> None:
    """Dump a scheme (`x,y,t,is_data,weight`, plus `mark` when replicated)."""
    if isinstance(scheme, ReplicatedCubatureScheme):
        header = "x,y,t,is_data,weight,mark"
        blocks = zip(scheme.is_data_by_level.tolist(), [f",{lv.label}" for lv in scheme.levels])
    elif isinstance(scheme, CubatureScheme):
        header = "x,y,t,is_data,weight"
        blocks = [(scheme.is_data.tolist(), "")]
    else:
        raise TypeError(f"not a cubature scheme: {type(scheme).__name__}")
    cells = [f"{fmt(x)},{fmt(y)},{fmt(t)}" for x, y, t in scheme.coords.tolist()]
    weights = [fmt(w) for w in scheme.weights.tolist()]
    rows = [f"{c},{e},{w}{label}" for es, label in blocks for c, e, w in zip(cells, es, weights)]
    Path(path).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# fitted models


def _term_to_dict(term) -> dict:
    if isinstance(term, Intercept):
        return {"type": "intercept"}
    if isinstance(term, CoordinateMonomial):
        return {"type": "monomial", "exponents": [term.x_exp, term.y_exp, term.t_exp]}
    if isinstance(term, ExternalCovariate):
        grid = term.grid
        d = {"type": "external" if grid.samples is None else "external_idw", "name": term.name,
             "window": window_to_dict(grid.window), "resolution": list(grid.resolution.per_axis)}
        if grid.samples is None:
            return {**d, "values": grid.values.tolist()}
        idw = {"power": grid.idw.power, "scaling": list(grid.idw.scaling)}
        return {**d, "idw": idw, "samples": grid.samples.tolist()}
    raise TypeError(f"cannot serialize term of type {type(term).__name__}")


def _term_from_dict(d: dict):
    kind = d.get("type")
    if kind == "intercept":
        return Intercept()
    if kind == "monomial":
        return CoordinateMonomial(*d["exponents"])
    if kind in ("external", "external_idw"):  # one value per fine cell, or the IDW samples
        window, res = window_from_dict(d["window"]), GridResolution(*d["resolution"])
        if kind == "external":
            return ExternalCovariate(CovariateGrid(window, res, d["values"]), d["name"])
        idw = IdwConfig(d["idw"]["power"], d["idw"]["scaling"])
        return ExternalCovariate(CovariateGrid(window, res, samples=d["samples"], idw=idw), d["name"])
    raise ValueError(f"unknown term type {kind!r}")


def model_to_dict(model: FittedModel) -> dict:
    mode = model.spec.multitype_mode
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "multitype" if model.is_marked else "unmarked",
        "window": window_to_dict(model.window),
        "grid_resolution": list(model.resolution.per_axis),
        "n_data": model.n_data,
        "n_dummy": model.n_dummy,
        "levels": [{"label": lv.label, "index": lv.index} for lv in model.levels],
        "multitype_mode": None if mode is None else {"interact_all": mode.interact_all},
        "ridge_on_marks": model.spec.ridge_on_marks,
        "terms": [_term_to_dict(t) for t in model.spec.terms],
        "coefficients": [
            {"name": name, "estimate": est, "std_error": se}
            for name, est, se in model.coefficient_table()
        ],
        "covariance": [[float(v) for v in row] for row in model.fit.covariance],
        "fit": {
            "deviance": model.fit.deviance,
            "log_likelihood_approx": model.fit.log_likelihood_approx,
            "aic": model.aic,
            "iterations": model.fit.iterations,
            "converged": model.fit.converged,
            "deviance_trace": list(model.fit.deviance_trace),
        },
    }


def model_from_dict(d: dict) -> FittedModel:
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version {d.get('schema_version')!r}")
    mode = d["multitype_mode"]
    spec = ModelSpec(
        terms=tuple(_term_from_dict(t) for t in d["terms"]),
        multitype_mode=None if mode is None else MarkFixedEffects(bool(mode["interact_all"])),
        ridge_on_marks=float(d["ridge_on_marks"]),
    )
    fit = FitResult(
        coefficients=np.array([c["estimate"] for c in d["coefficients"]], dtype=float),
        covariance=np.array(d["covariance"], dtype=float),
        deviance=float(d["fit"]["deviance"]),
        log_likelihood_approx=float(d["fit"]["log_likelihood_approx"]),
        iterations=int(d["fit"]["iterations"]),
        converged=bool(d["fit"]["converged"]),
        deviance_trace=tuple(d["fit"]["deviance_trace"]),
    )
    return FittedModel(
        spec=spec,
        window=window_from_dict(d["window"]),
        resolution=GridResolution(*d["grid_resolution"]),
        n_data=int(d["n_data"]),
        n_dummy=int(d["n_dummy"]),
        fit=fit,
        column_names=tuple(c["name"] for c in d["coefficients"]),
        levels=tuple(MarkLevel(lv["label"], lv["index"]) for lv in d["levels"]),
    )


def save_model(model: FittedModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> FittedModel:
    return model_from_dict(read_json(path))
