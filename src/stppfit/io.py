"""File formats: pattern/covariate/scheme CSV, grid sidecars, model JSON.

All CSV output is UTF-8 with `\n` line endings and floats printed with 17
significant digits; JSON uses Python's round-tripping float repr. Outputs
are therefore byte-deterministic for identical inputs. FORMATS.md in the
repository root documents every column.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .covariates import (
    CoordinateMonomial,
    CovariateGrid,
    CovariateSample,
    ExternalCovariate,
    Intercept,
)
from .cubature import CubatureScheme, GridResolution, ReplicatedCubatureScheme
from .glm import FitResult
from .model import FittedModel, MarkFixedEffects, ModelSpec
from .patterns import MarkedPointPattern, MarkLevel, PointPattern, SpaceTimePoint, Window

__all__ = [
    "fmt",
    "write_pattern_csv",
    "read_pattern_csv",
    "read_covariate_samples",
    "write_covariate_samples",
    "write_scheme_csv",
    "write_grid_csv",
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
    lines = []
    if isinstance(pattern, MarkedPointPattern):
        lines.append("x,y,t,mark")
        for p, m in pattern.points:
            lines.append(f"{fmt(p.x)},{fmt(p.y)},{fmt(p.t)},{m.label}")
    else:
        lines.append("x,y,t")
        for p in pattern.points:
            lines.append(f"{fmt(p.x)},{fmt(p.y)},{fmt(p.t)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_csv_rows(path, expected_header):
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file, expected header {expected_header!r}")
    header = [c.strip() for c in lines[0].split(",")]
    if header != expected_header:
        raise ValueError(f"{path}: expected header {','.join(expected_header)!r}, got {lines[0]!r}")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(expected_header):
            raise ValueError(f"{path}:{i}: expected {len(expected_header)} columns, got {len(cells)}")
        rows.append(cells)
    return rows


def read_pattern_csv(path, window: Window | None = None, infer_window: bool = False, marked: bool = False):
    """Read a pattern CSV; the window comes from the caller, never silently.

    With ``infer_window=True`` the bounding box of the points is used (the
    caller is expected to report it).
    """
    header = ["x", "y", "t", "mark"] if marked else ["x", "y", "t"]
    rows = _read_csv_rows(path, header)
    pts = [SpaceTimePoint(float(r[0]), float(r[1]), float(r[2])) for r in rows]
    if window is None:
        if not infer_window:
            raise ValueError("no window given: pass one explicitly or opt into inference")
        window = Window.bounding(pts)
    if marked:
        return MarkedPointPattern.from_labeled(window, [(p, r[3]) for p, r in zip(pts, rows)])
    return PointPattern(window, tuple(pts))


# ---------------------------------------------------------------------------
# covariate samples and grids


def read_covariate_samples(path) -> list[CovariateSample]:
    rows = _read_csv_rows(path, ["x", "y", "t", "value"])
    return [
        CovariateSample(SpaceTimePoint(float(r[0]), float(r[1]), float(r[2])), float(r[3]))
        for r in rows
    ]


def write_covariate_samples(samples, path) -> None:
    lines = ["x,y,t,value"]
    for s in samples:
        p = s.location
        lines.append(f"{fmt(p.x)},{fmt(p.y)},{fmt(p.t)},{fmt(s.value)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_grid_csv(grid: CovariateGrid, path) -> None:
    """Human-readable grid dump: one row per cell in cell-id order."""
    centers = grid.centers()
    lines = ["cell_id,x_center,y_center,t_center,value"]
    for i, (c, v) in enumerate(zip(centers, grid.values)):
        lines.append(f"{i},{fmt(c[0])},{fmt(c[1])},{fmt(c[2])},{fmt(v)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    lines = []
    if isinstance(scheme, ReplicatedCubatureScheme):
        lines.append("x,y,t,is_data,weight,mark")
        for i, lv in enumerate(scheme.levels):
            for k in range(scheme.size):
                x, y, t = scheme.coords[k]
                lines.append(
                    f"{fmt(x)},{fmt(y)},{fmt(t)},{int(scheme.is_data_by_level[i, k])},"
                    f"{fmt(scheme.weights_by_level[i, k])},{lv.label}"
                )
    elif isinstance(scheme, CubatureScheme):
        lines.append("x,y,t,is_data,weight")
        for k in range(scheme.size):
            x, y, t = scheme.coords[k]
            lines.append(f"{fmt(x)},{fmt(y)},{fmt(t)},{int(scheme.is_data[k])},{fmt(scheme.weights[k])}")
    else:
        raise TypeError(f"not a cubature scheme: {type(scheme).__name__}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# fitted models


def _term_to_dict(term) -> dict:
    if isinstance(term, Intercept):
        return {"type": "intercept"}
    if isinstance(term, CoordinateMonomial):
        return {"type": "monomial", "exponents": [term.x_exp, term.y_exp, term.t_exp]}
    if isinstance(term, ExternalCovariate):
        return {
            "type": "external",
            "name": term.name,
            "window": window_to_dict(term.grid.window),
            "resolution": list(term.grid.resolution.per_axis),
            "values": [float(v) for v in term.grid.values],
        }
    raise TypeError(f"cannot serialize term of type {type(term).__name__}")


def _term_from_dict(d: dict):
    kind = d.get("type")
    if kind == "intercept":
        return Intercept()
    if kind == "monomial":
        return CoordinateMonomial(*d["exponents"])
    if kind == "external":
        grid = CovariateGrid(
            window_from_dict(d["window"]),
            GridResolution(*d["resolution"]),
            np.array(d["values"], dtype=float),
        )
        return ExternalCovariate(grid, d["name"])
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
