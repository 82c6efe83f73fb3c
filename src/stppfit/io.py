r"""File formats: pattern, covariate-sample and surface CSV, model JSON.

Every output file is UTF-8, written here with ``newline="\n"`` (no `\r\n` on
any platform); CSV floats have 17 significant digits, JSON the round-tripping repr. Outputs
are therefore byte-deterministic for identical inputs under one BLAS thread
count; the log-likelihood, AIC and simulated expected count come from long
dot products whose last digits may move with that count. FORMATS.md in the
repository root documents every column. A model file loads only when each
derived entry (``_DERIVED``) is what ``model_to_dict`` writes for its model.

One formatter writes every CSV: ``format_rows`` renders a block of rows as
one ``%`` operation, and ``_write_csv`` streams such blocks to the open file.
One parser reads every CSV: ``_read_csv`` splits a block of rows at once and
converts each numeric column with ``map(float, ...)``. Only a block that
fails is parsed again row by row, to name the first bad line.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .covariates import CoordinateMonomial, CovariateGrid, ExternalCovariate, IdwConfig, Intercept, _sample_table
from .cubature import GridResolution, cell_axes
from .glm import FitResult
from .model import FittedModel, MarkFixedEffects, ModelSpec
from .patterns import MarkedPointPattern, PointPattern, Window, _mark_codes

__all__ = [
    "fmt",
    "format_rows",
    "write_pattern_csv",
    "read_pattern_csv",
    "read_covariate_samples",
    "write_covariate_samples",
    "write_surface_csv",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "window_to_dict",
    "window_from_dict",
    "write_lines",
    "write_json",
    "read_json",
]

SCHEMA_VERSION = 1
_CHUNK = 4096  # rows per formatted or parsed block


def fmt(v: float) -> str:
    """Float → text with 17 significant digits (round-trips exactly)."""
    return format(float(v), ".17g")


def format_rows(template: str, *columns) -> str:
    """``template % row`` for each row of ``columns`` (equal-length sequences or arrays), in one
    ``%`` operation. ``%.17g`` gives the text of ``fmt``; literal text writes each ``%`` as ``%%``."""
    cells = [None] * (len(columns[0]) * len(columns))
    for j, column in enumerate(columns):
        cells[j :: len(columns)] = column.tolist() if isinstance(column, np.ndarray) else column
    return (template * len(columns[0])) % tuple(cells)


def _write_csv(path, header: str, blocks) -> None:
    """Write ``header``, then each ``(template, *columns)`` block through ``format_rows``,
    ``_CHUNK`` rows per write."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for template, *columns in blocks:
            for a in range(0, len(columns[0]), _CHUNK):
                f.write(format_rows(template, *(c[a : a + _CHUNK] for c in columns)))


def write_lines(path, lines) -> None:
    r"""Write each of ``lines`` followed by ``\n``."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(line + "\n" for line in lines)


def write_json(path, obj) -> None:
    write_lines(path, [json.dumps(obj, indent=2)])


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
    header, template, columns = "x,y,t", "%.17g,%.17g,%.17g\n", list(pattern.xyt.T)
    if isinstance(pattern, MarkedPointPattern):
        header, template = header + ",mark", template[:-1] + ",%s\n"
        columns.append(np.array(pattern.levels, dtype=object)[pattern.marks])
    _write_csv(path, header, [(template, *columns)])


def _read_csv(path, expected_header, n_numeric):
    """Data rows of a CSV with a fixed header: the first ``n_numeric`` columns as a finite float
    array, and the stripped cells of a text column after them (a pattern's mark) as a list.
    A UTF-8 byte-order mark and blank lines are skipped; errors name ``path:line``."""
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    rows = list(filter(str.strip, lines))
    # each row's 0-based line index, a range when no line is blank (as in every file this module writes)
    numbers = range(len(lines)) if len(rows) == len(lines) else [i for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise ValueError(f"{path}: empty file, expected header {expected_header!r}")
    if [c.strip() for c in rows[0].split(",")] != expected_header:
        raise ValueError(f"{path}: expected header {','.join(expected_header)!r}, got {rows[0]!r}")
    k, n = len(expected_header), len(rows) - 1
    table, texts = np.empty((n, n_numeric)), []
    try:
        for a in range(0, n, _CHUNK):
            texts += _parse_rows(rows[1 + a : 1 + a + _CHUNK], table[a : a + _CHUNK], k)
    except ValueError:  # a block failed: parse its rows one at a time, stripped, to name the first bad line
        for i in numbers[1:]:
            try:
                _parse_rows([",".join(map(str.strip, lines[i].split(",")))], np.empty((1, n_numeric)), k)
            except ValueError as exc:
                raise ValueError(f"{path}:{i + 1}: {exc}") from None
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        r, c = bad[0]
        raise ValueError(f"{path}:{numbers[r + 1] + 1}: column {expected_header[c]} must be finite, got {table[r, c]}")
    return table, texts


def _parse_rows(rows, out: np.ndarray, k: int) -> list[str]:
    """Parse ``rows`` of ``k`` cells each: the first ``out.shape[1]`` cells of each row into
    ``out``, and return the stripped cells of the text column after them, if there is one.
    A malformed row raises ValueError, with the reader's message when ``rows`` is one row."""
    n_numeric = out.shape[1]
    # Each row but the first starts with the '\n' of the join, which float() skips as
    # whitespace. Every row has k cells exactly when there are k per row in all and
    # each '\n' sits in the first column.
    cells = ",\n".join(rows).split(",")
    if len(cells) != k * len(rows) or "".join(cells[k::k]).count("\n") != len(rows) - 1:
        raise ValueError(f"expected {k} columns, got {len(cells)}")
    labels = list(map(str.strip, cells[n_numeric::k])) if k > n_numeric else []
    if "" in labels:
        raise ValueError("mark label must be a nonempty string, got ''")
    for j in range(n_numeric):
        out[:, j] = list(map(float, cells[j::k]))
    return labels


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
# covariate samples and intensity surfaces


def read_covariate_samples(path) -> np.ndarray:
    """The samples as an (J, 4) array of finite ``x, y, t, value`` rows, in file order."""
    return _read_csv(path, ["x", "y", "t", "value"], 4)[0]


def write_covariate_samples(samples, path) -> None:
    """Write ``CovariateSample`` objects or an (J, 4) array of ``x, y, t, value`` rows, J >= 1."""
    _write_csv(path, "x,y,t,value", [("%.17g,%.17g,%.17g,%.17g\n", *_sample_table(samples).T)])


def write_surface_csv(path, window: Window, res: GridResolution, blocks) -> int:
    """Write `x,y,t,intensity` rows, one per cell centre in cell-id order for each
    ``(values, label)`` block, with a `mark` column when the labels are not None.
    Returns the number of rows written."""
    # each axis value is formatted once; `xy` is the `x,y,` text of one t-slice, x fastest
    fx, fy, ft = ([fmt(v) for v in axis.tolist()] for axis in cell_axes(window, res))
    xy, n = [f"{x},{y}," for y in fy for x in fx], len(fx) * len(fy)
    rows = []
    for values, label in blocks:
        mark = "" if label is None else "," + label.replace("%", "%%")  # literal text in the template
        rows += [(f"%s{t},%.17g{mark}\n", xy, values[k * n : k * n + n]) for k, t in enumerate(ft)]
    _write_csv(path, "x,y,t,intensity" if blocks[0][1] is None else "x,y,t,intensity,mark", rows)
    return res.n_cells * len(blocks)


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
        "levels": [{"label": label, "index": i} for i, label in enumerate(model.levels, start=1)],
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


def _entry(d: dict, key: str, kind: type = dict):
    """``d[key]``, which must be a JSON object (``kind=dict``) or an array of objects (``kind=list``)."""
    v = d[key]
    if not isinstance(v, kind) or kind is list and not all(isinstance(e, dict) for e in v):
        raise ValueError(f"entry {key!r} must be a JSON {'array of objects' if kind is list else 'object'}, "
                         f"got {type(v).__name__}")
    return v


# each entry model_to_dict derives from the others, and the message naming the fact it follows from ({n}: levels)
_DERIVED = (
    (lambda d: d["kind"], "entry 'kind' is not {expected!r}, which the 'levels' entry implies"),
    (lambda d: d["n_dummy"], "entry 'n_dummy' is not {expected!r}, the cell count of 'grid_resolution'"),
    (lambda d: [v["index"] for v in d["levels"]],
     "level indices must be the 1-based positions 1..{n} in order, got {got}"),
    (lambda d: [c["name"] for c in d["coefficients"]],
     "coefficient names {got} do not match the model's columns {expected}"),
    (lambda d: [c["std_error"] for c in d["coefficients"]],
     "coefficient 'std_error' entries {got} are not {expected}, the square roots of the diagonal of 'covariance'"),
    (lambda d: d["fit"]["deviance"], "entry 'deviance' is not {expected!r}, the last entry of 'deviance_trace'"),
    (lambda d: d["fit"]["aic"], "entry 'aic' is not {expected!r}, 2p - 2 'log_likelihood_approx' for p coefficients"),
    (lambda d: d["fit"]["iterations"], "entry 'iterations' is not {expected!r}, the 'deviance_trace' length less one"),
)


def model_from_dict(d: dict) -> FittedModel:
    """The model the primary entries of ``d`` describe; each derived entry must be what saving it writes."""
    if not isinstance(d, dict):
        raise ValueError(f"a model must be a JSON object, got {type(d).__name__}")
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version {d.get('schema_version')!r}")
    levels, coefficients, fit = _entry(d, "levels", list), _entry(d, "coefficients", list), _entry(d, "fit")
    mode = None if d["multitype_mode"] is None else MarkFixedEffects(bool(_entry(d, "multitype_mode")["interact_all"]))
    spec = ModelSpec(tuple(_term_from_dict(t) for t in _entry(d, "terms", list)), mode, float(d["ridge_on_marks"]))
    result = FitResult(coefficients=np.array([c["estimate"] for c in coefficients], dtype=float),
                       covariance=np.array(d["covariance"], dtype=float), deviance_trace=fit["deviance_trace"],
                       log_likelihood_approx=float(fit["log_likelihood_approx"]), converged=bool(fit["converged"]))
    model = FittedModel(spec, window_from_dict(_entry(d, "window")), GridResolution(*d["grid_resolution"]),
                        int(d["n_data"]), result, tuple(lv["label"] for lv in levels))
    written = model_to_dict(model)
    for entry, message in _DERIVED:
        if entry(d) != entry(written):
            raise ValueError(message.format(got=entry(d), expected=entry(written), n=len(levels)))
    return model


def save_model(model: FittedModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> FittedModel:
    """Read a model JSON file; a missing entry or any other fault in it raises ValueError naming the file."""
    try:
        return model_from_dict(read_json(path))
    except KeyError as exc:
        raise ValueError(f"model file {str(path)!r} lacks the entry {exc.args[0]!r}") from None
    except (ValueError, TypeError) as exc:  # TypeError: a scalar entry of the wrong JSON type, e.g. float(None)
        raise ValueError(f"model file {str(path)!r}: {exc}") from None
