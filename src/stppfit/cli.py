"""Command-line interface: simulate, fit, predict-grid, convergence-study.

Options may also come from a JSON config file (``--config``); explicit
flags win. Exit codes: 0 success, 2 usage or parse problem, 3 I/O
problem, 4 fit did not converge (partial output is still written).
All outputs are deterministic given flags and seeds, except the
convergence-study timing sidecar, which records wall-clock times.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .covariates import DEFAULT_FINE_RESOLUTION, ExternalCovariate, IdwConfig, smooth_to_grid
from .cubature import GridResolution, approximate_integral, build_scheme, cell_centers
from .formula import parse_log_linear, parse_term_list
from .glm import FitError, IrlsConfig
from .io import (
    SCHEMA_VERSION,
    fmt,
    load_model,
    read_covariate_samples,
    read_json,
    read_pattern_csv,
    save_model,
    window_to_dict,
    write_json,
    write_pattern_csv,
)
from .model import FittedModel, MarkFixedEffects, ModelSpec, fit_multitype, fit_stpp
from .patterns import PointPattern, Window
from .simulate import GENERATOR_ID, SimConfig, simulate_inhomogeneous

__all__ = ["main"]

# resolution used to report the expected count of a simulated intensity
_METADATA_INTEGRAL_RES = GridResolution(40, 40, 40)


class UsageError(ValueError):
    """Bad flags, bad expressions, or inconsistent options."""


def _split(value) -> list:
    """A comma-separated flag value, or a number or list from a JSON config, as a list of parts."""
    if isinstance(value, str):
        return [p.strip() for p in value.split(",")]
    return [value] if isinstance(value, (int, float)) else list(value)


def _parse_floats(value, n, what) -> tuple[float, ...]:
    parts = _split(value)
    if len(parts) != n:
        raise UsageError(f"{what} needs {n} comma-separated values, got {value!r}")
    try:
        return tuple(float(p) for p in parts)
    except (TypeError, ValueError):
        raise UsageError(f"{what} must be numeric, got {value!r}") from None


def _parse_window(value) -> Window:
    x0, x1, y0, y1, t0, t1 = _parse_floats(value, 6, "--window")
    try:
        return Window.from_bounds(x0, x1, y0, y1, t0, t1)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_resolution(value, what="--grid") -> GridResolution:
    parts = _split(value)
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise UsageError(f"{what} needs one or three comma-separated integers, got {value!r}")
    try:
        return GridResolution(*(int(p) for p in parts))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {what}: {exc}") from None


def _parse_int_list(value, what) -> list[int]:
    parts = [p for p in _split(value) if p != ""]
    if not parts:
        raise UsageError(f"{what} must not be empty")
    try:
        return [int(p) for p in parts]
    except (TypeError, ValueError):
        raise UsageError(f"{what} must be integers, got {value!r}") from None


def _opt(ns, cfg, name, default=None, required=False):
    v = getattr(ns, name, None)
    if v is None:
        v = cfg.get(name, default)
    if v is None and required:
        raise UsageError(f"missing required option --{name.replace('_', '-')}")
    return v


def _load_config(ns) -> dict:
    path = getattr(ns, "config", None)
    if not path:
        return {}
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    version = cfg.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise UsageError(f"{path}: unsupported config schema version {version!r}")
    return cfg


def _meta_path(out_path) -> Path:
    return Path(out_path).with_suffix(".meta.json")


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(ns, cfg) -> int:
    window = _parse_window(_opt(ns, cfg, "window", required=True))
    expr_text = _opt(ns, cfg, "log_intensity", required=True)
    try:
        expr = parse_log_linear(str(expr_text))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    lam_max = float(_opt(ns, cfg, "lambda_max", required=True))
    seed = int(_opt(ns, cfg, "seed", required=True))
    out = _opt(ns, cfg, "out", required=True)

    pattern = simulate_inhomogeneous(window, expr.intensity, SimConfig(seed, lam_max))
    write_pattern_csv(pattern, out)

    expected = approximate_integral(
        build_scheme(PointPattern(window, ()), _METADATA_INTEGRAL_RES), expr.intensity
    )
    write_json(
        _meta_path(out),
        {
            "schema_version": SCHEMA_VERSION,
            "command": "simulate",
            "generator": GENERATOR_ID,
            "seed": seed,
            "window": window_to_dict(window),
            "log_intensity": expr.canonical(),
            "lambda_max": lam_max,
            "n_points": pattern.n,
            "expected_count_approx": expected,
        },
    )
    print(f"simulated {pattern.n} points (expected about {expected:.6g}) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# fit


def _read_pattern(ns, cfg, marked):
    """Read the --pattern CSV once, in --window or in the inferred bounding box."""
    path = _opt(ns, cfg, "pattern", required=True)
    window_arg = _opt(ns, cfg, "window")
    infer = _opt(ns, cfg, "infer_window", default=False)
    if window_arg is not None and infer:
        raise UsageError("--window and --infer-window conflict")
    if window_arg is not None:
        return read_pattern_csv(path, window=_parse_window(window_arg), marked=marked)
    if not infer:
        raise UsageError("pass --window x0,x1,y0,y1,t0,t1 or opt into --infer-window")
    pattern = read_pattern_csv(path, infer_window=True, marked=marked)
    window = pattern.window
    print(
        f"inferred window from data: x={window.x_range} y={window.y_range} t={window.t_range}",
        file=sys.stderr,
    )
    return pattern


def _build_externals(ns, cfg, window) -> dict[str, ExternalCovariate]:
    decls = getattr(ns, "covariate", None) or cfg.get("covariate") or []
    if isinstance(decls, str):
        decls = [decls]
    power = float(_opt(ns, cfg, "idw_power", default=2.0))
    scaling = _opt(ns, cfg, "idw_scaling")
    idw = (
        IdwConfig.for_window(window, power=power)
        if scaling is None
        else IdwConfig(power=power, scaling=_parse_floats(scaling, 3, "--idw-scaling"))
    )
    res_arg = _opt(ns, cfg, "covariate_grid")
    res = DEFAULT_FINE_RESOLUTION if res_arg is None else _parse_resolution(res_arg, "--covariate-grid")
    externals = {}
    for decl in decls:
        name, sep, path = str(decl).partition("=")
        if not sep or not name or not path:
            raise UsageError(f"--covariate expects name=path.csv, got {decl!r}")
        samples = read_covariate_samples(path)
        externals[name] = ExternalCovariate(smooth_to_grid(samples, window, res, idw), name)
    return externals


def _print_fit_summary(model: FittedModel, verbose: bool) -> None:
    width = max(12, max(len(n) for n in model.column_names))
    print(f"{'term':<{width}} {'estimate':>18} {'std.error':>18}")
    for name, est, se in model.coefficient_table():
        print(f"{name:<{width}} {est:>18.10g} {se:>18.10g}")
    fit = model.fit
    print(
        f"deviance {fit.deviance:.10g}  log-likelihood {fit.log_likelihood_approx:.10g}  "
        f"aic {model.aic:.10g}  iterations {fit.iterations}  converged {fit.converged}"
    )
    if verbose:
        for i, dev in enumerate(fit.deviance_trace):
            print(f"  iteration {i}: deviance {dev:.12g}")


def cmd_fit(ns, cfg) -> int:
    marked = bool(_opt(ns, cfg, "marked", default=False))
    pattern = _read_pattern(ns, cfg, marked)
    externals = _build_externals(ns, cfg, pattern.window)
    try:
        terms = parse_term_list(str(_opt(ns, cfg, "terms", default="1")), externals)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    res = _parse_resolution(_opt(ns, cfg, "grid", default="10,10,10"))
    irls = IrlsConfig(
        max_iterations=int(_opt(ns, cfg, "max_iterations", default=100)),
        tolerance=float(_opt(ns, cfg, "tolerance", default=1e-10)),
    )
    if marked:
        spec = ModelSpec(
            terms,
            multitype_mode=MarkFixedEffects(
                interact_all=not bool(_opt(ns, cfg, "shared_terms", default=False))
            ),
            ridge_on_marks=float(_opt(ns, cfg, "ridge_marks", default=0.0)),
        )
        model = fit_multitype(pattern, spec, res, irls)
    else:
        spec = ModelSpec(terms)
        model = fit_stpp(pattern, spec, res, irls)

    out = _opt(ns, cfg, "out", required=True)
    save_model(model, out)
    _print_fit_summary(model, bool(_opt(ns, cfg, "verbose", default=False)))
    if not model.fit.converged:
        print("warning: fit did not converge; output is partial", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# predict-grid


def cmd_predict_grid(ns, cfg) -> int:
    model = load_model(_opt(ns, cfg, "model", required=True))
    res = _parse_resolution(_opt(ns, cfg, "grid", default="10,10,10"))
    out = _opt(ns, cfg, "out", required=True)
    marginal = bool(_opt(ns, cfg, "marginal", default=False))
    mark = _opt(ns, cfg, "mark")
    if marginal and mark is not None:
        raise UsageError("--marginal and --mark conflict")

    centers = cell_centers(model.window, res)
    x, y, t = centers[:, 0], centers[:, 1], centers[:, 2]
    header = "x,y,t,intensity"
    if marginal:
        if not model.is_marked:
            raise UsageError("--marginal applies to multitype models only")
        blocks = [(model.marginal_values(x, y, t), "")]
    elif model.is_marked:
        levels = [model.level(mark)] if mark is not None else list(model.levels)
        header += ",mark"
        blocks = [(model.intensity_values(x, y, t, mark=lv), f",{lv.label}") for lv in levels]
    else:
        if mark is not None:
            raise UsageError("--mark applies to multitype models only")
        blocks = [(model.intensity_values(x, y, t), "")]
    lines = [header]
    for vals, label in blocks:
        lines += [f"{fmt(c[0])},{fmt(c[1])},{fmt(c[2])},{fmt(v)}{label}" for c, v in zip(centers, vals)]
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 1} intensity rows -> {out}")
    return 0


# ---------------------------------------------------------------------------
# convergence-study


def cmd_convergence_study(ns, cfg) -> int:
    window = _parse_window(_opt(ns, cfg, "window", required=True))
    try:
        expr = parse_log_linear(str(_opt(ns, cfg, "log_intensity", required=True)))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    lam_max = float(_opt(ns, cfg, "lambda_max", required=True))
    seeds = sorted(set(_parse_int_list(_opt(ns, cfg, "seeds", required=True), "--seeds")))
    rungs = sorted(set(_parse_int_list(_opt(ns, cfg, "resolutions", required=True), "--resolutions")))
    if any(r < 1 for r in rungs):
        raise UsageError("--resolutions must be positive")
    out = Path(_opt(ns, cfg, "out", required=True))
    summary_out = Path(_opt(ns, cfg, "summary_out", default=out.with_name(out.stem + "_summary.csv")))
    timings_out = Path(_opt(ns, cfg, "timings_out", default=out.with_name(out.stem + "_timings.csv")))
    ref_rung = int(_opt(ns, cfg, "reference_resolution", default=2 * max(rungs)))

    terms = expr.terms()
    truth = expr.coefficients()
    names = [t.name for t in terms]
    spec = ModelSpec(terms)
    ref_integral = approximate_integral(
        build_scheme(PointPattern(window, ()), _parse_resolution(ref_rung, "reference")),
        expr.intensity,
    )

    detail_header = (
        ["seed", "resolution", "n_points", "status", "converged", "iterations"]
        + [f"coef_{n}" for n in names]
        + [f"err_{n}" for n in names]
        + ["max_abs_err", "integral_abs_err"]
    )
    detail_lines = [",".join(detail_header)]
    timing_lines = ["seed,resolution,wall_ms"]
    errors_by_rung: dict[int, list[np.ndarray]] = {r: [] for r in rungs}
    integral_err_by_rung: dict[int, float] = {}

    for rung in rungs:
        res = _parse_resolution(rung, "--resolutions")
        integral = approximate_integral(build_scheme(PointPattern(window, ()), res), expr.intensity)
        integral_err_by_rung[rung] = abs(integral - ref_integral)

    for seed in seeds:
        pattern = simulate_inhomogeneous(window, expr.intensity, SimConfig(seed, lam_max))
        for rung in rungs:
            res = _parse_resolution(rung, "--resolutions")
            t0 = time.perf_counter()
            try:
                model = fit_stpp(pattern, spec, res)
            except (FitError, ValueError) as exc:
                wall_ms = 1000.0 * (time.perf_counter() - t0)
                status = str(exc).replace(",", ";").replace("\n", " ")
                blanks = [""] * (2 * len(names) + 2)
                detail_lines.append(
                    ",".join(
                        [str(seed), str(rung), str(pattern.n), f"error: {status}", "", ""] + blanks
                    )
                )
                timing_lines.append(f"{seed},{rung},{wall_ms:.3f}")
                continue
            wall_ms = 1000.0 * (time.perf_counter() - t0)
            est = model.fit.coefficients
            err = est - truth
            errors_by_rung[rung].append(err)
            detail_lines.append(
                ",".join(
                    [str(seed), str(rung), str(pattern.n), "ok", str(model.fit.converged).lower(),
                     str(model.fit.iterations)]
                    + [fmt(v) for v in est]
                    + [fmt(v) for v in err]
                    + [fmt(float(np.abs(err).max())), fmt(integral_err_by_rung[rung])]
                )
            )
            timing_lines.append(f"{seed},{rung},{wall_ms:.3f}")

    summary_header = (
        ["resolution", "n_seeds", "n_ok"]
        + [f"bias_{n}" for n in names]
        + [f"rmse_{n}" for n in names]
        + ["max_rmse", "integral_abs_err"]
    )
    summary_lines = [",".join(summary_header)]
    for rung in rungs:
        errs = errors_by_rung[rung]
        if errs:
            arr = np.array(errs)
            bias = arr.mean(axis=0)
            rmse = np.sqrt((arr**2).mean(axis=0))
            summary_lines.append(
                ",".join(
                    [str(rung), str(len(seeds)), str(len(errs))]
                    + [fmt(v) for v in bias]
                    + [fmt(v) for v in rmse]
                    + [fmt(float(rmse.max())), fmt(integral_err_by_rung[rung])]
                )
            )
        else:
            summary_lines.append(
                ",".join(
                    [str(rung), str(len(seeds)), "0"]
                    + [""] * (2 * len(names))
                    + ["", fmt(integral_err_by_rung[rung])]
                )
            )

    out.write_text("\n".join(detail_lines) + "\n", encoding="utf-8")
    summary_out.write_text("\n".join(summary_lines) + "\n", encoding="utf-8")
    timings_out.write_text("\n".join(timing_lines) + "\n", encoding="utf-8")
    for line in summary_lines:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stppfit",
        description="Fit spatio-temporal Poisson intensity models by cubature and IRLS.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--config", help="JSON config file; explicit flags override it")

    p = sub.add_parser("simulate", help="simulate an inhomogeneous Poisson pattern by thinning")
    add_common(p)
    p.add_argument("--window", help="x0,x1,y0,y1,t0,t1")
    p.add_argument("--log-intensity", dest="log_intensity", help='e.g. "4 + 1.2*x - 0.8*t"')
    p.add_argument("--lambda-max", dest="lambda_max", type=float, help="dominating intensity bound")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output pattern CSV (metadata goes to <out>.meta.json)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a log-linear intensity model to a pattern CSV")
    add_common(p)
    p.add_argument("--pattern", help="input pattern CSV")
    p.add_argument("--window", help="x0,x1,y0,y1,t0,t1")
    p.add_argument("--infer-window", dest="infer_window", action="store_true", default=None,
                   help="use the data bounding box (reported on stderr)")
    p.add_argument("--terms", help='model terms, e.g. "1,x,y,t,x*t,ndvi"')
    p.add_argument("--covariate", action="append", help="name=samples.csv (repeatable)")
    p.add_argument("--covariate-grid", dest="covariate_grid", help="IDW fine grid, default 64,64,64")
    p.add_argument("--idw-power", dest="idw_power", type=float, help="IDW exponent, default 2")
    p.add_argument("--idw-scaling", dest="idw_scaling", help="sx,sy,st distance divisors")
    p.add_argument("--grid", help="cubature cells per axis, e.g. 10,10,10")
    p.add_argument("--marked", action="store_true", default=None, help="pattern CSV has a mark column")
    p.add_argument("--shared-terms", dest="shared_terms", action="store_true", default=None,
                   help="share term coefficients across levels (default: full interaction)")
    p.add_argument("--interact-all", dest="interact_all", action="store_true", default=None,
                   help="one full coefficient set per level (the default)")
    p.add_argument("--ridge-marks", dest="ridge_marks", type=float,
                   help="ridge penalty on mark-specific columns")
    p.add_argument("--max-iterations", dest="max_iterations", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--verbose", action="store_true", default=None)
    p.add_argument("--out", help="output model JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict-grid", help="evaluate a fitted intensity on a regular grid")
    add_common(p)
    p.add_argument("--model", help="fitted model JSON")
    p.add_argument("--grid", help="output cells per axis, e.g. 20,20,20")
    p.add_argument("--mark", help="restrict a multitype model to one level")
    p.add_argument("--marginal", action="store_true", default=None,
                   help="sum the per-level intensities of a multitype model")
    p.add_argument("--out", help="output surface CSV")
    p.set_defaults(func=cmd_predict_grid)

    p = sub.add_parser(
        "convergence-study",
        help="bias/RMSE of fitted coefficients across a dummy-grid resolution ladder",
    )
    add_common(p)
    p.add_argument("--window", help="x0,x1,y0,y1,t0,t1")
    p.add_argument("--log-intensity", dest="log_intensity", help="truth expression")
    p.add_argument("--lambda-max", dest="lambda_max", type=float)
    p.add_argument("--seeds", help="comma-separated simulation seeds")
    p.add_argument("--resolutions", help="per-axis cell counts, e.g. 4,8,16")
    p.add_argument("--reference-resolution", dest="reference_resolution", type=int,
                   help="per-axis cells for the reference integral (default 2x max rung)")
    p.add_argument("--out", help="detail report CSV")
    p.add_argument("--summary-out", dest="summary_out", help="per-resolution summary CSV")
    p.add_argument("--timings-out", dest="timings_out",
                   help="wall-time sidecar CSV (not deterministic)")
    p.set_defaults(func=cmd_convergence_study)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if getattr(ns, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        cfg = _load_config(ns)
        if getattr(ns, "interact_all", None) and getattr(ns, "shared_terms", None):
            raise UsageError("--interact-all and --shared-terms conflict")
        return ns.func(ns, cfg)
    except (ValueError, KeyError, FitError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
