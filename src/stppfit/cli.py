"""Command-line interface: simulate, fit, predict-grid, convergence-study.

``_build_parser`` is the one place that states an option's type, default
and help. ``--config`` names a JSON object of option values that become
the command's parser defaults, so explicit flags win. Warnings raised by
a command, the inferred window among them, reach stderr as ``warning:
<message>`` lines. Exit codes: 0 success, 2 usage or parse problem, 3 I/O
problem, 4 fit did not converge (partial output is still written). All
outputs are deterministic given flags and seeds, except the
convergence-study timing sidecar, which records wall-clock times.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .covariates import DEFAULT_FINE_RESOLUTION, ExternalCovariate, IdwConfig, smooth_to_grid
from .cubature import (
    DEFAULT_RESOLUTION,
    GridResolution,
    approximate_integral,
    build_scheme,
    cell_centers,
)
from .formula import covariate_names, parse_log_linear, parse_term_list
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
    write_lines,
    write_pattern_csv,
    write_surface_csv,
)
from .model import FittedModel, MarkFixedEffects, ModelSpec, fit_multitype, fit_stpp
from .patterns import PointPattern, Window
from .simulate import GENERATOR_ID, SimConfig, simulate_inhomogeneous

__all__ = ["main"]

# resolution used to report the expected count of a simulated intensity
_METADATA_INTEGRAL_RES = GridResolution(40, 40, 40)


class UsageError(ValueError):
    """Unknown, missing or inconsistent options."""


# ---------------------------------------------------------------------------
# option types: flag text in, value out


def _option_type(parse):
    """An argparse ``type`` whose ValueError message becomes the usage error."""

    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _numbers(text: str, counts=None, kind=float) -> list:
    """Comma-separated numbers of ``kind`` (float or int), as many as one of ``counts`` when given."""
    noun = "integers" if kind is int else "numbers"
    parts = [p.strip() for p in text.split(",")]
    if counts is not None and len(parts) not in counts:
        raise ValueError(f"needs {' or '.join(map(str, counts))} comma-separated {noun}, got {text!r}")
    try:
        return [kind(p) for p in parts]
    except ValueError:
        raise ValueError(f"must be {noun}, got {text!r}") from None


_window = _option_type(lambda text: Window.from_bounds(*_numbers(text, (6,))))
_scaling = _option_type(lambda text: _numbers(text, (3,)))


@_option_type
def _resolution(text: str) -> GridResolution:
    cells = _numbers(text, (1, 3), int)
    return GridResolution(*(cells * 3 if len(cells) == 1 else cells))


@_option_type
def _int_set(text: str) -> list[int]:
    """Comma-separated integers, ascending, each once; empty items are skipped."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("must not be empty")
    return sorted(set(_numbers(",".join(parts), kind=int)))


def _flag_text(value) -> str:
    """A JSON config value as the text of its flag: numbers as JSON writes them, lists joined by commas."""
    if isinstance(value, list):
        return ",".join(map(_flag_text, value))
    return value if isinstance(value, str) else json.dumps(value)


def _config_defaults(parser: argparse.ArgumentParser, ns) -> dict:
    """The ``--config`` file as defaults for ``parser``, the command's own parser.

    Every key must name an option of the command. Switches take a JSON
    true or false, null means unset, and any other value becomes its flag text for
    the flag's own type. A repeatable flag on the command line replaces the
    config's list.
    """
    path = ns.config
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    version = cfg.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise UsageError(f"{path}: unsupported config schema version {version!r}")
    options = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    unknown = [key for key in cfg if key not in options]
    if unknown:
        raise UsageError(f"{path}: stppfit {ns.command} has no option {', '.join(map(repr, unknown))}")
    defaults = {}
    for key, value in cfg.items():
        option = options[key]
        if value is None:
            continue
        if option.nargs == 0:
            if not isinstance(value, bool):
                flag = option.option_strings[0]
                raise UsageError(f"{path}: argument {flag}: expected true or false, got {value!r}")
            defaults[key] = value
        elif isinstance(option.default, list):
            if not getattr(ns, key):
                defaults[key] = [_flag_text(v) for v in (value if isinstance(value, list) else [value])]
        else:
            defaults[key] = _flag_text(value)
    return defaults


# ---------------------------------------------------------------------------
# shared steps


def _simulate(ns, seed: int):
    """Simulate the --log-intensity truth on --window, thinning from --lambda-max."""
    return simulate_inhomogeneous(ns.window, ns.log_intensity.intensity, SimConfig(seed, ns.lambda_max))


def _dummy_integral(window: Window, expr, res: GridResolution) -> float:
    """Cubature of an expression's intensity on the dummy grid alone."""
    return approximate_integral(build_scheme(PointPattern(window, ()), res), expr.intensity)


def _csv_row(*cells) -> str:
    """One report row: floats as ``fmt`` text, None as an empty cell, anything else through ``str``."""
    return ",".join("" if c is None else fmt(c) if isinstance(c, float) else str(c) for c in cells)


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(ns) -> int:
    pattern = _simulate(ns, ns.seed)
    write_pattern_csv(pattern, ns.out)

    expected = _dummy_integral(ns.window, ns.log_intensity, _METADATA_INTEGRAL_RES)
    write_json(
        Path(ns.out).with_suffix(".meta.json"),
        {
            "schema_version": SCHEMA_VERSION,
            "command": "simulate",
            "generator": GENERATOR_ID,
            "seed": ns.seed,
            "window": window_to_dict(ns.window),
            "log_intensity": ns.log_intensity.canonical(),
            "lambda_max": ns.lambda_max,
            "n_points": pattern.n,
            "expected_count_approx": expected,
        },
    )
    print(f"simulated {pattern.n} points (expected about {expected:.6g}) -> {ns.out}")
    return 0


def _read_pattern(ns):
    """Read the --pattern CSV once, in --window or in the inferred bounding box."""
    if ns.window is not None and ns.infer_window:
        raise UsageError("--window and --infer-window conflict")
    if ns.window is None and not ns.infer_window:
        raise UsageError("pass --window x0,x1,y0,y1,t0,t1 or opt into --infer-window")
    pattern = read_pattern_csv(ns.pattern, window=ns.window, infer_window=ns.infer_window, marked=ns.marked)
    if ns.infer_window:
        window = pattern.window
        warnings.warn(f"inferred window from data: x={window.x_range} y={window.y_range} t={window.t_range}")
    if ns.marked and len(pattern.levels) < 2:
        raise UsageError(f"--marked needs two or more mark levels, but {ns.pattern} has only the level "
                         f"{pattern.levels[0]!r}; drop its mark column to fit the ground pattern")
    return pattern


def _build_externals(ns, window) -> dict[str, ExternalCovariate]:
    """Smooth the --covariate samples onto the fine grid, after checking every declaration."""
    named = covariate_names(ns.terms)
    paths = {}
    for decl in ns.covariate:
        name, sep, path = decl.partition("=")
        if not sep or not name or not path:
            raise UsageError(f"--covariate expects name=path.csv, got {decl!r}")
        if name in paths:
            raise UsageError(f"--covariate {name!r} is declared twice")
        if name not in named:
            raise UsageError(
                f"--covariate {name!r} is not a covariate of --terms {ns.terms!r}: a covariate is "
                "a term that is an identifier other than the coordinates x, y, t"
            )
        paths[name] = path
    idw = (IdwConfig.for_window(window, ns.idw_power) if ns.idw_scaling is None
           else IdwConfig(ns.idw_power, ns.idw_scaling))
    externals = {}
    for name, path in paths.items():
        samples = read_covariate_samples(path)
        if not len(samples):
            raise UsageError(f"--covariate {name}={path}: the file has a header but no sample rows")
        externals[name] = ExternalCovariate(smooth_to_grid(samples, window, ns.covariate_grid, idw), name)
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


def cmd_fit(ns) -> int:
    if ns.interact_all and ns.shared_terms:
        raise UsageError("--interact-all and --shared-terms conflict")
    if not ns.marked and (ns.interact_all or ns.shared_terms):
        raise UsageError("--interact-all and --shared-terms apply to --marked fits only")
    if ns.ridge_marks > 0 and not (ns.marked and ns.shared_terms):
        raise UsageError("--ridge-marks applies to --marked --shared-terms fits only "
                         "(the mode MarkFixedEffects(interact_all=False))")
    pattern = _read_pattern(ns)
    terms = parse_term_list(ns.terms, _build_externals(ns, pattern.window))
    irls = IrlsConfig(max_iterations=ns.max_iterations, tolerance=ns.tolerance)
    mode = MarkFixedEffects(interact_all=not ns.shared_terms) if ns.marked else None
    spec = ModelSpec(terms, mode, ns.ridge_marks)
    model = (fit_multitype if ns.marked else fit_stpp)(pattern, spec, ns.grid, irls)

    save_model(model, ns.out)
    _print_fit_summary(model, ns.verbose)
    if not model.fit.converged:
        warnings.warn("fit did not converge; output is partial")
        return 4
    return 0


def cmd_predict_grid(ns) -> int:
    if ns.marginal and ns.mark is not None:
        raise UsageError("--marginal and --mark conflict")
    model = load_model(ns.model)
    x, y, t = cell_centers(model.window, ns.grid).T
    if ns.marginal:
        if not model.is_marked:
            raise UsageError("--marginal applies to multitype models only")
        blocks = [(model.marginal_values(x, y, t), None)]
    elif model.is_marked:
        if ns.mark is not None and ns.mark not in model.levels:
            raise UsageError(f"--mark {ns.mark!r} is not one of the model's levels {list(model.levels)}")
        labels = model.levels if ns.mark is None else [ns.mark]
        blocks = [(model.intensity_values(x, y, t, mark=label), label) for label in labels]
    else:
        if ns.mark is not None:
            raise UsageError("--mark applies to multitype models only")
        blocks = [(model.intensity_values(x, y, t), None)]
    n_rows = write_surface_csv(ns.out, model.window, ns.grid, blocks)
    print(f"wrote {n_rows} intensity rows -> {ns.out}")
    return 0


def cmd_convergence_study(ns) -> int:
    seeds, rungs = ns.seeds, ns.resolutions
    if rungs[0] < 1:
        raise UsageError("--resolutions must be positive")
    out = Path(ns.out)
    summary_out = Path(ns.summary_out or out.with_name(out.stem + "_summary.csv"))
    timings_out = Path(ns.timings_out or out.with_name(out.stem + "_timings.csv"))
    ref = 2 * rungs[-1] if ns.reference_resolution is None else ns.reference_resolution

    expr = ns.log_intensity
    terms = expr.terms()
    truth = expr.coefficients()
    names = [t.name for t in terms]
    spec = ModelSpec(terms)
    ref_integral = _dummy_integral(ns.window, expr, GridResolution(ref, ref, ref))
    integral_err = {
        r: abs(_dummy_integral(ns.window, expr, GridResolution(r, r, r)) - ref_integral) for r in rungs
    }

    def detail_row(seed, rung, n_points, status, fit):
        cells = [None] * (2 * len(names) + 4)  # a failed cell leaves every number blank
        if fit is not None:
            err = fit.coefficients - truth
            cells = [str(fit.converged).lower(), fit.iterations, *fit.coefficients, *err,
                     np.abs(err).max(), integral_err[rung]]
        return _csv_row(seed, rung, n_points, status, *cells)

    def summary_row(rung):
        errs = np.array([fit.coefficients - truth for fit in fits[rung]])
        stats = [None] * (2 * len(names) + 1)  # no successful cell, no statistics
        if len(errs):
            rmse = np.sqrt((errs**2).mean(axis=0))
            stats = [*errs.mean(axis=0), *rmse, rmse.max()]
        return _csv_row(rung, len(seeds), len(errs), *stats, integral_err[rung])

    detail_lines = [_csv_row("seed", "resolution", "n_points", "status", "converged", "iterations",
                             *[f"coef_{n}" for n in names], *[f"err_{n}" for n in names],
                             "max_abs_err", "integral_abs_err")]
    timing_lines = ["seed,resolution,wall_ms"]
    fits = {r: [] for r in rungs}
    for seed in seeds:
        pattern = _simulate(ns, seed)
        for rung in rungs:
            res = GridResolution(rung, rung, rung)
            t0 = time.perf_counter()
            try:
                fit, status = fit_stpp(pattern, spec, res).fit, "ok"
            except (FitError, ValueError) as exc:
                fit, status = None, "error: " + str(exc).replace(",", ";").replace("\n", " ")
            timing_lines.append(f"{seed},{rung},{1000.0 * (time.perf_counter() - t0):.3f}")
            if fit is not None:
                fits[rung].append(fit)
            detail_lines.append(detail_row(seed, rung, pattern.n, status, fit))

    summary_lines = [_csv_row("resolution", "n_seeds", "n_ok", *[f"bias_{n}" for n in names],
                              *[f"rmse_{n}" for n in names], "max_rmse", "integral_abs_err")]
    summary_lines += [summary_row(rung) for rung in rungs]

    write_lines(out, detail_lines)
    write_lines(summary_out, summary_lines)
    write_lines(timings_out, timing_lines)
    for line in summary_lines:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser, by command name."""
    parser = argparse.ArgumentParser(
        prog="stppfit",
        description="Fit spatio-temporal Poisson intensity models by cubature and IRLS.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    irls, idw = IrlsConfig(), IdwConfig()

    def command(name, func, required, help):
        """A command's parser; ``required`` names the options it cannot run without."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file of option values; explicit flags override it")
        p.set_defaults(func=func, required=required)
        return p

    def add_truth(p):
        p.add_argument("--window", type=_window, help="x0,x1,y0,y1,t0,t1")
        p.add_argument("--log-intensity", type=_option_type(parse_log_linear),
                       help='e.g. "4 + 1.2*x - 0.8*t"')
        p.add_argument("--lambda-max", type=float, help="dominating intensity bound for thinning")

    p = command("simulate", cmd_simulate, ("window", "log_intensity", "lambda_max", "seed", "out"),
                "simulate an inhomogeneous Poisson pattern by thinning")
    add_truth(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output pattern CSV (metadata goes to <out>.meta.json)")

    p = command("fit", cmd_fit, ("pattern", "out"), "fit a log-linear intensity model to a pattern CSV")
    p.add_argument("--pattern", help="input pattern CSV")
    p.add_argument("--window", type=_window, help="x0,x1,y0,y1,t0,t1")
    p.add_argument("--infer-window", action="store_true",
                   help="use the data bounding box (reported on stderr)")
    p.add_argument("--terms", default="1",
                   help='model terms, e.g. "1,x,y,t,x*t,ndvi" (default %(default)s)')
    p.add_argument("--covariate", action="append", default=[],
                   help="name=samples.csv for a covariate that --terms names (repeatable)")
    p.add_argument("--covariate-grid", type=_resolution, default=DEFAULT_FINE_RESOLUTION,
                   help="IDW fine grid cells per axis (default %(default)s)")
    p.add_argument("--idw-power", type=float, default=idw.power, help="IDW exponent (default %(default)s)")
    p.add_argument("--idw-scaling", type=_scaling,
                   help="sx,sy,st distance divisors (default: the window sides)")
    p.add_argument("--grid", type=_resolution, default=DEFAULT_RESOLUTION,
                   help="cubature cells per axis, one or three integers (default %(default)s)")
    p.add_argument("--marked", action="store_true", help="pattern CSV has a mark column")
    p.add_argument("--shared-terms", action="store_true",
                   help="share term coefficients across levels (default: full interaction)")
    p.add_argument("--interact-all", action="store_true",
                   help="one full coefficient set per level (the default)")
    p.add_argument("--ridge-marks", type=float, default=ModelSpec.ridge_on_marks,
                   help="ridge penalty shrinking the mark contrasts of a --shared-terms fit "
                        "toward the first level (default %(default)s)")
    p.add_argument("--max-iterations", type=int, default=irls.max_iterations,
                   help="IRLS iteration cap (default %(default)s)")
    p.add_argument("--tolerance", type=float, default=irls.tolerance,
                   help="relative deviance change that stops IRLS (default %(default)s)")
    p.add_argument("--verbose", action="store_true", help="print the deviance of every iteration")
    p.add_argument("--out", help="output model JSON")

    p = command("predict-grid", cmd_predict_grid, ("model", "out"),
                "evaluate a fitted intensity on a regular grid")
    p.add_argument("--model", help="fitted model JSON")
    p.add_argument("--grid", type=_resolution, default=DEFAULT_RESOLUTION,
                   help="output cells per axis, one or three integers (default %(default)s)")
    p.add_argument("--mark", help="restrict a multitype model to one level")
    p.add_argument("--marginal", action="store_true",
                   help="sum the per-level intensities of a multitype model")
    p.add_argument("--out", help="output surface CSV")

    p = command("convergence-study", cmd_convergence_study,
                ("window", "log_intensity", "lambda_max", "seeds", "resolutions", "out"),
                "bias/RMSE of fitted coefficients across a dummy-grid resolution ladder")
    add_truth(p)
    p.add_argument("--seeds", type=_int_set, help="comma-separated simulation seeds")
    p.add_argument("--resolutions", type=_int_set, help="per-axis cell counts, e.g. 4,8,16")
    p.add_argument("--reference-resolution", type=int,
                   help="per-axis cells for the reference integral (default 2x max rung)")
    p.add_argument("--out", help="detail report CSV")
    p.add_argument("--summary-out", help="per-resolution summary CSV (default <out stem>_summary.csv)")
    p.add_argument("--timings-out",
                   help="wall-time sidecar CSV, not deterministic (default <out stem>_timings.csv)")
    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """Parse ``argv``; with ``--config``, parse it again over the config's defaults."""
    parser, commands = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config is not None:
        commands[ns.command].set_defaults(**_config_defaults(commands[ns.command], ns))
        ns = parser.parse_args(argv)
    missing = [name for name in ns.required if getattr(ns, name) is None]
    if missing:
        raise UsageError(f"missing required option --{missing[0].replace('_', '-')}")
    return ns


def _run(ns) -> int:
    """Run the command; each warning it shows reaches stderr as one ``warning: <message>`` line.

    Warnings are the CLI's one diagnostics channel. Python's filters still
    decide which warnings are shown, and a ``showwarning`` hook the caller
    installed gets them instead of stderr.
    """
    showwarning = warnings.showwarning
    if showwarning is warnings._showwarning_orig:
        warnings.showwarning = lambda message, *_: sys.stderr.write(f"warning: {message}\n")
    try:
        return ns.func(ns)
    finally:
        warnings.showwarning = showwarning


def main(argv=None) -> int:
    try:
        return _run(_parse_args(argv))
    except SystemExit as exc:  # argparse: --help, or a bad flag or config value
        return 0 if exc.code in (0, None) else 2
    except (ValueError, KeyError, FitError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
