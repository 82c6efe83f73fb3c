"""Span recording for the traced run, from the benchmark's side of the library.

The traced run swaps the module and class attributes through which
stppfit's layers call each other (``stppfit.model.fit_irls``,
``stppfit.cli.read_pattern_csv``, ``PointPattern.from_arrays`` ...) for
wrappers that record a span per call, and restores them after each traced
op. The library source is untouched and the untraced run never installs a
wrapper. A span is (name, start, end, parent span, op id); spans stay in
memory and are written out when the run ends. Self time is a span's
duration minus the time its direct children cover.

Private steps (``_check_rank``, ``_expand_multitype``, the covariance) have
no attribute of their own to wrap, so they stay in their caller's self
time.
"""

from __future__ import annotations

import time
from pathlib import Path

# span name -> per-layer metric name (self seconds per op)
SELF_TIME_METRICS = {
    "patterns.from_arrays": "patterns.from_arrays_s",
    "patterns.find_duplicate_points": "patterns.find_duplicate_points_s",
    "patterns.ground_pattern": "patterns.ground_pattern_s",
    "simulate.simulate_inhomogeneous": "simulate.simulate_inhomogeneous_s",
    "cubature.build_scheme": "cubature.build_scheme_s",
    "cubature.build_replicated_scheme": "cubature.build_replicated_scheme_s",
    "cubature.approximate_integral": "cubature.approximate_integral_s",
    "covariates.smooth_to_grid": "covariates.smooth_to_grid_s",
    "model.build_design": "model.build_design_s",
    "model.fit_stpp": "model.fit_stpp_self_s",
    "model.fit_multitype": "model.fit_multitype_self_s",
    "model.intensity_values": "model.intensity_values_s",
    "glm.fit_irls": "glm.fit_irls_s",
    "io.read_pattern_csv": "io.read_pattern_csv_s",
    "io.write_pattern_csv": "io.write_pattern_csv_s",
    "io.save_model": "io.save_model_s",
    "io.load_model": "io.load_model_s",
    "io.write_json": "io.write_json_s",
    "cli.simulate": "cli.simulate_self_s",
    "cli.fit": "cli.fit_self_s",
    "cli.predict-grid": "cli.predict_grid_self_s",
    # the benchmark's own share of an op: time no library span covers
    "op": "trace.unattributed_s",
}

# exact per-op counts; each repeats exactly for a given input
COUNT_METRICS = (
    "patterns.points",
    "simulate.kept_ratio",
    "cubature.rows",
    "cubature.max_points_per_cell",
    "covariates.idw_pairs",
    "covariates.cells_used_ratio",
    "glm.calls",
    "glm.iterations",
    "glm.design_bytes",
    "io.bytes_written",
    "cli.predict_rows",
)

LAYERS = ("patterns", "simulate", "cubature", "covariates", "model", "glm", "io", "cli")


class Tracer:
    """In-memory span log plus the per-op counters gathered at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict = {}
        self.cells_read: list = []  # (grid, x, y, t) per ExternalCovariate lookup
        self.sim_candidates = 0

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.cells_read = []
        self.sim_candidates = 0

    def parent_name(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def call(self, name: str, fn, args=(), kwargs=None):
        kwargs = kwargs or {}
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def self_times(self, op_id: int) -> dict[str, float]:
        """Summed self seconds per span name for one op."""
        first = next(i for i, s in enumerate(self.spans) if s[4] == op_id)
        spans = [s for s in self.spans[first:] if s[4] == op_id]
        covered = [0.0] * len(spans)
        for s in spans:
            if s[3] >= first:
                covered[s[3] - first] += s[2] - s[1]
        out: dict[str, float] = {}
        for s, c in zip(spans, covered):
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - c
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


class Patches:
    """The set of attribute swaps that turns tracing on; ``remove`` restores them."""

    def __init__(self, tracer: Tracer):
        import stppfit.cli as cli
        import stppfit.covariates as covariates
        import stppfit.cubature as cubature
        import stppfit.model as model
        from stppfit.patterns import PointPattern

        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self._plan = []
        span = self._plan_span
        raw = PointPattern.__dict__["from_arrays"]
        self._plan.append(
            (PointPattern, "from_arrays", classmethod(self._wrap("patterns.from_arrays", raw.__func__, _count_points)))
        )
        span(cubature, "find_duplicate_points", "patterns.find_duplicate_points")
        span(cubature, "ground_pattern", "patterns.ground_pattern", _count_points)
        span(cli, "simulate_inhomogeneous", "simulate.simulate_inhomogeneous", _count_kept, _count_candidates)
        for mod in (model, cubature, cli):
            span(mod, "build_scheme", "cubature.build_scheme", _count_scheme)
        span(model, "build_replicated_scheme", "cubature.build_replicated_scheme", _count_scheme)
        for mod in (model, cli):
            span(mod, "approximate_integral", "cubature.approximate_integral")
        for mod in (covariates, cli):
            span(mod, "smooth_to_grid", "covariates.smooth_to_grid", _count_idw)
        span(model, "build_design", "model.build_design")
        for mod in (model, cli):
            span(mod, "fit_stpp", "model.fit_stpp")
            span(mod, "fit_multitype", "model.fit_multitype")
        span(model.FittedModel, "intensity_values", "model.intensity_values")
        span(model, "fit_irls", "glm.fit_irls", _count_irls)
        for attr in ("read_pattern_csv", "load_model"):
            span(cli, attr, f"io.{attr}")
        for attr in ("write_pattern_csv", "save_model", "write_json"):
            span(cli, attr, f"io.{attr}", _count_bytes)
        evaluate = covariates.ExternalCovariate.__dict__["evaluate"]

        def traced_evaluate(term, x, y, t):
            tracer.cells_read.append((term.grid, x, y, t))
            return evaluate(term, x, y, t)

        self._plan.append((covariates.ExternalCovariate, "evaluate", traced_evaluate))

    def _wrap(self, name, fn, after=None, before=None):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            nested = tracer.parent_name().split(".")[0] == name.split(".")[0]
            result = tracer.call(name, fn, args, kwargs)
            if after is not None and not nested:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _plan_span(self, owner, attr, name, after=None, before=None):
        self._plan.append((owner, attr, self._wrap(name, owner.__dict__[attr], after, before)))

    def install(self) -> None:
        for owner, attr, new in self._plan:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def remove(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


# --- counters, run at the span boundary after the wrapped call returns ---


def _count_points(tracer, args, kwargs, pattern):
    tracer.counts["patterns.points"] += pattern.n


def _count_candidates(tracer, args, kwargs):
    # the second intensity evaluation sees exactly the thinning candidates
    window, intensity, cfg = args
    calls = []

    def counted(x, y, t):
        calls.append(len(x))
        if len(calls) == 2:
            tracer.sim_candidates = len(x)
        return intensity(x, y, t)

    return (window, counted, cfg), kwargs


def _count_kept(tracer, args, kwargs, pattern):
    tracer.counts["simulate.kept_ratio"] = pattern.n / tracer.sim_candidates


def _count_scheme(tracer, args, kwargs, scheme):
    replicated = hasattr(scheme, "weights_by_level")
    levels = scheme.n_levels if replicated else 1
    weights = scheme.weights_by_level[0] if replicated else scheme.weights
    cell_volume = scheme.resolution.cell_volume(scheme.window)
    tracer.counts["cubature.rows"] += levels * scheme.size
    most = int(round(cell_volume / float(weights.min())))
    tracer.counts["cubature.max_points_per_cell"] = max(tracer.counts["cubature.max_points_per_cell"], most)


def _count_idw(tracer, args, kwargs, grid):
    samples = args[0]
    tracer.counts["covariates.idw_pairs"] += grid.resolution.n_cells * len(samples)


def _count_irls(tracer, args, kwargs, result):
    design = args[0]
    tracer.counts["glm.calls"] += 1
    tracer.counts["glm.iterations"] += result.iterations
    tracer.counts["glm.design_bytes"] += design.n_rows * design.n_cols * 8


def _count_bytes(tracer, args, kwargs, result):
    # write_json(path, obj); write_pattern_csv(pattern, path); save_model(model, path)
    path = args[0] if isinstance(args[0], (str, Path)) else args[1]
    tracer.counts["io.bytes_written"] += Path(path).stat().st_size


def finish_cell_counts(tracer: Tracer) -> None:
    """Distinct fine covariate cells read in the op, over all fine cells (outside timing)."""
    if not tracer.cells_read:
        return
    import numpy as np
    from stppfit.cubature import cell_indices

    grid = tracer.cells_read[0][0]
    ids = np.unique(np.concatenate([cell_indices(g.window, g.resolution, x, y, t) for g, x, y, t in tracer.cells_read]))
    tracer.counts["covariates.cells_used_ratio"] = ids.size / grid.resolution.n_cells
