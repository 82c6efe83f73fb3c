"""The four workloads: seeded inputs, the timed op, and the op's checkable outputs.

Each workload draws its inputs from a fixed pool of ``POOL_SIZE`` inputs,
numbered 0 .. POOL_SIZE-1 and each simulated from its own seed. The run's
``--seed`` picks ``INPUTS_PER_RUN`` of them and their order, so the same
seed gives the same inputs, different seeds give different ones, and every
input has coefficients stored in ``reference.json``. README.md says why
each workload was chosen and which layer it stresses.

Ops reach the library only through module attributes looked up at call
time (``model.fit_stpp``, ``cli.main`` ...), so the traced run's attribute
swaps see every layer crossing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stppfit.cli as cli
import stppfit.covariates as covariates
import stppfit.cubature as cubature
import stppfit.formula as formula
import stppfit.io as sio
import stppfit.model as model
import stppfit.patterns as patterns
import stppfit.simulate as simulate

POOL_SIZE = 8
INPUTS_PER_RUN = 3


def pick_inputs(workload: str, seed: int) -> list[int]:
    """Pool indices for one run: a seeded sample, in a seeded order."""
    return random.Random(f"{workload}:{seed}").sample(range(POOL_SIZE), INPUTS_PER_RUN)


def _sim_seed(workload: str, pool_index: int, part: int = 0) -> int:
    base = {"unmarked_large": 11, "multitype_m12": 12, "covariate_idw": 13, "cli_roundtrip": 14}[workload]
    return base * 1_000_000 + pool_index * 1000 + part


def _simulate_arrays(window, expr, lam_max, seed):
    pattern = simulate.simulate_inhomogeneous(window, expr.intensity, simulate.SimConfig(seed, lam_max))
    return pattern.coords()


def _fit_summary(fitted) -> dict:
    return {
        "names": list(fitted.column_names),
        "coef": [float(v) for v in fitted.coefficients],
        "se": [float(v) for v in fitted.fit.std_errors()],
        "converged": bool(fitted.fit.converged),
    }


@dataclass
class Outputs:
    """What the checks read from one op, gathered outside the timed region."""

    fits: dict  # fit name -> {"names", "coef", "se", "converged"}
    values: dict  # named scalars compared with the reference
    files: dict  # output file name -> sha256 (cli_roundtrip only)
    predict_rows: int = 0
    problems: list = field(default_factory=list)  # failures found while reading the outputs


class UnmarkedLarge:
    """``PointPattern.from_arrays`` plus ``fit_stpp`` of ``1,x,t,x*y`` on a calendar-unit window."""

    name = "unmarked_large"

    def __init__(self, smoke: bool):
        self.window = patterns.Window((0.0, 1000.0), (0.0, 1000.0), (2000.0, 2020.0))
        # smoke: the same window and slopes at about 1/40 of the points
        intercept = 90.65 if smoke else 94.4
        self.truth_expr = formula.parse_log_linear(f"{intercept} + 0.0008*x - 0.05*t + 6e-7*x*y")
        self.lam_max = math.exp(intercept + 0.8 - 100.0 + 0.6)
        self.terms = formula.parse_term_list("1,x,t,x*y")
        self.res = cubature.GridResolution(*(3 * (16 if smoke else 48,)))

    def make_input(self, pool_index: int):
        return _simulate_arrays(self.window, self.truth_expr, self.lam_max, _sim_seed(self.name, pool_index))

    def truth(self, inp) -> dict:
        return {"fit": self.truth_expr.coefficients()}

    def op(self, coords):
        pattern = patterns.PointPattern.from_arrays(self.window, coords[:, 0], coords[:, 1], coords[:, 2])
        return model.fit_stpp(pattern, model.ModelSpec(self.terms), self.res)

    def outputs(self, inp, result) -> Outputs:
        return Outputs({"fit": _fit_summary(result)}, {}, {})


class MultitypeM12:
    """``fit_multitype`` with ``interact_all`` of ``1,x,t,x*t`` over 12 mark levels."""

    name = "multitype_m12"

    def __init__(self, smoke: bool):
        self.window = patterns.Window.unit_cube()
        self.n_levels = 3 if smoke else 12
        per_level = 100 if smoke else 250
        self.exprs = []
        for m in range(1, self.n_levels + 1):
            b, c, d = 0.6 * math.cos(m), 0.6 * math.sin(m), 0.4 * math.cos(2 * m)
            a = math.log(per_level) - 0.5 * (b + c) - 0.25 * d
            self.exprs.append(formula.parse_log_linear(f"{a!r} + {b!r}*x + {c!r}*t + {d!r}*x*t"))
        self.spec = model.ModelSpec(
            formula.parse_term_list("1,x,t,x*t"), multitype_mode=model.MarkFixedEffects(interact_all=True)
        )
        self.res = cubature.GridResolution(*(3 * (10 if smoke else 24,)))

    def _lam_max(self, expr) -> float:
        (a, b, c, d) = expr.coefficients()
        return math.exp(a + abs(b) + abs(c) + abs(d))

    def make_input(self, pool_index: int):
        labeled = []
        for m, expr in enumerate(self.exprs, start=1):
            coords = _simulate_arrays(self.window, expr, self._lam_max(expr), _sim_seed(self.name, pool_index, m))
            labeled.extend((patterns.SpaceTimePoint(*row), f"L{m:02d}") for row in coords)
        return patterns.MarkedPointPattern.from_labeled(self.window, labeled)

    def truth(self, inp) -> dict:
        return {"fit": np.concatenate([e.coefficients() for e in self.exprs])}

    def op(self, pattern):
        return model.fit_multitype(pattern, self.spec, self.res)

    def outputs(self, inp, result) -> Outputs:
        return Outputs({"fit": _fit_summary(result)}, {}, {})


class CovariateIdw:
    """``smooth_to_grid`` of scattered samples, a fit of ``1,x,z``, then a prediction."""

    name = "covariate_idw"

    def __init__(self, smoke: bool):
        self.window = patterns.Window.unit_cube()
        self.n_samples = 20 if smoke else 200
        self.fine = cubature.GridResolution(*(3 * (16 if smoke else 64,)))
        self.res = cubature.GridResolution(*(3 * (10 if smoke else 20,)))
        self.intercept = 4.94 if smoke else 6.97
        centers = cubature.cell_centers(self.window, cubature.GridResolution(*(3 * (8 if smoke else 32,))))
        self.pred = (centers[:, 0].copy(), centers[:, 1].copy(), centers[:, 2].copy())

    @staticmethod
    def field(x, y, t):
        return np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + t

    def make_input(self, pool_index: int):
        rng = np.random.Generator(np.random.Philox(key=_sim_seed(self.name, pool_index, 999)))
        sites = rng.random((self.n_samples, 3))
        values = self.field(sites[:, 0], sites[:, 1], sites[:, 2]) + 0.05 * rng.standard_normal(self.n_samples)
        samples = [
            covariates.CovariateSample(patterns.SpaceTimePoint(*row), float(v)) for row, v in zip(sites, values)
        ]
        a = self.intercept

        def intensity(x, y, t):
            return np.exp(a + 0.5 * x + 0.8 * self.field(x, y, t))

        lam_max = math.exp(a + 0.5 + 0.8 * 2.0)
        pattern = simulate.simulate_inhomogeneous(
            self.window, intensity, simulate.SimConfig(_sim_seed(self.name, pool_index), lam_max)
        )
        return samples, pattern

    def truth(self, inp) -> dict:
        # the fit sees the IDW-smoothed field, not the field the pattern was drawn from
        return {}

    def op(self, inp):
        samples, pattern = inp
        grid = covariates.smooth_to_grid(samples, self.window, self.fine)
        terms = formula.parse_term_list("1,x,z", {"z": covariates.ExternalCovariate(grid, "z")})
        fitted = model.fit_stpp(pattern, model.ModelSpec(terms), self.res)
        return fitted, fitted.intensity_values(*self.pred)

    def outputs(self, inp, result) -> Outputs:
        fitted, pred = result
        return Outputs({"fit": _fit_summary(fitted)}, {"prediction_sum": float(pred.sum())}, {})


class CliRoundtrip:
    """Five in-process ``stppfit.cli.main`` calls: simulate, fit, predict, marked fit, marginal predict."""

    name = "cli_roundtrip"
    WINDOW = "0,1,0,1,0,1"
    LEVEL_OFFSETS = (0.0, 0.1, -0.1, 0.2)

    def __init__(self, smoke: bool, workdir: Path):
        self.workdir = workdir
        self.intercept = 6.936 if smoke else 9.644
        self.sim_expr = f"{self.intercept} + 0.5*x - 0.4*t"
        self.lam_max = math.exp(self.intercept + 0.5)
        # marked input: four levels sharing slopes, about 1/15 of the simulated count
        self.marked_base = self.intercept - math.log(15.0)
        self.grids = (16, 10, 10) if smoke else (32, 40, 24)
        # output digests -> (values, problems): parsing both predict files takes about
        # 0.2 s, and later ops of a run write the same bytes for the same input
        self._read = {}

    def make_input(self, pool_index: int):
        window = patterns.Window.unit_cube()
        labeled = []
        for m, offset in enumerate(self.LEVEL_OFFSETS, start=1):
            expr = formula.parse_log_linear(f"{self.marked_base + offset!r} + 0.5*x - 0.4*t")
            lam_max = math.exp(self.marked_base + offset + 0.5)
            coords = _simulate_arrays(window, expr, lam_max, _sim_seed(self.name, pool_index, m))
            labeled.extend((patterns.SpaceTimePoint(*row), "abcd"[m - 1]) for row in coords)
        folder = self.workdir / f"input{pool_index}"
        folder.mkdir(parents=True, exist_ok=True)
        sio.write_pattern_csv(patterns.MarkedPointPattern.from_labeled(window, labeled), folder / "marked.csv")
        return {"dir": folder, "sim_seed": _sim_seed(self.name, pool_index)}

    def truth(self, inp) -> dict:
        slopes = [0.5, -0.4]
        offsets = [o - self.LEVEL_OFFSETS[0] for o in self.LEVEL_OFFSETS[1:]]
        return {
            "fit": np.array([self.intercept] + slopes),
            "marked_fit": np.array([self.marked_base + self.LEVEL_OFFSETS[0]] + slopes + offsets),
        }

    def argvs(self, inp) -> list[list[str]]:
        d = inp["dir"]
        grid_fit, grid_pred, grid_marked = self.grids
        return [
            ["simulate", "--window", self.WINDOW, "--log-intensity", self.sim_expr,
             "--lambda-max", repr(self.lam_max), "--seed", str(inp["sim_seed"]), "--out", str(d / "sim.csv")],
            ["fit", "--pattern", str(d / "sim.csv"), "--window", self.WINDOW, "--terms", "1,x,t",
             "--grid", str(grid_fit), "--out", str(d / "fit.json")],
            ["predict-grid", "--model", str(d / "fit.json"), "--grid", str(grid_pred), "--out", str(d / "pred.csv")],
            ["fit", "--pattern", str(d / "marked.csv"), "--window", self.WINDOW, "--marked", "--terms", "1,x,t",
             "--shared-terms", "--ridge-marks", "1.0", "--grid", str(grid_marked), "--out", str(d / "marked_fit.json")],
            ["predict-grid", "--model", str(d / "marked_fit.json"), "--marginal", "--grid", str(grid_pred),
             "--out", str(d / "marked_pred.csv")],
        ]

    def op(self, inp, span=None):
        """Run the five commands; ``span`` (traced run) wraps each in a ``cli.<command>`` span."""
        codes = []
        captured = stdio.StringIO()
        with contextlib.redirect_stdout(captured):
            for argv in self.argvs(inp):
                if span is None:
                    codes.append(cli.main(argv))
                else:
                    codes.append(span(f"cli.{argv[0]}", cli.main, (argv,)))
        return codes, captured.getvalue()

    def outputs(self, inp, result) -> Outputs:
        codes, stdout = result
        if codes != [0] * 5:
            raise RuntimeError(f"cli exit codes {codes}")
        d = inp["dir"]
        fits = {}
        for name in ("fit", "marked_fit"):
            doc = json.loads((d / f"{name}.json").read_text(encoding="utf-8"))
            fits[name] = {
                "names": [c["name"] for c in doc["coefficients"]],
                "coef": [c["estimate"] for c in doc["coefficients"]],
                "se": [c["std_error"] for c in doc["coefficients"]],
                "converged": bool(doc["fit"]["converged"]),
            }
        files = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir())
            if p.name != "marked.csv"
        }
        key = tuple(sorted(files.items()))
        if key not in self._read:
            values, problems = {}, []
            for pred, fit, marginal in (("pred.csv", "fit.json", False), ("marked_pred.csv", "marked_fit.json", True)):
                values[f"{pred}:intensity_sum"] = self._read_prediction(d / pred, d / fit, marginal, problems)
            self._read[key] = (values, problems)
        values, problems = self._read[key]
        rows = sum(int(n) for n in re.findall(r"wrote (\d+) intensity rows", stdout))
        return Outputs(fits, dict(values), files, rows, list(problems))

    def _read_prediction(self, path: Path, model_path: Path, marginal: bool, problems: list) -> float:
        """Sum of a predict-grid file's intensity column; appends rows that disagree with the model.

        Every row must hold a cell centre of the prediction grid, in order, and
        the saved model's intensity there to a relative 1e-12. Fewer digits or
        wrong rows fail even when they are written the same way every time;
        the sum is compared with the reference.
        """
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        fitted = sio.load_model(model_path)
        centers = cubature.cell_centers(fitted.window, cubature.GridResolution(*(3 * (self.grids[1],))))
        if rows.shape != (len(centers), 4):
            problems.append(f"{path.name}: {rows.shape[0]} rows of {rows.shape[1]} columns, expected {len(centers)} of 4")
            return float("nan")
        x, y, t = centers[:, 0], centers[:, 1], centers[:, 2]
        want = fitted.marginal_values(x, y, t) if marginal else fitted.intensity_values(x, y, t)
        bad_xyt = np.flatnonzero(np.any(np.abs(rows[:, :3] - centers) > 1e-12, axis=1))
        bad_value = np.flatnonzero(np.abs(rows[:, 3] - want) > 1e-12 * np.abs(want))
        if bad_xyt.size:
            problems.append(f"{path.name}: {bad_xyt.size} rows off the grid, first at row {bad_xyt[0] + 1}")
        if bad_value.size:
            j = bad_value[0]
            problems.append(f"{path.name}: {bad_value.size} intensities differ from the model, row {j + 1}: "
                            f"{float(rows[j, 3])!r} != {float(want[j])!r}")
        return float(rows[:, 3].sum())


WORKLOADS = {
    "unmarked_large": UnmarkedLarge,
    "multitype_m12": MultitypeM12,
    "covariate_idw": CovariateIdw,
    "cli_roundtrip": CliRoundtrip,
}


def create(name: str, smoke: bool, workdir: Path):
    """The named workload; ``workdir`` holds the CLI workload's files."""
    cls = WORKLOADS[name]
    return cls(smoke, workdir) if cls is CliRoundtrip else cls(smoke)


def check(outputs: Outputs, ref: dict, truth: dict) -> list[str]:
    """Failures of one op's outputs against the stored reference and the known truth.

    Coefficients must match the reference to 1e-6 of the reference standard
    error (reordered arithmetic passes, a wrong answer does not) and lie
    within 4 standard errors of the truth where the truth is known. Named
    scalars must match the reference to a relative 1e-8, and problems found
    while reading the outputs are failures too.
    """
    failures = []
    for name, fit in outputs.fits.items():
        coef, se = np.asarray(fit["coef"]), np.asarray(fit["se"])
        want = ref["fits"][name]
        if not fit["converged"]:
            failures.append(f"{name}: did not converge")
        if fit["names"] != want["names"]:
            failures.append(f"{name}: columns {fit['names']} != reference {want['names']}")
            continue
        dev = np.abs(coef - np.asarray(want["coef"])) / np.asarray(want["se"])
        if not np.all(dev <= 1e-6):
            j = int(np.argmax(dev))
            failures.append(f"{name}: {fit['names'][j]} is {dev[j]:.3g} reference SE from the reference")
        if name in truth:
            z = np.abs(coef - truth[name]) / se
            if not np.all(z <= 4.0):
                j = int(np.argmax(z))
                failures.append(f"{name}: {fit['names'][j]} is {z[j]:.3g} SE from the truth")
    for name in sorted(set(outputs.values) | set(ref["values"])):
        value, want = outputs.values.get(name), ref["values"].get(name)
        if value is None or want is None or not abs(value - want) <= 1e-8 * abs(want):
            failures.append(f"{name}: {value!r} != reference {want!r}")
    return failures + outputs.problems


def perturbed(ref: dict) -> dict:
    """A copy of a reference with its first coefficient moved by 1e-4 of its SE."""
    out = json.loads(json.dumps(ref))
    fit = next(iter(out["fits"].values()))
    fit["coef"][0] += 1e-4 * fit["se"][0]
    return out
