"""The public surface: exported names, the SpaceTimePoint-based edges and README's code."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import stppfit
from stppfit import MarkedPointPattern, PointPattern, SpaceTimePoint, Window


README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_API = [
    "SpaceTimePoint",
    "Window",
    "PointPattern",
    "MarkedPointPattern",
    "split_by_mark",
    "ground_pattern",
    "find_duplicate_points",
    "GridResolution",
    "DEFAULT_RESOLUTION",
    "CubatureScheme",
    "ReplicatedCubatureScheme",
    "CubatureWarning",
    "build_scheme",
    "build_replicated_scheme",
    "responses",
    "replicated_responses",
    "approximate_integral",
    "CovariateSample",
    "IdwConfig",
    "CovariateGrid",
    "CovariateFunction",
    "Intercept",
    "CoordinateMonomial",
    "ExternalCovariate",
    "idw_interpolate",
    "smooth_to_grid",
    "DesignMatrix",
    "IrlsConfig",
    "FitResult",
    "FitError",
    "RankDeficiencyError",
    "PredictorOverflowError",
    "weighted_poisson_loglik",
    "score_and_fisher",
    "fit_irls",
    "ModelSpec",
    "MarkFixedEffects",
    "FittedModel",
    "build_design",
    "fit_stpp",
    "fit_multitype",
    "SimConfig",
    "GENERATOR_ID",
    "simulate_homogeneous",
    "simulate_inhomogeneous",
    "LogLinearExpression",
    "parse_log_linear",
    "parse_term_list",
    "__version__",
]


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_every_exported_name_resolves():
    assert [name for name in stppfit.__all__ if not hasattr(stppfit, name)] == []


def test_package_exports_exactly_the_public_api():
    assert stppfit.__all__ == PUBLIC_API


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(stppfit.__path__) if m.name != "__main__")
)
def test_every_module_all_name_exists(module):
    mod = importlib.import_module(f"stppfit.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_point_edges_return_space_time_points():
    pat = PointPattern.from_arrays(Window.unit_cube(), [0.9], [0.8], [0.7])
    assert pat.points == (SpaceTimePoint(0.9, 0.8, 0.7),)
    assert all(type(p) is SpaceTimePoint for p in pat.points)


def test_marked_points_pair_locations_with_levels():
    pat = MarkedPointPattern.from_labeled(
        Window.unit_cube(), [(SpaceTimePoint(0.1, 0.2, 0.3), "b"), (SpaceTimePoint(0.4, 0.5, 0.6), "a")]
    )
    assert pat.levels == ("a", "b")
    assert pat.points == ((SpaceTimePoint(0.1, 0.2, 0.3), "b"), (SpaceTimePoint(0.4, 0.5, 0.6), "a"))
    assert all(type(p) is SpaceTimePoint for p, _ in pat.points)
