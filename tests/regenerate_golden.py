"""Regenerate the golden CLI fixtures ``tests/fixtures/golden_<name>`` after an
intended change in the last bits of the fits.

Runs ``golden_outputs()`` from ``test_cli.py`` in a temporary directory and,
for each fixture whose bytes differ, prints its largest change: for a model
JSON, coefficients, standard errors and covariances in standard-error units
(a covariance entry divided by the product of its two standard errors) and
every other number relative to its old value; for a CSV, every number
relative to its old value. It refuses to write when any change exceeds
``MAX_SE_CHANGE`` or ``MAX_RELATIVE_CHANGE``, or when a file differs in
anything but the value of a floating-point number (an iteration count, a
label, a row); otherwise it rewrites only the changed files. Run from the
repository root:

    python tests/regenerate_golden.py [--dry-run]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from test_cli import FIXTURES, golden_outputs  # noqa: E402

MAX_SE_CHANGE = 1e-9
MAX_RELATIVE_CHANGE = 1e-12


def _leaves(node, path=()):
    """(path, value) for every scalar in a parsed JSON document, in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


def _ratio(change: float, scale: float) -> float:
    return change / abs(scale) if scale else math.inf


def json_change(old: bytes, new: bytes) -> tuple[float, float]:
    """Largest change in standard-error units and largest relative change."""
    old_doc = json.loads(old)
    a, b = list(_leaves(old_doc)), list(_leaves(json.loads(new)))
    if [path for path, _ in a] != [path for path, _ in b]:
        return math.inf, math.inf
    se = [c["std_error"] for c in old_doc.get("coefficients", [])]
    in_se = relative = 0.0
    for (path, x), (_, y) in zip(a, b):
        if x == y:
            continue
        if not (isinstance(x, float) and isinstance(y, float)):
            return math.inf, math.inf
        change = abs(y - x)
        if path[0] == "coefficients":
            in_se = max(in_se, _ratio(change, se[path[1]]))
        elif path[0] == "covariance":
            in_se = max(in_se, _ratio(change, se[path[1]] * se[path[2]]))
        else:
            relative = max(relative, _ratio(change, x))
    return in_se, relative


def csv_change(old: bytes, new: bytes) -> float:
    """Largest relative change of a number cell; inf if anything else differs."""
    a = [row.split(",") for row in old.decode().splitlines()]
    b = [row.split(",") for row in new.decode().splitlines()]
    if [len(row) for row in a] != [len(row) for row in b]:
        return math.inf
    relative = 0.0
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                return math.inf
            relative = max(relative, _ratio(abs(fy - fx), fx))
    return relative


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dry-run", action="store_true", help="report the changes, write nothing")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        outputs = golden_outputs(Path(tmp))
    changed, too_large = {}, False
    for name, data in outputs.items():
        path = FIXTURES / f"golden_{name}"
        old = path.read_bytes() if path.is_file() else None
        if old == data:
            continue
        if old is None:
            in_se = relative = math.inf
        elif name.endswith(".json"):
            in_se, relative = json_change(old, data)
        else:
            in_se, relative = None, csv_change(old, data)
        too_large |= (in_se or 0.0) > MAX_SE_CHANGE or relative > MAX_RELATIVE_CHANGE
        in_se_text = "" if in_se is None else f"{in_se:.2g} SE, "
        print(f"{path.name}: largest change {in_se_text}{relative:.2g} relative")
        changed[path] = data

    if not changed:
        print(f"all {len(outputs)} golden fixtures match")
        return 0
    if too_large:
        print(f"refusing to write: a change exceeds {MAX_SE_CHANGE:g} SE or {MAX_RELATIVE_CHANGE:g} relative",
              file=sys.stderr)
        return 1
    if not args.dry_run:
        for path, data in changed.items():
            path.write_bytes(data)
        print(f"rewrote {len(changed)} of {len(outputs)} golden fixtures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
