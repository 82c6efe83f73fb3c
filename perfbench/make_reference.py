#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the library in ``src/``.

    python3 perfbench/make_reference.py

For every pool input of every workload, at full and smoke size, this runs
the op twice with tracing on and stores the coefficients, standard errors,
checked scalars and exact counts of the first run. It stops with an error
if the two runs disagree on any count or output, or if reading an output
finds a problem (a predict-grid row that disagrees with the saved model).
It prints (without storing anything different) every truth check that
fails. Run it only when the library's numerical output is meant to change,
and say so in the change that commits it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def reference_for(name: str, smoke: bool, workdir: Path) -> dict:
    wl = workloads.create(name, smoke, workdir)
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer)
    entries = {}
    for index in range(workloads.POOL_SIZE):
        inp = wl.make_input(index)
        runs = []
        for repeat in range(2):
            _, result, error = run.run_op(wl, inp, tracer, patches, op_id=2 * index + repeat)
            if error is not None:
                raise SystemExit(f"{name} input {index}: {error}")
            outputs = wl.outputs(inp, result)
            runs.append((outputs, run.op_counts(wl, inp, result, tracer)))
        (first, counts), (second, counts2) = runs
        if counts != counts2 or first.fits != second.fits or first.values != second.values or first.files != second.files:
            raise SystemExit(f"{name} input {index}: two runs of the same input disagree")
        if first.problems:
            raise SystemExit(f"{name} input {index}: {first.problems}")
        entry = {"fits": first.fits, "values": first.values, "counts": counts}
        for failure in workloads.check(first, entry, wl.truth(inp)):
            print(f"warning: {name} input {index}: {failure}", file=sys.stderr)
        entries[str(index)] = entry
        print(f"{name} input {index}: {counts}", file=sys.stderr)
    return entries


def main() -> int:
    workdir = run.OUT / "work-reference"
    try:
        reference = {
            mode: {name: reference_for(name, mode == "smoke", workdir) for name in workloads.WORKLOADS}
            for mode in ("full", "smoke")
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
