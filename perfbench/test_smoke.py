"""Smoke test of the benchmark: the same code paths at small sizes, in seconds.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that every op passes its checks, and that the checker registers a failure
when one reference coefficient is perturbed or a predict-grid file holds
fewer digits than the model's intensities.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    record = json.loads((run.OUT / f"{workload}-seed3-trace{trace}-smoke.json").read_text(encoding="utf-8"))
    assert record["selfcheck_flagged"] is True
    assert record["environment"]["cubature_warnings"] == 0


def test_units_in_code_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


def test_perturbed_reference_coefficient_is_a_failure():
    wl = workloads.UnmarkedLarge(smoke=True)
    inp = wl.make_input(0)
    outputs = wl.outputs(inp, wl.op(inp))
    ref = run.load_reference("smoke", wl.name)["0"]
    assert workloads.check(outputs, ref, wl.truth(inp)) == []
    assert workloads.check(outputs, workloads.perturbed(ref), {})


def test_low_precision_predictions_are_a_failure():
    workdir = run.OUT / "work-test-predictions"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        wl = workloads.CliRoundtrip(smoke=True, workdir=workdir)
        inp = wl.make_input(0)
        result = wl.op(inp)
        ref = run.load_reference("smoke", wl.name)["0"]
        assert workloads.check(wl.outputs(inp, result), ref, wl.truth(inp)) == []
        pred = inp["dir"] / "pred.csv"
        header, *rows = pred.read_text(encoding="utf-8").splitlines()
        rounded = [",".join(r.split(",")[:3] + [format(float(r.split(",")[3]), ".9g")]) for r in rows]
        pred.write_text("\n".join([header, *rounded]) + "\n", encoding="utf-8")
        failures = workloads.check(wl.outputs(inp, result), ref, wl.truth(inp))
        assert any("pred.csv" in f and "differ from the model" in f for f in failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_tail_keeps_samples_beyond_it():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([float(i) for i in range(8)]) == (5.0, 75.0, 2)


def test_fails_without_the_library_source():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", "unmarked_large", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
