#!/usr/bin/env python3
"""Seeded, single-process, closed-loop benchmark of stppfit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root; the library is imported from ``src/``. One
caller runs ops back to back for ``--seconds`` seconds, each op starting
after the previous one returned. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and span-traced ops and prints
the per-layer metrics. ``--smoke`` runs the same code paths at small sizes.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it and
``perfbench/out/<workload>-seed<N>-trace<T>.json`` hold the environment,
the tail percentile, the exact counts and every failure. README.md in this
directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 3
WARMUP_SECONDS = 5.0
TAIL_BEYOND = 10

END_TO_END_UNITS = {"op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# the layer group that should dominate each workload's traced self time
EXPECTED_TOP = {
    "unmarked_large": ("patterns", "cubature"),
    "multitype_m12": ("glm",),
    "covariate_idw": ("covariates",),
    "cli_roundtrip": ("cli", "io"),
}

# one set-up in a fresh interpreter: prints the import and input-making seconds
_SETUP_PROBE = (
    "import sys, time; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import stppfit; import_s = time.perf_counter() - t; import workloads; "
    "wl = workloads.create(sys.argv[3], sys.argv[4] == 'smoke', Path(sys.argv[5])); t = time.perf_counter(); "
    "[wl.make_input(int(i)) for i in sys.argv[6].split(',')]; print(import_s, time.perf_counter() - t)"
)


def per_layer_units() -> dict[str, str]:
    import tracing

    units = {name: "s" for name in tracing.SELF_TIME_METRICS.values()}
    units.update({name: "count" for name in tracing.COUNT_METRICS})
    units.update(
        {
            "simulate.kept_ratio": "ratio",
            "covariates.cells_used_ratio": "ratio",
            "glm.design_bytes": "B",
            "io.bytes_written": "B",
            "glm.s_per_iteration": "s",
            "fail_ratio": "ratio",
            "trace.op_s": "s",
            "trace.self_sum_ratio": "ratio",
            "trace.overhead_ratio": "ratio",
            "trace.peak_alloc_mb": "MB",
            "trace.top_share": "ratio",
            "trace.top_layer_match": "count",
            "setup.import_s": "s",
            "setup.inputs_s": "s",
            "setup.warmup_s": "s",
        }
    )
    return units


def tail(times: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND samples above it.

    Runs of seconds-long ops hold too few samples for ten beyond a tail
    that stays above the median, so below 4 * TAIL_BEYOND samples a
    quarter of them are kept beyond it. Returns (value, percentile, beyond).
    """
    ordered = sorted(times)
    beyond = min(TAIL_BEYOND, len(ordered) // 4)
    k = len(ordered) - 1 - beyond
    return ordered[k], 100.0 * (k + 1) / len(ordered), beyond


def _blas() -> dict:
    import ctypes

    import numpy

    info = {"library": "unknown", "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(workload: str, seed: int, pool: list[int]) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "workload": workload,
        "workload_seed": seed,
        "pool_inputs": pool,
    }


def run_op(wl, inp, tracer=None, patches=None, op_id=0):
    """One op: returns (seconds, result, error text or None). Traced when ``tracer`` is given."""
    op = wl.op
    if tracer is not None:
        tracer.begin_op(op_id)
        patches.install()
        if wl.name == "cli_roundtrip":
            op = lambda x: wl.op(x, span=tracer.call)  # noqa: E731
    start = time.perf_counter()
    try:
        result = op(inp) if tracer is None else tracer.call("op", op, (inp,))
        error = None
    except Exception as exc:  # an op that raises is a counted failure, not a crash
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if patches is not None:
        patches.remove()
    return seconds, result, error


def op_counts(wl, inp, result, tracer) -> dict:
    """Per-op exact counts of a traced op (finished outside the timed region)."""
    import tracing

    tracing.finish_cell_counts(tracer)
    counts = dict(tracer.counts)
    if wl.name == "cli_roundtrip":
        counts["cli.predict_rows"] = wl.outputs(inp, result).predict_rows
    return counts


def load_reference(mode: str, workload: str) -> dict:
    path = BENCH / "reference.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(mode, {}).get(workload, {})


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="small inputs, same code paths")
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "stppfit" / "__init__.py").is_file():
        print(f"error: no stppfit source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import stppfit

    import_s = time.perf_counter() - start
    if Path(stppfit.__file__).resolve().parent != (SRC / "stppfit").resolve():
        print(f"error: imported stppfit from {stppfit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    args = parse_args(argv)
    mode = "smoke" if args.smoke else "full"
    name = args.workload

    cubature_warnings = [0]
    show = warnings.showwarning

    def count_warning(message, category, *rest, **kw):
        if issubclass(category, stppfit.CubatureWarning):
            cubature_warnings[0] += 1
        else:
            show(message, category, *rest, **kw)

    warnings.showwarning = count_warning
    warnings.simplefilter("always", stppfit.CubatureWarning)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, mode, name, workdir, import_s, cubature_warnings)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, mode, name, workdir, import_s, cubature_warnings) -> int:
    import tracing
    import workloads

    wl = workloads.create(name, args.smoke, workdir)
    pool = workloads.pick_inputs(name, args.seed)
    reference = load_reference(mode, name)
    problems: list[str] = []

    # set-up: import plus inputs, once in this process and again in fresh interpreters,
    # so that every repetition is a cold set-up before any op
    start = time.perf_counter()
    inputs = [wl.make_input(i) for i in pool]
    reps = [(import_s, time.perf_counter() - start)]
    for r in range(1, SETUP_REPS):
        argv = [str(SRC), str(BENCH), name, mode, str(workdir / f"setup{r}"), ",".join(map(str, pool))]
        probe = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, *argv], capture_output=True, text=True, timeout=120, check=True
        )
        reps.append(tuple(float(v) for v in probe.stdout.split()))
    setup_s = statistics.median(a + b for a, b in reps)

    first_files: dict[int, dict] = {}

    def failures_of(slot, result, error):
        if error is not None:
            return [error]
        ref = reference.get(str(pool[slot]))
        if ref is None:
            return [f"no reference stored for input {pool[slot]}"]
        try:
            outputs = wl.outputs(inputs[slot], result)
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            return [f"{type(exc).__name__}: {exc}"]
        failures = workloads.check(outputs, ref, wl.truth(inputs[slot]))
        if first_files.get(slot) is None:
            first_files[slot] = outputs.files
        for fname, digest in outputs.files.items():
            if first_files[slot].get(fname) != digest:
                failures.append(f"{fname} differs from the earlier op on input {pool[slot]}")
        return failures

    # untimed warm-up: the first seconds of a process run ops measurably slower
    last_ok = None
    warmup_start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - warmup_start < (0.0 if args.smoke else WARMUP_SECONDS):
        slot = k % len(inputs)
        _, result, error = run_op(wl, inputs[slot])
        warmup_failures = failures_of(slot, result, error)
        problems += [f"warm-up op {k}: {f}" for f in warmup_failures]
        if not warmup_failures:
            last_ok = (slot, result)
        k += 1
    warmup_s = time.perf_counter() - warmup_start

    tracer = tracing.Tracer() if args.trace else None
    patches = tracing.Patches(tracer) if args.trace else None
    ops = []
    counts_by_slot: dict[int, dict] = {}
    count_mismatches: list[str] = []
    min_ops = 2 if args.trace else 1
    loop_start = time.perf_counter()
    k = 0
    while k < min_ops or time.perf_counter() - loop_start < args.seconds:
        slot = k % len(inputs)
        traced = bool(args.trace) and k % 2 == 1
        seconds, result, error = run_op(wl, inputs[slot], tracer if traced else None, patches if traced else None, k)
        failures = failures_of(slot, result, error)
        record = {"op": k, "input": pool[slot], "traced": traced, "seconds": seconds, "failures": failures}
        if not failures:
            last_ok = (slot, result)
        if traced and not failures:
            counts = op_counts(wl, inputs[slot], result, tracer)
            record["counts"] = counts
            record["self_s"] = tracer.self_times(k)
            stored = reference.get(str(pool[slot]), {}).get("counts")
            for label, expected in (("an earlier op", counts_by_slot.get(slot)), ("the stored reference", stored)):
                for key, value in (expected or {}).items():
                    if counts.get(key) != value:
                        count_mismatches.append(f"input {pool[slot]}: {key} = {counts.get(key)!r}, {label} had {value!r}")
            counts_by_slot.setdefault(slot, counts)
        ops.append(record)
        k += 1

    # the checker must reject a reference with one coefficient moved
    selfcheck_flagged = False
    if last_ok is not None:
        slot, result = last_ok
        outputs = wl.outputs(inputs[slot], result)
        bad_ref = workloads.perturbed(reference[str(pool[slot])])
        selfcheck_flagged = bool(workloads.check(outputs, bad_ref, {}))
    if not selfcheck_flagged:
        problems.append("self-check: a perturbed reference coefficient was not flagged")
    problems += count_mismatches

    untraced = [r["seconds"] for r in ops if not r["traced"]]
    failed = sum(1 for r in ops if r["failures"])
    tail_value, tail_pct, tail_beyond = tail(untraced)
    setup = {"setup.import_s": statistics.median(a for a, _ in reps),
             "setup.inputs_s": statistics.median(b for _, b in reps), "setup.warmup_s": warmup_s}
    if args.trace:
        metrics = _per_layer(name, ops, untraced, setup, wl, inputs)
        metrics["fail_ratio"] = failed / len(ops)
        units = per_layer_units()
    else:
        metrics = {
            "op_p50_s": statistics.median(untraced),
            "op_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS

    env = environment(name, args.seed, pool)
    env["cubature_warnings"] = cubature_warnings[0]
    correct = failed == 0 and not problems
    record = {
        "environment": env,
        "mode": mode,
        "trace": args.trace,
        "seconds": args.seconds,
        "ops": ops,
        "tail": {"percentile": tail_pct, "samples": len(untraced), "beyond": tail_beyond},
        "fail_ratio": failed / len(ops),
        "setup": setup,
        "setup_reps": [{"import_s": a, "inputs_s": b} for a, b in reps],
        "problems": problems,
        "selfcheck_flagged": selfcheck_flagged,
        "metrics": metrics,
    }
    stem = f"{name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.csv")

    blas = env["blas"]
    print(f"environment: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={blas['library']!r} blas_threads={blas['threads']} commit={env['git_commit']} "
          f"seed={args.seed} inputs={pool} cubature_warnings={env['cubature_warnings']}")
    print(f"ops: {len(ops)} attempted, {failed} failed (fail_ratio {failed / len(ops)!r}); "
          f"op_tail_s is p{tail_pct:.1f} of {len(untraced)} untraced ops, {tail_beyond} beyond it")
    fail_lines = problems + [f"op {r['op']}: {f}" for r in ops for f in r["failures"]]
    for line in fail_lines[:20]:
        print(f"FAIL {line}")
    if len(fail_lines) > 20:
        print(f"FAIL ... {len(fail_lines) - 20} more in the record file")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


def _per_layer(name, ops, untraced, setup, wl, inputs) -> dict:
    import tracing

    # a run whose traced ops all failed still reports, with zeros, and is not correct
    empty = {"seconds": 0.0, "self_s": {}, "counts": {key: 0 for key in tracing.COUNT_METRICS}}
    traced = [r for r in ops if "self_s" in r] or [empty]
    metrics = dict(setup)
    for span_name, metric in tracing.SELF_TIME_METRICS.items():
        metrics[metric] = statistics.median(r["self_s"].get(span_name, 0.0) for r in traced)
    for key in tracing.COUNT_METRICS:
        metrics[key] = statistics.median_low(r["counts"][key] for r in traced)
    metrics["glm.s_per_iteration"] = statistics.median(
        r["self_s"].get("glm.fit_irls", 0.0) / r["counts"]["glm.iterations"] if r["counts"]["glm.iterations"] else 0.0
        for r in traced
    )
    traced_p50 = statistics.median(r["seconds"] for r in traced)
    metrics["trace.op_s"] = traced_p50
    metrics["trace.overhead_ratio"] = traced_p50 / statistics.median(untraced) - 1.0
    metrics["trace.self_sum_ratio"] = statistics.median(
        sum(v for k, v in r["self_s"].items() if k != "op") / r["seconds"] if r["seconds"] else 0.0 for r in traced
    )

    by_layer = {layer: 0.0 for layer in tracing.LAYERS}
    for r in traced:
        for span_name, seconds in r["self_s"].items():
            if span_name != "op":
                by_layer[span_name.split(".")[0]] += seconds / len(traced)
    group = EXPECTED_TOP[name]
    group_s = sum(by_layer[layer] for layer in group)
    others = [by_layer[layer] for layer in tracing.LAYERS if layer not in group]
    metrics["trace.top_share"] = group_s / sum(by_layer.values()) if group_s else 0.0
    metrics["trace.top_layer_match"] = int(group_s > max(others))
    ranking = ", ".join(f"{layer} {s:.3f}s" for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1]) if s)
    print(f"layers by mean self time per traced op: {ranking}; expected top: {'+'.join(group)}"
          f" -> {'match' if metrics['trace.top_layer_match'] else 'MISMATCH'}")

    tracemalloc.start()
    run_op(wl, inputs[0])
    metrics["trace.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return metrics


if __name__ == "__main__":
    sys.exit(main())
