"""Benchmark for wreathchar: five CLI workloads with pinned answers.

Usage (from any directory; the package is imported from ../src):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...     # every workload in turn
    python3 bench/run.py --self-test            # toy sizes; proves the gate and the tracer

Load model: a closed loop with one caller.  Each invocation is a fresh
interpreter (``worker.py``) that runs one ``cli.main(argv)`` with
``--workers 1``; the next starts only after the previous one has exited.
A run keeps starting invocations while the previous one's duration still fits
in ``--seconds`` (at least three, so every metric is a median), and every
invocation's output passes the correctness gate in ``workloads.py`` outside
the timed interval.

``--trace 0`` reports the end-to-end metrics: setup_s, run_s, cells_per_s and
peak_rss_mib, each the median over the run's invocations, plus error_rate on
a text line.  Every time is given at the reference host speed: the host's
speed drifts by 20-30% over minutes with the load of other tenants, so each
invocation's times are scaled by REFERENCE_PROBE_S over the mean of the two
``worker.probe()`` times it took around its work; the wall times and the
scale factors are printed and kept in the results file.  ``--trace 1``
alternates untraced and traced invocations and reports the per-layer metrics
of ``tracing.PER_LAYER``, with the traced run_s and its overhead over the
untraced one.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics.  The exit code is 1 when any invocation
failed, 2 when the package source is missing.  Each run also writes a results
file under bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, TOY_WORKLOADS, WORKLOADS, Workload, gate, invocation_seed,
)

# name, unit, better: the end-to-end metrics of an untraced run
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("cells_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + tracing.PER_LAYER}
TIME_LAYERS = [name for name, unit, _ in tracing.PER_LAYER if unit == "s"]
MIN_UNTRACED = 3
MIN_TRACED = 2
# traced samples per run for workloads that evaluate mn_character, so that its
# p99.9 latency has at least ten spans beyond it
MIN_TRACED_SAMPLES = 10_000
RUN_LIMIT_S = 170.0  # every run must end within 180 s
# seconds that worker.probe() takes at the reference host speed (about its
# median on the 2-vCPU x86_64 host that the baseline in DESIGN.md comes from)
REFERENCE_PROBE_S = 0.2


def invoke(w: Workload, seed: int, traced: bool, timeout: float) -> dict:
    """One fresh-interpreter invocation; a result dict, with ``error`` set on failure."""
    spec = {
        "argv": w.command(seed),
        "warmup": w.warmup,
        "trace": traced,
        "samples": w.cells if w.sampled else 0,
        "paired_certificate": None if w.paired_certificate is None
        else [*w.paired_certificate, w.cells, seed],
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "wall_s": time.perf_counter() - start}
    wall = time.perf_counter() - start
    try:
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no result line"]
        return {"error": f"worker exited {proc.returncode}: {tail[0]}", "wall_s": wall}
    result["wall_s"] = wall
    if not Path(result["package_file"]).resolve().is_relative_to(SRC):
        result["error"] = f"imported wreathchar from {result['package_file']}, not {SRC}"
    _at_reference_speed(result)
    return result


def _at_reference_speed(result: dict) -> None:
    """Scales every time of one invocation from the host's speed, as its
    probes measured it, to the reference speed; keeps the wall times."""
    speed = REFERENCE_PROBE_S / statistics.mean(result["probe_s"])
    result["host_speed"] = speed
    result["wall_setup_s"], result["wall_run_s"] = result["setup_s"], result["run_s"]
    result["setup_s"] *= speed
    result["run_s"] *= speed
    if "layers" in result:
        for name in TIME_LAYERS:
            if name in result["layers"]:
                result["layers"][name] *= speed
        result["root_s"] *= speed
        result["mn_us"] = [us * speed for us in result["mn_us"]]


def trace_problems(w: Workload, result: dict) -> list[str]:
    """Traced spans that should fire on this workload but recorded no calls."""
    absent = set(result.get("absent", ()))
    calls = result.get("span_calls", {})
    return [f"traced {name} recorded no calls" for name in w.fires
            if f"span {name}" not in absent and not calls.get(name)]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """The closed loop of one run: invocations, their problems, and the metrics."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    min_traced = MIN_TRACED
    if "wreath_chars.mn_character" in w.fires:
        min_traced = max(min_traced, -(-MIN_TRACED_SAMPLES // w.cells))
    invocations = []
    while True:
        untraced = sum(not i["traced"] for i in invocations)
        traced_count = len(invocations) - untraced
        last = invocations[-1]["result"]["wall_s"] if invocations else 0.0
        short = traced_count < min_traced if trace else untraced < MIN_UNTRACED
        if not short and time.perf_counter() - start + last > seconds:
            break
        if time.perf_counter() + last > deadline:
            break
        # alternate, untraced first: the untraced ones are the overhead base
        traced = trace and traced_count < untraced
        inv_seed = invocation_seed(seed, len(invocations)) if w.sampled else seed
        result = invoke(w, inv_seed, traced, deadline - time.perf_counter())
        problems = gate(w, inv_seed, result)
        if traced and not problems:
            problems = trace_problems(w, result)
        invocations.append({"traced": traced, "seed": inv_seed, "result": result, "problems": problems})

    good = [i for i in invocations if not i["problems"]]
    plain = [i["result"] for i in good if not i["traced"]]
    metrics, wall = {}, {}
    if plain:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "run_s": statistics.median(r["run_s"] for r in plain),
            "cells_per_s": statistics.median(w.cells / r["run_s"] for r in plain),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        }
        wall = {
            "wall_setup_s": statistics.median(r["wall_setup_s"] for r in plain),
            "wall_run_s": statistics.median(r["wall_run_s"] for r in plain),
            "host_speed": statistics.median(r["host_speed"] for r in plain),
        }
    layers, absent = {}, set()
    if trace:
        layers, absent = _layer_metrics([i["result"] for i in good if i["traced"]],
                                        metrics.get("run_s"))
    failed = sum(bool(i["problems"]) for i in invocations)
    return {
        "workload": w.name,
        "seed": seed,
        "argv": w.command(seed),
        "attempted": len(invocations),
        "failed": failed,
        "error_rate": failed / len(invocations) if invocations else 1.0,
        "end_to_end": metrics,
        "wall": wall,
        "per_layer": layers,
        "absent": sorted(absent),
        "invocations": [
            {"traced": i["traced"], "seed": i["seed"], "problems": i["problems"],
             **{k: v for k, v in i["result"].items() if k not in ("mn_us", "report")}}
            for i in invocations
        ],
    }


def _layer_metrics(traced: list[dict], untraced_run_s: float | None) -> tuple[dict, set]:
    if not traced:
        return {}, set()
    absent = set()
    for r in traced:
        absent.update(a for a in r["absent"] if not a.startswith("span "))
    if "wreath_chars.mn_character.calls" in absent:
        absent.update(("wreath_chars.mn_character.p50_us", "wreath_chars.mn_character.p999_us"))
    mn_us = [x for r in traced for x in r["mn_us"]]
    run_s = statistics.median(r["run_s"] for r in traced)
    out = {}
    for name, _, _ in tracing.PER_LAYER:
        if name in absent:
            continue
        if name == "wreath_chars.mn_character.p50_us":
            out[name] = statistics.median(mn_us) if mn_us else 0.0
        elif name == "wreath_chars.mn_character.p999_us":
            out[name] = tracing.nearest_rank(mn_us, 0.999)
        elif name == "trace.run_s":
            out[name] = run_s
        elif name == "trace.overhead_ratio":
            if untraced_run_s:
                out[name] = run_s / untraced_run_s - 1.0
        else:
            out[name] = statistics.median_low(r["layers"][name] for r in traced)
    return out, absent


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(seed: int, names: list[str], load_1min: float) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "load_1min_at_start": load_1min,
        "seed": seed,
        "argv": {name: WORKLOADS[name].command(seed) for name in names},
    }


def _print_run(run: dict, trace: bool) -> None:
    print(f"workload {run['workload']} seed {run['seed']}: {run['attempted']} invocations of "
          f"wreathchar {' '.join(run['argv'])}")
    for name, value in (run["per_layer"] if trace else run["end_to_end"]).items():
        print(f"  {name:40s} {value:16.6g} {UNITS[name]}")
    for name in run["absent"]:
        print(f"  {name:40s} {'absent':>16s}")
    for name, value in run["wall"].items():
        note = "ratio (host speed / reference speed)" if name == "host_speed" else "s (wall time)"
        print(f"  {name:40s} {value:16.6g} {note}")
    print(f"  {'error_rate':40s} {run['error_rate']:16.6g} ratio "
          f"({run['failed']} failed / {run['attempted']} attempted)")
    for i, inv in enumerate(run["invocations"]):
        for problem in inv["problems"]:
            print(f"  invocation {i} FAILED: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "wreathchar" / "cli.py").is_file():
        print(f"error: package source {SRC / 'wreathchar'} not found", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    load_1min = os.getloadavg()[0]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    runs = [run_workload(WORKLOADS[name], args.seed, args.seconds, trace) for name in names]
    record = run_record(args.seed, names, load_1min)
    versions = {inv.get("version") for run in runs for inv in run["invocations"]} - {None}
    record["package_version"] = ",".join(sorted(versions)) or None
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"record": record, "runs": runs}, indent=1) + "\n")

    for run in runs:
        _print_run(run, trace)
    print(f"results written to {path.relative_to(ROOT)}")
    metrics = {}
    for run in runs:
        prefix = f"{run['workload']}." if len(runs) > 1 else ""
        for name, value in (run["per_layer"] if trace else run["end_to_end"]).items():
            metrics[prefix + name] = {"value": value, "unit": UNITS[name]}
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# self-test


def _corrupt(w: Workload) -> Workload:
    """The workload with one pinned answer changed."""
    if w.csv_sha256 is not None:
        return replace(w, csv_sha256="0" * 64)
    if "divisible" in w.answer:
        return replace(w, answer={**w.answer, "divisible": w.answer["divisible"] + 1})
    pins = w.answer_default_seed
    return replace(w, answer_default_seed={**pins, "divisible": pins["divisible"] + 1})


def self_test() -> int:
    """Runs every workload at toy size and checks the benchmark itself."""
    failures = []

    def check(ok: bool, text: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}: {text}")
        if not ok:
            failures.append(text)

    layer_names = [name for name, _, _ in tracing.PER_LAYER]
    for name, w in TOY_WORKLOADS.items():
        for seed in ((DEFAULT_SEED, DEFAULT_SEED + 1) if w.sampled else (DEFAULT_SEED,)):
            run = run_workload(w, seed, 0.0, trace=False)
            problems = [p for i in run["invocations"] for p in i["problems"]]
            check(run["failed"] == 0 and set(run["end_to_end"]) == {m for m, _, _ in END_TO_END},
                  f"{name} seed {seed}: {run['attempted']} invocations pass the gate {problems}")
        bad = run_workload(_corrupt(w), DEFAULT_SEED, 0.0, trace=False)
        check(bad["failed"] > 0,
              f"{name}: a corrupted pinned answer fails {bad['failed']}/{bad['attempted']} invocations")

        run = run_workload(w, DEFAULT_SEED, 0.0, trace=True)
        problems = [p for i in run["invocations"] for p in i["problems"]]
        check(run["failed"] == 0, f"{name}: traced run passes the gate and fires {w.fires} {problems}")
        missing = [m for m in layer_names if m not in run["per_layer"] and m not in run["absent"]]
        check(not missing, f"{name}: traced run reports every per-layer metric {missing}")
        for inv in run["invocations"]:
            if not inv["traced"] or inv["problems"]:
                continue
            parts = sum(inv["layers"][m] for m in tracing.TIME_PARTITION)
            remainder = inv["run_s"] - inv["root_s"]
            check(abs(parts + remainder - inv["run_s"]) < 1e-6,
                  f"{name}: self times {parts:.6f} s + untraced remainder {remainder:.6f} s "
                  f"= traced run_s {inv['run_s']:.6f} s")

    spec_file = ROOT / "BENCHMARK.json"
    if spec_file.is_file():
        spec = json.loads(spec_file.read_text())
        declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
        check(declared == list(END_TO_END), "BENCHMARK.json end_to_end matches run.py")
        declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        check(declared == list(tracing.PER_LAYER), "BENCHMARK.json per_layer matches tracing.py")
        check([x["name"] for x in spec["workloads"]] == list(WORKLOADS)
              and all(x["why"] == WORKLOADS[x["name"]].why for x in spec["workloads"]),
              "BENCHMARK.json workloads match workloads.py")
    print(f"self-test: {len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
