"""End-to-end benchmark of the nanoxbar stack, with a traced per-layer run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload synth-suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload served-mix --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 1 --trace 0 --smoke
    python3 perfbench/run.py --record-reference

The program is driven only through its public entry points (the CLI,
``BatchEngine``, ``run_campaign`` / ``run_variation_campaign``,
``repro.grid.plan`` / ``work_loop`` and ``ServerClient``), from ``src/``
of the checkout; nothing is built or installed.

A run starts cells (``cell.py``) one after another, each a fresh
interpreter that sets the workload up, runs one pass of its fixed seeded
work and checks the outputs, until ``--seconds`` is used (at least
three cells).  One process at a time runs the load: at most two pool
workers, two client threads and two connections.

End-to-end metrics, printed by every workload (medians over the run's
samples):

* ``setup_s``: fresh interpreter start until the workload is ready.
* ``pass_s``: wall time of one pass over the workload's fixed work --
  synth-suite: the cold pass over the 26-function suite (the first in its
  process) plus 25 warm classmate passes; mc-campaigns: faultsim sweep +
  two varsweeps + grid drain; cli-cold: one ``nanoxbar`` call;
  served-mix: the request list.  A throughput over a fixed pass would
  only restate it.

Every workload also prints its own named metrics (``NAMED`` below) with
unit, better direction and sample count, and a provenance line.  With
``--trace 1`` the run alternates untraced and traced cells, both with
pooled work run serially, and prints the per-layer metrics
(``layers.PER_LAYER``) averaged over the traced cells, plus the tracing
overhead: traced minus untraced ``pass_s``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import layers  # the per-layer metric names; imports nothing of the program

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: This run's working directory (stores, CLI temp dirs); removed at exit.
WORK = os.path.join(HERE, ".work", f"run-{os.getpid()}")

WORKLOADS = ("synth-suite", "mc-campaigns", "cli-cold", "served-mix")
END_TO_END = {"setup_s": ("s", "lower"), "pass_s": ("s", "lower")}
#: The workloads' own metrics: unit, better direction, how samples fold.
NAMED = {
    "synth-suite": {
        "synth_cold_s": ("s", "lower", "median"),
        "synth_warm_jobs_per_s": ("jobs/s", "higher", "median"),
        "synth_area_total": ("sites", "lower", "median"),
    },
    "mc-campaigns": {
        "faultsim_trials_per_s": ("trials/s", "higher", "median"),
        "varsweep_small_trials_per_s": ("trials/s", "higher", "median"),
        "varsweep_large_trials_per_s": ("trials/s", "higher", "median"),
        "grid_points_per_s": ("points/s", "higher", "median"),
    },
    "cli-cold": {"cli_p50_s": ("s", "lower", "median")},
    "served-mix": {
        "served_req_per_s": ("req/s", "higher", "median"),
        "served_p50_ms": ("ms", "lower", "median"),
        "served_p90_ms": ("ms", "lower", "tail"),
    },
}
MIN_CELLS = 3
CELL_TIMEOUT_S = 60
#: Stop starting cells after this long, whatever ``--seconds`` says.
RUN_LIMIT_S = 100


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cell(workload: str, seed: int, smoke: bool, traced: bool,
             serial: bool) -> tuple[dict | None, str]:
    """Run one cell; returns (result or None, error text)."""
    config = {"workload": workload, "seed": seed, "smoke": smoke,
              "traced": traced, "serial": serial, "work": WORK}
    command = [sys.executable]
    if traced:
        command += ["-X", "importtime"]
    config["spawned"] = time.monotonic()
    command += [os.path.join(HERE, "cell.py"), json.dumps(config)]
    # A process group of its own, so a cell that hangs is stopped with
    # whatever it started (the served-mix server, pool workers).
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CELL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"cell timed out after {CELL_TIMEOUT_S}s"
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"cell exited {proc.returncode}: {stderr[-2000:]}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, f"cell printed no result: {stdout[-500:]}"
    if traced and "imports" not in result:
        result["imports"] = layers.fold_importtime(stderr)
    return result, ""


def run_cells(args) -> tuple[list[tuple[str, dict]], list[str]]:
    """Start cells until the run's time is used; returns (cells, errors)."""
    # Compile and cache the modules once, so no measured cell pays for it.
    subprocess.run([sys.executable, "-c",
                    "import repro.eval.cli, repro.server.client"],
                   cwd=ROOT, env=child_env(), capture_output=True,
                   timeout=CELL_TIMEOUT_S, check=True)
    kinds = ["base", "traced"] if args.trace else ["plain"]
    minimum = 1 if args.smoke else MIN_CELLS
    minimum = max(minimum, len(kinds))
    start = time.monotonic()
    deadline = start + args.seconds
    cells: list[tuple[str, dict]] = []
    errors: list[str] = []
    durations: list[float] = []
    while True:
        kind = kinds[len(durations) % len(kinds)]
        began = time.monotonic()
        result, error = run_cell(args.workload, args.seed, args.smoke,
                                 traced=kind == "traced",
                                 serial=kind != "plain")
        durations.append(time.monotonic() - began)
        if result is None:
            errors.append(error)
        else:
            cells.append((kind, result))
        now = time.monotonic()
        if len(durations) >= minimum and (
                now + statistics.median(durations) > deadline
                or now - start > RUN_LIMIT_S
                or result is None):
            return cells, errors


def tail_percentile(count: int) -> int:
    """p90, or the highest of p75/p50 with >= 10 samples beyond it."""
    for percentile in (90, 75):
        if count * (100 - percentile) / 100 >= 10:
            return percentile
    return 50


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def named_metrics(workload: str, results: list[dict]) -> dict:
    """Fold the cells' samples into the workload's named metrics."""
    pooled: dict[str, list[float]] = {}
    for result in results:
        for name, values in result["samples"].items():
            pooled.setdefault(name, []).extend(values)
    if workload == "served-mix":
        latencies = pooled.pop("served_latency_ms")
        pooled["served_p50_ms"] = latencies
        pooled["served_p90_ms"] = latencies
    folded = {}
    for name, (unit, better, fold) in NAMED[workload].items():
        values = pooled[name]
        entry = {"unit": unit, "better": better, "samples": len(values)}
        if fold == "tail":
            pct = tail_percentile(len(values))
            entry.update(value=percentile(values, pct), percentile=pct)
        else:
            entry["value"] = statistics.median(values)
        folded[name] = entry
    return folded


def layer_table(cells: list[tuple[str, dict]]) -> dict[str, float]:
    """Per-layer metrics: means over traced cells, plus tracing overhead."""
    traced = [result for kind, result in cells if kind == "traced"]
    base = [result for kind, result in cells if kind == "base"]
    table = dict.fromkeys(layers.PER_LAYER, 0.0)
    for result in traced:
        values = dict(result.get("layers") or {})
        for package, seconds in result["imports"].items():
            values[f"import.{package}_s"] = seconds
        for name in table:
            table[name] += values.get(name, 0.0) / len(traced)
    if traced and base:
        traced_pass = statistics.median(p for r in traced for p in r["passes"])
        base_pass = statistics.median(p for r in base for p in r["passes"])
        table["trace.overhead_s"] = traced_pass - base_pass
        table["trace.overhead_ratio"] = (traced_pass - base_pass) / base_pass
    return table


def provenance(args) -> dict:
    git = {"sha": "unknown", "dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True)
        if sha.returncode == 0:
            git = {"sha": sha.stdout.strip(),
                   "dirty": bool(status.stdout.strip())}
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"git_sha": git["sha"], "git_dirty": git["dirty"],
            "python": platform.python_version(), **versions,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "nproc": nproc, "workload": args.workload, "seed": args.seed,
            "traced": bool(args.trace), "smoke": args.smoke,
            "seconds": args.seconds}


def report(args, cells: list[tuple[str, dict]], errors: list[str]) -> dict:
    results = [result for _, result in cells]
    attempted = sum(r["attempted"] for r in results) + len(errors)
    failed = sum(r["failed"] for r in results) + len(errors)
    for result in results:
        errors.extend(result["errors"])
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"provenance {json.dumps(provenance(args), sort_keys=True)}")
    metrics: dict[str, dict] = {}
    plain = [r for kind, r in cells if kind != "traced"]
    if plain:
        named = named_metrics(args.workload, plain)
        e2e = {
            "setup_s": [r["setup_s"] for r in plain],
            "pass_s": [p for r in plain for p in r["passes"]],
        }
        print(f"{'metric':34} {'value':>14} {'unit':9} {'better':7} samples")
        for name, values in e2e.items():
            unit, better = END_TO_END[name]
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:34} {value:14.6g} {unit:9} {better:7} "
                  f"{len(values)}")
        for name, entry in named.items():
            label = name
            if "percentile" in entry:
                label += f" (p{entry['percentile']})"
            print(f"{label:34} {entry['value']:14.6g} {entry['unit']:9} "
                  f"{entry['better']:7} {entry['samples']}")
        print(f"named {json.dumps(named, sort_keys=True)}")
    if args.trace:
        table = layer_table(cells)
        print(f"{'layer metric':34} {'value':>14} unit   "
              f"(mean over traced cells)")
        for name, value in table.items():
            print(f"{name:34} {value:14.6g} {layers.PER_LAYER[name]}")
        metrics = {name: {"value": value, "unit": layers.PER_LAYER[name]}
                   for name, value in table.items()}
    print(f"checks: {attempted} attempted, {failed} failed")
    return {"correct": failed == 0 and bool(results), "attempted":
            max(attempted, 1), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny seeded sizes, same output checks")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this checkout")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no nanoxbar sources at {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.record_reference:
            subprocess.run([sys.executable, os.path.join(HERE, "cell.py"),
                            "record", WORK], cwd=ROOT, env=child_env(),
                           check=True)
            return 0
        cells, errors = run_cells(args)
        result = report(args, cells, errors)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
