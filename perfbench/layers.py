"""Per-layer timers installed from outside the program.

The benchmark never edits the program to trace it.  It wraps each layer's
public function where its caller looks it up (a module attribute or a
class attribute) and records, per layer, the calls, the inclusive time and
the self time: inclusive time minus the time spent in nested wrapped
calls on the same thread.  Counts (conflicts, grids, cache hits, ...)
are recorded at the same boundaries, so ratios are measured where the
work happens.

Everything here runs inside one benchmark cell (a fresh interpreter), so
the wrappers live exactly as long as the measurement that needs them.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: Lattices at most this many rows and columns count as "small" for the
#: delay kernel (the 8x8 xor4 lattice; xor5's 16x16 one is "large").
SMALL_LATTICE_SIDE = 8


class LayerClock:
    """Accumulates calls, inclusive time, self time and counts per layer."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def _enter(self) -> tuple[list[list[float]], list[float], float]:
        stack = self._stack()
        frame = [0.0]
        stack.append(frame)
        return stack, frame, time.perf_counter()

    def _exit(self, layer: str, stack: list[list[float]],
              frame: list[float], start: float) -> None:
        elapsed = time.perf_counter() - start
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        with self._lock:
            self.calls[layer] += 1
            self.total_s[layer] += elapsed
            self.self_s[layer] += elapsed - frame[0]

    def wrap(self, owner: Any, attr: str,
             layer: str | Callable[..., str] | None,
             after: Callable[..., None] | None = None,
             before: Callable[..., Any] | None = None) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``layer`` names the layer, or computes the name from the call's
        arguments, or is ``None`` to count without timing.  ``before``
        runs ahead of the call and its return value is handed to
        ``after(token, args, kwargs, result)``, which records counts.
        """
        original = getattr(owner, attr)
        clock = self

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            name = layer(args, kwargs) if callable(layer) else layer
            if name is None:
                result = original(*args, **kwargs)
            else:
                stack, frame, start = clock._enter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    clock._exit(name, stack, frame, start)
            if after is not None:
                after(token, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_iter(self, owner: Any, attr: str, layer: str,
                  after: Callable[..., None] | None = None) -> None:
        """Like :meth:`wrap` for a generator function: each ``next``
        of the returned iterator is timed as one call of ``layer``."""
        original = getattr(owner, attr)
        clock = self

        def wrapper(*args, **kwargs):
            if after is not None:
                after(None, args, kwargs, None)
            inner = original(*args, **kwargs)
            try:
                while True:
                    stack, frame, start = clock._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        clock._exit(layer, stack, frame, start)
                    yield item
            finally:
                inner.close()

        setattr(owner, attr, wrapper)

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                    "self_s": dict(self.self_s), "counts": dict(self.counts)}


# ----------------------------------------------------------------------
# Installers: one per group of layers, shared by the workloads that use it
# ----------------------------------------------------------------------
def install_synthesis(clock: LayerClock) -> None:
    """SAT, the portfolio strategies, flood kernel, NPN keys, cache, verify."""
    import numpy as np
    from repro.engine import cache, engine, portfolio
    from repro.sat import solver
    from repro.xbareval import connectivity

    def solve_before(args, kwargs):
        return args[0].statistics()

    def solve_after(token, args, kwargs, result):
        stats = args[0].statistics()
        clock.add("sat.conflicts", stats["conflicts"] - token["conflicts"])
        clock.add("sat.propagations",
                  stats["propagations"] - token["propagations"])

    clock.wrap(solver.Solver, "solve", "sat.solve",
               before=solve_before, after=solve_after)
    clock.wrap(portfolio, "synthesize_lattice_optimal", "synthesis.optimal")
    clock.wrap(portfolio, "best_pcircuit", "synthesis.pcircuit")
    clock.wrap(portfolio, "synthesize_dreducible", "synthesis.dreducible")
    clock.wrap(portfolio, "synthesize_lattice_dual", "synthesis.dual")
    clock.wrap(portfolio, "fold_lattice", "synthesis.fold")

    def race_after(token, args, kwargs, result):
        if result.strategy == "optimal":
            clock.add("synthesis.optimal_wins")

    clock.wrap(engine, "run_portfolio", None, after=race_after)

    def flood_after(token, args, kwargs, result):
        grids = np.asarray(args[0])
        clock.add("xbareval.flood_grids",
                  1 if grids.ndim == 2 else grids.shape[0])

    clock.wrap(connectivity, "top_bottom_connected_batch", "xbareval.flood",
               after=flood_after)
    clock.wrap(engine, "canonical_cache_key", "boolean.npn")

    def get_after(token, args, kwargs, result):
        if result is not None:
            clock.add("engine.cache_hits")

    clock.wrap(cache.ResultCache, "get", "engine.cache_get", after=get_after)
    clock.wrap(cache.ResultCache, "put_many", "engine.cache_put")
    # Only the engine's own reference: the rewrite phase.  The portfolio's
    # candidate checks keep their unwrapped reference.
    clock.wrap(engine, "implements_table", "engine.verify")


def install_campaigns(clock: LayerClock) -> None:
    """Defect maps, recovery and delay kernels, ensembles, pool, grid and
    the JSON store's write, claim and complete transactions."""
    from repro.engine import engine
    from repro.engine.store import JsonStore
    from repro.faultlab import campaign as faultsim
    from repro.grid import families, runner
    from repro.varsim import campaign as varsim

    clock.wrap(faultsim, "bernoulli_defect_batch", "faultlab.maps_bernoulli")
    clock.wrap(faultsim, "clustered_defect_batch", "faultlab.maps_clustered")
    clock.wrap(faultsim, "recovered_k_batch", "faultlab.kernels")
    for name in ("lognormal_variation_batch",
                 "variation_aware_selection_batch",
                 "oblivious_selection_batch"):
        clock.wrap(varsim, name, "varsim.ensembles")

    def delay_layer(args, kwargs):
        lattice = args[0]
        small = max(lattice.rows, lattice.cols) <= SMALL_LATTICE_SIDE
        return "xbareval.delay_small" if small else "xbareval.delay_large"

    def delay_after(token, args, kwargs, result):
        clock.add("xbareval.delay_grids", len(args[2]))

    clock.wrap(varsim, "onset_critical_delay_batch", delay_layer,
               after=delay_after)

    def pool_after(token, args, kwargs, result):
        clock.add("engine.pool_tasks", len(args[1]))

    clock.wrap(engine, "map_sharded", "engine.pool", after=pool_after)
    clock.wrap_iter(faultsim, "iter_sharded", "engine.pool", after=pool_after)
    clock.wrap_iter(varsim, "iter_sharded", "engine.pool", after=pool_after)
    clock.wrap(runner, "run_point", "grid.point")
    clock.wrap(families, "compute", "grid.compute")

    def put_many_after(token, args, kwargs, result):
        clock.add("engine.store_writes", len(args[1]))

    # ``put`` is ``put_many`` of one entry, so this sees every write.
    clock.wrap(JsonStore, "put_many", "engine.store_write",
               after=put_many_after)
    clock.wrap(JsonStore, "grid_claim", "engine.store_claim")
    clock.wrap(JsonStore, "grid_complete", "engine.store_complete")


def install_server(clock: LayerClock) -> None:
    """Queue wait and worker time of served computations."""
    from repro.server import queue, worker

    created: dict[str, float] = {}
    lock = threading.Lock()

    def submit_after(token, args, kwargs, result):
        job, coalesced = result
        if not coalesced:
            with lock:
                created[job.trace_id] = time.perf_counter()

    def run_before(args, kwargs):
        trace_id = args[3] if len(args) > 3 else kwargs.get("trace_id")
        with lock:
            start = created.pop(trace_id, None)
        if start is not None:
            clock.add("server.queue_wait_s", time.perf_counter() - start)
        return None

    clock.wrap(queue.JobQueue, "submit", None, after=submit_after)
    clock.wrap(worker.WorkerBridge, "run_submission", "server.worker",
               before=run_before)


def fold_importtime(stderr: str) -> dict[str, float]:
    """Fold ``python -X importtime`` output into seconds per package."""
    totals = {"total": 0.0, "numpy": 0.0, "scipy": 0.0, "repro": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            self_us = int(parts[0])
        except ValueError:
            continue  # the header line
        package = parts[2].strip().split(".")[0]
        totals["total"] += self_us / 1e6
        if package in ("numpy", "scipy", "repro"):
            totals[package] += self_us / 1e6
    return totals


# ----------------------------------------------------------------------
# Folding a cell's snapshot into the per-layer metrics
# ----------------------------------------------------------------------
#: Every per-layer metric, in print order, with its unit.  A layer that a
#: workload never enters reads 0.
PER_LAYER = {
    "import.total_s": "s", "import.numpy_s": "s", "import.scipy_s": "s",
    "import.repro_s": "s",
    "sat.solve_s": "s", "sat.solve_calls": "count",
    "sat.conflicts": "count", "sat.propagations": "count",
    "synthesis.optimal_s": "s", "synthesis.optimal_calls": "count",
    "synthesis.optimal_win_ratio": "ratio",
    "synthesis.pcircuit_s": "s", "synthesis.dreducible_s": "s",
    "synthesis.dual_s": "s", "synthesis.fold_s": "s",
    "xbareval.flood_s": "s", "xbareval.flood_calls": "count",
    "xbareval.flood_grids": "count",
    "xbareval.delay_small_s": "s", "xbareval.delay_large_s": "s",
    "xbareval.delay_grids": "count",
    "boolean.npn_s": "s", "boolean.npn_calls": "count",
    "engine.cache_get_s": "s", "engine.cache_put_s": "s",
    "engine.cache_hit_ratio": "ratio", "engine.verify_s": "s",
    "engine.pool_tasks": "count", "engine.pool_wall_s": "s",
    "engine.store_write_s": "s", "engine.store_writes": "count",
    "engine.store_claim_s": "s", "engine.store_claims": "count",
    "engine.store_complete_s": "s",
    "faultlab.maps_bernoulli_s": "s", "faultlab.maps_clustered_s": "s",
    "faultlab.kernels_s": "s", "varsim.ensembles_s": "s",
    "grid.point_s": "s", "grid.overhead_s": "s",
    "server.queue_wait_ms": "ms", "server.worker_ms": "ms",
    "server.http_ms": "ms", "server.coalesced_ratio": "ratio",
    "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(snapshot: dict) -> dict[str, float]:
    """Per-layer metrics of one cell: self times unless stated otherwise."""
    calls, total = snapshot["calls"], snapshot["total_s"]
    own, counts = snapshot["self_s"], snapshot["counts"]
    metrics = {
        "sat.solve_calls": calls.get("sat.solve", 0),
        "sat.conflicts": counts.get("sat.conflicts", 0),
        "sat.propagations": counts.get("sat.propagations", 0),
        "synthesis.optimal_calls": calls.get("synthesis.optimal", 0),
        "synthesis.optimal_win_ratio": _ratio(
            counts.get("synthesis.optimal_wins", 0),
            calls.get("synthesis.optimal", 0)),
        "xbareval.flood_calls": calls.get("xbareval.flood", 0),
        "xbareval.flood_grids": counts.get("xbareval.flood_grids", 0),
        "xbareval.delay_grids": counts.get("xbareval.delay_grids", 0),
        "boolean.npn_calls": calls.get("boolean.npn", 0),
        "engine.cache_hit_ratio": _ratio(counts.get("engine.cache_hits", 0),
                                         calls.get("engine.cache_get", 0)),
        "engine.pool_tasks": counts.get("engine.pool_tasks", 0),
        "engine.pool_wall_s": own.get("engine.pool", 0.0),
        "engine.store_writes": counts.get("engine.store_writes", 0),
        "engine.store_claims": calls.get("engine.store_claim", 0),
        # A grid point's whole wall, and the part of it that is not the
        # family's compute (claim, complete, mirror write, bookkeeping).
        "grid.point_s": total.get("grid.point", 0.0),
        "grid.overhead_s": total.get("grid.point", 0.0)
        - total.get("grid.compute", 0.0),
    }
    for name, unit in PER_LAYER.items():
        if name not in metrics and unit == "s" and not name.startswith(
                ("import.", "trace.")):
            metrics[name] = own.get(name[:-2], 0.0)
    return metrics


def server_metrics(snapshot: dict, latencies: list[float],
                   coalesced: list[bool]) -> dict[str, float]:
    """Per-request means that add up to the client's mean latency."""
    requests = len(latencies)
    queue_ms = snapshot["counts"].get("server.queue_wait_s", 0.0) * 1e3
    worker_ms = snapshot["total_s"].get("server.worker", 0.0) * 1e3
    client_ms = sum(latencies) * 1e3
    return {
        "server.queue_wait_ms": queue_ms / requests,
        "server.worker_ms": worker_ms / requests,
        "server.http_ms": (client_ms - queue_ms - worker_ms) / requests,
        "server.coalesced_ratio": sum(coalesced) / requests,
    }
