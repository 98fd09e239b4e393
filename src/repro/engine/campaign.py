"""The one Monte-Carlo campaign driver shared by every campaign family.

A family (:mod:`repro.faultlab.campaign`, :mod:`repro.varsim.campaign`)
supplies its points, each point's seeded batch tasks, ``shard`` (its
pure batch task streamed through :func:`repro.engine.pool.iter_sharded`),
``merge`` (batch results → one fresh estimate) and its payload codec.
:class:`CampaignFamily` does the rest: store probe and plan, one shard
stream across every fresh point (workers sample point ``i+1`` while
point ``i`` is being yielded), merge, persist before yield, the
``<package>.point`` span, ``campaign_points_total`` /
``campaign_point_seconds`` and the owned-store open/close;
:meth:`CampaignRun.collect` is the aggregate ``run_*`` result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..obs import get_logger, log_event, metrics, tracing
from .store import JsonStore

_REGISTRY = metrics.registry()


class CampaignFamily:
    """The shared plan/shard/merge/persist/yield loop for one family.

    ``label`` is the ``family`` metric label; ``package`` prefixes the
    span (``faultlab`` → ``faultlab.point``) and names the logger.
    ``shard(tasks, processes)`` yields batch results in task order and
    ``estimate_from_payload`` returns ``None`` for an invalid payload.
    """

    def __init__(self, label: str, package: str, *,
                 shard: Callable[[list[tuple], int], Iterator[Any]],
                 merge: Callable[[Any, list], Any],
                 payload_for: Callable[[Any], dict],
                 estimate_from_payload: Callable[[Any, Any], Any]):
        self.span = f"{package}.point"
        self.shard = shard
        self.merge = merge
        self.payload_for = payload_for
        self.estimate_from_payload = estimate_from_payload
        self._log = get_logger(package)
        self._seconds = _REGISTRY.histogram(
            "campaign_point_seconds",
            "wall-clock per completed campaign grid point",
            labels={"family": label})
        self._done, self._cached, self._failed = (
            _REGISTRY.counter("campaign_points_total",
                              "campaign grid points by terminal status",
                              labels={"family": label, "status": status})
            for status in ("completed", "cached", "failed"))

    def iter_points(self, points: Sequence[Any],
                    tasks_for: Callable[[Any], list[tuple]],
                    store: JsonStore | str | None = None,
                    processes: int = 1) -> Iterator[Any]:
        """Yield one estimate per point, in point order, as each completes.

        Every fresh point is persisted before it is yielded, so an
        interrupted campaign resumes from the store.  ``store`` is a
        :class:`~repro.engine.store.JsonStore`, a path to open one at
        (closed when the iterator finishes), or ``None``.
        """
        owned = isinstance(store, str)
        json_store: JsonStore | None = JsonStore(store) if owned else store
        try:
            yield from self._drain(points, tasks_for, json_store, processes)
        finally:
            if owned and json_store is not None:
                json_store.close()

    def compute(self, point: Any, tasks: list[tuple],
                processes: int = 1) -> Any:
        """Sample one point from scratch: the same drain, no store."""
        (estimate,) = self._drain([point], lambda _: tasks, None, processes)
        return estimate

    def _drain(self, points: Sequence[Any],
               tasks_for: Callable[[Any], list[tuple]],
               store: JsonStore | None, processes: int) -> Iterator[Any]:
        # Plan every point first (store probes are cheap reads), so one
        # shard stream can pipeline every fresh batch across points.
        plans: list[tuple[Any, Any, int]] = []
        tasks: list[tuple] = []
        for point in points:
            payload = store.get(point.key()) if store is not None else None
            cached = (self.estimate_from_payload(point, payload)
                      if payload is not None else None)
            if cached is not None:
                plans.append((point, cached, 0))
                continue
            point_tasks = tasks_for(point)
            tasks.extend(point_tasks)
            plans.append((point, None, len(point_tasks)))

        results = self.shard(tasks, processes)
        for point, cached, task_count in plans:
            if cached is not None:
                self._cached.inc()
                yield cached
                continue
            # The span closes before the yield: it times sampling +
            # persist, not however long the consumer sits on the estimate.
            with tracing.span(self.span, key=point.key()):
                point_start = time.perf_counter()
                try:
                    estimate = self.merge(
                        point, [next(results) for _ in range(task_count)])
                    if store is not None:
                        store.put(point.key(), self.payload_for(estimate))
                except Exception:
                    self._failed.inc()
                    raise
                point_seconds = time.perf_counter() - point_start
                self._seconds.observe(point_seconds)
                self._done.inc()
                log_event(self._log, "point done", key=point.key(),
                          trials=point.trials,
                          seconds=round(point_seconds, 6))
            yield estimate


@dataclass
class CampaignRun:
    """Everything one ``run_*`` call produced (shared by the families)."""

    spec: Any
    estimates: list
    elapsed: float = 0.0
    cache_hits: int = 0
    trials_sampled: int = 0

    @classmethod
    def collect(cls, spec: Any, estimates: Iterable[Any]):
        """Drain a (lazy) estimate stream and time it."""
        start = time.perf_counter()
        drained = list(estimates)
        return cls(
            spec=spec,
            estimates=drained,
            elapsed=time.perf_counter() - start,
            cache_hits=sum(1 for est in drained if est.cache_hit),
            trials_sampled=sum(est.point.trials for est in drained
                               if not est.cache_hit),
        )

    @property
    def throughput(self) -> float:
        """Freshly sampled trials per second (cache hits excluded)."""
        return self.trials_sampled / self.elapsed if self.elapsed > 0 else 0.0
