"""DAG scheduler: jobs -> stages at shuffle boundaries, with recovery.

Two behaviours here carry the paper's story:

* **Shuffle reuse / amortization.** A shuffle whose map outputs are all
  present is *skipped* — no stage is even built for it. Creating an index
  shuffles once; afterwards every query over the indexed (cached) data
  runs only its own narrow stages. Vanilla repeated joins re-shuffle/probe
  each time (Fig. 1). The scheduler keeps no stage between jobs: map
  outputs belong to the :class:`ShuffleManager`, which holds them exactly
  as long as the shuffle's dependency edge is alive.
* **Lineage recovery.** A FetchFailedError (map output lost with its
  executor) marks the output missing and resubmits the parent stage for
  exactly the missing partitions, then retries the job — Section III-D /
  Fig. 12.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.engine.dependencies import ShuffleDependency
from repro.engine.partition import TaskContext
from repro.engine.shuffle import FetchFailedError
from repro.engine.task import ResultStage, ShuffleMapStage, Stage

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext
    from repro.engine.rdd import RDD


class JobFailedError(Exception):
    """A job could not complete within the allowed stage retries."""


class DAGScheduler:
    def __init__(self, context: "EngineContext") -> None:
        self.context = context
        self._next_stage_id = 0
        self.max_stage_attempts = 8

    # -- stage construction ---------------------------------------------------------

    def _new_stage_id(self) -> int:
        sid = self._next_stage_id
        self._next_stage_id += 1
        return sid

    def _parent_shuffle_deps(self, rdd: "RDD") -> list[ShuffleDependency]:
        """Shuffle dependencies reachable from ``rdd`` without crossing one."""
        parents: list[ShuffleDependency] = []
        visited: set[int] = set()
        stack: list["RDD"] = [rdd]
        while stack:
            r = stack.pop()
            if r.rdd_id in visited:
                continue
            visited.add(r.rdd_id)
            for dep in r.dependencies:
                if isinstance(dep, ShuffleDependency):
                    parents.append(dep)
                else:
                    stack.append(dep.rdd)
        return parents

    # -- job execution ---------------------------------------------------------------

    def run_job(
        self,
        rdd: "RDD",
        func: Callable[[Iterator[Any], TaskContext], Any],
        partitions: list[int] | None = None,
        job_index: int = 0,
    ) -> list[Any]:
        if partitions is None:
            partitions = list(range(rdd.num_partitions))
        final = ResultStage(
            stage_id=self._new_stage_id(),
            rdd=rdd,
            parents=self._parent_shuffle_deps(rdd),
            func=func,
        )
        cfg = self.context.config
        self.context.registry.inc("jobs_submitted_total")
        # The job span nests (via the driver thread's contextvar) under a
        # query/phase span when the SQL session opened one; stage spans for
        # every attempt — including parent resubmits — nest under it.
        with self.context.tracer.start_span(
            f"job {job_index}",
            kind="job",
            job_index=job_index,
            root_rdd=rdd.rdd_id,
            num_partitions=len(partitions),
        ) as job_span:
            return self._run_job_attempts(final, partitions, job_index, cfg, job_span)

    def _run_job_attempts(
        self,
        final: ResultStage,
        partitions: list[int],
        job_index: int,
        cfg: Any,
        job_span: Any,
    ) -> list[Any]:
        for attempt in range(self.max_stage_attempts):
            try:
                self._ensure_parents(final, job_index)
                result = self.context.task_scheduler.run_stage(final, partitions, job_index)
                if attempt > 0:
                    job_span.set_attr("stage_attempts", attempt + 1)
                return result
            except FetchFailedError as failure:
                # Lost map output: invalidate and retry (parents recomputed).
                self._handle_fetch_failure(failure)
                self.context.metrics.record_recovery(
                    "stage_resubmit",
                    job_index=job_index,
                    stage_id=final.stage_id,
                    detail=(
                        f"attempt={attempt + 1} shuffle={failure.shuffle_id} "
                        f"map={failure.map_id}"
                    ),
                )
                # Back off between resubmits (same curve as task retries):
                # repeated fetch failures usually mean recovery elsewhere is
                # still in progress, so hammering helps nobody.
                if cfg.task_retry_backoff > 0 and attempt > 0:
                    time.sleep(
                        min(
                            cfg.task_retry_backoff * (2 ** (attempt - 1)),
                            cfg.task_retry_backoff_max,
                        )
                    )
        self.context.metrics.record_recovery(
            "job_failed",
            job_index=job_index,
            stage_id=final.stage_id,
            detail=f"after {self.max_stage_attempts} stage attempts",
        )
        job_span.set_attr("failed", True)
        raise JobFailedError(f"job failed after {self.max_stage_attempts} stage attempts")

    def _ensure_parents(self, stage: Stage, job_index: int) -> None:
        """Depth-first: compute every ancestor shuffle whose outputs are missing."""
        sm = self.context.shuffle_manager
        for dep in stage.parents:
            # Idempotent re-registration: a wholly-unregistered shuffle
            # (e.g. dropped via unregister_shuffle, or a FetchFailedError
            # with map_id == -1) gets fresh empty slots instead of
            # missing_maps escaping run_job with a bare KeyError.
            sm.register_shuffle(dep.shuffle_id, dep.rdd.num_partitions)
            missing = sm.missing_maps(dep.shuffle_id)
            if not missing:
                continue  # amortized: outputs already materialized
            map_stage = ShuffleMapStage(
                stage_id=self._new_stage_id(),
                rdd=dep.rdd,
                parents=self._parent_shuffle_deps(dep.rdd),
                dep=dep,
            )
            self._ensure_parents(map_stage, job_index)
            self.context.task_scheduler.run_stage(map_stage, missing, job_index)

    def _handle_fetch_failure(self, failure: FetchFailedError) -> None:
        sm = self.context.shuffle_manager
        if failure.map_id >= 0 and sm.is_registered(failure.shuffle_id):
            # The slot is already None (executor loss cleared it); nothing
            # else to do: the retry recomputes missing maps via _ensure_parents.
            return
        # map_id == -1: the shuffle is wholly unregistered. _ensure_parents
        # re-registers it (empty slots) on the retry, so every map is
        # recomputed from lineage; no driver-side state to repair here.
