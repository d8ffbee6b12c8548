"""QueryServer: admission control in front of a one-shard router.

One :class:`QueryServer` wraps one :class:`~repro.sql.session.Session` and
turns it into a service: clients :meth:`submit` SQL (optionally with bind
parameters) and get a :class:`QueryTicket` future; a bounded pool of worker
threads executes admitted queries; admission control sheds load *before*
work starts. The contract the chaos tests enforce: the server may reject
(retryably) but never returns a wrong answer.

Admission control rejects, in order:

* ``shutdown`` — the server is closing (not retryable, find another server);
* ``chaos`` — injected rejection (``Config.chaos_serve_rejection_prob``),
  exercising client retry loops deterministically;
* ``memory_pressure`` — the worst executor block store is at/above
  ``ServeConfig.shed_memory_fraction`` of its budget (backpressure before
  the query runs, complementing the task-level
  :class:`~repro.engine.memory_manager.MemoryPressureError` retries that
  protect queries already running);
* ``queue_full`` — the admission queue is at ``max_queue_depth``;
* ``deadline`` — the query waited in the queue past its deadline (shed
  stale work instead of burning a worker on an answer nobody awaits).

The server has no read path of its own. It owns a
:class:`~repro.serve.router.ShardRouter` with one shard and one replica —
under the engine's hash partitioner a single server is a router with one
shard — and ``publish`` / ``pinned`` / ``views`` delegate to it. A worker
answers an admitted query with :meth:`~repro.serve.router.ShardRouter.answer`:
a point (``path="fastpath"``), range or scan read of a published view is
served on the worker thread from the pinned partitions, no job, no
``job_lock``; everything else goes through the (plan-cached) session
pipeline. Shard-kill chaos and the ``serve_router_*`` counters belong to
:meth:`ShardRouter.query` and are not applied here; the one shard feeds the
``serve_shard_*{shard="0"}`` series like any router's shard 0 on the
context.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.engine.memory_manager import MemoryPressureError
from repro.serve.router import QueryResult, RouterConfig, ShardRouter
from repro.serve.shard import ServeRejected

if TYPE_CHECKING:  # pragma: no cover
    from repro.indexed.indexed_dataframe import IndexedDataFrame
    from repro.serve.snapshot import PinnedSnapshot
    from repro.sql.session import Session


@dataclass
class ServeConfig:
    """Serving-layer tunables (engine tunables stay on :class:`Config`)."""

    #: Worker threads executing admitted queries.
    num_workers: int = 4
    #: Admitted-but-not-started queries allowed before ``queue_full``.
    max_queue_depth: int = 64
    #: Seconds a query may spend queued before it is shed (per-query
    #: override via ``submit(deadline=...)``).
    default_deadline: float = 30.0
    #: Shed new queries when memory pressure (worst executor's
    #: used/budget) reaches this fraction.
    shed_memory_fraction: float = 0.95
    #: Test hook: replaces ``EngineContext.memory_pressure`` as the
    #: admission-control pressure signal.
    pressure_probe: "Callable[[], float] | None" = None


class QueryTicket:
    """Future for one admitted query.

    Expiry is two-sided: a worker that dequeues an expired ticket sheds it,
    and a *client* blocked in :meth:`result` past the ticket's deadline
    fails it too (``_expire_if_queued``) instead of waiting out a stalled
    queue. Claiming is the arbiter: whoever flips ``_claimed`` first —
    worker or expiring client — owns the ticket's outcome, so a worker can
    never start a query the client already wrote off.
    """

    def __init__(self, text: str, params: "Sequence[Any] | None", deadline: float) -> None:
        self.text = text
        self.params = params
        self.deadline = deadline
        self.enqueued_at = time.perf_counter()
        self._done = threading.Event()
        self._result: "QueryResult | None" = None
        self._error: "BaseException | None" = None
        self._claim_lock = threading.Lock()
        self._claimed = False
        #: Server hook building the deadline rejection (counts metrics).
        self._on_expire: "Callable[[float], ServeRejected] | None" = None

    def _complete(self, result: QueryResult) -> None:
        self._result = result
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def _try_claim(self) -> bool:
        """Worker-side: take ownership; False when the ticket was already
        expired/rejected while queued."""
        with self._claim_lock:
            if self._claimed or self._done.is_set():
                return False
            self._claimed = True
            return True

    def _expire_if_queued(self) -> bool:
        """Client-side: fail a still-queued ticket whose deadline passed
        with a retryable deadline rejection; False when a worker already
        owns it (the query is running — deadline no longer applies)."""
        with self._claim_lock:
            if self._claimed or self._done.is_set():
                return False
            self._claimed = True
            queued = time.perf_counter() - self.enqueued_at
            if self._on_expire is not None:
                self._error = self._on_expire(queued)
            else:
                self._error = ServeRejected("deadline", f"queued {queued:.3f}s")
            self._done.set()
            return True

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: "float | None" = None) -> QueryResult:
        """Block for the answer; re-raises rejections and query errors.

        A ticket whose deadline expires while it is still *queued* raises
        the same retryable ``ServeRejected("deadline")`` the worker-side
        shed would have produced — never a bare timeout the client cannot
        distinguish from a slow query.
        """
        expire_at = self.enqueued_at + self.deadline
        end_at = None if timeout is None else time.perf_counter() + timeout
        while not self._done.is_set():
            now = time.perf_counter()
            if end_at is not None and now >= end_at:
                raise TimeoutError(
                    f"query still running after {timeout}s: {self.text!r}"
                )
            if now >= expire_at and self._expire_if_queued():
                break
            waits = [] if self._claimed else [expire_at - now]
            if end_at is not None:
                waits.append(end_at - now)
            self._done.wait(max(min(waits), 0.0) if waits else None)
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


_STOP = object()


class QueryServer:
    """The serving front end over one session (see module docstring)."""

    def __init__(self, session: "Session", config: "ServeConfig | None" = None) -> None:
        self.session = session
        self.context = session.context
        self.config = config or ServeConfig()
        self.registry = self.context.registry
        #: The read path: one shard holding every partition of each view.
        self.router = ShardRouter(session, 1, RouterConfig(replication_factor=1))
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._admissions = itertools.count()
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker, name=f"serve-worker-{i}", daemon=True)
            for i in range(max(1, self.config.num_workers))
        ]
        for w in self._workers:
            w.start()

    # -- publishing (the ingest side) ---------------------------------------------

    def publish(self, view: str, idf: "IndexedDataFrame") -> PinnedSnapshot:
        """Pin ``idf`` and atomically make it the served version of ``view``
        (:meth:`ShardRouter.publish`: the pin job runs first, then catalog
        registration and the install happen behind the publish barrier, so
        a query that parses against the new catalog epoch is never served
        an older pin)."""
        pin = self.router.publish(view, idf)
        self.registry.set_gauge("serve_pinned_version", float(pin.version), view=view.lower())
        return pin

    def pinned(self, view: str) -> PinnedSnapshot:
        """The currently served snapshot of ``view``."""
        return self.router.pinned(view)

    def views(self) -> list[str]:
        return self.router.views()

    # -- client surface ------------------------------------------------------------

    def submit(
        self,
        text: str,
        params: "Sequence[Any] | None" = None,
        deadline: "float | None" = None,
    ) -> QueryTicket:
        """Admit a query (or raise :class:`ServeRejected` immediately)."""
        if self._closed:
            raise self._reject("shutdown", retryable=False)
        if self.context.faults.on_serve(next(self._admissions)):
            raise self._reject("chaos")
        pressure = self._pressure()
        if pressure >= self.config.shed_memory_fraction:
            raise self._reject("memory_pressure", f"pressure={pressure:.2f}")
        if self._queue.qsize() >= self.config.max_queue_depth:
            raise self._reject("queue_full", f"depth={self._queue.qsize()}")
        ticket = QueryTicket(
            text, params, deadline if deadline is not None else self.config.default_deadline
        )
        ticket._on_expire = lambda queued: self._reject(
            "deadline", f"queued {queued:.3f}s"
        )
        self._queue.put(ticket)
        self.registry.set_gauge("serve_queue_depth", float(self._queue.qsize()))
        return ticket

    def query(
        self,
        text: str,
        params: "Sequence[Any] | None" = None,
        deadline: "float | None" = None,
        timeout: "float | None" = 60.0,
    ) -> QueryResult:
        """Synchronous convenience: ``submit(...).result(timeout)``."""
        return self.submit(text, params, deadline).result(timeout)

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting queries; finish (``drain=True``) or reject
        (``drain=False``) the ones already queued; join the workers."""
        if self._closed:
            return
        self._closed = True
        if not drain:
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(item, QueryTicket) and item._try_claim():
                    item._fail(self._reject("shutdown", retryable=False))
                self._queue.task_done()
        for _ in self._workers:
            self._queue.put(_STOP)
        for w in self._workers:
            w.join(timeout=30.0)
        self.router.shutdown()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- internals -------------------------------------------------------------------

    def _pressure(self) -> float:
        probe = self.config.pressure_probe
        return probe() if probe is not None else self.context.memory_pressure()

    def _reject(self, reason: str, detail: str = "", retryable: bool = True) -> ServeRejected:
        self.registry.inc("serve_rejections_total", reason=reason)
        return ServeRejected(reason, detail, retryable=retryable)

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                self.registry.set_gauge("serve_queue_depth", float(self._queue.qsize()))
                self._run(item)
            finally:
                self._queue.task_done()

    def _run(self, ticket: QueryTicket) -> None:
        if not ticket._try_claim():
            return  # expired (or shed) while queued; the client already knows
        queued = time.perf_counter() - ticket.enqueued_at
        if queued > ticket.deadline:
            ticket._fail(self._reject("deadline", f"queued {queued:.3f}s"))
            return
        span = self.context.tracer.start_span("serve", kind="serve", text=ticket.text)
        try:
            with span:
                result = self.router.answer(ticket.text, ticket.params)
                if result.path == "point":
                    result.path = "fastpath"
                result.queued_seconds = queued
                result.total_seconds = time.perf_counter() - ticket.enqueued_at
                span.set_attr("path", result.path)
            ticket._complete(result)
            self.registry.inc("serve_queries_total", path=result.path)
            self.registry.observe(
                "serve_latency_seconds", result.total_seconds, path=result.path
            )
        except MemoryPressureError as exc:
            # The memory manager spilled and evicted and still could not
            # make room: surface as backpressure, never a failed query.
            ticket._fail(self._reject("memory_pressure", str(exc)))
        except ServeRejected as exc:
            ticket._fail(exc)
        except BaseException as exc:  # planner/executor errors belong to the client
            ticket._fail(exc)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"QueryServer(workers={len(self._workers)}, views={self.views()}, "
            f"closed={self._closed})"
        )
