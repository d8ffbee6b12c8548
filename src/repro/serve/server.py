"""QueryServer: admission control in front of a one-shard router.

One :class:`QueryServer` wraps one :class:`~repro.sql.session.Session` and
turns it into a service: clients :meth:`~QueryServer.submit` SQL (optionally
with bind parameters) for a :class:`QueryTicket` future, or
:meth:`~QueryServer.query` it for the answer. Admission control sheds load
*before* work starts — the server may reject (retryably) but never returns
a wrong answer. It rejects, in order:

* ``shutdown`` — the server is closing (not retryable);
* ``chaos`` — injected (``context.faults.serve_rejection_prob``);
* ``memory_pressure`` — the worst executor block store is at
  ``ServeConfig.shed_memory_fraction`` of its budget, or a running query's
  :class:`~repro.engine.memory_manager.MemoryPressureError` outlived the
  task-level retries;
* ``queue_full`` — the admission queue is at ``max_queue_depth``;
* ``deadline`` — the query waited past its deadline (stale work is shed).

At most ``num_workers`` queries answer at once: a worker thread and a
``query`` caller alike hold one of that many slots. A ``query`` admitted
while a slot is free and no ticket waits is answered on the caller's thread
(no queue, no handoff); otherwise it waits for a worker as a ticket does.

The server has no read path of its own: it owns a
:class:`~repro.serve.router.ShardRouter` with one shard and one replica, and
``publish`` / ``pinned`` / ``views`` delegate to it. An admitted query is
answered by :meth:`~repro.serve.router.ShardRouter.answer` — a point lookup
(``path="fastpath"``), range seek or scan of a published view is read from
the pinned partitions on the answering thread, no job; everything else runs
through the session pipeline. Shard-kill chaos and the ``serve_router_*``
counters belong to :meth:`ShardRouter.query`; the one shard feeds the
``serve_shard_*{shard="0"}`` series.
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

    #: Worker threads, and answering slots (held by workers and inline queries alike).
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

    def __init__(
        self, text: str, params: "Sequence[Any] | None", deadline: float,
        reject: "Callable[[str, str], ServeRejected]",
    ) -> None:
        self.text = text
        self.params = params
        self.deadline = deadline
        self.enqueued_at = time.perf_counter()
        self._done = threading.Event()
        self._result: "QueryResult | None" = None
        self._error: "BaseException | None" = None
        self._claim_lock = threading.Lock()
        self._claimed = False
        #: The server's rejection builder (counts the deadline rejection).
        self._reject = reject

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
            self._error = self._reject("deadline", f"queued {queued:.3f}s")
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
        workers = max(1, self.config.num_workers)
        self._slots = threading.Semaphore(workers)  # held by workers and inline queries alike
        #: Per path: the ``serve_queries_total`` / ``serve_latency_seconds`` keys.
        self._series: "dict[str, tuple[Any, Any]]" = {}
        self._workers = [
            threading.Thread(target=self._worker, name=f"serve-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for w in self._workers:
            w.start()

    # -- publishing (the ingest side) ---------------------------------------------

    def publish(self, view: str, idf: "IndexedDataFrame") -> PinnedSnapshot:
        """Pin ``idf`` and atomically make it the served version of ``view``
        (:meth:`ShardRouter.publish`: a query that parses against the new
        catalog epoch is never served an older pin)."""
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
        self._admit()
        return self._enqueue(text, params, deadline)

    def query(
        self,
        text: str,
        params: "Sequence[Any] | None" = None,
        deadline: "float | None" = None,
        timeout: "float | None" = 60.0,
    ) -> QueryResult:
        """Admit and answer a query: on the caller's thread when a slot is
        free and no ticket is queued (it never waits, so ``deadline`` cannot
        lapse), else ``submit(...).result(timeout)``. ``timeout`` bounds the
        wait for a worker; a query answered inline is not abandoned (nor is
        a worker's: neither is ever cancelled)."""
        t0 = time.perf_counter()
        self._admit()
        # Tickets put and not yet holding a slot (a worker calls task_done
        # once it holds one): while any waits, this query queues behind it.
        if self._queue.unfinished_tasks or not self._slots.acquire(blocking=False):
            return self._enqueue(text, params, deadline).result(timeout)
        try:
            return self._run(text, params, t0, 0.0)
        finally:
            self._slots.release()

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

    def _reject(self, reason: str, detail: str = "", retryable: bool = True) -> ServeRejected:
        self.registry.inc("serve_rejections_total", reason=reason)
        return ServeRejected(reason, detail, retryable=retryable)

    def _admit(self) -> None:
        """Admission control, in the module docstring's order (a worker
        sheds a ticket past its ``deadline``; an inline query never waits)."""
        if self._closed:
            raise self._reject("shutdown", retryable=False)
        if self.context.faults.on_serve(next(self._admissions)):
            raise self._reject("chaos")
        probe = self.config.pressure_probe
        pressure = probe() if probe is not None else self.context.memory_pressure()
        if pressure >= self.config.shed_memory_fraction:
            raise self._reject("memory_pressure", f"pressure={pressure:.2f}")
        if self._queue.qsize() >= self.config.max_queue_depth:
            raise self._reject("queue_full", f"depth={self._queue.qsize()}")

    def _enqueue(self, text: str, params: "Sequence[Any] | None", deadline: "float | None") -> QueryTicket:
        deadline = self.config.default_deadline if deadline is None else deadline
        ticket = QueryTicket(text, params, deadline, self._reject)
        self._queue.put(ticket)
        self.registry.set_gauge("serve_queue_depth", float(self._queue.qsize()))
        return ticket

    def _worker(self) -> None:
        while True:
            ticket = self._queue.get()
            if ticket is _STOP:
                self._queue.task_done()
                return
            self.registry.set_gauge("serve_queue_depth", float(self._queue.qsize()))
            with self._slots:
                self._queue.task_done()
                if not ticket._try_claim():
                    continue  # expired (or shed) while queued; the client already knows
                queued = time.perf_counter() - ticket.enqueued_at
                try:
                    if queued > ticket.deadline:
                        raise self._reject("deadline", f"queued {queued:.3f}s")
                    ticket._complete(self._run(ticket.text, ticket.params, ticket.enqueued_at, queued))
                except BaseException as exc:  # rejections, and planner/executor errors
                    ticket._fail(exc)

    def _run(self, text: str, params: "Sequence[Any] | None", admitted_at: float, queued: float) -> QueryResult:
        """Answer one admitted query holding a slot, on a worker or inline
        (``queued`` 0.0: it never waited); raises its rejection or error."""
        span = self.context.tracer.start_span("serve", kind="serve", text=text)
        try:
            with span:
                result = self.router.answer(text, params)
                if result.path == "point":
                    result.path = "fastpath"
                result.queued_seconds = queued
                result.total_seconds = time.perf_counter() - admitted_at
                span.set_attr("path", result.path)
        except MemoryPressureError as exc:
            # The memory manager spilled and evicted and still could not
            # make room: surface as backpressure, never a failed query.
            raise self._reject("memory_pressure", str(exc)) from None
        path, key = result.path, self.registry.key
        if path not in self._series:
            self._series[path] = key("serve_queries_total", path=path), key("serve_latency_seconds", path=path)
        self.registry.count_and_observe(*self._series[path], result.total_seconds)
        return result

    def __repr__(self) -> str:  # pragma: no cover
        return f"QueryServer(workers={len(self._workers)}, views={self.views()}, closed={self._closed})"
