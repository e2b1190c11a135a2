"""Pluggable execution backends for the sweep engine.

The engine hands every backend the same inputs — a list of ``(chunk_index,
points)`` jobs plus a picklable :class:`~repro.exp.runner.ChunkRunner` —
and requires the same contract back:

* call ``on_chunk(index, outcomes, stats)`` **as each chunk lands** (the
  engine journals it durably before the next chunk is acknowledged);
* deliver **exactly one** outcome list per chunk index, each computed by
  :meth:`ChunkRunner.run` (the single shared evaluation loop), so results
  are a pure function of the spec regardless of backend;
* survive dying workers: re-dispatch lost chunks, quarantine poison
  chunks instead of looping forever, and degrade to in-process serial
  execution when workers keep dying;
* honour ``on_chunk`` raising :class:`StopExecution` — stop dispatching,
  tear down, and report ``stopped=True`` (the engine turns this into a
  resumable :class:`~repro.exp.engine.SweepInterrupted`).

Backends
--------

:class:`SerialExecutor`
    Runs chunks in-process, in order.  The reference semantics.

:class:`ProcessPoolExecutor`
    ``concurrent.futures`` pool with dead-worker detection: a SIGKILLed or
    OOM-killed worker breaks the pool, the executor rebuilds it and
    re-dispatches every chunk that had no result yet.  A stall guard
    treats a worker wedged past its own timeout (SIGSTOPped, stuck where
    signals never land) the same way: when no chunk lands within one
    chunk's worst-case wall time (:meth:`ChunkRunner.deadline`), the
    workers are killed and the pool breaks.  Chunks that keep breaking
    the pool are quarantined via isolated prefix replay; after
    ``degrade_after`` pool breakages the remainder runs serially.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from abc import ABC, abstractmethod
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable

from .runner import ChunkRunner, PointOutcome
from .sweep import SweepPoint

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "StopExecution",
    "resolve_executor",
]

#: jobs are ``(chunk_index, points)``; outcomes flow back through on_chunk
Job = tuple[int, tuple[SweepPoint, ...]]
OnChunk = Callable[[int, list[PointOutcome], dict[str, Any]], None]


class StopExecution(Exception):
    """Raised *by the on_chunk callback* to stop an executor mid-run."""


class Executor(ABC):
    """One way of evaluating chunks; see the module docstring contract."""

    #: mode string recorded in the report execution section
    name = "abstract"

    @abstractmethod
    def run(
        self, jobs: list[Job], runner: ChunkRunner, on_chunk: OnChunk
    ) -> dict[str, Any]:
        """Evaluate every job; returns the execution-info dict."""

    def _info(self, **overrides: Any) -> dict[str, Any]:
        info = {
            "mode": self.name,
            "effective_workers": 1,
            "degraded": False,
            "worker_restarts": 0,
            "quarantined": [],
            "stopped": False,
        }
        info.update(overrides)
        return info


def resolve_executor(
    executor: "Executor | str | None", workers: int
) -> "Executor":
    """Map the engine's ``executor`` argument onto a backend instance."""
    if isinstance(executor, Executor):
        return executor
    if executor is None:
        executor = "serial" if workers <= 1 else "pool"
    if executor == "serial":
        return SerialExecutor()
    if executor == "pool":
        return ProcessPoolExecutor(workers=max(2, workers))
    raise ValueError(
        f"unknown executor {executor!r}; expected 'serial', 'pool' or an "
        "Executor instance"
    )


def _run_chunk_job(
    runner: ChunkRunner,
    index: int,
    points: tuple[SweepPoint, ...],
    slot: int | None = None,
) -> tuple[int, list[PointOutcome], dict[str, Any]]:
    """Top-level (hence picklable) chunk evaluation for pool workers.

    With a ``slot``, the worker's pid sits in the pool round's ``running``
    table while the chunk runs, so a break is blamed on the right chunk.
    """
    if slot is not None:
        _RUNNING[slot] = os.getpid()
    outcomes, stats = runner.run(points)
    if slot is not None:
        _RUNNING[slot] = 0
    return index, outcomes, stats


# ---------------------------------------------------------------------------
# serial
# ---------------------------------------------------------------------------


class SerialExecutor(Executor):
    """In-process, in-order evaluation — the reference backend."""

    name = "serial"

    def run(self, jobs, runner, on_chunk):
        for index, points in sorted(jobs):
            outcomes, stats = runner.run(points)
            try:
                on_chunk(index, outcomes, stats)
            except StopExecution:
                return self._info(stopped=True)
        return self._info()


# ---------------------------------------------------------------------------
# crash-tolerant process pool
# ---------------------------------------------------------------------------


class ProcessPoolExecutor(Executor):
    """``concurrent.futures`` pool with re-dispatch, quarantine, degradation.

    Parameters
    ----------
    workers:
        Pool size.
    quarantine_after:
        A chunk suspected in this many pool breakages (worker crashes or
        stall-guard kills) is pulled out of the pool and finished via
        isolated prefix replay (one disposable process per point) so a
        poison point is *recorded*, never retried forever and never
        silently dropped.
    degrade_after:
        After this many pool breakages the remaining chunks run serially
        in-process — the graceful-degradation floor when workers keep
        dying for reasons no single chunk explains (OOM storms, cgroup
        kills).
    """

    name = "process-pool"

    def __init__(
        self,
        workers: int,
        quarantine_after: int = 2,
        degrade_after: int = 4,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.quarantine_after = quarantine_after
        self.degrade_after = degrade_after

    def run(self, jobs, runner, on_chunk):
        pending: dict[int, tuple[SweepPoint, ...]] = dict(jobs)
        crashes: dict[int, int] = {}
        quarantined: list[dict[str, Any]] = []
        pool_breaks = 0

        def info(**overrides: Any) -> dict[str, Any]:
            return self._info(
                effective_workers=min(self.workers, max(1, len(jobs))),
                worker_restarts=pool_breaks, quarantined=quarantined,
                **overrides,
            )

        while pending:
            if pool_breaks >= self.degrade_after:
                # workers keep dying wholesale: stop burning processes and
                # finish the remainder in this process, serially
                for index in sorted(pending):
                    outcomes, stats = runner.run(pending.pop(index))
                    try:
                        on_chunk(index, outcomes, stats)
                    except StopExecution:
                        return info(degraded=True, stopped=True)
                break
            # chunks implicated in enough crashes leave the pool for good
            for index in [
                i for i in sorted(pending)
                if crashes.get(i, 0) >= self.quarantine_after
            ]:
                points = pending.pop(index)
                outcomes, stats, poisoned = _replay_chunk_isolated(
                    runner, points, crashes[index]
                )
                quarantined.extend(
                    {"id": pid, "chunk": index, "failures": crashes[index],
                     "error": err}
                    for pid, err in poisoned
                )
                try:
                    on_chunk(index, outcomes, stats)
                except StopExecution:
                    return info(stopped=True)
            if not pending:
                break
            suspects, stopped = self._pool_round(pending, runner, on_chunk)
            if suspects is not None:
                pool_breaks += 1
                for index in suspects:
                    crashes[index] = crashes.get(index, 0) + 1
            if stopped:
                return info(stopped=True)
        return info(degraded=pool_breaks >= self.degrade_after)

    def _pool_round(self, pending, runner, on_chunk):
        """Dispatch every pending chunk to one fresh pool until it drains.

        Delivered chunks leave ``pending``.  Returns ``(suspects, stopped)``:
        ``suspects`` is ``None`` when the pool drained, else the chunks
        blamed for breaking it — the one a dead worker was running, or,
        when the stall guard killed the workers because no chunk landed
        within one chunk's deadline, every chunk still running.  Chunks
        that never started or ran on a surviving worker are not blamed;
        all undelivered chunks stay in ``pending`` for re-dispatch.
        ``stopped`` is ``True`` when ``on_chunk`` raised
        :class:`StopExecution`.
        """
        order = sorted(pending)
        # pid of the worker running each chunk slot, 0 while not running
        running = multiprocessing.RawArray("l", len(order))
        deadline = runner.deadline(max(len(p) for p in pending.values()))
        stalled = False
        with futures.ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_track_running, initargs=(running,),
        ) as pool:
            submitted: dict[futures.Future, int] = {}
            try:
                # a worker may die before the last submit: that raises too
                for slot, index in enumerate(order):
                    future = pool.submit(
                        _run_chunk_job, runner, index, pending[index], slot
                    )
                    submitted[future] = index
                waiting = set(submitted)
                while waiting:
                    done, waiting = futures.wait(
                        waiting, timeout=deadline,
                        return_when=futures.FIRST_COMPLETED,
                    )
                    if not done:
                        # wedged past every per-point guard: kill the
                        # workers, the futures then fail as for a crash
                        stalled = True
                        _kill_workers(pool)
                        continue
                    for future in sorted(done, key=submitted.__getitem__):
                        index, outcomes, stats = future.result()
                        del pending[index]
                        on_chunk(index, outcomes, stats)
                return None, False
            except StopExecution:
                _kill_workers(pool)  # a stopped worker would hang shutdown
                return None, True
            except BrokenProcessPool:
                dead = set() if stalled else _crashed_pids(pool)
                # the pool terminates its survivors with SIGTERM, which a
                # stopped worker never acts on: make sure they are gone
                _kill_workers(pool)
        still_running = {
            index: running[slot]
            for slot, index in enumerate(order)
            if index in pending and running[slot]
        }
        suspects = [i for i, pid in still_running.items() if pid in dead]
        # no identifiable crash (stall-guard kill, or the exit status was
        # reaped elsewhere first): blame whatever was running
        suspects = suspects or sorted(still_running)
        # salvage every future that finished before the break (its result is
        # intact); the rest stay pending for re-dispatch
        for future, index in submitted.items():
            if (
                index in pending
                and future.done()
                and not future.cancelled()
                and future.exception() is None
            ):
                _, outcomes, stats = future.result()
                del pending[index]
                try:
                    on_chunk(index, outcomes, stats)
                except StopExecution:
                    return suspects, True
        return suspects, False


_RUNNING: Any = None  # a pool worker's view of its round's ``running`` array


def _track_running(running: Any) -> None:
    """Pool initializer: share the round's chunk -> worker pid table."""
    global _RUNNING
    _RUNNING = running


def _crashed_pids(pool: futures.ProcessPoolExecutor) -> set[int]:
    """Workers of a broken ``pool`` that died on their own.

    The pool SIGTERMs its survivors once it sees a worker die; any other
    exit status (SIGKILL, a segfault, ``os._exit``) marks a crash.
    """
    return {
        pid for pid, proc in _workers(pool).items()
        if proc.exitcode not in (None, -signal.SIGTERM)
    }


def _kill_workers(pool: futures.ProcessPoolExecutor) -> None:
    """SIGKILL every worker process of ``pool`` (works on stopped ones too)."""
    for proc in _workers(pool).values():
        proc.kill()


def _workers(pool: futures.ProcessPoolExecutor) -> dict[int, Any]:
    """``pid -> Process`` of the pool's workers (empty once it shut down)."""
    return dict(getattr(pool, "_processes", None) or {})


def _replay_chunk_isolated(
    runner: ChunkRunner,
    points: tuple[SweepPoint, ...],
    failures: int,
) -> tuple[list[PointOutcome], dict[str, Any], list[tuple[str, str]]]:
    """Finish a poison-suspect chunk one point at a time, each isolated.

    For point *i* a fresh single-worker pool replays the chunk *prefix*
    ``[0..i]`` (minus already-quarantined points) so the chunk-local cache
    history each survivor sees matches what a serial run of the survivors
    would build, then keeps only outcome *i*.  A prefix whose process dies
    identifies point *i* as the poison: it is recorded as a quarantined
    outcome — attributed, never silently dropped — and skipped from later
    prefixes (a run containing it could never complete on any backend).
    """
    outcomes: list[PointOutcome] = []
    poisoned: list[tuple[str, str]] = []
    stats: dict[str, Any] = {}
    alive: list[SweepPoint] = []
    for point in points:
        prefix = tuple(alive) + (point,)
        error: str | None = None
        # the in-worker guard should fire first; this is the belt for points
        # that wedge a worker so hard signals never land
        budget = runner.deadline(len(prefix))
        with futures.ProcessPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_run_chunk_job, runner, 0, prefix)
            try:
                _, prefix_outcomes, stats = future.result(timeout=budget)
                outcomes.append(prefix_outcomes[-1])
                alive.append(point)
                continue
            except BrokenProcessPool:
                error = (
                    f"quarantined: point crashed its worker (chunk implicated "
                    f"in {failures} worker death(s), confirmed in isolation)"
                )
            except futures.TimeoutError:
                _kill_workers(pool)
                error = (
                    "quarantined: point wedged an isolated worker past "
                    f"{budget}s (timeout mechanism never fired)"
                )
        poisoned.append((point.id, error))
        outcomes.append(PointOutcome(
            id=point.id, params=dict(point.params), seed=point.seed,
            value=None, error=error, attempts=failures,
        ))
    return outcomes, stats, poisoned
