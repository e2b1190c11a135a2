"""Crash-tolerant parallel experiment engine for parameter sweeps.

The paper's evaluation is a family of parameter sweeps; this package turns
those loops into declarative, validated, parallel, *resumable*
experiments::

    from repro.exp import Sweep, run_sweep, tasks

    sweep = Sweep.grid(
        "scalability",
        tasks.scalability_blocksizes,
        axes={"streams": [2, 4, 8, 16], "load_pct": [50, 70, 90]},
    )
    result = run_sweep(sweep, workers=4, out_dir=".")   # BENCH_scalability.json
    assert result.digest() == run_sweep(sweep, workers=1).digest()

    # durable + resumable: journal chunks as they land, survive kills
    result = run_sweep(sweep, workers=4, store="results/", resume=False)
    again = run_sweep(sweep, workers=4, store="results/")   # pure cache hit

Guarantees: eager spec validation (bad grids fail before any worker
spawns), deterministic per-point seeding, chunk-local solver caching with
warm starts, and bit-identical merged results for any worker count, either
execution backend (serial / process pool) and any crash-resume history.
Fault tolerance: seeded retries with exponential backoff, portable
per-point timeouts, dead-worker detection with chunk re-dispatch, a stall
guard that kills workers wedged past their chunk's deadline, poison-point
quarantine, and graceful degradation to serial — chaos-tested by seeded
kill/stall plans in ``tests/integration/test_sweep_recovery.py``.
"""

from . import tasks
from .cache import ShardedSolverCache, SolverCache
from .engine import (
    DEFAULT_CHUNK_SIZE,
    PointContext,
    PointOutcome,
    SweepInterrupted,
    SweepResult,
    run_sweep,
    write_benchmark,
)
from .executors import (
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    resolve_executor,
)
from .runner import ChunkRunner, retry_delay
from .store import ResultStore, StoreMismatch, point_key, sweep_fingerprint
from .sweep import (
    Sweep,
    SweepError,
    SweepPoint,
    point_seed,
    scenario_corpus,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ChunkRunner",
    "Executor",
    "PointContext",
    "PointOutcome",
    "ProcessPoolExecutor",
    "ResultStore",
    "SerialExecutor",
    "ShardedSolverCache",
    "SolverCache",
    "StoreMismatch",
    "Sweep",
    "SweepError",
    "SweepInterrupted",
    "SweepPoint",
    "SweepResult",
    "point_key",
    "point_seed",
    "resolve_executor",
    "retry_delay",
    "run_sweep",
    "scenario_corpus",
    "sweep_fingerprint",
    "tasks",
    "write_benchmark",
]
