"""Executor backends: shared contract, digest equality, stop semantics."""

import pytest

from repro.exp import (
    ProcessPoolExecutor,
    SerialExecutor,
    Sweep,
    resolve_executor,
    run_sweep,
)
from repro.exp.executors import StopExecution
from repro.exp.runner import ChunkRunner


def square_task(params, ctx):
    return {"y": params["x"] ** 2, "seed": ctx.seed}


def make_sweep(n=6):
    return Sweep("backends", square_task, [{"x": i} for i in range(n)], seed=11)


def make_jobs(sweep, size=2):
    pts = sweep.points
    return [
        (i, tuple(pts[lo : lo + size]))
        for i, lo in enumerate(range(0, len(pts), size))
    ]


# -- resolve_executor ---------------------------------------------------------

def test_resolver_defaults_to_serial_for_one_worker():
    assert isinstance(resolve_executor(None, 1), SerialExecutor)


def test_resolver_defaults_to_pool_for_many_workers():
    backend = resolve_executor(None, 3)
    assert isinstance(backend, ProcessPoolExecutor)
    assert backend.workers == 3


def test_resolver_maps_names_and_passes_instances_through():
    assert isinstance(resolve_executor("serial", 4), SerialExecutor)
    assert isinstance(resolve_executor("pool", 1), ProcessPoolExecutor)
    mine = SerialExecutor()
    assert resolve_executor(mine, 8) is mine


def test_resolver_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown executor"):
        resolve_executor("threads", 2)
    with pytest.raises(ValueError, match="'serial', 'pool' or"):
        resolve_executor("queue", 2)


# -- shared contract ----------------------------------------------------------

def collect(backend, sweep, **runner_kwargs):
    runner = ChunkRunner(task=sweep.task, **runner_kwargs)
    landed = {}

    def on_chunk(index, outcomes, stats):
        assert index not in landed, "chunk delivered twice"
        landed[index] = outcomes

    info = backend.run(make_jobs(sweep), runner, on_chunk)
    return landed, info


def test_serial_runs_chunks_in_order():
    sweep = make_sweep()
    landed, info = collect(SerialExecutor(), sweep)
    assert sorted(landed) == [0, 1, 2]
    assert info["mode"] == "serial"
    assert not info["degraded"] and not info["stopped"]
    assert [o.id for o in landed[0]] == ["x=0", "x=1"]


@pytest.mark.parametrize(
    "backend_name,backend",
    [("pool", ProcessPoolExecutor(workers=2))],
)
def test_parallel_backends_match_serial_exactly(backend_name, backend):
    sweep = make_sweep()
    serial_landed, _ = collect(SerialExecutor(), sweep)
    landed, info = collect(backend, sweep)
    assert info["mode"] == "process-pool"
    assert info["effective_workers"] == backend.workers
    assert sorted(landed) == sorted(serial_landed)
    for index in serial_landed:
        assert [o.payload() for o in landed[index]] == [
            o.payload() for o in serial_landed[index]
        ]
    assert info["quarantined"] == []


def test_stop_execution_halts_serial_backend():
    sweep = make_sweep()
    seen = []

    def on_chunk(index, outcomes, stats):
        seen.append(index)
        raise StopExecution()

    info = SerialExecutor().run(
        make_jobs(sweep), ChunkRunner(task=sweep.task), on_chunk
    )
    assert seen == [0]
    assert info["stopped"] is True


def test_engine_maps_executor_names_to_modes():
    sweep = make_sweep(4)
    serial = run_sweep(sweep, workers=1)
    assert serial.mode == "serial"
    pooled = run_sweep(sweep, workers=2, executor="pool")
    assert pooled.mode == "process-pool"
    assert pooled.digest() == serial.digest()


# -- chunk deadline -----------------------------------------------------------

def test_chunk_deadline_bounds_every_attempt_and_backoff():
    assert ChunkRunner(task=square_task).deadline(4) is None
    once = ChunkRunner(task=square_task, timeout=1.0)
    retried = ChunkRunner(task=square_task, timeout=1.0, retries=5)
    backed_off = ChunkRunner(
        task=square_task, timeout=1.0, retries=5, backoff=0.5
    )
    assert once.deadline(2) > 2 * 1.0
    # six timed-out attempts per point, each point of the chunk
    assert retried.deadline(1) > 6 * 1.0
    assert retried.deadline(3) > 3 * 6 * 1.0
    # the backoff before attempt a stays below backoff * 2**(a-1)
    slept = sum(0.5 * 2 ** (a - 1) for a in range(1, 6))
    assert backed_off.deadline(1) - retried.deadline(1) >= slept
