"""Crash recovery end-to-end: killed and stalled workers, interrupt/resume.

These tests actually kill and stop processes.  The invariants under test:

* a SIGKILLed worker never loses or duplicates a point — the chunk is
  re-dispatched and the merged digest matches an undisturbed serial run;
* a SIGSTOPped worker (wedged where no in-process timeout reaches it) is
  killed by the pool's stall guard and its chunk re-dispatched, again
  converging on the serial digest;
* a sweep disturbed by a seeded per-chunk kill/stall plan converges to the
  bit-identical serial result;
* a sweep interrupted mid-run resumes from its journal and finishes
  bit-identical to a never-interrupted run;
* a point that deterministically kills or wedges every worker that touches
  it is quarantined — recorded in the result, never silently dropped, and
  never allowed to sink or hang the rest of the sweep.
"""

import os
import random
import signal
import time

import pytest

from repro.exp import ProcessPoolExecutor, Sweep, SweepInterrupted, run_sweep

KILL_POINT = 2  # the "x" value whose task misbehaves in poison sweeps
#: per-point timeout for sweeps with stalls: it arms the pool's stall guard
CHAOS_TIMEOUT = 1.0


def plain_task(params, ctx):
    return {"y": params["x"] * 10 + 1, "seed": ctx.seed}


def poison_task(params, ctx):
    """Kill *every* process that evaluates the hot point — unrecoverable."""
    if params["x"] == KILL_POINT:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"y": params["x"], "seed": ctx.seed}


def wedge_task(params, ctx):
    """Stop *every* process that evaluates the hot point — it never wakes."""
    if params["x"] == KILL_POINT:
        os.kill(os.getpid(), signal.SIGSTOP)
    return {"y": params["x"], "seed": ctx.seed}


def poison_then_slow_task(params, ctx):
    """The hot point kills its worker; its chunk neighbour is merely slow."""
    if params["x"] == KILL_POINT:
        os.kill(os.getpid(), signal.SIGKILL)
    if params["x"] == KILL_POINT + 1:
        time.sleep(1.5)
    return {"y": params["x"], "seed": ctx.seed}


def assert_no_lost_or_duplicated(result, sweep):
    ids = [o.id for o in result.outcomes]
    assert ids == [p.id for p in sweep.points]
    assert len(set(ids)) == len(ids)


# -- seeded chaos plans -------------------------------------------------------

def chaos_plan(seed, chunk_count, kill_rate=0.3, stall_rate=0.15):
    """Seeded per-chunk misfortunes: ``{chunk: "kill" | "stall"}``."""
    rng = random.Random(seed)
    plan = {}
    for chunk in range(chunk_count):
        roll = rng.random()
        if roll < kill_rate:
            plan[chunk] = "kill"
        elif roll < kill_rate + stall_rate:
            plan[chunk] = "stall"
    return plan


def chaos_task(params, ctx):
    """Strike the evaluating worker once, as the chunk's plan says.

    ``kill`` SIGKILLs the worker; ``stall`` SIGSTOPs it, wedging it where
    no in-process timeout can reach, so only the pool's stall guard
    recovers the chunk.  The per-chunk sentinel file marks the strike as
    spent: the re-dispatched chunk (and the serial baseline, which
    pre-creates every sentinel) runs undisturbed.
    """
    if params["strike"]:
        try:
            with open(params["sentinel"], "x"):
                pass
        except FileExistsError:
            pass  # strike already spent
        else:
            kill = params["strike"] == "kill"
            os.kill(os.getpid(), signal.SIGKILL if kill else signal.SIGSTOP)
    return {"y": params["x"] * 10 + 1, "seed": ctx.seed}


def chaos_sweep(name, n, chunk_size, plan, sentinels, seed):
    """``n`` points; the last point of every planned chunk strikes once."""
    points = []
    for i in range(n):
        chunk = i // chunk_size
        last = i % chunk_size == chunk_size - 1
        points.append({"id": f"x={i}", "params": {
            "x": i,
            "strike": plan.get(chunk, "") if last else "",
            "sentinel": str(sentinels / f"chunk-{chunk}"),
        }})
    return Sweep(name, chaos_task, points, seed=seed)


def spent_baseline(sweep, plan, sentinels, chunk_size):
    """The undisturbed serial run: every strike marked spent beforehand."""
    paths = [sentinels / f"chunk-{chunk}" for chunk in plan]
    for path in paths:
        path.touch()
    baseline = run_sweep(
        sweep, workers=1, chunk_size=chunk_size, timeout=CHAOS_TIMEOUT
    )
    for path in paths:
        path.unlink()
    return baseline


def run_chaos(sweep, plan, chunk_size, **engine_kwargs):
    """Run ``sweep`` on a 2-worker pool with the default quarantine policy.

    Only ``degrade_after`` is raised above the plan size: each strike
    breaks the pool at most once, and degrading to serial would run a
    strike inside this very process.
    """
    pool = ProcessPoolExecutor(workers=2, degrade_after=len(plan) + 1)
    return run_sweep(
        sweep, workers=2, chunk_size=chunk_size, executor=pool,
        timeout=CHAOS_TIMEOUT, **engine_kwargs,
    )


def assert_all_struck(plan, sentinels):
    missing = [c for c in plan if not (sentinels / f"chunk-{c}").exists()]
    assert not missing, f"strikes never fired for chunks {missing}"


# -- tests --------------------------------------------------------------------

def test_pool_survives_sigkilled_worker_mid_chunk(tmp_path):
    plan = {1: "kill"}
    sweep = chaos_sweep("recovery", 6, 2, plan, tmp_path, seed=5)
    baseline = spent_baseline(sweep, plan, tmp_path, chunk_size=2)

    result = run_sweep(sweep, workers=2, executor="pool", chunk_size=2)
    assert_all_struck(plan, tmp_path)
    assert result.mode == "process-pool"
    assert result.worker_restarts >= 1
    assert_no_lost_or_duplicated(result, sweep)
    assert result.digest() == baseline.digest()
    assert result.payload() == baseline.payload()
    assert result.quarantined == []


@pytest.mark.timeout(60)
def test_pool_stall_guard_recovers_self_stopped_worker(tmp_path):
    plan = {1: "stall"}
    sweep = chaos_sweep("stall", 6, 2, plan, tmp_path, seed=6)
    baseline = spent_baseline(sweep, plan, tmp_path, chunk_size=2)

    result = run_sweep(
        sweep, workers=2, executor="pool", chunk_size=2,
        timeout=CHAOS_TIMEOUT,
    )
    assert_all_struck(plan, tmp_path)
    assert result.mode == "process-pool"
    assert result.worker_restarts >= 1
    assert_no_lost_or_duplicated(result, sweep)
    assert result.digest() == baseline.digest()
    assert result.quarantined == []


@pytest.mark.timeout(60)
def test_permanently_wedged_point_is_quarantined_not_hung():
    sweep = Sweep("wedge", wedge_task, [{"x": i} for i in range(6)], seed=8)
    result = run_sweep(
        sweep, workers=2, executor="pool", chunk_size=1, timeout=0.5
    )
    assert_no_lost_or_duplicated(result, sweep)
    (wedged,) = [o for o in result.outcomes if o.quarantined]
    assert wedged.id == f"x={KILL_POINT}"
    assert "wedged" in wedged.error
    assert all(o.ok for o in result.outcomes if o is not wedged)
    (entry,) = result.quarantined
    assert entry["id"] == f"x={KILL_POINT}" and entry["failures"] >= 2


@pytest.mark.timeout(60)
def test_isolated_replay_deadline_counts_retries():
    """A slow-but-healthy neighbour of a poison point keeps its outcome.

    Isolated replay must allow the neighbour every retry its runner
    grants (six 1 s timeouts here); it records the same per-attempt
    timeout a serial run does, not a quarantine.
    """
    sweep = Sweep(
        "replay_deadline", poison_then_slow_task,
        [{"x": i} for i in range(4)], seed=3,
    )
    result = run_sweep(
        sweep, workers=2, executor="pool", chunk_size=2,
        timeout=1.0, retries=5,
    )
    assert_no_lost_or_duplicated(result, sweep)
    by_id = {o.id: o for o in result.outcomes}
    assert by_id[f"x={KILL_POINT}"].quarantined
    slow = by_id[f"x={KILL_POINT + 1}"]
    assert not slow.quarantined
    assert slow.error == "timeout after 1.0s (sigalrm)"
    assert slow.attempts == 6
    assert slow.retry_seed == slow.seed + 5
    assert [e["id"] for e in result.quarantined] == [f"x={KILL_POINT}"]


@pytest.mark.timeout(60)
def test_chaos_sweep_matches_undisturbed_serial_run(tmp_path):
    plan = {1: "kill", 3: "stall"}
    sweep = chaos_sweep("chaos_eq", 10, 2, plan, tmp_path, seed=9)
    baseline = spent_baseline(sweep, plan, tmp_path, chunk_size=2)
    result = run_chaos(sweep, plan, chunk_size=2)
    assert_all_struck(plan, tmp_path)
    assert result.worker_restarts >= 1
    assert_no_lost_or_duplicated(result, sweep)
    assert result.digest() == baseline.digest()
    assert result.payload() == baseline.payload()
    assert result.quarantined == []


@pytest.mark.timeout(120)
def test_pool_breaks_blame_only_the_crashed_chunk(tmp_path):
    """Every chunk kills its worker once; none may be quarantined.

    A pool break is charged to the chunk whose worker died, not to chunks
    that were queued or running on a surviving worker: a chunk that has
    not struck yet must never reach isolated replay, where its one-off
    strike would look like a poison point.
    """
    plan = {chunk: "kill" for chunk in range(8)}
    sweep = chaos_sweep("blame", 16, 2, plan, tmp_path, seed=11)
    baseline = spent_baseline(sweep, plan, tmp_path, chunk_size=2)
    result = run_chaos(sweep, plan, chunk_size=2)
    assert_all_struck(plan, tmp_path)
    assert result.worker_restarts >= 1
    assert_no_lost_or_duplicated(result, sweep)
    assert result.quarantined == []
    assert result.digest() == baseline.digest()


def test_chaos_kill_with_store_then_resume(tmp_path):
    """Chaos + durability: kill workers, then resume from the journal."""
    plan = {0: "kill"}
    sentinels = tmp_path / "sentinels"
    sentinels.mkdir()
    store = tmp_path / "store"
    sweep = chaos_sweep("chaos_store", 8, 2, plan, sentinels, seed=2)
    baseline = spent_baseline(sweep, plan, sentinels, chunk_size=2)
    disturbed = run_chaos(sweep, plan, chunk_size=2, store=store)
    assert_all_struck(plan, sentinels)
    assert disturbed.digest() == baseline.digest()
    # everything is journaled: a rerun is a pure replay, still bit-identical
    replay = run_sweep(
        sweep, workers=1, chunk_size=2, store=store, resume=True,
        timeout=CHAOS_TIMEOUT,
    )
    assert replay.resumed_chunks == replay.chunk_count == 4
    assert replay.digest() == baseline.digest()


def test_interrupted_pool_run_resumes_bit_identically(tmp_path):
    sweep = Sweep(
        "resume_pool", plain_task, [{"x": i} for i in range(12)], seed=4
    )
    baseline = run_sweep(sweep, workers=1, chunk_size=3)
    with pytest.raises(SweepInterrupted) as err:
        run_sweep(
            sweep,
            workers=2,
            executor="pool",
            chunk_size=3,
            store=tmp_path,
            interrupt_after=2,
        )
    assert err.value.completed_chunks >= 2
    resumed = run_sweep(
        sweep,
        workers=2,
        executor="pool",
        chunk_size=3,
        store=tmp_path,
        resume=True,
    )
    assert resumed.resumed_chunks >= 2
    assert_no_lost_or_duplicated(resumed, sweep)
    assert resumed.digest() == baseline.digest()
    assert resumed.payload() == baseline.payload()


def test_poison_point_is_quarantined_not_dropped():
    sweep = Sweep(
        "poison", poison_task, [{"x": i} for i in range(6)], seed=8
    )
    result = run_sweep(sweep, workers=2, executor="pool", chunk_size=2)
    assert_no_lost_or_duplicated(result, sweep)
    quarantined = [o for o in result.outcomes if o.quarantined]
    assert [o.id for o in quarantined] == [f"x={KILL_POINT}"]
    assert quarantined[0].error
    healthy = [o for o in result.outcomes if not o.quarantined]
    assert all(o.ok for o in healthy) and len(healthy) == 5
    # quarantine is surfaced in the report, not buried
    report = result.to_report()
    (entry,) = report["execution"]["quarantined"]
    assert entry["id"] == f"x={KILL_POINT}"
    assert entry["failures"] >= 2
    assert "quarantined" in entry["error"]
    assert result.failed == quarantined


@pytest.mark.skipif(
    os.environ.get("SWEEP_CHAOS_SMOKE") != "1",
    reason="long randomized chaos smoke; set SWEEP_CHAOS_SMOKE=1 to run",
)
@pytest.mark.timeout(300)
def test_chaos_smoke_randomized_plans(tmp_path):
    """Heavier randomized kill/stall battery for CI's opt-in smoke job."""
    for seed in range(3):
        plan = chaos_plan(seed, chunk_count=8, kill_rate=0.4, stall_rate=0.25)
        sentinels = tmp_path / f"seed-{seed}"
        sentinels.mkdir()
        sweep = chaos_sweep("chaos_smoke", 16, 2, plan, sentinels, seed=21)
        baseline = spent_baseline(sweep, plan, sentinels, chunk_size=2)
        result = run_chaos(sweep, plan, chunk_size=2)
        assert_all_struck(plan, sentinels)
        assert_no_lost_or_duplicated(result, sweep)
        assert result.digest() == baseline.digest(), (
            f"chaos seed {seed} diverged (plan: {plan})"
        )
        assert result.quarantined == []
