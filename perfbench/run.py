"""End-to-end and per-layer benchmark of the reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Workloads (see ``README.md`` in this directory for why each was chosen
and which layers it loads): ``analyze``, ``design_flow``,
``soc_scenarios`` and ``serve_churn``.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the environment stamp.

``--trace 0`` reports the end-to-end metrics.  Every host time is given
in *ref* units (see ``refloop.py``): each op is divided by the mean of the
reference loop timed right before and right after it.  ``setup_s`` is the
median of several fresh processes' time from start to the first timed
op, one warm-up op included.

``--trace 1`` reports the per-layer metrics: half the run untraced, then
half with spans recorded around the program's public functions
(``tracing.py``); spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("analyze", "design_flow", "soc_scenarios", "serve_churn")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

#: end-to-end metrics (``--trace 0``) with their units
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "op_p50_ref": "ref",
    "op_p80_ref": "ref",
    "throughput_kref": "op/kref",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> float:
    """Import the program from this checkout's sources; returns ms taken."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program sources at {SRC.relative_to(ROOT)}/repro; run from "
             "the root of a checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro
    import repro.api
    import repro.core
    import repro.exp
    import repro.serve
    ms = (time.perf_counter() - t0) * 1000
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from this checkout")
    return ms


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


# ---------------------------------------------------------------------------
# op workloads
# ---------------------------------------------------------------------------

def measure_ops(wl, seconds: float, tracer=None):
    """Run ops for ``seconds``; each op is bracketed by reference loops."""
    from refloop import time_ref
    from workloads import Phase

    phase = Phase()
    ref_before = time_ref()
    phase.ref_ms.append(ref_before * 1000)
    deadline = time.perf_counter() + seconds
    op_id = 0
    while True:
        if tracer is not None:
            tracer.op_id = op_id
        key, inp = wl.next_input()
        errors: list[str] = []
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = wl.op(inp)
        except Exception as exc:  # an op that raises is a failed op
            out, errors = None, [f"{key}: {exc!r}"]
        dt = time.perf_counter() - t0
        ref_after = time_ref()
        ref = (ref_before + ref_after) / 2
        ref_before = ref_after
        phase.ref_ms.append(ref_after * 1000)
        phase.keys.append(key)
        phase.lat_ref.append(dt / ref)
        phase.lat_ms.append(dt * 1000)
        phase.busy_ref += dt / ref
        phase.busy_ms += dt * 1000
        if out is not None:
            summary = wl.summarize(out)
            errors += wl.check(key, summary)
            for name, amount in summary.get("counts", {}).items():
                phase.count(name, amount)
        phase.attempted += 1
        if errors:
            phase.failed += 1
            phase.errors += errors
        op_id += 1
        if time.perf_counter() >= deadline:
            return phase


def warm_up_ops(wl) -> list[str]:
    """One unmeasured op, its checks, and the negative control: every
    corrupted variant of its output must fail the same checks.

    The warm-up input is the same for every seed, so that ``setup_s``,
    which includes it, does not vary with the seed's pool order.
    """
    key = min(wl.pool)
    summary = wl.summarize(wl.op(wl.pool[key]))
    errors = wl.check(key, summary)
    for label, bad in wl.corruptions(summary):
        if not wl.check(key, bad):
            errors.append(f"negative control: {label} passed the check")
    return errors


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first timed op.

    The probe prints the system-wide monotonic clock when it is ready.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed: {out[-200:]!r} {err[-500:]}")
    return float(words[1]) - started


def env_stamp(ref_ms: list[float]) -> dict[str, Any]:
    import numpy
    import scipy

    clock = time.get_clock_info("perf_counter")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "git_rev": git_rev(),
        "clock": {"name": "perf_counter", "implementation": clock.implementation,
                  "resolution": clock.resolution, "monotonic": clock.monotonic},
        "host.ref_ms": {"median": statistics.median(ref_ms), "iqr": iqr(ref_ms)},
    }


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def e2e_metrics(setup: list[float], phase) -> dict[str, tuple[float, str]]:
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": (phase.attempted - phase.failed) / phase.attempted,
        "op_p50_ref": phase.pooled(50),
        "op_p80_ref": phase.pooled(80),
        "throughput_kref": 1000 * (phase.attempted - phase.failed) / phase.busy_ref,
    }
    return {name: (value, E2E_UNITS[name]) for name, value in values.items()}


def layer_metrics(tracer, untraced, traced, import_ms: float,
                  counters: dict[str, tuple[float, str]]
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: span totals per op of the traced phase, the
    workload's counters, and drift diagnostics from the untraced phase."""
    from tracing import TARGETS

    ops = traced.attempted
    totals = tracer.layer_totals()
    out: dict[str, tuple[float, str]] = {}
    for name in TARGETS:
        t = totals.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        out[f"{name}.calls"] = (t["calls"] / ops, "calls/op")
        out[f"{name}.ms"] = (t["ms"] / ops, "ms/op")
        out[f"{name}.self_ms"] = (t["self_ms"] / ops, "ms/op")
        out[f"{name}.share"] = (t["ms"] / traced.busy_ms, "ratio")
    out.update(counters)
    out["setup.import_ms"] = (import_ms, "ms")
    out["host.ref_ms.p50"] = (statistics.median(untraced.ref_ms), "ms")
    out["host.ref_ms.iqr"] = (iqr(untraced.ref_ms), "ms")
    out["host.op_ms.p50"] = (untraced.pooled(50, ref=False), "ms")
    out["host.op_ms.iqr"] = (
        untraced.pooled(75, ref=False) - untraced.pooled(25, ref=False), "ms")
    out["trace.overhead"] = (traced.pooled(50) / untraced.pooled(50), "ratio")
    return out


def op_counters(untraced, traced, sim: dict[str, int]
                ) -> dict[str, tuple[float, str]]:
    """Counters of the simulation and sweep layers (zero where bypassed)."""
    flits = sim["fast"] + sim["slow"]
    lookups = traced.counts.get("cache_lookups", 0)
    cycles = untraced.counts.get("cycles", 0)
    return {
        "arch.fastpath.take_rate": (sim["fast"] / flits if flits else 0.0, "ratio"),
        "sim.skipped_cycles": (sim["skipped"] / traced.attempted, "cycles/op"),
        "sim.cycles_per_ref": (cycles / untraced.busy_ref, "cycles/ref"),
        "exp.overhead_ms": (
            traced.counts.get("sweep_overhead_ms", 0.0) / traced.attempted,
            "ms/op"),
        "exp.cache.hit_rate": (
            traced.counts.get("cache_hits", 0) / lookups if lookups else 0.0,
            "ratio"),
    }


def serve_counters(untraced, traced, before, after
                   ) -> dict[str, tuple[float, str]]:
    """Counters of the serve layer over the traced phase (zero elsewhere)."""
    paths = ("memo", "warm", "ilp", "closed-form")
    answered = sum(traced.counts.get(f"solver.{p}", 0) for p in paths) or 1
    out = {f"serve.solver.{p.replace('-', '_')}":
           (traced.counts.get(f"solver.{p}", 0) / answered, "ratio")
           for p in paths}
    if before is None:
        delta = {"lookups": 0, "hits": 0, "coalesced": 0, "trips": 0,
                 "transitions": 0}
    else:
        flat = [{"lookups": c["cache"]["lookups"], "hits": c["cache"]["hits"],
                 "coalesced": c["coalesced"], "trips": c["breaker"]["trips"],
                 "transitions": c["transitions"]} for c in (before, after)]
        delta = {k: flat[1][k] - flat[0][k] for k in flat[0]}
    out.update({
        "serve.cache.hit_rate": (
            delta["hits"] / delta["lookups"] if delta["lookups"] else 0.0,
            "ratio"),
        "serve.coalesced_solves": (delta["coalesced"] / traced.attempted, "1/req"),
        "serve.breaker.trips": (delta["trips"], "count"),
        "serve.transitions": (delta["transitions"] / traced.attempted, "1/req"),
        "serve.req_p99_ref": (
            untraced.pooled(99) if before is not None else 0.0, "ref"),
    })
    return out


def soc_observer(stats: dict[str, int]):
    """Collects fast-path and kernel counters from each simulate_system run."""
    def observe(run) -> None:
        rings = run.fastpath()["rings"].values()
        stats["fast"] += sum(r["fast"] for r in rings)
        stats["slow"] += sum(r["slow"] for r in rings)
        stats["skipped"] += run.soc.sim.skipped_cycles
    return observe


def merged(untraced, traced):
    """Attempted/failed/errors of both phases, drift samples of the first."""
    untraced.attempted += traced.attempted
    untraced.failed += traced.failed
    untraced.errors += traced.errors
    return untraced


def run_ops(args, import_ms: float, setup: list[float]):
    from tracing import Tracer
    from workloads import OP_WORKLOADS, load_golden

    wl = OP_WORKLOADS[args.workload](args.seed, load_golden())
    errors = warm_up_ops(wl)
    if args.probe_setup:
        return errors, time.monotonic()
    if not args.trace:
        phase = measure_ops(wl, args.seconds)
        return errors + phase.errors, (phase, e2e_metrics(setup, phase))
    untraced = measure_ops(wl, args.seconds / 2)
    tracer = Tracer()
    sim = {"fast": 0, "slow": 0, "skipped": 0}
    tracer.observers["arch.simulate_system"] = soc_observer(sim)
    tracer.install()
    try:
        traced = measure_ops(wl, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    counters = {**op_counters(untraced, traced, sim),
                **serve_counters(untraced, traced, None, None)}
    metrics = layer_metrics(tracer, untraced, traced, import_ms, counters)
    dump_spans(args, tracer, untraced.ref_ms)
    phase = merged(untraced, traced)
    return errors + phase.errors, (phase, metrics)


async def run_serve(args, import_ms: float, setup: list[float]):
    from serve_churn import ServeChurn, negative_control
    from tracing import Tracer

    wl = ServeChurn(args.seed)
    await wl.start()
    errors = [f"negative control: {e} passed the check"
              for e in negative_control()]
    result = None
    try:
        errors += await wl.warm_up()
        if args.probe_setup:
            result = time.monotonic()
        elif not args.trace:
            phase = await wl.measure(args.seconds)
            errors += phase.errors
            result = (phase, e2e_metrics(setup, phase))
        else:
            untraced = await wl.measure(args.seconds / 2)
            tracer = Tracer()
            before = wl.counters()
            tracer.install()
            try:
                traced = await wl.measure(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            counters = {
                **op_counters(untraced, traced,
                              {"fast": 0, "slow": 0, "skipped": 0}),
                **serve_counters(untraced, traced, before, wl.counters()),
            }
            metrics = layer_metrics(tracer, untraced, traced, import_ms,
                                    counters)
            dump_spans(args, tracer, untraced.ref_ms)
            phase = merged(untraced, traced)
            errors += phase.errors
            result = (phase, metrics)
    finally:
        finish_errors = await wl.finish()
    return errors + finish_errors, result


def dump_spans(args, tracer, ref_ms: list[float]) -> None:
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                env_stamp(ref_ms))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_ms = import_program()
    setup: list[float] = []
    if not args.trace and not args.probe_setup:
        setup = [probe_setup(args.workload, args.seed)
                 for _ in range(SETUP_PROBES)]
    if args.workload == "serve_churn":
        errors, result = asyncio.run(run_serve(args, import_ms, setup))
    else:
        errors, result = run_ops(args, import_ms, setup)
    if args.probe_setup:
        if errors:
            fail("; ".join(errors[:5]))
        print("ready", result, flush=True)
        return 0

    phase, metrics = result
    for err in errors[:20]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print("env " + json.dumps(env_stamp(phase.ref_ms)))
    print(json.dumps({
        "correct": not errors,
        "attempted": phase.attempted,
        "failed": max(phase.failed, 1 if errors else 0),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
