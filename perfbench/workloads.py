"""The benchmark's workloads: seeded inputs, one timed op, output checks.

Each op workload keeps a small *recorded pool* of inputs whose expected
outputs live in ``golden.json`` (regenerate with ``record.py``).  The run
seed fixes the order in which the pool is cycled, so every run measures
the same cost mixture whatever its seed.  The serve workload lives in
``serve_churn.py``: there the seed drives the whole request mix.

Checks work on a *summary* of each op's output, a plain dict, so the
negative control can corrupt a summary and show the check rejects it.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def digest(obj: Any) -> str:
    """SHA-256 of the canonical JSON form of ``obj``."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def load_golden() -> dict[str, Any]:
    return json.loads(GOLDEN.read_text())


@dataclass
class Phase:
    """Samples of one measurement phase: one entry per op."""

    lat_ref: list[float] = field(default_factory=list)
    lat_ms: list[float] = field(default_factory=list)
    #: which pool input each op ran on
    keys: list[str] = field(default_factory=list)
    ref_ms: list[float] = field(default_factory=list)
    busy_ref: float = 0.0
    busy_ms: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: workload-specific totals (simulated cycles, solver paths, ...)
    counts: dict[str, float] = field(default_factory=dict)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def pooled(self, q: int, ref: bool = True) -> float:
        """The q-th percentile of op time, pooled over the input pool.

        Pool inputs differ in cost several-fold, so a percentile over the
        mixed ops lands on whichever input happens to straddle it.  Instead
        each op is taken relative to the median of its own input; the q-th
        percentile of those ratios, over every op, scales the mean of the
        per-input medians.  With one input this is the plain percentile.
        """
        values = self.lat_ref if ref else self.lat_ms
        by_key: dict[str, list[float]] = {}
        for key, value in zip(self.keys, values):
            by_key.setdefault(key, []).append(value)
        medians = {key: statistics.median(v) for key, v in by_key.items()}
        ratios = [v / medians[key] for key, v in zip(self.keys, values)]
        return statistics.fmean(medians.values()) * percentile(ratios, q)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), exclusive method; the value itself for n=1."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class OpWorkload:
    """A workload whose unit of work is one synchronous op on one input."""

    name = ""

    def __init__(self, seed: int, golden: dict[str, Any] | None) -> None:
        self.pool = self.make_pool()
        order = sorted(self.pool)
        random.Random(f"{self.name}:{seed}").shuffle(order)
        self.order = order
        self._next = 0
        self.golden = (golden or {}).get(self.name, {})

    def next_input(self) -> tuple[str, Any]:
        """The next (key, input), cycling the pool in the seed's order."""
        key = self.order[self._next % len(self.order)]
        self._next += 1
        return key, self.pool[key]

    def make_pool(self) -> dict[str, Any]:
        raise NotImplementedError

    def op(self, inp: Any) -> Any:
        raise NotImplementedError

    def summarize(self, out: Any) -> dict[str, Any]:
        raise NotImplementedError

    def check(self, key: str, summary: dict[str, Any]) -> list[str]:
        raise NotImplementedError

    def corruptions(self, summary: dict[str, Any]) -> list[tuple[str, dict]]:
        """Wrong variants of a correct summary that :meth:`check` must reject."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# analyze: the `repro analyze` pipeline on two_radios and recorded variants
# ---------------------------------------------------------------------------

ANALYZE_VARIANTS = 4


class Analyze(OpWorkload):
    name = "analyze"

    def make_pool(self) -> dict[str, str]:
        base = json.loads((ROOT / "examples/configs/two_radios.json").read_text())
        pool = {"two_radios": json.dumps(base)}
        for k in range(1, ANALYZE_VARIANTS + 1):
            rng = random.Random(f"analyze-variant-{k}")
            cfg = json.loads(json.dumps(base))
            for stream in cfg["streams"]:
                scale = rng.uniform(0.8, 1.2)
                stream["samples_per_second"] = int(
                    round(stream["samples_per_second"] * scale, -3))
            pool[f"two_radios~{k}"] = json.dumps(cfg)
        return pool

    def op(self, text: str) -> dict[str, Any]:
        from repro.core import (
            analyze_utilization,
            compute_block_sizes,
            gamma,
            load_system,
            sample_latency_bound,
            sharing_load,
            tau_hat,
            verify_system,
        )

        system = load_system(text)
        load = sharing_load(system)
        result = compute_block_sizes(system, backend="scipy")
        assigned = system.with_block_sizes(result.block_sizes)
        bounds = {
            name: {"eta": eta, "tau": tau_hat(assigned, name),
                   "latency": sample_latency_bound(assigned, name)}
            for name, eta in result.block_sizes.items()
        }
        first = assigned.streams[0].name
        return {"load": load, "bounds": bounds,
                "gamma": gamma(assigned, first),
                "utilization": analyze_utilization(assigned),
                "report": verify_system(assigned)}

    def summarize(self, out: dict[str, Any]) -> dict[str, Any]:
        report = out["report"]
        u = out["utilization"]
        return {
            "eta": {n: b["eta"] for n, b in out["bounds"].items()},
            "tau": {n: b["tau"] for n, b in out["bounds"].items()},
            "latency": {n: str(b["latency"]) for n, b in out["bounds"].items()},
            "gamma": out["gamma"],
            "load": str(out["load"]),
            "utilization": [u.round_length, u.copy_cycles, u.reconfig_cycles],
            "rows": [[s.stream, s.eta, str(s.mu), str(s.guaranteed),
                      s.eq5_ok, str(s.sdf_rate), s.sdf_ok, s.tau_bound,
                      repr(s.tau_measured), s.tau_ok, s.refinement_ok]
                     for s in report.streams],
            "verdict": report.summary().splitlines()[-1],
            "ok": report.ok,
        }

    @staticmethod
    def fingerprint(summary: dict[str, Any]) -> str:
        return digest({k: summary[k] for k in
                       ("eta", "tau", "latency", "gamma", "load",
                        "utilization", "rows")})

    def check(self, key: str, summary: dict[str, Any]) -> list[str]:
        errors = []
        if not summary["ok"] or summary["verdict"] != "PASS":
            errors.append(f"{key}: verify table is {summary['verdict']}")
        if self.fingerprint(summary) != self.golden.get(key):
            errors.append(f"{key}: analysis digest differs from the recorded one")
        return errors

    def corruptions(self, summary):
        eta = {**summary["eta"]}
        name = sorted(eta)[0]
        eta[name] += 1
        rows = [list(r) for r in summary["rows"]]
        rows[0][4] = not rows[0][4]
        return [("corrupted eta", {**summary, "eta": eta}),
                ("flipped verify verdict",
                 {**summary, "ok": False, "verdict": "FAIL"}),
                ("flipped eq5 cell", {**summary, "rows": rows})]

    def record(self, key: str, summary: dict[str, Any]) -> str:
        return self.fingerprint(summary)


# ---------------------------------------------------------------------------
# design_flow: run_design_flow with buffer sizing on small two-stream systems
# ---------------------------------------------------------------------------

#: (entry_copy, reconfigure, 1/μ_a, 1/μ_b) of small_radios-like systems
#: whose design flow takes about 0.3 s, so a run holds dozens of ops
DESIGN_POOL = {
    "radios_r200_64": (8, 200, 64, 256),
    "radios_r200_128": (8, 200, 128, 512),
}


class DesignFlow(OpWorkload):
    name = "design_flow"

    def make_pool(self) -> dict[str, str]:
        base = json.loads((ROOT / "examples/configs/small_radios.json").read_text())
        pool = {}
        for key, (entry, reconf, inv_a, inv_b) in DESIGN_POOL.items():
            cfg = json.loads(json.dumps(base))
            cfg["entry_copy"] = entry
            for stream, inv in zip(cfg["streams"], (inv_a, inv_b)):
                stream["throughput"] = [1, inv]
                stream["reconfigure"] = reconf
            pool[key] = json.dumps(cfg)
        return pool

    def op(self, text: str):
        from repro.core import load_system, run_design_flow

        return run_design_flow(load_system(text), backend="scipy")

    def summarize(self, report) -> dict[str, Any]:
        return {
            "block_sizes": dict(report.block_sizes),
            "buffers": {n: dict(c) for n, c in report.buffer_capacities.items()},
            "notes": list(report.notes),
            "verdict": report.verification.summary().splitlines()[-1],
            "ok": report.ok,
        }

    def check(self, key: str, summary: dict[str, Any]) -> list[str]:
        errors = []
        if not summary["ok"] or summary["verdict"] != "PASS":
            errors.append(f"{key}: verification is {summary['verdict']}")
        want = self.golden.get(key)
        got = {"block_sizes": summary["block_sizes"],
               "buffers": summary["buffers"]}
        if got != want:
            errors.append(f"{key}: block sizes/buffers {got} != recorded {want}")
        if summary["notes"]:
            errors.append(f"{key}: design flow notes {summary['notes']}")
        return errors

    def corruptions(self, summary):
        sizes = {**summary["block_sizes"]}
        name = sorted(sizes)[0]
        sizes[name] += 1
        buffers = {n: {**c} for n, c in summary["buffers"].items()}
        edge = sorted(buffers[name])[0]
        buffers[name][edge] -= 1
        return [("corrupted eta", {**summary, "block_sizes": sizes}),
                ("corrupted buffer", {**summary, "buffers": buffers}),
                ("flipped verify verdict",
                 {**summary, "ok": False, "verdict": "FAIL"})]

    def record(self, key: str, summary: dict[str, Any]) -> dict[str, Any]:
        return {"block_sizes": summary["block_sizes"],
                "buffers": summary["buffers"]}


# ---------------------------------------------------------------------------
# soc_scenarios: registry scenarios through the serial sweep engine
# ---------------------------------------------------------------------------

#: the registry entries plus three generated corpus members (1-4 streams,
#: 0-3 churn transitions)
SOC_SCENARIOS = ("pal_decoder", "product_cipher", "multi_mode",
                 "generated?seed=1", "generated?seed=3", "generated?seed=6")


class SocScenarios(OpWorkload):
    name = "soc_scenarios"

    def make_pool(self) -> dict[str, dict[str, Any]]:
        pool = {}
        for ref in SOC_SCENARIOS:
            name, _, query = ref.partition("?")
            params: dict[str, Any] = {"scenario": name, "strict": True}
            if query:
                params["seed"] = int(query.split("=", 1)[1])
            pool[ref] = params
        return pool

    def op(self, params: dict[str, Any]):
        from repro.exp import Sweep, run_sweep

        sweep = Sweep("perfbench_soc", "scenario", [params], seed=0)
        return run_sweep(sweep, workers=1, executor="serial")

    def summarize(self, result) -> dict[str, Any]:
        outcome = result.outcomes[0]
        value = outcome.value or {}
        return {
            "ok": bool(result.ok and value.get("ok")),
            "error": outcome.error,
            "unattributed": value.get("unattributed", -1),
            "digest": result.digest(),
            # measured, not checked: simulated cycles, sweep-engine time
            # outside the point itself, and solver-cache use
            "counts": {
                "cycles": value.get("horizon", 0),
                "sweep_overhead_ms": result.elapsed_s * 1000 - outcome.wall_ms,
                "cache_lookups": result.cache["lookups"],
                "cache_hits": result.cache["hits"],
            },
        }

    def check(self, key: str, summary: dict[str, Any]) -> list[str]:
        errors = []
        if summary["error"] is not None or not summary["ok"]:
            errors.append(f"{key}: run failed ({summary['error']})")
        if summary["unattributed"] != 0:
            errors.append(f"{key}: {summary['unattributed']} unattributed "
                          "Eq. 2-5 violation(s)")
        if summary["digest"] != self.golden.get(key):
            errors.append(f"{key}: payload digest differs from the recorded one")
        return errors

    def corruptions(self, summary):
        return [("unattributed violation", {**summary, "unattributed": 1}),
                ("corrupted payload", {**summary, "digest": "0" * 64}),
                ("failed conformance", {**summary, "ok": False})]

    def record(self, key: str, summary: dict[str, Any]) -> str:
        return summary["digest"]


OP_WORKLOADS: dict[str, Callable[..., OpWorkload]] = {
    w.name: w for w in (Analyze, DesignFlow, SocScenarios)
}
