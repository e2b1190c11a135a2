"""serve_churn: closed-loop tenant churn against an in-process admission service.

Two tenant clients, each on its own loopback connection, send newline-JSON
requests to a :class:`repro.serve.AdmissionService` served in the same
process and event loop, and wait for every verdict before sending the next
request.  The solver runs on a single executor thread, so the process uses
at most two threads.

Each client's request stream is drawn from the run seed and from nothing
else: every request carries the response code it must get, because the
mix is built so that no answer depends on how the two clients interleave.

* joins take a name from the client's recurring pool (same name, same
  rate on every rejoin, so whole stream sets recur and the solver memo
  can hit) or a fresh name; a client holds at most ``MAX_LIVE`` streams,
  which keeps the committed load below the shed watermark;
* leaves withdraw one of the client's own streams;
* quotes ask about a fresh feasible stream and must answer ``admit``;
* retries resend the client's previous join/leave with its idempotency
  key and must replay the recorded answer exactly;
* infeasible joins ask for half a sample per cycle and must answer
  ``bound_exceeded``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from refloop import time_ref
from workloads import ROOT, Phase

CLIENTS = 2
PER_ROUND = 8       # requests each client sends per measured round
MAX_LIVE = 6        # streams one client may hold: at most 12 tenant streams
RECURRING = 4       # names in each client's recurring pool


def check_response(expect: dict[str, Any], resp: dict[str, Any]) -> str | None:
    """Why ``resp`` is not the answer ``expect`` describes, or None."""
    if "replay_of" in expect:
        want = {**expect["replay_of"], "replayed": True}
        return None if resp == want else (
            f"retry answered {json.dumps(resp)[:200]}, recorded answer was "
            f"{json.dumps(expect['replay_of'])[:200]}")
    code = "ok" if resp.get("ok") else resp.get("error", {}).get("code")
    if code != expect["code"]:
        return (f"{expect['kind']} {expect['stream']} answered {code!r}, "
                f"expected {expect['code']!r}")
    if code != "ok":
        return None
    if expect["kind"] == "join" and resp.get("admitted") is not True:
        return f"join {expect['stream']} not marked admitted"
    if expect["kind"] == "quote" and resp.get("admit") is not True:
        return f"quote {expect['stream']} answered admit={resp.get('admit')}"
    return None


class ChurnClient:
    """One tenant's seeded request stream plus its connection."""

    def __init__(self, seed: int, cid: int) -> None:
        self.cid = cid
        self.tenant = f"tenant-{cid}"
        self.rng = random.Random(f"serve_churn:{seed}:{cid}")
        self.pool = {
            f"c{cid}-r{k}": self._rate() for k in range(RECURRING)
        }
        self.live: dict[str, tuple[list[int], int]] = {}
        self.fresh = 0
        self.last: tuple[dict[str, Any], dict[str, Any]] | None = None
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    def _rate(self) -> tuple[list[int], int]:
        return [1, self.rng.randrange(300, 601)], self.rng.choice((50, 100, 150, 200))

    def _fresh(self, tag: str) -> str:
        self.fresh += 1
        return f"c{self.cid}-{tag}{self.fresh}"

    def next_request(self) -> tuple[dict[str, Any], dict[str, Any]]:
        """The next (payload, expectation); updates the client's own view
        of its streams as if the expected answer arrives."""
        r = self.rng.random()
        if r < 0.10 and self.last is not None:
            payload, resp = self.last
            return payload, {"replay_of": resp}
        if r < 0.18:
            name = self._fresh("x")
            return self._mutation({
                "op": "join", "tenant": self.tenant, "stream": name,
                "throughput": [1, 2], "reconfigure": 100,
            }, {"kind": "join", "stream": name, "code": "bound_exceeded"})
        if r < 0.33:
            name = self._fresh("q")
            tp, reconf = self._rate()
            return ({"op": "quote", "tenant": self.tenant, "stream": name,
                     "throughput": tp, "reconfigure": reconf},
                    {"kind": "quote", "stream": name, "code": "ok"})
        if self.live and (len(self.live) >= MAX_LIVE or r < 0.60):
            name = self.rng.choice(sorted(self.live))
            del self.live[name]
            return self._mutation(
                {"op": "leave", "tenant": self.tenant, "stream": name},
                {"kind": "leave", "stream": name, "code": "ok"})
        idle = sorted(set(self.pool) - set(self.live))
        if idle and self.rng.random() < 0.5:
            name = self.rng.choice(idle)
            tp, reconf = self.pool[name]
        else:
            name = self._fresh("f")
            tp, reconf = self._rate()
        self.live[name] = (tp, reconf)
        return self._mutation({
            "op": "join", "tenant": self.tenant, "stream": name,
            "throughput": tp, "reconfigure": reconf,
        }, {"kind": "join", "stream": name, "code": "ok"})

    def _mutation(self, payload, expect):
        self.fresh += 1
        payload["idempotency_key"] = f"{self.tenant}-k{self.fresh}"
        return payload, expect

    async def connect(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(host, port)

    async def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        self.writer.write(json.dumps(payload).encode() + b"\n")
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def run_round(self, n: int) -> list[tuple[float, dict, dict, dict]]:
        """Send ``n`` requests back to back; (seconds, payload, expect, resp)."""
        out = []
        for _ in range(n):
            payload, expect = self.next_request()
            t0 = time.perf_counter()
            resp = await self.request(payload)
            out.append((time.perf_counter() - t0, payload, expect, resp))
            if payload["op"] in ("join", "leave") and "replay_of" not in expect:
                self.last = (payload, resp)
        return out

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            await self.writer.wait_closed()


class ServeChurn:
    """The serve workload's set-up, measured rounds and final checks."""

    def __init__(self, seed: int) -> None:
        self.clients = [ChurnClient(seed, cid) for cid in range(CLIENTS)]
        self.service = None
        self._server_task: asyncio.Task | None = None

    async def start(self) -> None:
        from repro.core import load_system
        from repro.serve import AdmissionService, serve_forever

        asyncio.get_running_loop().set_default_executor(
            ThreadPoolExecutor(max_workers=1))
        system = load_system(
            (ROOT / "examples/configs/small_radios.json").read_text())
        self.service = AdmissionService(system, backend="scipy")
        ready = asyncio.Event()
        bound: list = []
        self._server_task = asyncio.get_running_loop().create_task(
            serve_forever(self.service, "127.0.0.1", 0, ready=ready, bound=bound))
        await ready.wait()
        host, port = bound[0]
        for client in self.clients:
            await client.connect(host, port)

    async def warm_up(self) -> list[str]:
        """One unmeasured round; returns its check failures."""
        rounds = await asyncio.gather(
            *(c.run_round(PER_ROUND) for c in self.clients))
        return [err for results in rounds for _dt, _p, expect, resp in results
                if (err := check_response(expect, resp)) is not None]

    async def measure(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        ref_before = time_ref()
        phase.ref_ms.append(ref_before * 1000)
        deadline = time.perf_counter() + seconds
        op_id = 0
        while True:
            if tracer is not None:
                tracer.op_id = op_id
            gc.collect()
            t0 = time.perf_counter()
            rounds = await asyncio.gather(
                *(c.run_round(PER_ROUND) for c in self.clients))
            wall = time.perf_counter() - t0
            ref_after = time_ref()
            ref = (ref_before + ref_after) / 2
            ref_before = ref_after
            phase.ref_ms.append(ref_after * 1000)
            phase.busy_ref += wall / ref
            phase.busy_ms += wall * 1000
            for results in rounds:
                for dt, _payload, expect, resp in results:
                    phase.attempted += 1
                    phase.keys.append("request")
                    phase.lat_ref.append(dt / ref)
                    phase.lat_ms.append(dt * 1000)
                    if resp.get("solver") is not None:
                        phase.count(f"solver.{resp['solver']}")
                    err = check_response(expect, resp)
                    if err is not None:
                        phase.failed += 1
                        phase.errors.append(err)
            op_id += 1
            if time.perf_counter() >= deadline:
                return phase

    def counters(self) -> dict[str, Any]:
        status = self.service.status()
        return {"cache": status["cache"], "breaker": status["breaker"],
                "coalesced": status["counters"]["coalesced_solves"],
                "transitions": status["transitions"]}

    async def finish(self) -> list[str]:
        """Final-state checks, then shut the server down."""
        from repro.serve import replay_journal, state_fingerprint

        errors = []
        status = await self.clients[0].request({"op": "status"})
        replayed = replay_journal(self.service.initial_system,
                                  self.service.journal())
        if state_fingerprint(replayed) != status["fingerprint"]:
            errors.append("replay_journal does not reproduce the final "
                          "state_fingerprint")
        baseline = {s.name for s in self.service.initial_system.streams}
        held = set(baseline).union(*(c.live for c in self.clients))
        if set(status["streams"]) != held:
            errors.append(f"service holds {sorted(status['streams'])}, "
                          f"clients hold {sorted(held)}")
        await self.clients[0].request({"op": "shutdown"})
        for client in self.clients:
            await client.close()
        await self._server_task
        return errors


def negative_control() -> list[str]:
    """Wrong answers :func:`check_response` must reject; returns escapes."""
    join = {"kind": "join", "stream": "s", "code": "ok"}
    admitted = {"ok": True, "op": "join", "admitted": True, "transition": 3}
    wrong = {"ok": False, "op": "join",
             "error": {"code": "overloaded", "message": "full"}}
    cases = [
        ("wrong serve code", join, wrong),
        ("missing admit", join, {**admitted, "admitted": False}),
        ("bound_exceeded answered ok",
         {"kind": "join", "stream": "x", "code": "bound_exceeded"}, admitted),
        ("retry replayed a different answer", {"replay_of": admitted},
         {**admitted, "transition": 4, "replayed": True}),
    ]
    escapes = [label for label, expect, resp in cases
               if check_response(expect, resp) is None]
    if check_response(join, admitted) is not None:
        escapes.append("correct answer rejected")
    return escapes
