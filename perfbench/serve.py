"""``serve_mixed``: ``sdvbs serve`` under a seeded closed-loop job mix.

A fresh ``sdvbs serve --workers 2 --db <tmp>`` and one load-generator
process (this one) with ``clients`` threads.  Each thread submits its
next job only after its previous one's result is fetched, polling
``job.status`` every ``poll_interval_s``; polls count as load.

The threads move in lockstep: a step hands each thread one item, and
no thread starts the next step before every thread has finished this
one.  Which jobs share the two workers is then fixed by the plan, not
by timing.  A served job's latency depends on the job beside it (GIL
contention makes served jobs 3-7x slower than alone), and free-running
clients paired the jobs differently on every run.

The plan: round 0 is the served suite, a SQCIF ``run`` job per
application, one at a time.  It pays the server's lazy set-up
(face-cascade training), is left out of the traffic metrics, and is
the reference for the rest: what each application's job costs and
which backend kernels it counts when nothing runs beside it.  Each of
the rounds after it
pairs every application's next unseen ``run`` spec with another
application's next unseen ``trace`` spec (never the same application,
so a counter leaking between the two jobs shows in
``jobs.leaked_cells``), and adds ``hits_per_round`` resubmissions of
specs that have already finished, which the result cache must answer.
Hits travel in steps of their own, so they measure the cache path
(validation, digest, HTTP) and never wait on a running job.  Every
seed runs the same misses in the same steps; the seed picks which
specs the hits resubmit and where the hit steps go.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from gate import check_export, foreign_counters
from measure import (ChildRun, Context, Result, cell_layers, median, quantile,
                     reap, spawn)
from spans import clock

#: Seconds of ``--seconds`` per traffic round: a round took 8.5 s on a
#: 2-CPU host, and round 0 and readiness take about 10 s more.
ROUND_SECONDS = 10.0

#: Round 0's spec for each application: ``sdvbs run --sizes SQCIF``.
SUITE_SIZE = "SQCIF"

#: ``sdvbs serve --workers``.
WORKERS = 2


class RpcError(Exception):
    """A JSON-RPC error object returned by the server."""


@dataclass
class Item:
    """One planned submission."""

    kind: str                      # "miss" or "hit"
    spec: Dict[str, object]
    app: str
    round: int


@dataclass
class Outcome:
    """What the client saw for one submission."""

    item: Item
    latency: Optional[float] = None
    submit_s: float = 0.0
    status_s: List[float] = field(default_factory=list)
    cached: bool = False
    status: Dict[str, object] = field(default_factory=dict)
    artifact_s: Optional[float] = None
    artifact_bytes: int = 0
    runs: List[Dict[str, object]] = field(default_factory=list)
    failure: Optional[str] = None


def _run_spec(app: str, size: str, warmup: int,
              backend: Optional[str]) -> Dict[str, object]:
    return {"type": "run", "benchmarks": [app], "sizes": [size],
            "warmup": warmup, "repeats": 1, "backend": backend}


def _chunks(items: List[Item], width: int) -> List[List[Item]]:
    return [items[i:i + width] for i in range(0, len(items), width)]


def make_plan(seed: int, apps: List[str], mix: Dict[str, object],
              rounds: int) -> List[List[Item]]:
    """The seeded plan: lockstep steps of ``clients`` items each.

    Round 0 has one item per step.  Round ``k`` takes entry ``k - 1`` of ``run_pool`` and of
    ``trace_pool`` for every application and lays the misses out as
    run of app ``j``, trace of app ``j + k``, run of app ``j + 1``, ...
    so consecutive misses, which share a step, are of different
    applications.  (``backend: null`` and ``"fast"`` run the same code,
    since ``fast`` is the default, but are different specs to the
    cache.)
    """
    rng = random.Random(seed)
    width = int(mix["clients"])  # type: ignore[call-overload]
    suite = [Item("miss", _run_spec(app, SUITE_SIZE, 0, None), app, 0)
             for app in apps]
    steps = _chunks(suite, 1)
    count = len(apps)
    for number in range(1, rounds + 1):
        size, warmup, backend = mix["run_pool"][number - 1]  # type: ignore[index]
        trace_size, trace_backend = mix["trace_pool"][number - 1]  # type: ignore[index]
        shift = 1 + (number - 1) % (count - 1)
        misses: List[Item] = []
        for j, app in enumerate(apps):
            other = apps[(j + shift) % count]
            misses.append(Item("miss", _run_spec(app, size, warmup, backend),
                               app, number))
            misses.append(Item("miss", {
                "type": "trace", "benchmark": other, "size": trace_size,
                "variant": 0, "backend": trace_backend}, other, number))
        done = [item for step in steps for item in step
                if item.kind == "miss"]
        hits = [Item("hit", target.spec, target.app, number)
                for target in (rng.choice(done) for _ in
                               range(int(mix["hits_per_round"])))]  # type: ignore[call-overload]
        batch = _chunks(misses, width)
        for step in _chunks(hits, width):
            batch.insert(rng.randrange(len(batch) + 1), step)
        steps.extend(batch)
    return steps


class Client:
    """Minimal JSON-RPC/HTTP client; one connection per request."""

    def __init__(self, port: int) -> None:
        self.port = port

    def _request(self, method: str, path: str, body: Optional[bytes] = None
                 ) -> Tuple[int, bytes, float]:
        started = clock()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        return response.status, data, clock() - started

    def rpc(self, method: str, **params: object) -> Tuple[Dict[str, object], float]:
        body = json.dumps({"jsonrpc": "2.0", "id": 1, "method": method,
                           "params": params}).encode()
        _, data, seconds = self._request("POST", "/", body)
        message = json.loads(data)
        if "error" in message:
            raise RpcError(f"{method}: {message['error']}")
        return message["result"], seconds

    def get(self, path: str) -> Tuple[int, bytes, float]:
        return self._request("GET", path)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """A fresh ``sdvbs serve`` child and the time it took to be ready."""

    def __init__(self, ctx: Context, traced: bool, tag: str) -> None:
        self.port = _free_port()
        self.process, self.started, self.report = spawn(ctx, "serve", [
            "--trace", str(int(traced)), "--", "serve",
            "--port", str(self.port),
            "--workers", str(WORKERS),
            "--db", ctx.path(f"history-{tag}.sqlite"),
            "--work-dir", ctx.path(f"artifacts-{tag}")],
            stdout=ctx.path(f"serve-{tag}.log"))
        self.client = Client(self.port)
        self.setup_s = self._wait_ready()

    def _wait_ready(self, timeout: float = 60.0) -> float:
        deadline = self.started + timeout
        while clock() < deadline:
            try:
                status, _, _ = self.client.get("/healthz")
                if status == 200:
                    return clock() - self.started
            except (OSError, http.client.HTTPException):
                pass
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        self.process.kill()
        self.process.wait()
        with open(self.report + ".stderr", encoding="utf-8") as handle:
            tail = handle.read()[-2000:]
        raise RuntimeError(f"sdvbs serve did not become ready:\n{tail}")

    def stop(self) -> ChildRun:
        try:
            self.client.rpc("server.shutdown")
        except (ConnectionError, http.client.HTTPException):
            pass  # the server may close the socket as it goes down
        return reap(self.process, self.started, self.report)


def _submit(client: Client, ctx: Context, item: Item, poll: float
            ) -> Outcome:
    """Submit one item, wait for its result, fetch and check its artifact."""
    out = Outcome(item)
    submitted = clock()
    try:
        job, out.submit_s = client.rpc("job.submit", spec=item.spec)
        out.cached = bool(job.get("cached"))
        while job["state"] not in ("done", "failed", "cancelled"):
            time.sleep(poll)
            job, seconds = client.rpc("job.status", id=job["id"])
            out.status_s.append(seconds)
        out.status = job
        if job["state"] != "done":
            out.failure = f"job {job['id']} {job['state']}: {job.get('error')}"
            return out
        payload, _ = client.rpc("job.result", id=job["id"])
        out.latency = clock() - submitted
    except (RpcError, OSError, ValueError, http.client.HTTPException) as exc:
        out.failure = f"{item.kind} {item.spec}: {exc}"
        return out
    if item.kind == "hit":
        if not out.cached:
            out.failure = f"resubmitted spec {item.spec} was not a cache hit"
        return out
    name = "export.json" if item.spec["type"] == "run" else "trace.json"
    status, body, out.artifact_s = client.get(
        str(payload["artifacts"][name]))  # type: ignore[index]
    out.artifact_bytes = len(body)
    if status != 200:
        out.failure = f"GET {name} of job {job['id']}: HTTP {status}"
    elif item.spec["type"] == "run":
        export = json.loads(body)
        out.runs = export.get("runs", [])
        failures = check_export(export, ctx.protocol["floors"],  # type: ignore[arg-type]
                                ctx.kernels, expected_cells=1)
        out.failure = "; ".join(failures) or None
    else:
        labels = {e["name"] for e in json.loads(body)["traceEvents"]
                  if e.get("cat") == "kernel"}
        foreign = sorted(labels - set(ctx.kernels[item.app]))
        if foreign:
            out.failure = f"{item.app} trace lists foreign kernels {foreign}"
    return out


def _drive(server: Server, ctx: Context, steps: List[List[Item]]
           ) -> Tuple[List[Outcome], float]:
    """Run ``steps`` in lockstep; returns the outcomes and the duration."""
    poll = float(ctx.protocol["serve_mixed"]["poll_interval_s"])  # type: ignore[index]

    def one(item: Item) -> Outcome:
        try:
            return _submit(server.client, ctx, item, poll)
        except Exception as exc:  # noqa: BLE001 — report, keep driving
            return Outcome(item, failure=f"client error: {exc!r}")

    outcomes: List[Outcome] = []
    started = clock()
    with ThreadPoolExecutor(max_workers=max(len(s) for s in steps)) as pool:
        for step in steps:
            outcomes.extend(pool.map(one, step))
    return outcomes, clock() - started


@dataclass
class Phase:
    """One server's lifetime: readiness, round 0, traffic, child report."""

    setup_s: float
    suite: List[Outcome]
    traffic: List[Outcome]
    duration: float
    info: Dict[str, object]
    child: ChildRun

    @property
    def outcomes(self) -> List[Outcome]:
        return self.suite + self.traffic

    def misses(self) -> List[Outcome]:
        return [o for o in self.outcomes
                if o.item.kind == "miss" and o.latency is not None]

    def cells(self) -> List[Dict[str, object]]:
        """Exported run records of the traffic's ``run`` jobs."""
        return [cell for o in self.traffic for cell in o.runs]

    def leaks(self) -> List[Tuple[str, List[str]]]:
        """Traffic cells counting backend kernels their round-0 job did not.

        Round 0 runs alone, so its counters are each application's own;
        others leaked in from the job on the other worker (the metrics
        registry is process-global).
        """
        alone = {cell["benchmark"]: cell for o in self.suite for cell in o.runs}
        found = [(str(cell["benchmark"]),
                  foreign_counters(cell, alone[cell["benchmark"]]))
                 for cell in self.cells() if cell["benchmark"] in alone]
        return [(slug, names) for slug, names in found if names]


def _phase(ctx: Context, plan: List[List[Item]], traced: bool,
           tag: str) -> Phase:
    server = Server(ctx, traced, tag)
    suite_steps = [s for s in plan if s[0].round == 0]
    try:
        suite, _ = _drive(server, ctx, suite_steps)
        traffic, duration = _drive(server, ctx, plan[len(suite_steps):])
        info, _ = server.client.rpc("server.info")
    except BaseException:
        server.process.kill()
        server.process.wait()
        raise
    return Phase(server.setup_s, suite, traffic, duration, info,
                 server.stop())


def run(ctx: Context) -> Result:
    protocol = ctx.protocol["serve_mixed"]
    rounds = max(1, round(ctx.seconds / ROUND_SECONDS))
    if ctx.trace:
        # Two servers run the plan (untraced, then traced): half each.
        rounds = max(1, rounds // 2)
    rounds = min(rounds, len(protocol["run_pool"]))  # type: ignore[arg-type]
    plan = make_plan(ctx.seed, list(ctx.kernels), protocol, rounds)  # type: ignore[arg-type]
    result = Result()
    setups = []
    for n in range(2):
        probe = Server(ctx, False, f"probe{n}")
        setups.append(probe.setup_s)
        probe.stop()
    main = _phase(ctx, plan, False, "main")
    phases = [main]
    setups.append(main.setup_s)
    if ctx.trace:
        phases.append(_phase(ctx, plan, True, "traced"))
    for phase in phases:
        result.check([o.failure for o in phase.outcomes if o.failure],
                     attempted=len(phase.outcomes))
    leaked = [leak for phase in phases for leak in phase.leaks()]
    result.set("jobs.leaked_cells", len(leaked),
               sum(len(phase.cells()) for phase in phases))
    for slug, names in leaked[:5]:
        result.notes.append(f"{slug} cell carries backend counters of {names}")

    done = [o for o in main.traffic if o.latency is not None]
    misses = [o.latency for o in done if o.item.kind == "miss"]
    hits = [o.latency for o in done if o.item.kind == "hit"]
    result.set("setup_s", median(setups), len(setups))
    result.set("wall_s", main.duration, len(done))
    result.set("jobs_per_s", len(done) / main.duration, len(done))
    result.set("job_p50_s", median(misses), len(misses))  # type: ignore[arg-type]
    result.set("job_p90_s", quantile(misses, 0.9), len(misses))  # type: ignore[arg-type]
    result.set("hit_p50_s", median(hits), len(hits))  # type: ignore[arg-type]
    result.set("peak_rss_mb", main.child.peak_rss_mb, 1)
    # No CIF suite pass here: suite_s repeats the traffic's wall time.
    result.set("suite_s", main.duration, len(done))
    if ctx.trace:
        _layers(ctx, result, phases[1], main)
    return result


def _layers(ctx: Context, result: Result, phase: Phase, plain: Phase) -> None:
    """Per-layer metrics from the traced phase (and the plain one's twins)."""
    misses, outcomes = phase.misses(), phase.outcomes
    child = phase.child

    def put(name: str, values: List[float], q: float = 0.5) -> None:
        result.set(name, quantile(values, q) if values else 0.0, len(values))

    put("serve.status_rpc_p50_s", [s for o in outcomes for s in o.status_s])
    put("jobs.submit_p50_s", [o.submit_s for o in outcomes if o.submit_s])
    waits = [float(o.status["queue_wait_s"]) for o in misses]  # type: ignore[arg-type]
    put("jobs.queue_wait_p50_s", waits)
    put("jobs.queue_wait_p90_s", waits, 0.9)
    execs = [float(o.status["exec_s"]) for o in misses]  # type: ignore[arg-type]
    put("jobs.exec_p50_s", execs)
    put("ledger.unaccounted_s", [o.latency - w - e  # type: ignore[operator]
                                 for o, w, e in zip(misses, waits, execs)])
    lat = median([o.latency for o in misses])  # type: ignore[misc]
    result.set("ledger.wall_s", lat, len(misses))
    result.set("ledger.unaccounted_pct",
               100.0 * result.values["ledger.unaccounted_s"] / lat, len(misses))
    result.set("jobs.cache_hit_ratio",
               sum(o.cached for o in outcomes) / len(outcomes), len(outcomes))
    result.set("jobs.poll_requests", sum(len(o.status_s) for o in outcomes),
               len(outcomes))
    counters = dict(phase.info.get("counters") or {})  # type: ignore[call-overload]
    result.set("history.recorded_cells",
               float(counters.get("history.recorded_cells", 0.0)), 1)
    put("jobs.artifact_get_p50_s", [o.artifact_s for o in misses  # type: ignore[misc]
                                    if o.artifact_s is not None])
    put("jobs.artifact_bytes", [float(o.artifact_bytes) for o in misses])
    put("export.bytes", [float(o.artifact_bytes) for o in misses
                         if o.item.spec["type"] == "run"])
    faces = [o.latency for o in phase.suite
             if o.item.app == "face" and o.latency is not None]
    result.set("face.first_job_s", faces[0] if faces else 0.0, len(faces))

    def spans(name: str) -> List[float]:
        return [float(s["end"]) - float(s["start"])
                for s in child.report["spans"]  # type: ignore[union-attr]
                if str(s["name"]).startswith(name) and s["end"] is not None]

    train = spans("face.train")
    setup = spans("setup.")
    result.set("process.start_s",
               float(child.report["enter"]) - child.started, 1)
    result.set("registry.import_s", sum(spans("registry.import")), 1)
    result.set("process.exit_s", child.started + child.wall
               - float(child.report["leave"]), 1)
    result.set("face.train_s", sum(train), len(train))
    result.set("inputs.setup_s", sum(setup) - sum(train), len(setup))
    warmup, measured = child.measure_split()
    result.set("runner.warmup_s", warmup, len(spans("runner.measure")))
    result.set("runner.measured_s", measured, len(spans("runner.measure")))
    result.set("runner.overhead_s", sum(spans("runner.cell")) - sum(setup)
               - warmup - measured, len(spans("runner.cell")))
    for row, name in (("export.serialize_s", "export.serialize"),
                      ("history.record_s", "history.record"),
                      ("jobs.artifact_write_s", "jobs.artifact_write"),
                      ("manifest.collect_s", "manifest.collect")):
        values = spans(name)
        result.set(row, sum(values), len(values))
    cells = [cell for o in misses for cell in o.runs]
    cell_layers(result, ctx, [cells])

    # Round 1 runs round 0's cells again, now beside another job.  Face
    # is left out: its round-0 job trained the cascade.
    alone = {o.item.app: float(o.status["exec_s"]) for o in phase.suite  # type: ignore[arg-type]
             if o.latency is not None}
    put("jobs.exec_inflation",
        [float(o.status["exec_s"]) / alone[o.item.app]  # type: ignore[arg-type]
         for o in misses if o.item.round == 1 and o.item.app != "face"
         and o.item.spec["type"] == "run" and o.item.app in alone])
    # Both phases run the same plan, so each miss has a twin to compare.
    slowdowns = [o.latency / twin.latency  # type: ignore[operator]
                 for o, twin in zip(phase.outcomes, plain.outcomes)
                 if o.item.kind == "miss" and o.latency and twin.latency]
    put("trace.overhead_pct", [100.0 * (r - 1.0) for r in slowdowns])
