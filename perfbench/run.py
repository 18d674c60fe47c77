#!/usr/bin/env python3
"""The repository benchmark: what a user of Ceer waits for, layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline --seed 1 --seconds 30 --trace 0

Workloads (see ``README.md`` for why each exists):

* ``offline`` — workspace creation, one cold ``repro fit``, then a
  count of cold ``python -m repro`` queries set by ``--seconds``.
* ``serve-churn`` — a cold ``repro fit`` and a few cold queries, then a
  ``repro serve`` process driven open-loop over real sockets by this
  process: all-distinct bodies with spot ticks and a reload, a hot phase
  of repeated bodies, and a rate ladder.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
work through ``launch.py``'s span wrappers and prints every per-layer
metric. The last line of standard output is the JSON result; the lines
before it report every phase. The run exits non-zero without a result
when the repository is not there.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import benchstats
import loadgen
import mix
import procs
from benchstats import Ladder, Phase, layer_totals, median, tail
from loadgen import Answer, OpenLoopClient

WORKLOADS = ("offline", "serve-churn")

#: BENCHMARK.json at the repository root names every metric and its unit.
SPEC_FILE = "BENCHMARK.json"

# Serve traffic, in requests per second. The reference phase runs
# REFERENCE_SHARE of --seconds at REFERENCE_RPS reads plus the writes,
# about a seventh of today's lane capacity (near 95/s), light enough
# that its latencies show service and head-of-line stalls rather than a
# saturated queue. Its tail keeps 10 samples above it, so the longer the
# phase, the deeper the tail reaches: near 430 samples put it at about
# p97.5, among the costliest cold work, which the fixed kind/model
# rotation makes the same requests in every run; at half the length it
# fell among whatever happened to queue behind them, and its quartile
# distance over ten seeds was a quarter of its median. The hot phase
# then runs HOT_SHARE of --seconds of repeated bodies at HOT_RPS,
# answered by the response cache. The ladder (benchstats.Ladder)
# searches rungs 15% apart from 5/s, far below today's capacity: coarse
# phases of COARSE_SHARE of --seconds on every fourth rung bracket the
# limit, and fine phases of LADDER_SHARE around the last coarse pass
# find the highest rung that neither misses LIMIT_MS nor grows a
# backlog. The limit sits far above a healthy tail: only a queue that
# keeps growing crosses it, not a passing stall of a shared machine.
REFERENCE_RPS = 14.0
REFERENCE_SHARE = 0.9
HOT_RPS = 50.0
HOT_SHARE = 0.07
LADDER_BASE_RPS = 5.0
LADDER_STEP = 1.15
LADDER_STRIDE = 4
LADDER_TOP = 30
COARSE_SHARE = 0.035
LADDER_SHARE = 0.085
LIMIT_MS = 1000.0
#: How long a reference or hot phase waits for its last answers; a
#: ladder phase waits loadgen.DRAIN_TIMEOUT_S and abandons the rest.
STRICT_DRAIN_S = 60.0
#: Keep-alive connections of the load generator: one per core, at most 2.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Cold CLI queries an offline run makes per second of --seconds: a
#: count fixed by --seconds, not by the program's speed (60 at 30 s,
#: a full pass of the 48-step kind/model rotation and more).
OFFLINE_QUERIES_PER_S = 2.0
#: Cold CLI queries a serve workload runs against its estimator: the
#: anchor recommend, repeated, so the few samples measure the program
#: rather than the seed's query mix.
SERVE_CLI_QUERIES = 10
#: Serve responses per run re-evaluated in-process and compared exactly.
SERVE_CHECKS = 40
#: Churn traffic writes: a spot tick every this many seconds, and a
#: reload at these fractions of the reference phase, one in each third.
#: A reload holds the lane for a few hundred milliseconds, and a slower
#: reload stalls more of the reads behind it and lifts the tail.
TICK_EVERY_S = 0.5
RELOAD_AT = (1 / 6, 1 / 2, 5 / 6)


class Run:
    """State of one benchmark run: paths, children, failure count."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(root, ".bench_work", f"run-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.children = procs.Children(self.work)
        self.attempted = 0
        self.failures: List[str] = []
        self._dirs = 0

    # -- bookkeeping -----------------------------------------------------
    def attempt(self, error: Optional[str]) -> None:
        """Count one checked operation; ``error`` marks it failed."""
        self.attempted += 1
        if error is not None:
            self.failures.append(error)
            print(f"FAILED: {error}", flush=True)

    def fresh_dir(self, prefix: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work, f"{prefix}{self._dirs}")
        os.makedirs(path)
        return path

    def env(self, workspace: str) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if k not in ("REPRO_TRACE", "REPRO_METRICS")}
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_WORKSPACE"] = workspace
        return env

    def spans_path(self, traced: bool) -> Optional[str]:
        if not traced:
            return None
        self._dirs += 1
        return os.path.join(self.work, f"spans{self._dirs}.json")

    def close(self) -> None:
        self.children.close()
        shutil.rmtree(self.work, ignore_errors=True)


def _load_spans(path: Optional[str]) -> Tuple[list, Dict[str, float]]:
    if path is None or not os.path.exists(path):
        return [], {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [tuple(row[:4]) + (row[4],) for row in doc["spans"]], doc["extra"]


def _source_digest(root: str) -> str:
    """Content hash of ``src/``: the estimator reference is per program."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


# -- offline phases ---------------------------------------------------------
def measure_fit(run: Run, traced: bool) -> Tuple[float, float, str, list, Dict[str, float]]:
    """One cold ``repro fit`` in a fresh workspace, checked.

    Returns (wall s, peak RSS MB, estimator path, spans, extra). The
    estimator must reproduce the paper's anchors and be byte-identical
    to the first one fitted from the same sources at the same iteration
    count (kept under ``.bench_work/reference``).
    """
    workspace = run.fresh_dir("fitws")
    estimator = os.path.join(workspace, "ceer.json")
    spans = run.spans_path(traced)
    wall, code, out, err, rss = procs.run_timed(
        run.children,
        ["fit", "--output", estimator, "--iterations", str(mix.FIT_ITERATIONS)],
        run.env(workspace), run.root, spans,
    )
    if code != 0:
        run.attempt(f"repro fit exited {code}: {err.strip()[-300:]}")
    else:
        run.attempt(_fit_anchor_error(out) or _reference_error(run, estimator))
    print(f"fit: {wall:.3f} s wall, {run.children.last_cpu_s:.3f} s CPU, "
          f"peak RSS {rss:.1f} MB", flush=True)
    return (wall, rss, estimator) + _load_spans(spans)


#: What every fit must reproduce (paper Sections III-IV).
HEAVY_OP_TYPES = 21
MIN_HEAVY_R2 = 0.96


def _fit_anchor_error(stdout: str) -> Optional[str]:
    heavy = re.search(r"heavy op types: (\d+)", stdout)
    r2 = re.search(r"heavy-op regression R\^2: min ([0-9.]+)", stdout)
    if heavy is None or r2 is None:
        return "fit printed no diagnostics"
    if int(heavy.group(1)) != HEAVY_OP_TYPES:
        return f"fit found {heavy.group(1)} heavy op types, not {HEAVY_OP_TYPES}"
    if float(r2.group(1)) < MIN_HEAVY_R2:
        return f"fit heavy R^2 min {r2.group(1)} < {MIN_HEAVY_R2}"
    return None


def _reference_error(run: Run, estimator: str) -> Optional[str]:
    ref_dir = os.path.join(run.root, ".bench_work", "reference")
    os.makedirs(ref_dir, exist_ok=True)
    ref = os.path.join(
        ref_dir,
        f"estimator-it{mix.FIT_ITERATIONS}-{_source_digest(run.root)}.json",
    )
    with open(estimator, "rb") as fh:
        fitted = fh.read()
    if not os.path.exists(ref):
        tmp = f"{ref}.{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(fitted)
        os.replace(tmp, ref)
        return None
    with open(ref, "rb") as fh:
        if fh.read() != fitted:
            return "estimator differs from an earlier fit of the same sources"
    return None


def measure_setup_offline(run: Run) -> Tuple[float, str]:
    """Workspace creation: a fresh directory opened by a cold
    ``repro cache info``; median of ``SETUP_REPEATS``. Returns the median
    and the last (still empty) workspace, which the fit then uses."""
    times = []
    workspace = ""
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workspace = run.fresh_dir("ws")
        _, code, out, err, _ = procs.run_timed(
            run.children, ["cache", "info"], run.env(workspace), run.root
        )
        times.append(time.perf_counter() - started)
        run.attempt(None if code == 0 and "total: 0 artifact(s)" in out
                    else f"cache info exited {code}: {err.strip()[-200:]}")
    print(f"setup: workspace creation {[round(t, 4) for t in times]} s",
          flush=True)
    return median(times), workspace


class QueryResult:
    def __init__(self, query: Dict[str, object], wall: float, rss: float,
                 out: str, ok: bool, spans: list) -> None:
        self.query = query
        self.wall = wall
        self.rss = rss
        self.out = out
        self.ok = ok
        self.spans = spans


def run_queries(run: Run, estimator: str, workspace: str,
                queries: Sequence[Dict[str, object]],
                traced: Sequence[bool]) -> List[QueryResult]:
    """Cold CLI processes, one at a time, in order; query ``i`` is traced
    when ``traced[i % len(traced)]``."""
    results: List[QueryResult] = []
    for i, query in enumerate(queries):
        spans = run.spans_path(traced[i % len(traced)])
        wall, code, out, err, rss = procs.run_timed(
            run.children, mix.cli_argv(query, estimator), run.env(workspace),
            run.root, spans,
        )
        if code != 0:
            run.attempt(f"query {query} exited {code}: {err.strip()[-200:]}")
        results.append(QueryResult(query, wall, rss, out, code == 0,
                                   _load_spans(spans)[0]))
    walls = [r.wall for r in results]
    print(f"queries: {len(results)} cold processes, median "
          f"{median(walls):.4f} s, tail {tail(walls)[0]:.4f} s "
          f"(p{tail(walls)[1]:.1f})", flush=True)
    return results


def check_queries(run: Run, oracle, results: Sequence[QueryResult]) -> None:
    for r in results:
        if not r.ok:
            continue  # already counted as failed
        error = oracle.check_cli(r.query, r.out)
        if error is None and r.query == mix.ANCHOR_QUERY \
                and f": {mix.ANCHOR_INSTANCE} (" not in r.out:
            error = f"anchor recommend did not pick {mix.ANCHOR_INSTANCE}"
        run.attempt(error)


def load_oracle(run: Run, estimator: str):
    sys.path.insert(0, os.path.join(run.root, "src"))
    import oracle

    return oracle.Oracle(estimator)


# -- serve phases -----------------------------------------------------------
class Server:
    def __init__(self, proc: subprocess.Popen, port: int,
                 spans: Optional[str], startup_s: float) -> None:
        self.proc = proc
        self.port = port
        self.spans = spans
        self.startup_s = startup_s


def start_server(run: Run, estimator: str, workspace: str,
                 traced: bool) -> Server:
    """Spawn ``repro serve`` and time it up to the first 200 from
    ``/healthz`` (import, estimator load, warm-up, bind)."""
    spans = run.spans_path(traced)
    started = time.perf_counter()
    proc, out_path, err_path = run.children.spawn(
        procs.repro_argv(
            ["serve", "--estimator", estimator, "--port", "0",
             "--spot-seed", str(spot_seed(run.seed))], spans),
        run.env(workspace), run.root,
    )
    port = None
    while port is None:
        if proc.poll() is not None:
            raise BenchError(f"repro serve exited {proc.returncode}: "
                             f"{procs.read(err_path).strip()[-300:]}")
        if time.perf_counter() - started > 120:
            raise BenchError("repro serve did not bind within 120 s")
        for line in procs.read(out_path).splitlines():
            if " on http://" in line:
                port = int(line.rsplit(":", 1)[1])
        if port is None:
            time.sleep(0.002)
    status = _healthz(port)
    startup = time.perf_counter() - started
    if status != 200:
        raise BenchError(f"/healthz answered {status}")
    return Server(proc, port, spans, startup)


def _healthz(port: int) -> int:
    async def probe() -> int:
        client = OpenLoopClient("127.0.0.1", port, 1)
        try:
            return (await client.call(("GET", "/healthz", None))).status or 0
        finally:
            client.close()

    return asyncio.run(probe())


def spot_seed(seed: int) -> int:
    return random.Random(f"{seed}:spot").randrange(1, 10_000)


def churn_schedule(run: Run, name: str, rate: float, duration: float,
                   slot: int, reloads: bool) -> List[Tuple[float, mix.Request]]:
    """Sorted (offset s, request) pairs of one churn phase: Poisson reads
    with fresh bodies from ``samples`` block ``slot`` (no two phases share
    one), a spot tick every ``TICK_EVERY_S`` and, with ``reloads``, the
    reloads at ``RELOAD_AT``."""
    offsets = mix.arrival_offsets(run.seed, name, rate, duration)
    bodies = mix.ChurnBodies(run.seed, name, slot)
    schedule = [(t, bodies.next()) for t in offsets]
    schedule += [(TICK_EVERY_S * (i + 0.5), mix.TICK)
                 for i in range(int(duration / TICK_EVERY_S))]
    if reloads:
        schedule += [(duration * f, mix.RELOAD) for f in RELOAD_AT]
    schedule.sort(key=lambda item: item[0])
    return schedule


def hot_schedule(run: Run, duration: float, pool: Sequence[mix.Request]
                 ) -> List[Tuple[float, mix.Request]]:
    """Poisson reads drawn from the hot pool; no writes."""
    offsets = mix.arrival_offsets(run.seed, "hot", HOT_RPS, duration)
    return list(zip(offsets, mix.hot_requests(run.seed, "hot", list(pool),
                                              len(offsets))))


#: One checked answer: (request, answer, strict). An unanswered request
#: of a non-strict (ladder) phase is a phase miss, not a wrong answer.
Checked = Tuple[mix.Request, Answer, bool]


class Session:
    """What one driven server leaves for the metrics and the checks."""

    def __init__(self) -> None:
        self.phases: List[Phase] = []
        #: The ladder's full (fine) phases, which alone set max_rate_rps.
        self.ladder: List[Phase] = []
        self.answers: List[Checked] = []
        #: Per watched phase: /metrics before and after, its window
        #: (perf_counter_ns) and its answers.
        self.watched: Dict[str, Dict[str, object]] = {}
        self.startups: List[float] = []
        self.rss = 0.0
        self.spans: list = []

    @property
    def reference(self) -> Phase:
        return self.phases[0]


async def drive(run: Run, server: Server, session: Session,
                reference_only: bool) -> None:
    """Warm the response path, then run the reference phase, the hot
    phase and (unless ``reference_only``) the rate ladder."""
    client = OpenLoopClient("127.0.0.1", server.port, CONNECTIONS)

    async def call(request: mix.Request) -> None:
        session.answers.append((request, await client.call(request), True))

    async def phase(name: str, rate: float, duration: float, schedule: list,
                    strict: bool, watch: bool = False) -> Phase:
        if watch:
            before = await _metrics(client)
            opened = time.perf_counter_ns()
        done, got = await client.run_phase(
            name, rate, schedule, duration,
            STRICT_DRAIN_S if strict else loadgen.DRAIN_TIMEOUT_S,
        )
        pairs = [(req, a) for (_, req), a in zip(schedule, got)]
        if watch:
            session.watched[name] = {
                "before": before, "window": (opened, time.perf_counter_ns()),
                "after": await _metrics(client), "answers": pairs,
            }
        session.answers += [(req, a, strict) for req, a in pairs]
        session.phases.append(done)
        print(f"phase {name}: rate {rate:g}/s, sent {done.sent}, "
              f"succeeded {done.succeeded}, failed {done.failed}, "
              f"p50 {median(done.latencies_s) * 1e3:.3f} ms, "
              f"tail {done.tail_ms():.3f} ms "
              f"(p{tail(done.latencies_s)[1]:.1f}), "
              f"late p99 {tail(done.late_s)[0] * 1e3:.3f} ms, "
              f"backlog {done.backlog}, offered {done.offered_rps:.2f}/s"
              f"{'' if done.passes(LIMIT_MS) else ' MISSES LIMIT'}",
              flush=True)
        return done

    try:
        warm = mix.ChurnBodies(run.seed, "warm", 0)
        for _ in range(4):
            await call(warm.next())
        duration = run.seconds * REFERENCE_SHARE
        await phase("reference", REFERENCE_RPS, duration,
                    churn_schedule(run, "reference", REFERENCE_RPS, duration,
                                   1, reloads=True),
                    strict=True, watch=True)
        # Every hot body once, so the hot phase measures cache answers.
        pool = mix.hot_pool(run.seed)
        for request in pool:
            await call(request)
        duration = run.seconds * HOT_SHARE
        await phase("hot", HOT_RPS, duration,
                    hot_schedule(run, duration, pool), strict=True, watch=True)
        if reference_only:
            return
        ladder = Ladder(LADDER_BASE_RPS, LADDER_STEP, LADDER_STRIDE,
                        LADDER_TOP)
        step = ladder.next()
        while step is not None:
            rung, coarse, attempt = step
            rate = ladder.rate(rung)
            name = (f"{'coarse' if coarse else 'ladder'}{rate:g}"
                    f"{'-again' if attempt else ''}")
            duration = run.seconds * (COARSE_SHARE if coarse
                                      else LADDER_SHARE)
            slot = 2 + 4 * rung + (0 if coarse else 2) + attempt
            done = await phase(name, rate, duration,
                               churn_schedule(run, name, rate, duration,
                                              slot, reloads=False),
                               strict=False)
            if not coarse:
                session.ladder.append(done)
            ladder.record(done.passes(LIMIT_MS))
            step = ladder.next()
    finally:
        client.close()


async def _metrics(client: OpenLoopClient) -> object:
    answer = await client.call(("GET", "/metrics", None))
    if not answer.ok:
        raise BenchError(f"/metrics answered {answer.status}")
    return answer.json()


def serve_session(run: Run, estimator: str, workspace: str, traced: bool,
                  reference_only: bool, setups: int) -> Session:
    """Start the server ``setups`` times (keeping the last), drive it,
    stop it."""
    session = Session()
    server = None
    for i in range(setups):
        try:
            server = start_server(run, estimator, workspace, traced)
        except BenchError as exc:
            run.attempt(str(exc))
            raise
        run.attempt(None)
        session.startups.append(server.startup_s)
        if i < setups - 1:
            run.children.stop(server.proc)
    assert server is not None
    print(f"setup: server start to first /healthz "
          f"{[round(t, 4) for t in session.startups]} s", flush=True)
    asyncio.run(drive(run, server, session, reference_only))
    code, session.rss = run.children.stop(server.proc)
    run.attempt(None if code == 0 else f"repro serve exited {code}")
    session.spans, _ = _load_spans(server.spans)
    return session


def check_answers(run: Run, oracle, answers: Sequence[Checked]) -> None:
    """Every answer must be a 200 of the right shape; a seeded sample of
    reads is re-evaluated in-process and must match exactly.

    A ladder request the generator abandoned or timed out has no status:
    it already misses its phase, and an overloaded phase is no wrong
    answer. Any status but 200 is one.
    """
    reads = []
    for request, answer, strict in answers:
        method, path, body = request
        if answer.status is None and not strict:
            continue
        if not answer.ok:
            run.attempt(f"{path} answered {answer.status}")
            continue
        doc = answer.json()
        if path == "/spot/tick":
            run.attempt(None if doc.get("status") == "ticked"
                        else f"bad tick answer {doc}")
        elif path == "/admin/reload":
            run.attempt(None if doc.get("status") == "reloaded"
                        else f"bad reload answer {doc}")
        else:
            reads.append((path, body, doc))
            run.attempt(None)
    rng = random.Random(f"{run.seed}:check")
    for path, body, doc in rng.sample(reads, min(SERVE_CHECKS, len(reads))):
        error = oracle.check_serve(path, body, doc, spot_seed(run.seed))
        if error is not None:
            run.attempt(error)


# -- metrics ------------------------------------------------------------------
def _per_call(totals, name: str, scale: float) -> float:
    s, _, n = totals.get(name, (0.0, 0.0, 0))
    return s / n * scale if n else 0.0


def _self_s(totals, name: str) -> float:
    return totals.get(name, (0.0, 0.0, 0))[0]


def _calls(totals, name: str) -> int:
    return totals.get(name, (0.0, 0.0, 0))[2]


def _spans4(spans: list) -> List[benchstats.Span]:
    return [tuple(row[:4]) for row in spans]


def _attr_sum(spans: list, name: str, key: str,
              window: Optional[Tuple[int, int]] = None) -> float:
    return sum(
        (row[4] or {}).get(key, 0.0) for row in spans
        if row[0] == name and (window is None or window[0] <= row[1] < window[1])
    )


def fit_layers(wall: float, spans: list, extra: Dict[str, float]) -> Dict[str, float]:
    totals = layer_totals(_spans4(spans))
    accounted = sum(s for name, (s, _, _) in totals.items() if name != "cli.main")
    return {
        "profiling.profile_s": _self_s(totals, "profiling.profile"),
        "profiling.cells": _attr_sum(spans, "profiling.profile", "cells"),
        "profiling.records": _attr_sum(spans, "profiling.profile", "records"),
        "core.classify_s": _self_s(totals, "core.classify"),
        "core.op_models_s": _self_s(totals, "core.op_models"),
        "core.comm_collect_s": _self_s(totals, "core.comm_collect"),
        "core.comm_fit_s": _self_s(totals, "core.comm_fit"),
        "artifacts.write_s": _self_s(totals, "artifacts.write"),
        "artifacts.bytes": extra.get("artifacts.bytes", 0.0),
        "core.persistence.save_s": _self_s(totals, "core.persistence.save"),
        "fit.unaccounted_share": (wall - accounted) / wall,
    }


def query_layers(results: Sequence[QueryResult]) -> Dict[str, float]:
    """Per-query means over the traced cold queries."""
    traced = [r for r in results if r.spans]
    if not traced:
        return {}
    n = len(traced)
    all_spans: list = []
    wall = accounted = 0.0
    for r in traced:
        totals = layer_totals(_spans4(r.spans))
        wall += r.wall
        accounted += sum(s for name, (s, _, _) in totals.items()
                         if name != "cli.main")
        all_spans += [(name, start, end, -1 if parent < 0 else parent + len(all_spans))
                      for name, start, end, parent, _ in r.spans]
    totals = layer_totals(all_spans)
    return {
        "cli.import_s": _self_s(totals, "cli.import") / n,
        "core.persistence.load_s": _self_s(totals, "core.persistence.load") / n,
        "models.build_s": _self_s(totals, "models.build") / n,
        "models.builds": _calls(totals, "models.build") / n,
        "core.engine.compile_s": _self_s(totals, "core.engine.compile") / n,
        "core.engine.compiles": _calls(totals, "core.engine.compile") / n,
        "core.estimator.predict_us": _per_call(totals, "core.estimator.predict", 1e6),
        "core.batch.sweep_s": _self_s(totals, "core.batch.sweep") / n,
        "core.batch.candidates": sum(
            _attr_sum(r.spans, "core.batch.sweep", "candidates") for r in traced
        ) / n,
        "core.rerank.session_s": _self_s(totals, "core.rerank.session") / n,
        "core.rerank.rerank_us": _per_call(totals, "core.rerank.rerank", 1e6),
        "core.recommend.sweep_us": _per_call(totals, "core.recommend.sweep", 1e6),
        "core.pareto_us": _per_call(totals, "core.pareto", 1e6),
        "cloud.spotsim.tick_us": _per_call(totals, "cloud.spotsim.tick", 1e6),
        "query.unaccounted_share": (wall - accounted) / wall,
    }


def _counter(doc: Dict[str, object], name: str, **labels: str) -> float:
    total = 0.0
    for record in doc.get("metrics", []):  # type: ignore[union-attr]
        if record["name"] == name and all(
            record.get("labels", {}).get(k) == v for k, v in labels.items()
        ):
            total += float(record["value"])
    return total


def serve_layers(session: Session) -> Dict[str, float]:
    """Server-side layers of a traced server.

    The engine, the lane and the protocol's parse and encode cost come
    from the reference phase (churn: every read is evaluated); the front
    end's own cost (``serve.app_us``, ``serve.transport_us``) and the
    cache's share of answers come from the hot phase, where the response
    cache answers and nothing else runs.
    """
    ref = session.watched["reference"]
    hot = session.watched["hot"]
    spans = session.spans
    window = ref["window"]
    totals = layer_totals(_spans4(spans), window)  # type: ignore[arg-type]
    hot_totals = layer_totals(_spans4(spans), hot["window"])  # type: ignore[arg-type]
    n_req = max(_calls(totals, "serve.app"), 1)

    def delta(phase: Dict[str, object], name: str, **labels: str) -> float:
        return (_counter(phase["after"], name, **labels)  # type: ignore[arg-type]
                - _counter(phase["before"], name, **labels))  # type: ignore[arg-type]

    def client_s(phase: Dict[str, object]) -> List[float]:
        return [a.done - a.sent for _, a in phase["answers"] if a.ok]  # type: ignore[union-attr]

    hits = delta(hot, "serve.cache", outcome="hit") + delta(hot, "serve.coalesced")
    misses = delta(hot, "serve.cache", outcome="miss")
    hot_client = client_s(hot)
    hot_app_s = hot_totals.get("serve.app", (0.0, 0.0, 0))[1]
    ref_client_s = sum(client_s(ref))
    window_s = (window[1] - window[0]) / 1e9  # type: ignore[index]
    reloads = [
        (row[2] - row[1]) / 1e6 for row in spans
        if row[0] == "serve.snapshot.load" and window[0] <= row[1] < window[1]  # type: ignore[index]
    ]
    return {
        "models.build_s": _self_s(totals, "models.build") / n_req,
        "models.builds": _calls(totals, "models.build") / n_req,
        "core.engine.compile_s": _self_s(totals, "core.engine.compile") / n_req,
        "core.engine.compiles": _calls(totals, "core.engine.compile") / n_req,
        "core.estimator.predict_us": _per_call(totals, "core.estimator.predict", 1e6),
        "core.batch.sweep_s": _self_s(totals, "core.batch.sweep") / n_req,
        "core.batch.candidates":
            _attr_sum(spans, "core.batch.sweep", "candidates", window) / n_req,  # type: ignore[arg-type]
        "core.rerank.session_s": _self_s(totals, "core.rerank.session") / n_req,
        "core.rerank.rerank_us": _per_call(totals, "core.rerank.rerank", 1e6),
        "core.recommend.sweep_us": _per_call(totals, "core.recommend.sweep", 1e6),
        "core.pareto_us": _per_call(totals, "core.pareto", 1e6),
        "cloud.spotsim.tick_us": _per_call(totals, "cloud.spotsim.tick", 1e6),
        "serve.protocol.parse_us": _per_call(totals, "serve.protocol.parse", 1e6),
        "serve.protocol.encode_us": _per_call(totals, "serve.protocol.encode", 1e6),
        "serve.app_us": hot_app_s / max(_calls(hot_totals, "serve.app"), 1) * 1e6,
        "serve.transport_us":
            (sum(hot_client) - hot_app_s) / max(len(hot_client), 1) * 1e6,
        "serve.coalesce.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "serve.lane.wait_us": _per_call(totals, "serve.lane.wait", 1e6),
        "serve.lane.busy_share":
            totals.get("serve.lane.busy", (0.0, 0.0, 0))[1] / window_s,
        "serve.lane.evaluations": delta(ref, "serve.evaluations") / n_req,
        "serve.snapshot.reload_ms": median(reloads) if reloads else 0.0,
        "serve.unaccounted_share":
            _self_s(totals, "serve.app") / ref_client_s if ref_client_s else 0.0,
    }


class BenchError(Exception):
    """The run cannot continue (the program failed in a way that stops it)."""


# -- workloads ------------------------------------------------------------------
def run_offline(run: Run) -> Tuple[Dict[str, float], Dict[str, float]]:
    setup_s, workspace = measure_setup_offline(run)
    fit_s, fit_rss, estimator, fit_spans, fit_extra = measure_fit(run, run.trace)
    # Two of every three queries are traced; a period prime to the four
    # query kinds traces every kind.
    count = max(2, round(OFFLINE_QUERIES_PER_S * run.seconds))
    queries = run_queries(run, estimator, workspace,
                          mix.cli_queries(run.seed, count),
                          (True, True, False) if run.trace else (False,))
    check_queries(run, load_oracle(run, estimator), queries)
    walls = [q.wall for q in queries]
    e2e = {
        "setup_s": setup_s, "fit_s": fit_s,
        "query_p50_s": median(walls), "query_tail_s": tail(walls)[0],
        # offline has no server: a user's wait for an answer is the cold
        # process, and its throughput is answers per second of them.
        "latency_p50_ms": median(walls) * 1e3,
        "latency_tail_ms": tail(walls)[0] * 1e3,
        "max_rate_rps": len(walls) / sum(walls),
        "peak_rss_mb": max([fit_rss] + [q.rss for q in queries]),
    }
    layers: Dict[str, float] = {}
    if run.trace:
        layers.update(fit_layers(fit_s, fit_spans, fit_extra))
        layers.update(query_layers(queries))
        traced = [q.wall for q in queries if q.spans]
        plain = [q.wall for q in queries if not q.spans]
        if traced and plain:
            layers["trace.overhead_share"] = median(traced) / median(plain) - 1
    return e2e, layers


def run_serve(run: Run) -> Tuple[Dict[str, float], Dict[str, float]]:
    fit_s, fit_rss, estimator, fit_spans, fit_extra = measure_fit(run, run.trace)
    workspace = run.fresh_dir("ws")
    # Half the cold queries run before the server, half after it, so the
    # few samples do not all fall into one slow or fast spell.
    half = [mix.ANCHOR_QUERY] * (SERVE_CLI_QUERIES // 2)
    queries = run_queries(run, estimator, workspace, half, (run.trace,))
    if not run.trace:
        session = serve_session(run, estimator, workspace, False, False,
                                SETUP_REPEATS)
        sessions = [session]
    else:
        plain = serve_session(run, estimator, workspace, False, True, 1)
        session = serve_session(run, estimator, workspace, True, True, 1)
        sessions = [plain, session]
    queries += run_queries(run, estimator, workspace, half, (run.trace,))
    walls = [q.wall for q in queries]
    layers: Dict[str, float] = {}
    if run.trace:
        layers.update(fit_layers(fit_s, fit_spans, fit_extra))
        layers.update(query_layers(queries))
        layers.update(serve_layers(session))
        p50 = [median(s.reference.latencies_s) for s in sessions]
        layers["trace.overhead_share"] = p50[1] / p50[0] - 1
    oracle = load_oracle(run, estimator)
    check_queries(run, oracle, queries)
    for s in sessions:
        check_answers(run, oracle, s.answers)
    all_phases = [p for s in sessions for p in s.phases]
    layers["bench.late_ms"] = max(tail(p.late_s)[0] for p in all_phases) * 1e3
    layers["bench.backlog"] = float(max(p.backlog for p in all_phases))
    reference = session.reference
    e2e = {
        "setup_s": median(session.startups),
        "fit_s": fit_s,
        "query_p50_s": median(walls), "query_tail_s": tail(walls)[0],
        "latency_p50_ms": median(reference.latencies_s) * 1e3,
        "latency_tail_ms": reference.tail_ms(),
        # Ladder phases only: the reference and hot rates are set by the
        # schedule, not by the program.
        "max_rate_rps": benchstats.max_rate_rps(session.ladder, LIMIT_MS),
        "peak_rss_mb": session.rss,
    }
    return e2e, layers


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: run from the repository root (src/repro is missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, SPEC_FILE), encoding="utf-8") as fh:
        spec = json.load(fh)
    # Compile the sources once up front, so no cold process pays it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(root, "src")], check=True)
    # A terminated run still unwinds, so its children are stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, {CONNECTIONS} connection(s), fit iterations "
          f"{mix.FIT_ITERATIONS}", flush=True)
    try:
        if args.workload == "offline":
            e2e, layers = run_offline(run)
        else:
            e2e, layers = run_serve(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        e2e, layers = {}, {}
    finally:
        run.close()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = layers if args.trace else e2e
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted
    }
    failed = len(run.failures)
    print(f"failed_share {failed / max(run.attempted, 1):.6f} "
          f"({failed} of {run.attempted})", flush=True)
    print(json.dumps({
        "correct": failed == 0 and bool(e2e),
        "attempted": max(run.attempted, 1),
        "failed": failed if e2e else max(failed, 1),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
