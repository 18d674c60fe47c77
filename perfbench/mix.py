"""Seeded inputs of the workloads.

Everything the program receives is generated here from ``--seed``: the
cold CLI queries, the serve request bodies, and the Poisson arrival
schedules. The same seed gives the same inputs; the program
never sees the seed itself. Which kind of query goes to which model
follows a fixed rotation (see :func:`_rotation`); the seed draws
everything else.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Tuple

#: The 12 zoo models (``repro models``), sorted.
MODELS = (
    "alexnet", "inception_resnet_v2", "inception_v1", "inception_v3",
    "inception_v4", "resnet_101", "resnet_152", "resnet_200", "resnet_50",
    "vgg_11", "vgg_16", "vgg_19",
)
GPUS = ("V100", "K80", "T4", "M60")
#: Every GPU is priced at 1-4 GPUs (exact or proxy instances).
GPU_COUNTS = (1, 2, 3, 4)
MAX_BATCH = 256
#: The batch size ``repro serve`` pre-compiles every zoo model at.
WARM_BATCH = 32
#: Profiling iterations of every ``repro fit`` the benchmark runs.
FIT_ITERATIONS = 40
#: The cold query every offline run starts with: the paper's Fig. 11
#: answer, which must be ``g4dn.2xlarge``.
ANCHOR_QUERY = {"kind": "recommend", "model": "inception_v3", "batch": 32,
                "objective": "min-cost"}
ANCHOR_INSTANCE = "g4dn.2xlarge"

QUERY_KINDS = ("predict", "recommend", "tradeoff", "spot")


def _rng(seed: int, *scope: object) -> random.Random:
    # String seeds hash through SHA-512, so streams are stable across
    # processes and Python versions.
    return random.Random(":".join(str(s) for s in (seed,) + scope))


def _rotation(kinds: Tuple[str, ...], j: int) -> Tuple[str, str]:
    """The ``j``-th (kind, model) of a fixed sequence the seed does not
    change.

    Kinds repeat in ``kinds`` order and models in zoo order, shifted by
    one model after every pass over the zoo, so any window holds the
    kind mix over the whole zoo and every model soon meets every kind.
    What a request costs then depends on the program, not on which
    model the seed happened to pair with an expensive kind.
    """
    n = len(MODELS)
    return kinds[j % len(kinds)], MODELS[(j + j // n) % n]


# -- cold CLI queries ---------------------------------------------------
def cli_queries(seed: int, count: int) -> List[Dict[str, object]]:
    """The cold-query sequence: the anchor, then the kind/model rotation
    with seeded batch sizes (uniform in 1..256), GPUs and spot traces."""
    rng = _rng(seed, "cli")
    queries: List[Dict[str, object]] = [dict(ANCHOR_QUERY)]
    for kind, model in (_rotation(QUERY_KINDS, j) for j in range(count - 1)):
        q: Dict[str, object] = {
            "kind": kind, "model": model, "batch": rng.randint(1, MAX_BATCH),
        }
        if kind == "predict":
            q["gpu"] = rng.choice(GPUS)
            q["gpus"] = rng.choice(GPU_COUNTS)
        elif kind == "recommend":
            q["objective"] = rng.choice(("min-cost", "min-time"))
        elif kind == "spot":
            q["seed"] = rng.randrange(1, 10_000)
            q["ticks"] = rng.randint(1, 48)
        queries.append(q)
    return queries


def cli_argv(query: Dict[str, object], estimator: str) -> List[str]:
    """``repro`` arguments of one cold query."""
    kind = query["kind"]
    common = ["--estimator", estimator, "--model", str(query["model"]),
              "--batch", str(query["batch"])]
    if kind == "predict":
        return ["predict", *common, "--gpu", str(query["gpu"]),
                "--gpus", str(query["gpus"])]
    if kind == "recommend":
        return ["recommend", *common, "--objective", str(query["objective"])]
    if kind == "tradeoff":
        return ["tradeoff", *common]
    return ["recommend", *common, "--scenario", "spot",
            "--seed", str(query["seed"]), "--ticks", str(query["ticks"])]


# -- serve requests -----------------------------------------------------
#: (method, path, body or None); ``body`` is what the oracle re-evaluates.
Request = Tuple[str, str, Optional[Dict[str, object]]]


def encode(request: Request) -> bytes:
    """One HTTP/1.1 keep-alive request on the wire."""
    method, path, body = request
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nhost: perfbench\r\n"
        f"content-type: application/json\r\n"
        f"content-length: {len(payload)}\r\n\r\n"
    )
    return head.encode("ascii") + payload


class ChurnBodies:
    """Distinct read bodies: each carries a fresh ``samples`` value, so no
    two share a fingerprint and the response cache never answers.

    Kind and model follow the fixed rotation over blocks of twenty.
    Sixteen are ``warm`` predicts at batch 32, the size the server
    pre-compiled: the engine answers them from its caches, so they cost
    the front end and the lane's queue. The other four force cold work
    at a batch drawn uniformly from 1..256 — a predict, a two-batch
    pareto, a spot and a static recommend — which keeps the (model,
    batch) working set far above the engine's 32-entry LRUs and, when
    one of them holds the lane, stalls whatever queues behind it. At
    the reference rate the cold work holds the lane about a sixth of the
    time, so the median falls well inside the warm requests that found
    the lane free and the tail among the cold work and what queued
    behind it. The seed draws the batches, GPUs and objectives.
    """

    BLOCK = ("warm", "warm", "predict", "warm", "warm", "warm", "warm",
             "pareto", "warm", "warm", "warm", "warm", "spot", "warm",
             "warm", "warm", "warm", "recommend", "warm", "warm")
    #: ``samples`` values of one ``slot``: slots never share a value.
    SLOT_SIZE = 100_000

    def __init__(self, seed: int, scope: str, slot: int) -> None:
        self._rng = _rng(seed, "churn", scope)
        self._drawn = 0
        self._next_samples = (1_000_000 + slot * self.SLOT_SIZE
                              + self._rng.randrange(self.SLOT_SIZE // 2))

    def next(self) -> Request:
        rng = self._rng
        kind, model = _rotation(self.BLOCK, self._drawn)
        self._drawn += 1
        samples = self._next_samples
        self._next_samples += 1
        if kind == "pareto":
            batches = sorted(rng.sample(range(1, MAX_BATCH + 1), 2))
            return ("POST", "/pareto",
                    {"model": model, "batches": batches, "samples": samples})
        body: Dict[str, object] = {
            "model": model, "samples": samples,
            "batch": WARM_BATCH if kind == "warm" else rng.randint(1, MAX_BATCH),
        }
        if kind in ("warm", "predict"):
            body.update(gpu=rng.choice(GPUS), gpus=rng.choice(GPU_COUNTS))
            return ("POST", "/predict", body)
        if kind == "spot":
            body["scenario"] = "spot"
        else:
            body["objective"] = rng.choice(("min-cost", "min-time"))
        return ("POST", "/recommend", body)


#: Distinct bodies in the hot pool.
HOT_POOL = 64


def hot_pool(seed: int) -> List[Request]:
    """``HOT_POOL`` distinct read bodies the hot phase repeats.

    Predicts, static recommends and one-batch paretos over the zoo at
    batch 32, the size the server pre-compiled, in the fixed rotation;
    the seed draws GPUs, counts and objectives. None carries ``samples``,
    so none shares a key with a churn body.
    """
    rng = _rng(seed, "hot")
    pool: List[Request] = []
    seen = set()
    j = 0
    while len(pool) < HOT_POOL:
        kind, model = _rotation(("predict", "recommend", "predict", "pareto"), j)
        j += 1
        if kind == "pareto":
            request: Request = ("POST", "/pareto",
                                {"model": model, "batches": [WARM_BATCH]})
        elif kind == "predict":
            request = ("POST", "/predict",
                       {"model": model, "batch": WARM_BATCH,
                        "gpu": rng.choice(GPUS), "gpus": rng.choice(GPU_COUNTS)})
        else:
            request = ("POST", "/recommend",
                       {"model": model, "batch": WARM_BATCH,
                        "objective": rng.choice(("min-cost", "min-time"))})
        if encode(request) not in seen:
            seen.add(encode(request))
            pool.append(request)
    return pool


def hot_requests(seed: int, scope: str, pool: List[Request],
                 count: int) -> List[Request]:
    """``count`` seeded draws, with replacement, from ``pool``."""
    rng = _rng(seed, "hot", scope)
    return [rng.choice(pool) for _ in range(count)]


TICK: Request = ("POST", "/spot/tick", {})
RELOAD: Request = ("POST", "/admin/reload", {})


def arrival_offsets(seed: int, scope: str, rate_rps: float,
                    duration_s: float) -> List[float]:
    """A Poisson schedule of ``round(rate * duration)`` arrivals.

    Arrival times of a Poisson process, given their count, are sorted
    independent uniforms; fixing the count keeps every phase's offered
    load exact while the spacing stays Poisson.
    """
    rng = _rng(seed, "arrivals", scope)
    n = max(1, round(rate_rps * duration_s))
    return sorted(rng.uniform(0.0, duration_s) for _ in range(n))
