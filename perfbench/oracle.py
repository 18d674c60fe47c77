"""In-process answers the benchmark checks the program's outputs against.

Imported only after the measured phases, so the benchmark process does
not carry the program's import and heap while it times anything. Each
check returns ``None`` when the output matches, or a one-line reason.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.cloud.spotsim import SpotMarket, observe
from repro.core.batch import SweepPlan, evaluate_sweep
from repro.core.pareto import analyze_tradeoff
from repro.core.persistence import load_estimator
from repro.core.preempt import DEFAULT_PREEMPTION
from repro.core.recommend import MinimizeCost, MinimizeTime, Recommender
from repro.core.rerank import SpotRerankSession
from repro.serve.protocol import (
    PRICINGS,
    parse_pareto,
    parse_predict,
    parse_recommend,
    prediction_to_json,
    recommendation_to_json,
)
from repro.units import us_to_ms
from repro.workloads.dataset import DatasetSpec, TrainingJob


def _cli_job(batch: int) -> TrainingJob:
    """The CLI's default workload: one ImageNet epoch."""
    return TrainingJob(DatasetSpec("cli-dataset", num_samples=1_200_000),
                       batch_size=batch)


class Oracle:
    """One estimator file, loaded in this process."""

    def __init__(self, estimator_path: str) -> None:
        self.estimator = load_estimator(estimator_path)

    # -- cold CLI answers ---------------------------------------------
    def check_cli(self, query: Dict[str, object], stdout: str) -> Optional[str]:
        """The CLI's printed answer against the library's, same precision."""
        kind = query["kind"]
        model = str(query["model"])
        job = _cli_job(int(query["batch"]))  # type: ignore[arg-type]
        if kind == "predict":
            p = self.estimator.predict_training(
                model, str(query["gpu"]), int(query["gpus"]), job  # type: ignore[arg-type]
            )
            expected = [
                f"{p.model} on {p.instance_name} ({p.num_gpus}x {p.gpu_key}):",
                f"per-iteration: {us_to_ms(p.per_iteration_us):.2f} ms",
                f"training time: {p.total_hours:.2f} h",
                f"training cost: ${p.cost_dollars:.2f}",
            ]
        elif kind == "recommend":
            objective = (MinimizeCost() if query["objective"] == "min-cost"
                         else MinimizeTime())
            expected = [
                Recommender(self.estimator).recommend(model, job, objective)
                .summary()
            ]
        elif kind == "tradeoff":
            analysis = analyze_tradeoff(Recommender(self.estimator), model, job)
            knee = analysis.knee()
            expected = [
                analysis.render(),
                f"knee of the frontier: {knee.instance_name} "
                f"({knee.total_hours:.2f} h, ${knee.cost_dollars:.2f})",
            ]
        else:
            market = SpotMarket(seed=int(query["seed"]))  # type: ignore[arg-type]
            for _ in range(int(query["ticks"]) - 1):  # type: ignore[arg-type]
                market.tick()
            best = SpotRerankSession.from_estimator(
                self.estimator, model, job, batch_sizes=(job.batch_size,)
            ).rerank(
                market.ratios(), market.hazards_per_hr(),
                risk_aversion_usd_per_hr=0.0, preempt=DEFAULT_PREEMPTION,
            ).best()
            expected = [
                f"best: {best.model} on {best.instance_name} "
                f"({best.num_gpus}x {best.gpu_key}, batch {best.batch_size})",
                f"expected cost: ${best.expected_cost_usd:.2f} at "
                f"${best.usd_per_hr:.3f}/hr",
            ]
        for text in expected:
            if text not in stdout:
                return f"{kind} {model}: CLI output lacks {text.splitlines()[0]!r}"
        return None

    # -- serve answers ---------------------------------------------------
    def serve_document(self, path: str, body: Dict[str, object],
                       response: Dict[str, object],
                       spot_seed: int) -> Dict[str, object]:
        """What the server should have answered for ``body``.

        Spot answers are rebuilt at the ``spot_generation`` they report;
        the snapshot generation is copied, since every reload reads the
        same file.
        """
        if path == "/predict":
            req = parse_predict(body)
            p = self.estimator.predict_training(
                req.model, req.gpu, req.gpus, req.job(),
                pricing=req.pricing_scheme(),
            )
            return {"generation": response["generation"],
                    "prediction": prediction_to_json(p)}
        if path == "/pareto":
            req = parse_pareto(body)
            plan = SweepPlan.full_catalog(
                batch_sizes=req.batches, pricings=(PRICINGS[req.pricing],)
            )
            result = evaluate_sweep(self.estimator, req.model, req.job(), plan)
            return {
                "generation": response["generation"],
                "model": result.model_name,
                "n_candidates": result.n_candidates,
                "frontier": [prediction_to_json(p) for p in result.frontier()],
            }
        req = parse_recommend(body)
        if req.scenario != "spot":
            doc = recommendation_to_json(
                Recommender(self.estimator, pricing=req.pricing_scheme())
                .recommend(req.model, req.job(), req.objective_instance())
            )
            doc["generation"] = response["generation"]
            return doc
        generation = int(response["spot_generation"])  # type: ignore[arg-type]
        ratios, hazards = observe(SpotMarket(seed=spot_seed), generation)
        ranking = SpotRerankSession.from_estimator(
            self.estimator, req.model, req.job(), batch_sizes=(req.batch,)
        ).rerank(ratios, hazards, risk_aversion_usd_per_hr=req.risk_aversion,
                 preempt=DEFAULT_PREEMPTION)
        top = ranking.predictions(top=4)
        return {
            "generation": response["generation"],
            "scenario": "spot",
            "spot_generation": generation,
            "objective": "spot-risk",
            "risk_aversion": req.risk_aversion,
            "ratios": dict(sorted(ratios.items())),
            "n_candidates": ranking.n_candidates,
            "best": prediction_to_json(ranking.best()),
            "runners_up": [prediction_to_json(p) for p in top[1:]],
        }

    def check_serve(self, path: str, body: Dict[str, object],
                    response: Dict[str, object],
                    spot_seed: int) -> Optional[str]:
        expected = json.loads(json.dumps(
            self.serve_document(path, body, response, spot_seed)
        ))
        if expected != response:
            return f"{path} {json.dumps(body)}: response differs from in-process"
        return None
