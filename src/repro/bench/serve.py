"""Warm-pool amortization benchmark: the service vs one-shot runs.

Runs the same batch of studies twice —

* **cold**: each study through :func:`~repro.core.protocol.run_study`,
  paying provisioning (attestation, DH key agreement, channel
  establishment) every time, and
* **warm**: the whole batch through a
  :class:`~repro.serve.FederationService`, where provisioning is paid
  once per pool slot and every later study binds to a warm substrate —

then emits one JSON document (``BENCH_serve.json`` by default) with
throughput, p50/p95 submit-to-result latency, and the cold-vs-warm
steady-state amortization ratio.  The emitter doubles as the
equivalence gate used in CI: every service study's *decisions*
(:func:`~repro.bench.runner.study_decisions`) and OCALL round book must
be bit-identical to its one-shot twin, and the process exits non-zero
on any mismatch or if the warm steady-state latency fails to beat the
cold per-study latency.

Run as::

    PYTHONPATH=src python -m repro.bench.serve --out BENCH_serve.json \
        [--snps 500] [--studies 8] [--scale 0.05]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.protocol import run_study
from ..serve import FederationService, ServiceConfig
from .runner import study_decisions
from .workloads import (
    PAPER_CASE_HALF,
    bench_scale,
    clear_cohort_cache,
    paper_cohort,
    paper_config,
)


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q * len(ordered) + 0.5)))
    return ordered[int(rank) - 1]


def _latency_summary(values: Sequence[float]) -> Dict[str, float]:
    return {
        "mean_ms": sum(values) / len(values),
        "p50_ms": _percentile(values, 0.50),
        "p95_ms": _percentile(values, 0.95),
    }


def serve_report(
    num_snps: int = 500,
    num_studies: int = 8,
    num_members: int = 3,
    *,
    pool_size: int = 1,
    max_active: int = 1,
    max_concurrent_rounds: int = 2,
) -> Dict[str, Any]:
    """Run the cold and warm passes and assemble the JSON document.

    The service defaults to one slot and one active study so the warm
    steady state is measured sequentially — the same schedule as the
    cold baseline, with provisioning amortized away as the only
    difference.
    """
    cohort, _truth = paper_cohort(PAPER_CASE_HALF, num_snps)
    configs = [
        paper_config(num_snps, study_id=f"serve-bench-{index}")
        for index in range(num_studies)
    ]

    # -- cold baseline: provision-per-study ---------------------------------
    cold_ms: List[float] = []
    cold_decisions: Dict[str, Tuple[Dict[str, Any], Dict[str, int]]] = {}
    for config in configs:
        begin = time.perf_counter()
        result = run_study(cohort, config, num_members)
        cold_ms.append((time.perf_counter() - begin) * 1000.0)
        cold_decisions[config.study_id] = (
            study_decisions(result), result.ocall_rounds
        )

    # -- warm pass: one service, one provisioning per slot ------------------
    service_config = ServiceConfig(
        num_members=num_members,
        pool_size=pool_size,
        max_active=max_active,
        queue_limit=num_studies,
        max_concurrent_rounds=max_concurrent_rounds,
        service_id="bench-serve",
    )
    sessions: List[Dict[str, Any]] = []
    mismatches: List[str] = []
    batch_begin = time.perf_counter()
    with FederationService(service_config) as service:
        for config in configs:
            service.submit(cohort, replace(config))
        for config in configs:
            result = service.result(config.study_id, timeout=600.0)
            status = service.status(config.study_id)
            sessions.append(
                {
                    "study_id": config.study_id,
                    "warm": status["warm"],
                    "wait_ms": status["wait_seconds"] * 1000.0,
                    "run_ms": status["run_seconds"] * 1000.0,
                    "submit_to_result_ms": status["total_seconds"] * 1000.0,
                    "rounds": status["rounds"],
                }
            )
            served = (study_decisions(result), result.ocall_rounds)
            if served != cold_decisions[config.study_id]:
                mismatches.append(config.study_id)
        metrics = service.metrics()
    batch_wall_ms = (time.perf_counter() - batch_begin) * 1000.0

    warm_run_ms = [s["run_ms"] for s in sessions if s["warm"]]
    cold_service_run_ms = [s["run_ms"] for s in sessions if not s["warm"]]
    cold_mean = sum(cold_ms) / len(cold_ms)
    warm_mean = (
        sum(warm_run_ms) / len(warm_run_ms) if warm_run_ms else float("inf")
    )
    return {
        "benchmark": "serve",
        "snps": num_snps,
        "studies": num_studies,
        "members": num_members,
        "scale": bench_scale(),
        "cpu_count": os.cpu_count(),
        "cold": {
            "per_study_ms": cold_ms,
            **_latency_summary(cold_ms),
        },
        "service": {
            "pool_size": pool_size,
            "max_active": max_active,
            "max_concurrent_rounds": max_concurrent_rounds,
            "sessions": sessions,
            "batch_wall_ms": batch_wall_ms,
            "throughput_per_s": (
                num_studies / (batch_wall_ms / 1000.0)
                if batch_wall_ms > 0
                else 0.0
            ),
            "submit_to_result": _latency_summary(
                [s["submit_to_result_ms"] for s in sessions]
            ),
            "warm_run": (
                _latency_summary(warm_run_ms) if warm_run_ms else None
            ),
            "cold_run_mean_ms": (
                sum(cold_service_run_ms) / len(cold_service_run_ms)
                if cold_service_run_ms
                else None
            ),
            "metrics": metrics,
        },
        "amortization": {
            "cold_solo_mean_ms": cold_mean,
            "warm_steady_state_mean_ms": warm_mean,
            # How much of a cold study's wall the warm path saves.
            "ratio": warm_mean / cold_mean if cold_mean > 0 else 0.0,
            "amortized": warm_mean < cold_mean,
        },
        "equivalent": not mismatches,
        "mismatched_studies": mismatches,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Warm-pool service benchmark (cold run_study vs "
        "warm FederationService)"
    )
    parser.add_argument(
        "--out", default="BENCH_serve.json", help="output JSON path"
    )
    parser.add_argument("--snps", type=int, default=500)
    parser.add_argument("--studies", type=int, default=8)
    parser.add_argument("--members", type=int, default=3)
    parser.add_argument("--pool-size", type=int, default=1)
    parser.add_argument("--max-active", type=int, default=1)
    parser.add_argument("--max-rounds", type=int, default=2)
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="population scale override (else REPRO_BENCH_SCALE)",
    )
    args = parser.parse_args(argv)
    if args.scale is not None:
        os.environ["REPRO_BENCH_SCALE"] = str(args.scale)
        clear_cohort_cache()
    report = serve_report(
        args.snps,
        args.studies,
        args.members,
        pool_size=args.pool_size,
        max_active=args.max_active,
        max_concurrent_rounds=args.max_rounds,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    amortization = report["amortization"]
    print(
        f"{report['studies']} studies x {report['snps']} SNPs: "
        f"cold {amortization['cold_solo_mean_ms']:.1f} ms/study, "
        f"warm steady state "
        f"{amortization['warm_steady_state_mean_ms']:.1f} ms/study "
        f"({amortization['ratio']:.2f}x), "
        f"p95 submit-to-result "
        f"{report['service']['submit_to_result']['p95_ms']:.1f} ms"
    )
    if not report["equivalent"]:
        print(
            "EQUIVALENCE FAILURE: service disagrees with run_study on "
            + ", ".join(report["mismatched_studies"])
        )
        return 1
    if not amortization["amortized"]:
        print(
            "AMORTIZATION FAILURE: warm steady state is not below the "
            "cold per-study latency"
        )
        return 1
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
