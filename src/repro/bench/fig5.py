"""Machine-readable Figure 5 benchmark with an oracle gate.

Runs the GenDPR pipeline once for each requested federation size and
collusion setting (f = 0 and f = 1), then emits one JSON document —
``BENCH_fig5.json`` by default — with per-phase modelled time, process
wall clock, OCALL round counts per kind and bytes on the wire.
``docs/PERFORMANCE.md`` describes how to read it.

The emitter doubles as the decision gate used in CI: every (G, f) cell
is checked against :func:`~repro.core.pipeline.run_local_pipeline`, the
pure-function SecureGenome oracle over the pooled genomes.  At f = 0
``L'``, ``L''`` and ``L_safe`` must equal the oracle's; at f = 1 the
plain track (``collusion.baseline_safe``) must equal the oracle's
``L_safe``.  The process exits non-zero on any mismatch.

Run as::

    PYTHONPATH=src python -m repro.bench.fig5 --out BENCH_fig5.json \
        [--snps 1000] [--gdos 5] [--scale 0.05]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence

from ..config import CollusionPolicy, StudyConfig
from ..core.phases import StudyResult
from ..core.pipeline import PipelineOutcome, run_local_pipeline
from ..core.protocol import run_study
from ..core.timing import ALL_LABELS
from .workloads import (
    PAPER_CASE_FULL,
    bench_scale,
    clear_cohort_cache,
    paper_cohort,
    paper_config,
)


def _oracle_mismatches(
    result: StudyResult, oracle: PipelineOutcome, f: int
) -> List[str]:
    """Decision fields of ``result`` that differ from the oracle's."""
    if f == 0:
        return [
            key
            for key in ("l_prime", "l_double_prime", "l_safe")
            if list(getattr(result, key)) != list(getattr(oracle, key))
        ]
    baseline = result.collusion.baseline_safe if result.collusion else None
    if baseline is None or list(baseline) != list(oracle.l_safe):
        return ["collusion.baseline_safe"]
    return []


def _oracle(cohort, config: StudyConfig) -> PipelineOutcome:
    thresholds = config.thresholds
    return run_local_pipeline(
        cohort.case.array(),
        cohort.reference.array(),
        maf_cutoff=thresholds.maf_cutoff,
        ld_cutoff=thresholds.ld_cutoff,
        alpha=thresholds.false_positive_rate,
        beta=thresholds.power_threshold,
    )


def _run_cell(
    cohort, config: StudyConfig, gdos: int, f: int
) -> tuple[StudyResult, Dict[str, Any]]:
    begin = time.perf_counter()
    result = run_study(cohort, config, gdos)
    wall_ms = (time.perf_counter() - begin) * 1000.0
    row: Dict[str, Any] = {
        "gdos": gdos,
        "f": f,
        "phase_ms": {
            label: result.timings.get(label) * 1000.0 for label in ALL_LABELS
        },
        # Parallel-corrected model time (what Figure 5 plots): each
        # round's sum over members is replaced by the round maximum.
        "total_ms": result.timings.total_seconds * 1000.0,
        # Honest process wall clock of the whole study.
        "wall_ms": wall_ms,
        "ocall_rounds": dict(result.ocall_rounds),
        "rounds_total": sum(result.ocall_rounds.values()),
        "network_bytes": result.network_bytes,
        "network_messages": result.network_messages,
        "safe_snps": result.retained_after_lr,
        "release_power": result.release_power,
    }
    return result, row


def fig5_report(
    num_snps: int = 1000,
    gdo_counts: Sequence[int] = (5,),
    f_values: Sequence[int] = (0, 1),
) -> Dict[str, Any]:
    """Run every (G, f) cell, check it against the oracle, assemble JSON."""
    cohort, _truth = paper_cohort(PAPER_CASE_FULL, num_snps)
    oracle = _oracle(cohort, paper_config(num_snps, study_id="fig5-oracle"))
    runs: List[Dict[str, Any]] = []
    mismatches: List[str] = []
    for gdos in gdo_counts:
        for f in f_values:
            config = paper_config(
                num_snps,
                study_id=f"fig5-G{gdos}-f{f}",
                collusion=CollusionPolicy((f,)) if f > 0 else CollusionPolicy.none(),
            )
            result, row = _run_cell(cohort, config, gdos, f)
            runs.append(row)
            wrong = _oracle_mismatches(result, oracle, f)
            if wrong:
                mismatches.append(f"G={gdos}, f={f}: {', '.join(wrong)}")
    return {
        "benchmark": "fig5",
        "snps": num_snps,
        "gdo_counts": list(gdo_counts),
        "f_values": list(f_values),
        "scale": bench_scale(),
        "cpu_count": os.cpu_count(),
        "runs": runs,
        "matches_oracle": not mismatches,
        "mismatched_cells": mismatches,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Figure 5 runtime benchmark (gated on the local oracle)"
    )
    parser.add_argument(
        "--out", default="BENCH_fig5.json", help="output JSON path"
    )
    parser.add_argument("--snps", type=int, default=1000)
    parser.add_argument(
        "--gdos",
        default="5",
        help="comma-separated federation sizes (default: 5)",
    )
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
    gdo_counts = [int(g) for g in str(args.gdos).split(",") if g]
    report = fig5_report(args.snps, gdo_counts)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for row in report["runs"]:
        print(
            f"G={row['gdos']} f={row['f']}: "
            f"modelled {row['total_ms']:.1f} ms, "
            f"wall {row['wall_ms']:.1f} ms, "
            f"{row['rounds_total']} rounds, {row['network_bytes']} B"
        )
    if not report["matches_oracle"]:
        print(
            "ORACLE MISMATCH: " + "; ".join(report["mismatched_cells"])
        )
        return 1
    print(f"all cells match the oracle; report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
