"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload study-ld --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed; ``--trace 1`` is the separate traced run that reports the
per-layer metrics and writes every span to
``.perfbench_out/<workload>-seed<seed>.spans.jsonl``.  Metric names and
units come from ``BENCHMARK.json``.  Every metric is printed as a
``name value unit`` line; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The exit code is 0 only when every output matched its reference and no
operation failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    from perfbench.tracing import SpanRecorder

    recorder = SpanRecorder()
    outcome = workload.run(args.seed, args.seconds, bool(args.trace), recorder=recorder)
    produced = outcome.layers if args.trace else outcome.end_to_end
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    shown = {**outcome.end_to_end, **outcome.raw, **outcome.layers}
    for name, (value, unit) in sorted(shown.items()):
        print(f"{name:48s} {value:>16.6g} {unit}")
    for problem in outcome.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if args.trace:
        out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        recorder.write(out)
        print(f"spans written to {out.relative_to(ROOT)}", file=sys.stderr)

    metrics = {}
    for entry in wanted:
        if entry["name"] in produced:
            value, unit = produced[entry["name"]]
        elif args.trace:
            # A layer this workload never enters did no work here.
            value, unit = 0.0, entry["unit"]
        else:
            print(f"metric {entry['name']} was not measured", file=sys.stderr)
            return 1
        if unit != entry["unit"]:
            print(
                f"metric {entry['name']} measured in {unit}, "
                f"BENCHMARK.json says {entry['unit']}",
                file=sys.stderr,
            )
            return 1
        metrics[entry["name"]] = {"value": value, "unit": unit}

    correct = not outcome.problems and outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
