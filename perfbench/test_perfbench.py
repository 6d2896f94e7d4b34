"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q

The workloads run here at a reduced SNP count and cohort count, through
the same code paths as the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import repro.core.enclave_logic  # noqa: E402
import repro.tee.sealing  # noqa: E402
import repro.tee.storage  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.layers import FUNCTIONS, METHODS, PAIRS_CONSUMED, Layers  # noqa: E402
from perfbench.tracing import SpanRecorder  # noqa: E402

SEED = 3
SMALL = {
    "study-ld": (dataclasses.replace(wl.STUDY_LD, cohorts=2), 300, 0.1),
    "collusion-supervised": (
        dataclasses.replace(wl.COLLUSION_SUPERVISED, cohorts=2), 200, 0.1
    ),
    "serve-open": (dataclasses.replace(wl.SERVE_OPEN, cohorts=3), 100, 2.0),
}
PHASES = ("summaries", "maf", "ld-moments", "ld", "lr")

#: Counters that must read the same on every run of one seed.
EXACT_PREFIXES = ("core.rounds.", "faults.injected.", "core.ld.pairs_")
EXACT_NAMES = (
    "tee.sealing.unseal.count",
    "crypto.keystream.bytes",
    "net.encode.bytes",
)


def _run(name, *, trace=True):
    workload, snps, seconds = SMALL[name]
    recorder = SpanRecorder()
    outcome = workload.run(SEED, seconds, trace, snps=snps, recorder=recorder)
    return outcome, recorder


@pytest.fixture(scope="module")
def traced():
    """Each workload traced twice with the same seed."""
    return {name: (_run(name), _run(name)) for name in SMALL}


def test_runs_are_correct(traced):
    for name, runs in traced.items():
        for outcome, _recorder in runs:
            assert outcome.problems == [], name
            assert outcome.failed == 0 and outcome.attempted > 0, name


def test_exact_counters_repeat_for_a_seed(traced):
    for name, ((first, _), (second, _)) in traced.items():
        exact = [
            key
            for key in first.layers
            if key.startswith(EXACT_PREFIXES) or key in EXACT_NAMES
        ]
        assert len(exact) > 10, name
        for key in exact:
            assert first.layers[key] == second.layers[key], (name, key)
        assert first.end_to_end["wire_bytes"] == second.end_to_end["wire_bytes"]
        assert first.end_to_end["wan_transfer_s"] == second.end_to_end["wan_transfer_s"]


def test_every_wrapper_fires_on_some_workload(traced):
    fired = set()
    for (outcome, _recorder), _second in traced.values():
        fired.update(outcome.fired)
    wrapped = {span for _module, _attr, span in FUNCTIONS}
    wrapped |= {span for _cls, _attr, span in METHODS if span}
    wrapped |= {"core.phase." + phase for phase in PHASES}
    assert wrapped - fired == set()
    assert any(name.startswith("tee.ecall.") for name in fired)


def test_self_times_add_up_to_the_study_wall_time(traced):
    (_outcome, recorder), _second = traced["study-ld"]
    totals = recorder.snapshot()
    root = totals["bench.study"]
    layer_self = sum(
        entry[2]
        for name, entry in totals.items()
        if name not in ("genomics.generate_cohort", PAIRS_CONSUMED)
    )
    assert root[0] > 0
    assert layer_self == pytest.approx(root[1], rel=1e-9)


def test_every_listed_layer_metric_is_produced(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set()
    for (outcome, _recorder), _second in traced.values():
        produced.update(outcome.layers)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    assert missing == []


def test_checker_rejects_a_perturbed_release(monkeypatch):
    real_run_study = wl.run_study

    def perturbed(*args, **kwargs):
        result = real_run_study(*args, **kwargs)
        if result.l_safe:
            result.l_safe.pop()
        return result

    monkeypatch.setattr(wl, "run_study", perturbed)
    outcome, _recorder = _run("study-ld", trace=False)
    assert outcome.attempted > 0
    assert outcome.failed == outcome.attempted
    assert any("l_safe" in problem for problem in outcome.problems)


def test_wrappers_are_removed_after_the_traced_run():
    original = repro.tee.sealing.unseal
    with Layers(SpanRecorder()):
        assert repro.tee.storage.unseal is not original
        assert repro.core.enclave_logic.unseal is not original
    assert repro.tee.storage.unseal is original
    assert repro.core.enclave_logic.unseal is original


def test_nested_same_name_spans_count_once_and_self_times_add():
    recorder = SpanRecorder()

    def inner():
        return recorder.call("leaf", lambda: None, (), {})

    def outer():
        return recorder.call("net.receive", inner, (), {})

    recorder.call("net.receive", outer, (), {})
    totals = recorder.snapshot()
    count, busy, self_s, _amount = totals["net.receive"]
    assert count == 1
    assert self_s + totals["leaf"][2] == pytest.approx(busy, rel=1e-9)


def test_threads_keep_their_own_span_stacks():
    recorder = SpanRecorder()
    barrier = threading.Barrier(4)

    def work(tag):
        recorder.set_request(tag)
        recorder.call("outer", lambda: barrier.wait(timeout=10), (), {})

    threads = [threading.Thread(target=work, args=(f"r{i}",)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert recorder.snapshot()["outer"][0] == 4
    assert {span[1] for span in recorder.spans} == {0}
    assert {span[5] for span in recorder.spans} == {"r0", "r1", "r2", "r3"}


def test_benchmark_json_follows_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name_re.match(name) for name in names)
    assert set(w["name"] for w in spec["workloads"]) == set(wl.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert unit_re.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-ld",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
