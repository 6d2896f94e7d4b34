"""Engine, shrinker and committed-corpus acceptance tests.

The committed artifacts under ``tests/fuzz_corpus/`` are products of
an actual seeded ``repro fuzz`` session (see ``docs/FUZZING.md``):
``corpus.json`` is the deduplicated pool, ``FUZZ_report.json`` the
session report whose legacy comparison demonstrates the fuzzer
reaching strictly more behaviour keys than the 42 legacy sweep seeds.
The tests here assert the engine's replay determinism against those
artifacts, the shrinker's fixture bound (a known-violation plan
reduces to at most three active faults), and the engine loop's
seed-determinism.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.config import FaultConfig
from repro.fuzz.corpus import CorpusPool
from repro.fuzz.coverage import CoverageCollector
from repro.fuzz.engine import FuzzEngine
from repro.fuzz.genome import PlanGenome
from repro.fuzz.oracle import DecisionOracle
from repro.fuzz.shrink import Shrinker

CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"
CORPUS_PATH = CORPUS_DIR / "corpus.json"
REPORT_PATH = CORPUS_DIR / "FUZZ_report.json"

LEADER_HINT = "gdo-0"  # real leader comes from the oracle fixture


@pytest.fixture(scope="module")
def oracle():
    return DecisionOracle()


#: A deliberately baroque genome for the shrinker fixture: nine-ish
#: active faults, exotic axes.
def _baroque(leader: str) -> PlanGenome:
    return PlanGenome(
        faults=FaultConfig(
            enabled=True,
            seed=77,
            drop_rate=0.05,
            duplicate_rate=0.05,
            delay_rate=0.05,
            corrupt_rate=0.05,
            equivocate_rate=0.35,
            checkpoint_tamper="stale",
            crash_points=((leader, 4), ("gdo-1", 6)),
            partition_windows=(("gdo-1", 2, 2),),
        ),
        f=1,
        shards=4,
        supervised=True,
        integrity=True,
    )


def test_shrinker_reduces_fixture_violation_to_three_faults(oracle):
    """The acceptance fixture: a known-violation plan shrinks to <= 3
    active faults.

    The predicate simulates a violation that requires exactly two
    features (a drop rate and a leader crash); everything else in the
    baroque genome is noise the shrinker must strip.
    """
    leader = oracle.leader_id

    def violates(genome: PlanGenome) -> bool:
        return genome.faults.drop_rate > 0.0 and any(
            point[0] == leader for point in genome.faults.crash_points
        )

    start = _baroque(leader)
    assert violates(start)
    assert len(start.active_faults()) >= 8
    shrinker = Shrinker(violates, members=oracle.member_ids, max_runs=300)
    result = shrinker.shrink(start)
    assert result.reduced
    assert violates(result.genome)
    assert result.active_fault_count <= 3
    # Deterministic: the same shrink reduces to the same reproducer.
    again = Shrinker(
        violates, members=oracle.member_ids, max_runs=300
    ).shrink(start)
    assert again.genome.digest() == result.genome.digest()


def test_engine_iteration_budget_is_deterministic(oracle):
    """Same (seed, seeding, iteration budget) -> identical session."""
    states = []
    for _ in range(2):
        engine = FuzzEngine(seed=5, oracle=oracle, coverage=False)
        engine.run(max_iterations=12)
        report = engine.report()
        del report["elapsed_seconds"]
        states.append(
            (
                [g.digest() for g in engine.pool.genomes()],
                sorted(engine.pool.behaviour_keys()),
                report,
            )
        )
    assert states[0] == states[1]


def test_violation_recording_shrinks_and_dedupes(oracle):
    """A violating run is recorded as a shrunk reproducer, once."""
    leader = oracle.leader_id
    engine = FuzzEngine(seed=3, oracle=oracle, coverage=False)
    engine._violates = lambda genome: genome.faults.drop_rate > 0.0

    config = PlanGenome(
        faults=FaultConfig(enabled=True, seed=1, drop_rate=0.05)
    )
    run, _ = oracle.execute_genome(config)
    fake = dataclasses.replace(
        run, violation="divergent_decisions:l_safe"
    )
    engine._record_violation(_baroque(leader), fake)
    assert len(engine.violations) == 1
    shrunk = engine.violations[0]["shrunk"]
    assert len(shrunk["active_faults"]) <= 3
    # Same reproducer again: deduplicated.
    engine._record_violation(_baroque(leader), fake)
    assert len(engine.violations) == 1
    report = engine.report()
    assert report["violations"] == engine.violations


def test_seed_corpus_flags_counter_mismatches(oracle):
    """A committed entry that no longer reproduces its counters is
    surfaced in the seeding summary."""
    genome = PlanGenome(
        faults=FaultConfig(enabled=True, seed=2, drop_rate=0.05)
    )
    engine = FuzzEngine(seed=9, oracle=oracle, coverage=False)
    summary = engine.seed_corpus(
        [(genome, {"counters": ["faults.never_this"]})]
    )
    assert summary["entries"] == 1
    assert summary["counter_mismatches"] == 1


def test_committed_corpus_replays_deterministically(oracle):
    """Every committed genome replays to the same behaviour key, twice,
    and still fires the counters it was committed for."""
    doc = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    pairs = CorpusPool.entries_from_json(doc)
    assert pairs, "committed corpus is empty"
    collector = CoverageCollector()
    for genome, summary in pairs:
        keys = []
        for _ in range(2):
            run, behaviour = oracle.execute_genome(
                genome, collector=collector
            )
            assert run.violation is None, run.violation
            keys.append(behaviour.key())
        assert keys[0] == keys[1], genome.digest()
        assert sorted(behaviour.counters) == summary["counters"], (
            genome.digest()
        )


def test_committed_report_shows_strictly_more_coverage():
    """The committed session report demonstrates the acceptance claim:
    the seeded fuzz run reached strictly more distinct behaviour keys
    than replaying the 42 legacy seeds."""
    report = json.loads(REPORT_PATH.read_text(encoding="utf-8"))
    comparison = report["legacy_comparison"]
    assert comparison["legacy_seeds"] == 42
    assert comparison["fuzz_keys"] > comparison["legacy_keys"]
    assert comparison["strictly_more"] is True
    assert report["violations"] == []
    # The committed corpus is the pool that session kept.
    corpus = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    assert corpus["summary"]["genomes"] == len(corpus["entries"])
    assert (
        corpus["summary"]["behaviour_keys_seen"]
        == report["coverage"]["behaviour_keys"]
    )
