"""The LD phase: reference-predicted prefetch over an array moment store.

The walk's decisions must not depend on where its moments came from, so
every degenerate cohort below is checked against the plain-matrix
oracle; the remaining tests pin the round count, the checkpoint
encoding cost and the failover path that restores the array store.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

from repro import StudyConfig, generate_cohort, partition_cohort, run_study
from repro.config import (
    CollusionPolicy,
    FaultConfig,
    IntegrityConfig,
    ResilienceConfig,
    ShardingConfig,
)
from repro.core import pipeline
from repro.core import provision as provision_module
from repro.core.enclave_logic import GenDPREnclave
from repro.core.federation import build_federation
from repro.core.leader import elect_leader
from repro.core.protocol import GenDPRProtocol
from repro.faults.injector import FaultInjector
from repro.genomics import SyntheticSpec
from repro.genomics.genotype import GenotypeMatrix
from repro.genomics.population import Cohort
from repro.genomics.snp import SnpPanel
from repro.net import serialization
from repro.stats import chisq, maf

MEMBERS = 3


def _blocks(rng, rows: int, num_snps: int, block: int) -> np.ndarray:
    """Binary genotypes in LD blocks: each SNP copies its block's base
    column with 5% of entries flipped."""
    bases = rng.random((rows, (num_snps + block - 1) // block)) < 0.4
    columns = np.repeat(bases, block, axis=1)[:, :num_snps]
    flips = rng.random((rows, num_snps)) < 0.05
    return (columns ^ flips).astype(np.uint8)


def _cohort(case: np.ndarray, reference: np.ndarray) -> Cohort:
    return Cohort(
        panel=SnpPanel.synthetic(case.shape[1]),
        case=GenotypeMatrix(case),
        control=GenotypeMatrix(reference),
        reference=GenotypeMatrix(reference),
    )


def _degenerate(name: str) -> Cohort:
    rng = np.random.default_rng(7)
    if name == "monomorphic":
        case = _blocks(rng, 60, 24, 4)
        reference = _blocks(rng, 50, 24, 4)
        case[:, [3, 4, 10]] = 0
        reference[:, [3, 4, 10]] = 0
        # Constant in the reference only: the reference-only rehearsal
        # sees zero variance where the pooled walk does not.
        reference[:, [6, 7]] = 1
        case[:, 15] = 0
        return _cohort(case, reference)
    if name == "one-block":
        return _cohort(_blocks(rng, 60, 30, 30), _blocks(rng, 50, 30, 30))
    if name == "L1":
        return _cohort(_blocks(rng, 60, 1, 1), _blocks(rng, 50, 1, 1))
    if name == "L2":
        return _cohort(_blocks(rng, 60, 2, 2), _blocks(rng, 50, 2, 2))
    if name == "reference-is-case":
        case = _blocks(rng, 60, 24, 3)
        return _cohort(case, case.copy())
    raise ValueError(name)


def _oracle_double_prime(cohort: Cohort, config: StudyConfig, f: int):
    """Phase 1-2 from plain matrices, per collusion combination.

    For f = 0 this is :func:`pipeline.run_local_pipeline`'s result;
    with f >= 1 every ``(G - f)``-member pool is walked over the
    intersected MAF survivors with the full federation's ranking, and
    the survivors are intersected.
    """
    thresholds = config.thresholds
    reference = cohort.reference.array()
    ref_counts = reference.sum(axis=0, dtype=np.int64)
    cases = {d.gdo_id: d.case.array() for d in partition_cohort(cohort, MEMBERS)}
    ids = sorted(cases)
    pools = [ids] + [list(s) for s in itertools.combinations(ids, MEMBERS - f) if f]
    pooled = [np.vstack([cases[m] for m in pool]) for pool in pools]
    survivors = []
    for case in pooled:
        frequencies = maf.allele_frequencies(
            case.sum(axis=0, dtype=np.int64) + ref_counts,
            case.shape[0] + reference.shape[0],
        )
        survivors.append(set(maf.maf_filter(frequencies, thresholds.maf_cutoff)))
    l_prime = sorted(set.intersection(*survivors))
    full = pooled[0]
    ranking = chisq.rank_pvalues(
        full.sum(axis=0, dtype=np.int64), ref_counts, full.shape[0], reference.shape[0]
    )
    kept = [
        set(
            pipeline.ld_prune(
                l_prime,
                ranking,
                pipeline.matrix_moment_source(case, reference),
                thresholds.ld_cutoff,
            )
        )
        for case in pooled
    ]
    return l_prime, sorted(set.intersection(*kept))


DEGENERATE = ("monomorphic", "one-block", "L1", "L2", "reference-is-case")


class TestDegenerateCohorts:
    @pytest.mark.parametrize("name", DEGENERATE)
    def test_oracle_matches_local_pipeline(self, name):
        cohort = _degenerate(name)
        config = StudyConfig(snp_count=cohort.num_snps, seed=3)
        thresholds = config.thresholds
        local = pipeline.run_local_pipeline(
            cohort.case.array(),
            cohort.reference.array(),
            maf_cutoff=thresholds.maf_cutoff,
            ld_cutoff=thresholds.ld_cutoff,
            alpha=thresholds.false_positive_rate,
            beta=thresholds.power_threshold,
        )
        assert _oracle_double_prime(cohort, config, 0) == (
            local.l_prime,
            local.l_double_prime,
        )

    @pytest.mark.parametrize("shards", (1, 2, 4))
    @pytest.mark.parametrize("f", (0, 1))
    @pytest.mark.parametrize("name", DEGENERATE)
    def test_l_double_prime_bit_identical(self, name, f, shards):
        cohort = _degenerate(name)
        config = StudyConfig(
            snp_count=cohort.num_snps,
            collusion=CollusionPolicy((f,)) if f else CollusionPolicy.none(),
            seed=3,
            study_id=f"ld-{name}",
            sharding=ShardingConfig.over(min(shards, cohort.num_snps)),
        )
        result = run_study(cohort, config, MEMBERS)
        l_prime, l_double_prime = _oracle_double_prime(cohort, config, f)
        assert result.l_prime == l_prime
        assert result.l_double_prime == l_double_prime

    def test_one_block_keeps_one_snp(self):
        """The rehearsal's hardest case is a candidate outliving the
        whole panel; the walk must still bank exactly one SNP."""
        cohort = _degenerate("one-block")
        result = run_study(cohort, StudyConfig(snp_count=30, seed=3), MEMBERS)
        assert len(result.l_prime) > 20
        assert len(result.l_double_prime) == 1


@pytest.fixture(scope="module")
def cohort_800():
    cohort, _ = generate_cohort(
        SyntheticSpec(num_snps=800, num_case=300, num_control=260, seed=11)
    )
    return cohort


class TestRoundBound:
    def test_ld_rounds_bounded_at_l800(self, cohort_800):
        """One prefetch round covers the windows and the predicted
        pairs; the walk itself fetches at most one lookahead batch."""
        config = StudyConfig(snp_count=800, seed=11, study_id="ld-rounds")
        first = run_study(cohort_800, config, 5)
        second = run_study(cohort_800, config, 5)
        assert first.ocall_rounds["ld"] <= 2
        assert second.ocall_rounds == first.ocall_rounds
        assert second.network_bytes == first.network_bytes


class TestCheckpoint:
    def test_encoding_cost_is_independent_of_pairs_and_snps(
        self, cohort_800, monkeypatch
    ):
        """Every bulk checkpoint field is an array: the encoder visits a
        fixed number of values however many SNPs and pairs are held."""
        config = StudyConfig(
            snp_count=800,
            seed=11,
            study_id="ld-checkpoint",
            resilience=ResilienceConfig.supervised(),
            sharding=ShardingConfig.over(4),
            collusion=CollusionPolicy((1,)),
        )
        payloads = []
        real = GenDPREnclave._checkpoint_payload

        def recording(self):
            payloads.append(real(self))
            return payloads[-1]

        monkeypatch.setattr(GenDPREnclave, "_checkpoint_payload", recording)
        run_study(cohort_800, config, 5)
        monkeypatch.undo()
        calls = 0
        encode = serialization._encode_into

        def counting(value, out, depth):
            nonlocal calls
            calls += 1
            encode(value, out, depth)

        monkeypatch.setattr(serialization, "_encode_into", counting)
        visits = []
        for payload in payloads:
            calls = 0
            serialization.encode(payload)
            visits.append(calls)
        assert len(visits) > 5
        # The largest list left is the shard-commitment ledger, one
        # entry per (kind, shard, node): bounded by the layout, not by L.
        assert max(visits) < 400


class TestLeaderCrashDuringLd:
    @pytest.mark.parametrize("shards", (1, 4))
    def test_restores_array_checkpoint(self, cohort_800, monkeypatch, shards):
        """Crash the leader on ``lead_run_ld``: the replacement restores
        the last checkpoint — with S=4, the store the shard tree filled —
        and finishes with the fault-free decisions and tree rounds."""
        base = StudyConfig(
            snp_count=800,
            seed=11,
            study_id="ld-crash",
            collusion=CollusionPolicy((1,)),
            sharding=ShardingConfig.over(shards),
            resilience=ResilienceConfig.supervised(),
            integrity=IntegrityConfig.on(),
        )
        leader = elect_leader(
            [f"gdo-{i}" for i in range(5)], base.seed, base.study_id
        )
        reference = run_study(cohort_800, base, 5)

        names = []
        on_ecall = FaultInjector.on_ecall

        def spy(self, enclave, name):
            if enclave.enclave_id == leader:
                names.append(name)
            return on_ecall(self, enclave, name)

        monkeypatch.setattr(FaultInjector, "on_ecall", spy)
        quiet = dataclasses.replace(base, faults=FaultConfig(enabled=True, seed=0))
        run_study(cohort_800, quiet, 5)
        index = names.index("lead_run_ld") + 1
        assert names[index - 2] == "checkpoint_state"

        crashing = dataclasses.replace(
            base,
            faults=FaultConfig(enabled=True, seed=0, crash_points=((leader, index),)),
        )
        federation = build_federation(
            crashing, partition_cohort(cohort_800, 5), cohort_800
        )
        result = GenDPRProtocol(federation).run()
        assert federation.failovers == 1
        assert federation.fault_injector.counters()["crashes"] == 1
        assert result.l_prime == reference.l_prime
        assert result.l_double_prime == reference.l_double_prime
        assert result.l_safe == reference.l_safe
        assert result.collusion.baseline_safe == reference.collusion.baseline_safe
        for kind in ("ld", "shard:moments"):
            assert result.ocall_rounds.get(kind) == reference.ocall_rounds.get(kind)


class TestRetainedBroadcast:
    def test_snps_travel_as_int32(self, small_cohort, study_config):
        """4 bytes per SNP: the paper's 4 * L accounting."""
        federation = build_federation(
            study_config, partition_cohort(small_cohort, MEMBERS), small_cohort
        )
        result = GenDPRProtocol(federation).run()
        log = federation.leader_host.enclave.ecall("export_audit_log")
        sizes = sorted(
            entry["plaintext_bytes"] for entry in log if entry["kind"] == "retained"
        )
        empty = serialization.encoded_size(
            {"stage": "safe", "snps": np.zeros(0, dtype=np.int32)}
        )
        expected = sorted(
            empty + len(stage_list) * 4 + len(stage) - len("safe")
            for stage, stage_list in (
                ("prime", result.l_prime),
                ("double_prime", result.l_double_prime),
                ("safe", result.l_safe),
            )
            for _member in range(MEMBERS - 1)
        )
        assert sizes == expected


class TestStudyTeardown:
    @pytest.mark.parametrize("supervised", (False, True))
    def test_federation_freed_by_refcount(
        self, small_cohort, monkeypatch, supervised
    ):
        """No reference cycle outlives a study: with the cyclic collector
        off, the federation dies as soon as ``run_study`` returns."""
        refs = []
        build = provision_module.build_federation

        def capture(*args, **kwargs):
            federation = build(*args, **kwargs)
            refs.append(weakref.ref(federation))
            return federation

        monkeypatch.setattr(provision_module, "build_federation", capture)
        config = StudyConfig(snp_count=small_cohort.num_snps, seed=5)
        if supervised:
            config = dataclasses.replace(
                config,
                collusion=CollusionPolicy((1,)),
                resilience=ResilienceConfig.supervised(),
                integrity=IntegrityConfig.on(),
                sharding=ShardingConfig.over(4),
            )
        gc.collect()
        gc.disable()
        try:
            run_study(small_cohort, config, MEMBERS)
            assert len(refs) == 1
            assert refs[0]() is None
        finally:
            gc.enable()
