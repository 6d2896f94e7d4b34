"""The LD exchange on the wire: one int32 joint count per pair.

Members answer an ``ld`` request with ``mu_lr`` alone; the leader
rebuilds the other four correlation sums from the allele counts it
holds since the summaries.  These tests pin the frame layouts, the
leader's checks on untrusted replies, and that the released SNP sets
still equal the centralized oracle's, flat and sharded, with and
without collusion tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import StudyConfig, run_study
from repro.config import CollusionPolicy, ShardingConfig
from repro.core.enclave_logic import GenDPREnclave, _PairRows
from repro.core.pipeline import run_local_pipeline
from repro.errors import ProtocolError
from repro.genomics import SyntheticSpec, generate_cohort
from repro.tee.enclave import ecall

MEMBERS = 3


@pytest.fixture(scope="module")
def ld_cohort():
    cohort, _ = generate_cohort(
        SyntheticSpec(
            num_snps=160, num_case=150, num_control=130,
            ld_block_mean_length=6.0, seed=21,
        )
    )
    return cohort


def _config(cohort, *, f: int = 0, shards: int = 1, study_id: str = "ld-wire"):
    return StudyConfig(
        snp_count=cohort.num_snps,
        seed=4,
        study_id=study_id,
        collusion=CollusionPolicy((f,)) if f else CollusionPolicy.none(),
        sharding=ShardingConfig.over(shards),
    )


def _record_opened(monkeypatch):
    """Every decoded channel payload as ``(receiver, sender, kind, payload)``."""
    opened = []
    real = GenDPREnclave._open

    def recording(self, peer, kind, frame):
        payload = real(self, peer, kind, frame)
        opened.append((self.enclave_id, peer, kind, payload))
        return payload

    monkeypatch.setattr(GenDPREnclave, "_open", recording)
    return opened


class TestWireFormat:
    def test_ld_frames_carry_int32_pairs_and_joint_counts(
        self, ld_cohort, monkeypatch
    ):
        opened = _record_opened(monkeypatch)
        result = run_study(ld_cohort, _config(ld_cohort), MEMBERS)
        leader = result.leader_id
        requests = [p for r, _s, k, p in opened if k == "ld" and r != leader]
        replies = [p for r, _s, k, p in opened if k == "ld" and r == leader]
        assert requests and len(replies) == len(requests)
        for request in requests:
            assert set(request) == {"req_id", "pairs"}
            assert request["pairs"].dtype == np.int32
            assert request["pairs"].ndim == 2 and request["pairs"].shape[1] == 2
        sizes = {len(r["pairs"]) for r in requests}
        for reply in replies:
            assert set(reply) == {"req_id", "joint"}
            assert reply["joint"].dtype == np.int32
            assert reply["joint"].ndim == 1
            assert len(reply["joint"]) in sizes

    def test_moments_partials_are_one_joint_count_per_combo_and_pair(
        self, ld_cohort, monkeypatch
    ):
        opened = _record_opened(monkeypatch)
        config = _config(ld_cohort, f=1, shards=2, study_id="ld-wire-tree")
        run_study(ld_cohort, config, MEMBERS)
        specs = {
            p["task"]: p
            for _r, _s, k, p in opened
            if k == "shard-task" and p["kind"] == "moments"
        }
        partials = [
            p for _r, _s, k, p in opened if k == "shard" and p["task"] in specs
        ]
        assert specs and partials
        combos = 1 + MEMBERS  # f0 plus C(3, 2)
        for spec in specs.values():
            assert spec["pairs"].dtype == np.int32
        for partial in partials:
            pairs = len(specs[partial["task"]]["pairs"])
            assert partial["stats"].shape == (combos, pairs, 1)


def _tampered_answer_ld(mutate):
    """An ``answer_ld`` ECALL whose honest reply passes through ``mutate``."""

    @ecall
    def answer_ld(self, store, frame):
        leader = self._config()["leader_id"]
        request = self._open(leader, "ld", frame)
        pairs = np.asarray(request["pairs"], dtype=np.int64)
        joint = self._local_joint_counts(store, pairs).astype(np.int32)
        req_id, joint = mutate(request["req_id"], joint, store.num_rows)
        return self._protect(leader, "ld", {"req_id": req_id, "joint": joint})

    return answer_ld


def _too_large(req_id, joint, size):
    joint = joint.copy()
    joint[0] = size + 1
    return req_id, joint


def _negative(req_id, joint, size):
    joint = joint.copy()
    joint[-1] = -1
    return req_id, joint


class TestUntrustedReplies:
    def test_honest_replies_pass(self, ld_cohort, monkeypatch):
        monkeypatch.setattr(
            GenDPREnclave,
            "answer_ld",
            _tampered_answer_ld(lambda req_id, joint, size: (req_id, joint)),
        )
        run_study(ld_cohort, _config(ld_cohort), MEMBERS)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda req_id, joint, size: (req_id, joint[:-1]),
            lambda req_id, joint, size: (req_id, joint[:, None]),
            lambda req_id, joint, size: (req_id, joint.astype(np.int64)),
        ],
        ids=["short", "two-dimensional", "int64"],
    )
    def test_wrong_shape_rejected(self, ld_cohort, monkeypatch, mutate):
        monkeypatch.setattr(GenDPREnclave, "answer_ld", _tampered_answer_ld(mutate))
        with pytest.raises(ProtocolError, match="malformed LD response"):
            run_study(ld_cohort, _config(ld_cohort), MEMBERS)

    @pytest.mark.parametrize("mutate", [_too_large, _negative])
    def test_joint_outside_population_rejected(
        self, ld_cohort, monkeypatch, mutate
    ):
        monkeypatch.setattr(GenDPREnclave, "answer_ld", _tampered_answer_ld(mutate))
        with pytest.raises(ProtocolError, match="declared population size"):
            run_study(ld_cohort, _config(ld_cohort), MEMBERS)

    def test_stale_request_id_rejected(self, ld_cohort, monkeypatch):
        monkeypatch.setattr(
            GenDPREnclave,
            "answer_ld",
            _tampered_answer_ld(lambda req_id, joint, size: ("ld-0", joint)),
        )
        with pytest.raises(ProtocolError, match="stale LD response"):
            run_study(ld_cohort, _config(ld_cohort), MEMBERS)


class TestDecisionsMatchOracle:
    @pytest.mark.parametrize("shards", (1, 2, 4))
    @pytest.mark.parametrize("f", (0, 1))
    def test_bit_identical_to_local_pipeline(self, ld_cohort, f, shards):
        config = _config(
            ld_cohort, f=f, shards=shards, study_id=f"ld-oracle-{f}-{shards}"
        )
        thresholds = config.thresholds
        oracle = run_local_pipeline(
            ld_cohort.case.array(),
            ld_cohort.reference.array(),
            maf_cutoff=thresholds.maf_cutoff,
            ld_cutoff=thresholds.ld_cutoff,
            alpha=thresholds.false_positive_rate,
            beta=thresholds.power_threshold,
        )
        assert len(oracle.l_double_prime) < len(oracle.l_prime)  # LD prunes
        result = run_study(ld_cohort, config, MEMBERS)
        if f == 0:
            assert result.l_prime == oracle.l_prime
            assert result.l_double_prime == oracle.l_double_prime
            assert result.l_safe == oracle.l_safe
            return
        # The plain track is the f = 0 pipeline; the tolerant decisions
        # do not depend on the shard count.
        assert list(result.collusion.baseline_safe) == oracle.l_safe
        flat_config = _config(ld_cohort, f=1, study_id=config.study_id)
        flat = run_study(ld_cohort, flat_config, MEMBERS)
        assert result.l_prime == flat.l_prime
        assert result.l_double_prime == flat.l_double_prime
        assert result.l_safe == flat.l_safe


def test_pair_keys_widen_int32_pairs():
    """``left * width`` overflows int32 from width 46,341 on."""
    rows = _PairRows(50_000, ())
    pairs = np.asarray([[49_999, 49_998], [46_341, 46_342]], dtype=np.int32)
    rows.add(pairs, np.asarray([3, 4], dtype=np.int64))
    assert int(rows.row(49_999, 49_998)) == 3
    assert int(rows.row(46_341, 46_342)) == 4
    assert len(rows.missing(pairs)) == 0
