"""The legacy seed catalog: the fixed chaos sweeps as genomes.

Before the fuzzer, chaos coverage was two hand-written sweeps — 24
crash-style plans (``tests/test_chaos.py``) and 18 Byzantine plans
(``tests/test_chaos_byzantine.py``) — each deriving its fault config
and run axes from the seed by fixed rules.  This module is the single
source of those rules: the chaos tiers replay them as regression
suites, and the fuzz engine replays them to anchor its
coverage-frontier comparison (the report's claim is "the corpus
reaches strictly more behaviour keys than these 42 seeds").

Crash points name the leader, and leader election depends on the study
id, so every constructor takes the federation shape explicitly — the
chaos tiers pass their own leader, the engine passes the oracle's.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Tuple

from ..config import FaultConfig
from .genome import PlanGenome

#: The crash-style sweep seeds (tests/test_chaos.py).
CHAOS_SEEDS: Tuple[int, ...] = tuple(range(1, 25))
#: Chaos seeds whose plan additionally crashes the leader mid-study.
CHAOS_CRASH_SEEDS = frozenset(s for s in CHAOS_SEEDS if s % 5 == 0)
#: Chaos seeds whose plan additionally opens a short partition window.
CHAOS_PARTITION_SEEDS = frozenset(s for s in CHAOS_SEEDS if s % 7 == 0)

#: The Byzantine sweep seeds (tests/test_chaos_byzantine.py).
BYZANTINE_SEEDS: Tuple[int, ...] = tuple(range(101, 119))
#: Byzantine seeds arming broadcast equivocation.
BYZANTINE_EQUIVOCATE_SEEDS = frozenset(
    s for s in BYZANTINE_SEEDS if s % 3 == 0
)
#: Byzantine seeds serving a *stale* checkpoint at failover.
BYZANTINE_STALE_SEEDS = frozenset(
    s for s in BYZANTINE_SEEDS if s % 5 == 0 and s % 7 != 0
)
#: Byzantine seeds serving a bit-flipped checkpoint at failover.
BYZANTINE_CORRUPT_SEEDS = frozenset(s for s in BYZANTINE_SEEDS if s % 7 == 0)


def seed_f(seed: int) -> int:
    """Collusion axis: two of every four consecutive seeds run f=1."""
    return 1 if seed % 4 >= 2 else 0


def first_follower(members: Sequence[str], leader: str) -> str:
    """The member the sweeps aim partition/flip faults at."""
    return next(m for m in members if m != leader)


def chaos_fault_config(
    seed: int, *, members: Sequence[str], leader: str
) -> FaultConfig:
    """The crash-tier plan of one seed (drop/dup/delay/corrupt mix,
    plus a leader crash on every fifth seed and a partition window on
    every seventh)."""
    chaos = FaultConfig.chaos(seed, intensity=0.15)
    crash_points = (
        ((leader, 4),) if seed in CHAOS_CRASH_SEEDS else ()
    )
    partition_windows = (
        ((first_follower(members, leader), 1 + seed % 6, 2),)
        if seed in CHAOS_PARTITION_SEEDS
        else ()
    )
    return dataclasses.replace(
        chaos, crash_points=crash_points, partition_windows=partition_windows
    )


def byzantine_fault_config(
    seed: int, *, members: Sequence[str], leader: str
) -> FaultConfig:
    """The Byzantine-tier plan of one seed (REPLAY/WITHHOLD base mix,
    equivocation on every third seed, checkpoint tampering on the
    stale/corrupt seeds — paired with one leader crash at ECALL 5 so
    the tampered restore actually happens)."""
    tamper = (
        "corrupt"
        if seed in BYZANTINE_CORRUPT_SEEDS
        else "stale"
        if seed in BYZANTINE_STALE_SEEDS
        else ""
    )
    return FaultConfig.byzantine(
        seed,
        intensity=0.1,
        equivocate_rate=0.35 if seed in BYZANTINE_EQUIVOCATE_SEEDS else 0.0,
        checkpoint_tamper=tamper,
        crash_points=((leader, 5),) if tamper else (),
    )


def chaos_seed_genome(
    seed: int, *, members: Sequence[str], leader: str
) -> PlanGenome:
    """One crash-tier sweep cell as a genome (supervised, no integrity)."""
    return PlanGenome(
        faults=chaos_fault_config(seed, members=members, leader=leader),
        f=seed_f(seed),
        shards=1,
        supervised=True,
        integrity=False,
    )


def byzantine_seed_genome(
    seed: int, *, members: Sequence[str], leader: str
) -> PlanGenome:
    """One Byzantine sweep cell as a genome (supervised, integrity on)."""
    return PlanGenome(
        faults=byzantine_fault_config(seed, members=members, leader=leader),
        f=seed_f(seed),
        shards=1,
        supervised=True,
        integrity=True,
    )


def legacy_genomes(
    *, members: Sequence[str], leader: str
) -> Tuple[PlanGenome, ...]:
    """All 42 legacy sweep cells, chaos tier first then Byzantine."""
    return tuple(
        chaos_seed_genome(s, members=members, leader=leader)
        for s in CHAOS_SEEDS
    ) + tuple(
        byzantine_seed_genome(s, members=members, leader=leader)
        for s in BYZANTINE_SEEDS
    )
