"""Deterministic fault plans.

A :class:`FaultPlan` is a *pure function* from protocol coordinates to
fault decisions.  There is no mutable schedule and no shared random
stream: the action applied to the ``i``-th envelope on a link is
derived by hashing ``(seed, sender, receiver, i)`` through
:class:`~repro.crypto.rng.DeterministicRng`.  Two properties follow:

* **Replayability** — re-running a study with the same
  :class:`~repro.config.FaultConfig` injects exactly the same faults,
  so any chaos-suite failure reproduces from its seed alone.
* **Schedule determinism under concurrency** — per-link message indices
  are deterministic even when the service runs several studies on
  worker threads (each study owns its own links), so thread
  interleaving cannot change which envelopes are hit.

This mirrors the seeded-exploration idea of coverage-guided fuzzers
(deterministic, replayable schedules instead of ad-hoc sleeps) applied
to a distributed protocol.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Tuple

from ..config import FaultConfig
from ..crypto.rng import DeterministicRng
from ..errors import ConfigError

#: Fault actions an envelope can draw.  ``None`` (no fault) is implied.
DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"
CORRUPT = "corrupt"
#: Byzantine actions: valid frames played adversarially.
REPLAY = "replay"
WITHHOLD = "withhold"
EQUIVOCATE = "equivocate"

ACTIONS = (DROP, DUPLICATE, DELAY, CORRUPT, REPLAY, WITHHOLD)

#: Resolution of the per-envelope uniform draw.
_DRAW_RESOLUTION = 1_000_000


@dataclass(frozen=True)
class CrashPoint:
    """Tear an enclave down immediately before its N-th proxied ECALL.

    ``ecall_index`` is 1-based and counts only ECALLs dispatched through
    the untrusted :class:`~repro.tee.enclave.GuardedEnclaveProxy` —
    provisioning-time calls made directly on the enclave during
    federation build are not untrusted-host activity and do not count.
    """

    enclave_id: str
    ecall_index: int


@dataclass(frozen=True)
class PartitionWindow:
    """A bounded network partition around one node.

    From OCALL round ``start_round`` (1-based, counted across the whole
    study in execution order) the next ``blocked_ops`` network
    operations touching ``node_id`` fail; afterwards the partition
    heals, so a bounded retry budget can ride it out.
    """

    node_id: str
    start_round: int
    blocked_ops: int


class FaultPlan:
    """Seeded, deterministic fault schedule for one protocol run."""

    def __init__(
        self,
        *,
        seed: int = 0,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        delay_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        replay_rate: float = 0.0,
        withhold_rate: float = 0.0,
        withhold_target: str = "",
        equivocate_rate: float = 0.0,
        shard_flip_rate: float = 0.0,
        shard_flip_target: str = "",
        checkpoint_tamper: str = "",
        crash_points: Tuple[CrashPoint, ...] = (),
        partition_windows: Tuple[PartitionWindow, ...] = (),
    ):
        total = (
            drop_rate
            + duplicate_rate
            + delay_rate
            + corrupt_rate
            + replay_rate
            + withhold_rate
        )
        if total > 1.0 + 1e-12:
            raise ConfigError("fault rates must sum to at most 1")
        self.seed = seed
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.delay_rate = delay_rate
        self.corrupt_rate = corrupt_rate
        self.replay_rate = replay_rate
        self.withhold_rate = withhold_rate
        self.withhold_target = withhold_target
        self.equivocate_rate = equivocate_rate
        self.shard_flip_rate = shard_flip_rate
        self.shard_flip_target = shard_flip_target
        self.checkpoint_tamper = checkpoint_tamper
        self.crash_points = tuple(crash_points)
        self.partition_windows = tuple(partition_windows)
        # Pre-computed cumulative thresholds on the integer draw.
        self._thresholds = []
        cumulative = 0.0
        for action, rate in (
            (DROP, drop_rate),
            (DUPLICATE, duplicate_rate),
            (DELAY, delay_rate),
            (CORRUPT, corrupt_rate),
            (REPLAY, replay_rate),
            (WITHHOLD, withhold_rate),
        ):
            cumulative += rate
            self._thresholds.append((int(cumulative * _DRAW_RESOLUTION), action))

    @classmethod
    def from_config(cls, config: FaultConfig) -> "FaultPlan":
        """Materialise the plan described by a :class:`FaultConfig`."""
        return cls(
            seed=config.seed,
            drop_rate=config.drop_rate,
            duplicate_rate=config.duplicate_rate,
            delay_rate=config.delay_rate,
            corrupt_rate=config.corrupt_rate,
            replay_rate=config.replay_rate,
            withhold_rate=config.withhold_rate,
            withhold_target=config.withhold_target,
            equivocate_rate=config.equivocate_rate,
            shard_flip_rate=config.shard_flip_rate,
            shard_flip_target=config.shard_flip_target,
            checkpoint_tamper=config.checkpoint_tamper,
            crash_points=tuple(
                CrashPoint(enclave_id, index)
                for enclave_id, index in config.crash_points
            ),
            partition_windows=tuple(
                PartitionWindow(node_id, start_round, blocked_ops)
                for node_id, start_round, blocked_ops in config.partition_windows
            ),
        )

    # -- per-envelope decisions ---------------------------------------------

    def _draw(self, *coordinates: object) -> int:
        label = "faultplan/" + "/".join(str(c) for c in coordinates)
        rng = DeterministicRng(f"{label}#{self.seed}")
        return rng.randbelow(_DRAW_RESOLUTION)

    def action_for(
        self, sender: str, receiver: str, link_index: int
    ) -> Optional[str]:
        """The fault applied to the ``link_index``-th envelope on a link.

        Returns one of :data:`ACTIONS` or ``None``.  Pure and
        order-independent: the answer depends only on the seed and the
        coordinates, never on previously asked questions.
        """
        draw = self._draw("send", sender, receiver, link_index)
        for threshold, action in self._thresholds:
            if draw < threshold:
                return action
        return None

    def corrupt_offset(
        self, sender: str, receiver: str, link_index: int, body_len: int
    ) -> int:
        """Deterministic byte offset to flip when corrupting a frame."""
        if body_len <= 0:
            return 0
        return self._draw("corrupt", sender, receiver, link_index) % body_len

    def equivocate_for(self, stage: str, member: str, attempt: int) -> bool:
        """Whether the compromised broadcaster equivocates toward a member.

        Drawn per ``(stage, member, attempt)``: the same broadcast
        attempt always replays identically, while a post-failover re-run
        (a new attempt) draws afresh — so a detected equivocation can
        resolve into a clean, bit-identical completion.
        """
        draw = self._draw("equivocate", stage, member, attempt)
        return draw < int(self.equivocate_rate * _DRAW_RESOLUTION)

    def shard_flip_for(self, kind: str, shard: int, attempt: int) -> bool:
        """Whether the compromised module falsifies this leaf emission.

        Drawn per ``(kind, shard, attempt)``: each emission of the same
        shard task (including the integrity layer's verification re-run,
        which is a fresh attempt) draws afresh, which is exactly what
        lets the dual-run commitment comparison expose the lie.
        """
        draw = self._draw("shardflip", kind, shard, attempt)
        return draw < int(self.shard_flip_rate * _DRAW_RESOLUTION)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        """Canonical JSON document for this plan (the corpus format).

        Since a plan is a pure function of its parameters, the document
        captures the plan *completely*: ``from_json(plan.to_json())``
        draws bit-identical faults at every coordinate.
        """
        return self.describe()

    @classmethod
    def from_json(cls, doc: dict) -> "FaultPlan":
        """Rebuild a plan serialised by :meth:`to_json`."""
        try:
            return cls(
                seed=int(doc["seed"]),
                drop_rate=float(doc["drop_rate"]),
                duplicate_rate=float(doc["duplicate_rate"]),
                delay_rate=float(doc["delay_rate"]),
                corrupt_rate=float(doc["corrupt_rate"]),
                replay_rate=float(doc["replay_rate"]),
                withhold_rate=float(doc["withhold_rate"]),
                withhold_target=str(doc["withhold_target"]),
                equivocate_rate=float(doc["equivocate_rate"]),
                shard_flip_rate=float(doc["shard_flip_rate"]),
                shard_flip_target=str(doc["shard_flip_target"]),
                checkpoint_tamper=str(doc["checkpoint_tamper"]),
                crash_points=tuple(
                    CrashPoint(str(p["enclave_id"]), int(p["ecall_index"]))
                    for p in doc["crash_points"]
                ),
                partition_windows=tuple(
                    PartitionWindow(
                        str(w["node_id"]),
                        int(w["start_round"]),
                        int(w["blocked_ops"]),
                    )
                    for w in doc["partition_windows"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed FaultPlan document: {exc}")

    def digest(self) -> str:
        """SHA-256 over the canonical JSON — the plan's corpus identity.

        Chaos-report records carry this digest so a fuzz-discovered
        seed is traceable from a CI artifact back to its corpus entry.
        """
        canonical = json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.describe() == other.describe()

    def __hash__(self) -> int:
        return hash(self.digest())

    def describe(self) -> dict:
        """Plan parameters as a JSON-friendly document (for reports)."""
        return {
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "delay_rate": self.delay_rate,
            "corrupt_rate": self.corrupt_rate,
            "replay_rate": self.replay_rate,
            "withhold_rate": self.withhold_rate,
            "withhold_target": self.withhold_target,
            "equivocate_rate": self.equivocate_rate,
            "shard_flip_rate": self.shard_flip_rate,
            "shard_flip_target": self.shard_flip_target,
            "checkpoint_tamper": self.checkpoint_tamper,
            "crash_points": [
                {"enclave_id": p.enclave_id, "ecall_index": p.ecall_index}
                for p in self.crash_points
            ],
            "partition_windows": [
                {
                    "node_id": w.node_id,
                    "start_round": w.start_round,
                    "blocked_ops": w.blocked_ops,
                }
                for w in self.partition_windows
            ],
        }
