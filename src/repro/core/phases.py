"""Result structures of a GenDPR study.

A run produces one :class:`StudyResult`: the three shrinking SNP sets
(paper notation ``L' ⊇ L'' ⊇ L_safe``), the per-task timings, traffic
accounting and — in collusion-tolerant mode — the per-combination safe
sets and the vulnerable SNPs that were withheld.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ProtocolError
from ..obs.report import RunReport
from .timing import PhaseTimings


def _require_subset(smaller: List[int], larger: List[int], names: str) -> None:
    if not set(smaller) <= set(larger):
        raise ProtocolError(f"pipeline violated monotonicity: {names}")


@dataclass(frozen=True)
class CombinationOutcome:
    """The safe set obtained for one honest-subset combination."""

    member_ids: Tuple[str, ...]
    f: int
    safe_snps: Tuple[int, ...]


@dataclass
class CollusionReport:
    """Details of the collusion-tolerance evaluation (Table 5)."""

    outcomes: List[CombinationOutcome] = field(default_factory=list)
    #: Safe set of the plain (f = 0) evaluation over the full federation.
    baseline_safe: Tuple[int, ...] = ()

    @property
    def combinations_evaluated(self) -> int:
        return len(self.outcomes)

    def vulnerable_snps(self, final_safe: Tuple[int, ...]) -> Tuple[int, ...]:
        """SNPs safe at f=0 but withheld once collusion is considered."""
        return tuple(sorted(set(self.baseline_safe) - set(final_safe)))


@dataclass
class StudyResult:
    """Everything a GenDPR run reports."""

    study_id: str
    leader_id: str
    num_members: int
    l_des: int
    l_prime: List[int]
    l_double_prime: List[int]
    l_safe: List[int]
    timings: PhaseTimings
    #: Wire bytes sent between sites over the whole run.
    network_bytes: int = 0
    network_messages: int = 0
    #: ``network_bytes`` split by message kind (envelope tag, e.g. ``ld``).
    network_bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Peak trusted memory per enclave id (bytes).
    enclave_peak_memory: Dict[str, int] = field(default_factory=dict)
    #: CPU utilisation per enclave id (fraction of elapsed wall time).
    enclave_cpu_utilization: Dict[str, float] = field(default_factory=dict)
    #: Residual identification power of the released set.
    release_power: float = 0.0
    collusion: Optional[CollusionReport] = None
    #: Request/response round counts per OCALL kind (e.g. ``{"lr": 1}``);
    #: the batched Phase-3 protocol keeps ``lr`` at one round regardless
    #: of how many collusion combinations were evaluated.
    ocall_rounds: Dict[str, int] = field(default_factory=dict)
    #: Spans + metrics + config fingerprint of this run; populated only
    #: when the study config enables observability.
    observability: Optional[RunReport] = None

    def __post_init__(self) -> None:
        if not 0 < self.num_members:
            raise ProtocolError("num_members must be positive")
        if self.l_des <= 0:
            raise ProtocolError("l_des must be positive")
        full = list(range(self.l_des))
        _require_subset(self.l_prime, full, "L' ⊆ L_des")
        _require_subset(self.l_double_prime, self.l_prime, "L'' ⊆ L'")
        _require_subset(self.l_safe, self.l_double_prime, "L_safe ⊆ L''")

    @property
    def retained_after_maf(self) -> int:
        return len(self.l_prime)

    @property
    def retained_after_ld(self) -> int:
        return len(self.l_double_prime)

    @property
    def retained_after_lr(self) -> int:
        return len(self.l_safe)

    def phase_counts(self) -> Dict[str, int]:
        """The Table 4 row for this run."""
        return {
            "MAF": self.retained_after_maf,
            "LD": self.retained_after_ld,
            "LR": self.retained_after_lr,
        }

    def summary(self) -> str:
        counts = self.phase_counts()
        return (
            f"{self.study_id}: L_des={self.l_des} -> "
            f"MAF {counts['MAF']} / LD {counts['LD']} / LR {counts['LR']} "
            f"(leader {self.leader_id}, {self.num_members} GDOs, "
            f"{self.timings.total_seconds * 1000:.1f} ms)"
        )
