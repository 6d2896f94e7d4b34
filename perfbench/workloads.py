"""The benchmark's three workloads.

* ``study-ld`` — one client running ``run_study`` back to back (closed
  loop): a flat study, f=0, G=5, L=3200, where the LD phase dominates.
* ``collusion-supervised`` — the same closed loop with f=1, G=5,
  L=1000, an S=4 shard tree, the supervisor, the integrity rounds and a
  light seeded fault plan (drops and duplicates).
* ``serve-open`` — one :class:`~repro.serve.FederationService` (pool 2,
  max_active 2, G=3) serving small flat studies (L=200, half cohort)
  under open-loop Poisson arrivals at 3/s and 6/s, interleaved with
  bursts of queued studies that measure drain capacity.

Every input comes from the workload seed: the cohorts (population
scale 0.1, passed explicitly), ``StudyConfig.seed``, the fault plan and
the arrival schedule.  A run cycles through several cohorts drawn from
the seed, because the LD round count — and with it wall time and bytes —
depends on the cohort's linkage structure; averaging a few cohorts per
run keeps one unlucky draw from setting a run's figures.

Each workload checks its outputs against references computed during
set-up (and outside ``setup_s``); a mismatch counts as a failed
operation.
"""

from __future__ import annotations

import hashlib
import hmac
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from scipy.stats import beta as beta_distribution

from repro.bench.workloads import (
    PAPER_CASE_FULL,
    PAPER_CASE_HALF,
    PAPER_THRESHOLDS,
    clear_cohort_cache,
    paper_cohort,
)
from repro.config import (
    CollusionPolicy,
    FaultConfig,
    IntegrityConfig,
    NetworkProfile,
    ResilienceConfig,
    ShardingConfig,
    StudyConfig,
)
from repro.core.phases import StudyResult
from repro.core.pipeline import run_local_pipeline
from repro.core.protocol import run_study
from repro.core.timing import ALL_LABELS
from repro.genomics.population import Cohort
from repro.net import SimulatedNetwork
from repro.serve import FederationService, ServiceConfig

from .layers import AMOUNTS, PAIRS_CONSUMED, Layers
from .tracing import SpanRecorder

#: Population scale of the paper cohort (1,486 / 743 cases, 1,304 controls).
SCALE = 0.1
#: The serial-link WAN model behind ``wan_transfer_s``.
WAN = NetworkProfile(latency_s=0.010, bandwidth_bytes_per_s=100e6)
#: Short names of the four Fig. 5 task labels, in ``ALL_LABELS`` order.
LABEL_SLUGS = ("data_aggregation", "indexing", "ld", "lr")
#: OCALL round kinds reported as ``core.rounds.<kind>``.
ROUND_KINDS = (
    "summary",
    "retained",
    "ld",
    "lr",
    "shard-task",
    "shard:counts",
    "shard:moments",
    "transcript:summaries",
    "transcript:prime",
    "transcript:double_prime",
    "transcript:safe",
)
#: Fault-injector counters reported as ``faults.injected.<kind>``.
FAULT_KINDS = ("drops", "duplicates")
#: Set-ups per serve-open run (closed loops set up once per cohort).
SERVE_SETUPS = 3
#: What one calibration sample takes at the reference machine speed.
CALIBRATION_REF_S = 0.0065


class Calibration:
    """A fixed mix of the program's kinds of work, timed between studies.

    The shared hosts this benchmark runs on change speed by up to 2x for
    tens of seconds at a time, which moves every wall-clock figure of a
    run together.  Timing the same small mix — Python dict work, a
    Philox keystream, an XOR, an HMAC and column sums, the operations a
    study spends its time in — next to the studies measures that speed.
    Each timed piece of work is scaled, by :meth:`factor_since`, to the
    speed at which one sample takes :data:`CALIBRATION_REF_S`, using the
    samples taken right before and after it; the raw figures are
    printed beside the scaled ones.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.integers(0, 2, size=(1500, 256), dtype=np.uint8)
        self._blob = np.frombuffer(bytes(range(256)) * 2048, dtype=np.uint8)
        self.samples: List[float] = []

    def sample(self) -> float:
        begin = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(24000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        stream = np.random.Generator(np.random.Philox(key=7)).bytes(self._blob.size)
        mixed = np.bitwise_xor(np.frombuffer(stream, dtype=np.uint8), self._blob)
        hmac.new(b"calibration-key!", mixed.tobytes(), hashlib.sha256).digest()
        self._matrix.sum(axis=0, dtype=np.int64)
        elapsed = time.perf_counter() - begin
        self.samples.append(elapsed)
        return elapsed

    def factor_since(self, before: float) -> float:
        """Scale factor for work timed since the sample ``before``.

        Takes a fresh sample and scales by the mean of the two, so the
        factor reflects the speed while that work ran.
        """
        return CALIBRATION_REF_S / ((before + self.sample()) / 2)


def metric_name(name: str) -> str:
    """Metric names allow letters, digits, ``_``, ``.`` and ``-`` only."""
    return name.replace(":", ".")


def quantile(values: List[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted mean of all order statistics: on the few dozen
    samples a run yields it varies less from run to run than the one or
    two order statistics an interpolated percentile rests on.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.size
    if n == 1:
        return float(ordered[0])
    edges = beta_distribution.cdf(np.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1 - q))
    return float(np.dot(np.diff(edges), ordered))


def p50(values: List[float]) -> float:
    return quantile(values, 0.5)


def p75(values: List[float]) -> float:
    return quantile(values, 0.75)


def p90(values: List[float]) -> float:
    return quantile(values, 0.9)


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cohort_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def make_cohort(num_case: int, snps: int, seed: int) -> Cohort:
    # paper_cohort caches by size only, so drop the previous draw first.
    clear_cohort_cache()
    cohort, _truth = paper_cohort(num_case, snps, scale=SCALE, seed=seed)
    clear_cohort_cache()
    return cohort


def oracle(cohort: Cohort):
    """``run_local_pipeline`` over the pooled cohort: the ground truth."""
    return run_local_pipeline(
        cohort.case.array(),
        cohort.reference.array(),
        maf_cutoff=PAPER_THRESHOLDS.maf_cutoff,
        ld_cutoff=PAPER_THRESHOLDS.ld_cutoff,
        alpha=PAPER_THRESHOLDS.false_positive_rate,
        beta=PAPER_THRESHOLDS.power_threshold,
    )


def decisions(result: StudyResult) -> Dict[str, Any]:
    """What a study decided: the three SNP sets, power and collusion."""
    collusion = None
    if result.collusion is not None:
        collusion = (
            list(result.collusion.baseline_safe),
            sorted(
                (list(o.member_ids), o.f, list(o.safe_snps))
                for o in result.collusion.outcomes
            ),
        )
    return {
        "l_prime": list(result.l_prime),
        "l_double_prime": list(result.l_double_prime),
        "l_safe": list(result.l_safe),
        "release_power": result.release_power,
        "collusion": collusion,
    }


def diff(label: str, got: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    return [
        f"{label}: {key} differs from the reference"
        for key in want
        if got.get(key) != want[key]
    ]


def check_against_oracle(result: StudyResult, truth, *, collusion: bool) -> List[str]:
    """The distributed outcome must match the pooled-cohort oracle."""
    problems = []
    if collusion:
        baseline = list(result.collusion.baseline_safe) if result.collusion else None
        if baseline != list(truth.l_safe):
            problems.append(f"{result.study_id}: collusion.baseline_safe != oracle l_safe")
    else:
        for key in ("l_prime", "l_double_prime", "l_safe"):
            if list(getattr(result, key)) != list(getattr(truth, key)):
                problems.append(f"{result.study_id}: {key} != oracle {key}")
    return problems


@dataclass
class Outcome:
    """What one run measured."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Unscaled wall-clock figures, printed beside the metrics.
    raw: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    fired: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Per-layer figures from the recorder
# ---------------------------------------------------------------------------

def span_metrics(
    totals: Dict[str, List[float]], studies: int, setups: int
) -> Dict[str, Tuple[float, str]]:
    """``<span>.count/.busy_s/.self_s`` (+ amount) per study.

    ``genomics.generate_cohort`` runs in set-up, so it is per generated
    cohort instead.
    """
    out: Dict[str, Tuple[float, str]] = {}
    for name, (count, busy, self_s, amount) in sorted(totals.items()):
        if name == PAIRS_CONSUMED:
            continue
        in_setup = name == "genomics.generate_cohort"
        per = setups if in_setup else studies
        suffix = "/setup" if in_setup else "/study"
        out[f"{name}.count"] = (count / per, "count" + suffix)
        out[f"{name}.busy_s"] = (busy / per, "s" + suffix)
        out[f"{name}.self_s"] = (self_s / per, "s" + suffix)
        if name in AMOUNTS:
            suffix, unit, _measure = AMOUNTS[name]
            out[f"{name}.{suffix}"] = (amount / per, unit)
    return out


def study_layer_metrics(
    totals: Dict[str, List[float]],
    results: List[StudyResult],
    federations: List[Any],
    setups: int,
) -> Dict[str, Tuple[float, str]]:
    """Span figures plus the exact counters the results carry."""
    studies = len(results)
    out = span_metrics(totals, studies, setups)
    for label, slug in zip(ALL_LABELS, LABEL_SLUGS):
        out[f"core.modelled.{slug}_s"] = (
            sum(r.timings.get(label) for r in results) / studies,
            "s/study",
        )
    rounds_total = 0
    other_kinds = {kind for r in results for kind in r.ocall_rounds} - set(ROUND_KINDS)
    for kind in ROUND_KINDS + tuple(sorted(other_kinds)):
        value = sum(r.ocall_rounds.get(kind, 0) for r in results)
        rounds_total += value
        out[f"core.rounds.{metric_name(kind)}"] = (value / studies, "count/study")
    handled = totals.get("core.host.handle_envelope", [0, 0, 0, 0])[0]
    out["core.host.handle_envelope.per_round"] = (
        handled / rounds_total if rounds_total else 0.0,
        "count/round",
    )
    consumed = totals.get(PAIRS_CONSUMED, [0, 0, 0, 0])[3]
    computed = totals.get("stats.ld.pair_moments_kernel", [0, 0, 0, 0])[3]
    out["core.ld.pairs_consumed"] = (consumed / studies, "count/study")
    out["core.ld.pairs_computed"] = (computed / studies, "count/study")
    out["core.ld.fetch_useful_ratio"] = (
        consumed / computed if computed else 0.0,
        "ratio",
    )
    counters: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
    for federation in federations:
        injector = getattr(federation, "fault_injector", None)
        if injector is None:
            continue
        for kind, value in injector.counters().items():
            counters[kind] = counters.get(kind, 0) + value
    for kind, value in sorted(counters.items()):
        out[f"faults.injected.{kind}"] = (value / studies, "count/study")
    out["tee.enclave_peak_bytes.max"] = (
        float(max(max(r.enclave_peak_memory.values()) for r in results)),
        "B",
    )
    return out


def fired_names(totals: Dict[str, List[float]]) -> List[str]:
    return sorted(name for name, entry in totals.items() if entry[0] > 0)


# ---------------------------------------------------------------------------
# Closed loop: study-ld and collusion-supervised
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedLoop:
    """One client issuing ``run_study`` calls back to back."""

    name: str
    snps: int
    members: int
    cohorts: int
    collusion_f: int = 0
    shards: int = 1
    supervised: bool = False
    fault_rate: float = 0.0
    #: Wrappers that must fire on this workload.
    expected: Tuple[str, ...] = ()

    def config(self, seed: int, study_id: str, snps: Optional[int] = None) -> StudyConfig:
        snps = self.snps if snps is None else snps
        extra: Dict[str, Any] = {}
        if self.supervised:
            extra["resilience"] = ResilienceConfig(enabled=True)
            extra["integrity"] = IntegrityConfig.on()
        if self.fault_rate:
            # No delay faults: a delayed frame released rounds later can
            # reach a channel out of order, which aborts the study with a
            # classified ChannelError (3 of seed 15's 6 studies with
            # drop, duplicate and delay at 0.02 each).
            extra["faults"] = FaultConfig(
                enabled=True,
                seed=seed,
                drop_rate=self.fault_rate,
                duplicate_rate=self.fault_rate,
            )
        return StudyConfig(
            snp_count=snps,
            thresholds=PAPER_THRESHOLDS,
            collusion=(
                CollusionPolicy.static(self.collusion_f)
                if self.collusion_f
                else CollusionPolicy.none()
            ),
            seed=seed,
            study_id=study_id,
            sharding=ShardingConfig.over(min(self.shards, snps)),
            **extra,
        )

    def reference_config(self, config: StudyConfig) -> StudyConfig:
        """Unsharded, unsupervised, fault-free twin of ``config``."""
        return StudyConfig(
            snp_count=config.snp_count,
            thresholds=config.thresholds,
            collusion=config.collusion,
            seed=config.seed,
            study_id=config.study_id,
        )

    def run(
        self,
        seed: int,
        seconds: float,
        trace: bool,
        *,
        snps: Optional[int] = None,
        recorder: Optional[SpanRecorder] = None,
    ) -> Outcome:
        snps = self.snps if snps is None else snps
        recorder = recorder if recorder is not None else SpanRecorder()
        out = Outcome()
        calibration = Calibration()

        # -- set-up: one cohort and one small warm-up study per set-up --
        cohorts: List[Cohort] = []
        setup_times: List[float] = []
        warm_snps = min(64, snps)
        raw_setup: List[float] = []
        for index in range(self.cohorts):
            before = calibration.sample()
            begin = time.perf_counter()
            with Layers(recorder) if trace else nullcontext():
                cohorts.append(make_cohort(PAPER_CASE_FULL, snps, cohort_seed(seed, index)))
            warm_cohort = make_cohort(PAPER_CASE_HALF, warm_snps, cohort_seed(seed, 999))
            run_study(
                warm_cohort,
                self.config(seed, f"{self.name}-warm", warm_snps),
                self.members,
            )
            raw_setup.append(time.perf_counter() - begin)
            setup_times.append(raw_setup[-1] * calibration.factor_since(before))
        setup_totals = recorder.snapshot()

        # -- references (outside setup_s) --
        configs = [
            self.config(seed, f"{self.name}-{seed}-{index}", snps)
            for index in range(self.cohorts)
        ]
        truths = [oracle(cohort) for cohort in cohorts]
        references = []
        if self.supervised or self.shards > 1 or self.fault_rate:
            for cohort, config in zip(cohorts, configs):
                references.append(
                    decisions(run_study(cohort, self.reference_config(config), self.members))
                )

        # -- timed loop: whole cycles over the cohorts --
        walls: List[float] = []  # scaled to the reference speed
        raw_walls: List[float] = []
        modelled: List[float] = []
        traced_walls: List[float] = []
        traced_results: List[StudyResult] = []
        federations: List[Any] = []
        per_cohort: Dict[int, Tuple[int, float]] = {}
        recorder.totals.clear()
        begin = time.perf_counter()
        cycle = 0
        while True:
            traced = trace and cycle % 2 == 0
            layers = Layers(recorder) if traced else None
            with layers if layers is not None else nullcontext():
                for index, cohort in enumerate(cohorts):
                    out.attempted += 1
                    network = SimulatedNetwork(WAN)
                    config = configs[index]
                    recorder.set_request(config.study_id)
                    before = calibration.sample()
                    start = time.perf_counter()
                    try:
                        if traced:
                            result = recorder.call(
                                "bench.study",
                                run_study,
                                (cohort, config, self.members),
                                {"network": network},
                            )
                        else:
                            result = run_study(
                                cohort, config, self.members, network=network
                            )
                    except Exception as exc:  # noqa: BLE001 - counted, reported
                        out.failed += 1
                        out.problems.append(f"{config.study_id}: {type(exc).__name__}: {exc}")
                        continue
                    wall = time.perf_counter() - start
                    factor = calibration.factor_since(before)
                    problems = check_against_oracle(
                        result, truths[index], collusion=bool(self.collusion_f)
                    )
                    if references:
                        problems += diff(config.study_id, decisions(result), references[index])
                    exact = (result.network_bytes, network.simulated_time)
                    if per_cohort.setdefault(index, exact) != exact:
                        problems.append(
                            f"{config.study_id}: wire bytes or WAN time differ "
                            f"between identical studies"
                        )
                    if problems:
                        out.failed += 1
                        out.problems.extend(problems)
                        continue
                    if traced:
                        traced_walls.append(wall * factor)
                        traced_results.append(result)
                    else:
                        walls.append(wall * factor)
                        raw_walls.append(wall)
                        modelled.append(result.timings.total_seconds * factor)
            if layers is not None:
                federations.extend(layers.federations)
            cycle += 1
            elapsed = time.perf_counter() - begin
            if trace and cycle % 2:
                continue  # every traced cycle gets its untraced twin
            if elapsed + elapsed / cycle > seconds:
                break
        if not walls:
            out.problems.append("no study completed")
            return out
        out.end_to_end = {
            "setup_s": (p50(setup_times), "s"),
            "study_wall_s.p50": (p50(walls), "s"),
            "modelled_total_s.p50": (p50(modelled), "s"),
            "wire_bytes": (
                statistics.fmean(v[0] for v in per_cohort.values()), "B/study"
            ),
            "wan_transfer_s": (
                statistics.fmean(v[1] for v in per_cohort.values()), "s/study"
            ),
            "capacity_per_s": (len(walls) / sum(walls), "1/s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "failed_ratio": (out.failed / max(out.attempted, 1), "ratio"),
        }
        out.raw = {
            "raw.setup_s": (p50(raw_setup), "s"),
            "raw.study_wall_s.p50": (p50(raw_walls), "s"),
            "raw.calibration_s": (p50(calibration.samples), "s"),
        }
        if trace:
            if not traced_results:
                out.problems.append("no traced study completed")
                return out
            totals = recorder.snapshot()
            totals["genomics.generate_cohort"] = setup_totals.get(
                "genomics.generate_cohort", [0, 0.0, 0.0, 0]
            )
            layers_out = study_layer_metrics(
                totals, traced_results, federations, self.cohorts
            )
            root = totals.get("bench.study", [0, 0.0, 0.0, 0])
            layers_out["bench.trace_overhead_ratio"] = (
                p50(traced_walls) / p50(walls), "ratio"
            )
            layers_out["bench.unattributed_ratio"] = (
                root[2] / root[1] if root[1] else 0.0, "ratio"
            )
            out.layers = layers_out
            out.fired = fired_names(totals)
            missing = sorted(set(self.expected) - set(out.fired))
            if missing:
                out.problems.append(f"wrappers that never fired: {missing}")
        return out


SERVE_LAYER_UNITS = {
    "serve.queue_wait_s.p50": "s",
    "serve.run_s.p50": "s",
    "serve.round_wait_s.p50": "s",
    "serve.warm_hit_rate": "ratio",
    "serve.rejected": "count",
    "serve.generator_late_s.max": "s",
    "serve.latency_p50_s.r3": "s",
    "serve.latency_p75_s.r3": "s",
    "serve.latency_p90_s.r3": "s",
    "serve.latency_p50_s.r6": "s",
    "serve.latency_p90_s.r6": "s",
}


COMMON_EXPECTED = (
    "genomics.generate_cohort",
    "genomics.partition_cohort",
    "core.federation.bind_study",
    "core.phase.summaries",
    "core.phase.maf",
    "core.phase.ld",
    "core.phase.lr",
    "core.pipeline.ld_prune",
    "core.host.handle_envelope",
    "tee.sealing.unseal",
    "tee.sealing.seal",
    "tee.storage.columns",
    "crypto.keystream",
    "crypto.aead.encrypt",
    "crypto.aead.decrypt",
    "crypto.mac.sign",
    "crypto.mac.verify",
    "net.encode",
    "net.decode",
    "net.send",
    "net.receive",
    "stats.ld.pair_moments_kernel",
    "stats.ld.window_pairs",
    "stats.lr_test.lr_matrix",
    "stats.lr_test.select_safe_subset",
    "stats.chisq.rank_pvalues",
)

STUDY_LD = ClosedLoop(
    name="study-ld",
    snps=3200,
    members=5,
    cohorts=6,
    expected=COMMON_EXPECTED
    + ("core.federation.build_federation", "tee.channel.establish_channel"),
)

COLLUSION_SUPERVISED = ClosedLoop(
    name="collusion-supervised",
    snps=1000,
    members=5,
    cohorts=6,
    collusion_f=1,
    shards=4,
    supervised=True,
    fault_rate=0.02,
    expected=COMMON_EXPECTED
    + (
        "core.federation.build_federation",
        "tee.channel.establish_channel",
        "core.phase.ld-moments",
        "tee.ecall.checkpoint_state",
    ),
)


# ---------------------------------------------------------------------------
# Open loop: serve-open
# ---------------------------------------------------------------------------


@dataclass
class _Request:
    study_id: str
    cohort_index: int
    due: float = 0.0
    submitted: float = 0.0


@dataclass(frozen=True)
class ServeOpen:
    """One warm service under Poisson arrivals, then a queued burst."""

    name: str = "serve-open"
    snps: int = 200
    members: int = 3
    cohorts: int = 48
    rates: Tuple[float, float] = (3.0, 6.0)
    #: Share of the run given to the 3/s and 6/s phases and the burst.
    shares: Tuple[float, float, float] = (0.7, 0.15, 0.15)
    #: Drain rate assumed when sizing the burst (studies/s).
    burst_rate: float = 16.0
    #: Segments per phase; the host's speed is sampled between segments.
    rounds: int = 12
    expected: Tuple[str, ...] = COMMON_EXPECTED

    def service_config(self, seed: int, index: int, queue_limit: int) -> ServiceConfig:
        return ServiceConfig(
            num_members=self.members,
            pool_size=2,
            max_active=2,
            queue_limit=queue_limit,
            max_concurrent_rounds=2,
            service_id=f"bench-{index}",
            seed=seed,
        )

    def config(self, seed: int, study_id: str, snps: int) -> StudyConfig:
        return StudyConfig(
            snp_count=snps, thresholds=PAPER_THRESHOLDS, seed=seed, study_id=study_id
        )

    def run(
        self,
        seed: int,
        seconds: float,
        trace: bool,
        *,
        snps: Optional[int] = None,
        recorder: Optional[SpanRecorder] = None,
    ) -> Outcome:
        snps = self.snps if snps is None else snps
        recorder = recorder if recorder is not None else SpanRecorder()
        out = Outcome()
        counts = (
            max(2, round(self.shares[0] * seconds * self.rates[0])),
            max(2, round(self.shares[1] * seconds * self.rates[1])),
            max(2, round(self.shares[2] * seconds * self.burst_rate)),
        )
        queue_limit = counts[2] + 16

        # -- set-up, repeated: a share of the cohorts, service start and
        # one warm study per slot --
        setup_times: List[float] = []  # scaled to the reference speed
        raw_setup: List[float] = []
        service: Optional[FederationService] = None
        generated: Dict[int, Cohort] = {}
        calibration = Calibration()
        try:
            for index in range(SERVE_SETUPS):
                if service is not None:
                    service.close()
                before = calibration.sample()
                begin = time.perf_counter()
                share = range(index, self.cohorts, SERVE_SETUPS)
                with Layers(recorder) if trace else nullcontext():
                    for i in share:
                        generated[i] = make_cohort(
                            PAPER_CASE_HALF, snps, cohort_seed(seed, i)
                        )
                service = FederationService(self.service_config(seed, index, queue_limit))
                warm = [
                    service.submit(
                        generated[share[0]], self.config(seed, f"warm-{slot}", snps)
                    )
                    for slot in range(2)
                ]
                for study_id in warm:
                    service.result(study_id, timeout=120.0)
                raw_setup.append(time.perf_counter() - begin)
                setup_times.append(raw_setup[-1] * calibration.factor_since(before))
            setup_totals = recorder.snapshot()
            assert service is not None
            cohorts = [generated[i] for i in range(self.cohorts)]
            return self._measure(
                service, cohorts, seed, snps, counts, trace, recorder,
                setup_times, raw_setup, setup_totals, calibration, out,
            )
        finally:
            if service is not None:
                service.close()

    def _measure(
        self, service, cohorts, seed, snps, counts, trace, recorder,
        setup_times, raw_setup, setup_totals, calibration, out,
    ) -> Outcome:
        # -- references (outside setup_s): oracle + one solo run per cohort --
        truths = [oracle(cohort) for cohort in cohorts]
        solo = [
            decisions(run_study(cohort, self.config(seed, f"solo-{i}", snps), self.members))
            for i, cohort in enumerate(cohorts)
        ]
        slot_bytes: Dict[str, Tuple[int, int]] = {}
        for study_id in ("warm-0", "warm-1"):
            self._slot_delta(service, study_id, slot_bytes)

        requests: Dict[str, List[_Request]] = {}
        cursor = 0
        for phase, count in zip(("r3", "r6", "burst"), counts):
            requests[phase] = [
                _Request(f"{phase}-{i}", (cursor + i) % self.cohorts)
                for i in range(count)
            ]
            cursor += count
        # The phases are cut into segments and interleaved, r3, r6,
        # burst, r3, ..., so every phase samples the host across the
        # whole run instead of whatever speed it had during one stretch.
        rng = random.Random(f"serve-open/{seed}")
        rates = {"r3": self.rates[0], "r6": self.rates[1], "burst": None}
        plan = []
        for round_index in range(self.rounds):
            for phase, rate in rates.items():
                segment = requests[phase][round_index::self.rounds]
                gaps = self._schedule(rng, len(segment), rate) if rate else None
                plan.append((phase, segment, gaps))

        recorder.totals.clear()
        layers = Layers(recorder) if trace else None
        late: List[float] = []
        records: Dict[str, Dict[str, Any]] = {}
        burst_spans: List[Tuple[int, float, float]] = []  # studies, s, factor
        with layers if layers is not None else nullcontext():
            for phase, segment, gaps in plan:
                if not segment:
                    continue
                factor = self._segment(
                    service, cohorts, seed, snps, segment, gaps,
                    calibration, records, late, out,
                )
                if gaps is None:
                    burst_spans.append(self._drained(segment, records, factor))
        burst_run_s = [
            records[r.study_id]["run_seconds"] * records[r.study_id]["factor"]
            for r in requests["burst"]
            if r.study_id in records
        ]
        untraced_burst: List[float] = []
        if trace:
            extra = [_Request(f"untraced-{r.study_id}", r.cohort_index) for r in requests["burst"]]
            extra_records: Dict[str, Dict[str, Any]] = {}
            for round_index in range(self.rounds):
                self._segment(
                    service, cohorts, seed, snps, extra[round_index::self.rounds],
                    None, calibration, extra_records, [], out,
                )
            untraced_burst = [
                rec["run_seconds"] * rec["factor"] for rec in extra_records.values()
            ]

        # -- checks: decisions vs the solo run and the oracle; per-study bytes --
        ordered = [r for phase in ("r3", "r6", "burst") for r in requests[phase]]
        done = [r for r in ordered if r.study_id in records]
        for request in sorted(done, key=lambda r: records[r.study_id]["network_bytes"]):
            self._slot_delta(service, request.study_id, slot_bytes, records)
        for request in done:
            record = records[request.study_id]
            result = record["result"]
            problems = diff(request.study_id, decisions(result), solo[request.cohort_index])
            problems += check_against_oracle(result, truths[request.cohort_index], collusion=False)
            if problems:
                out.failed += 1
                out.problems.extend(problems)
                record["bad"] = True
        good = [r for r in done if not records[r.study_id].get("bad")]
        good_ids = {r.study_id for r in good}
        if not good:
            out.problems.append("no served study completed")
            return out

        def latencies(phase: str, scaled: bool = True) -> List[float]:
            return [
                ((r.submitted - r.due) + records[r.study_id]["total_seconds"])
                * (records[r.study_id]["factor"] if scaled else 1.0)
                for r in requests[phase]
                if r.study_id in good_ids
            ]

        drained = sum(n for n, _raw, _factor in burst_spans)
        capacity = drained / sum(raw * factor for _n, raw, factor in burst_spans)
        raw_capacity = drained / sum(raw for _n, raw, _factor in burst_spans)
        rows = [records[r.study_id] for r in good]
        metrics = service.metrics()
        out.end_to_end = {
            "setup_s": (p50(setup_times), "s"),
            "study_wall_s.p50": (
                p50([rec["run_seconds"] * rec["factor"] for rec in rows]), "s"
            ),
            "modelled_total_s.p50": (
                p50([rec["result"].timings.total_seconds * rec["factor"] for rec in rows]),
                "s",
            ),
            "wire_bytes": (statistics.fmean(rec["wire_bytes"] for rec in rows), "B/study"),
            "wan_transfer_s": (
                statistics.fmean(
                    rec["messages"] * WAN.latency_s
                    + rec["wire_bytes"] / WAN.bandwidth_bytes_per_s
                    for rec in rows
                ),
                "s/study",
            ),
            "capacity_per_s": (capacity, "1/s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "failed_ratio": (out.failed / max(out.attempted, 1), "ratio"),
        }
        out.raw = {
            "raw.setup_s": (p50(raw_setup), "s"),
            "raw.study_wall_s.p50": (p50([rec["run_seconds"] for rec in rows]), "s"),
            "raw.latency_p50_s": (p50(latencies("r3", scaled=False)), "s"),
            "raw.latency_p75_s": (p75(latencies("r3", scaled=False)), "s"),
            "raw.capacity_per_s": (raw_capacity, "1/s"),
            "raw.calibration_s": (p50(calibration.samples), "s"),
        }
        serve_layers = {
            "serve.queue_wait_s.p50": p50([rec["wait_seconds"] for rec in rows]),
            "serve.run_s.p50": p50([rec["run_seconds"] for rec in rows]),
            "serve.round_wait_s.p50": p50([rec["round_wait_seconds"] for rec in rows]),
            "serve.warm_hit_rate": float(metrics["warm_hit_rate"]),
            "serve.rejected": float(metrics["rejected"]),
            "serve.generator_late_s.max": max(late) if late else 0.0,
            "serve.latency_p50_s.r3": p50(latencies("r3")),
            "serve.latency_p75_s.r3": p75(latencies("r3")),
            "serve.latency_p90_s.r3": p90(latencies("r3")),
            "serve.latency_p50_s.r6": p50(latencies("r6")),
            "serve.latency_p90_s.r6": p90(latencies("r6")),
        }
        if trace and layers is not None:
            totals = recorder.snapshot()
            totals["genomics.generate_cohort"] = setup_totals.get(
                "genomics.generate_cohort", [0, 0.0, 0.0, 0]
            )
            layers_out = study_layer_metrics(
                totals, [rec["result"] for rec in rows], layers.federations,
                SERVE_SETUPS,
            )
            layers_out.update(
                {name: (value, SERVE_LAYER_UNITS[name]) for name, value in serve_layers.items()}
            )
            layers_out["bench.trace_overhead_ratio"] = (
                p50(burst_run_s) / p50(untraced_burst) if untraced_burst else 0.0,
                "ratio",
            )
            layers_out["bench.unattributed_ratio"] = (
                self._unattributed(recorder, rows), "ratio"
            )
            out.layers = layers_out
            out.fired = fired_names(totals)
            missing = sorted(set(self.expected) - set(out.fired))
            if missing:
                out.problems.append(f"wrappers that never fired: {missing}")
        else:
            out.layers = {
                name: (value, SERVE_LAYER_UNITS[name]) for name, value in serve_layers.items()
            }
        return out

    @staticmethod
    def _unattributed(recorder: SpanRecorder, rows) -> float:
        """Share of session run time outside any top-level span."""
        covered = sum(
            end - start
            for _id, parent, _name, start, end, request in recorder.spans
            if parent == 0 and request
        )
        run = sum(rec["run_seconds"] for rec in rows)
        return max(0.0, 1.0 - covered / run) if run else 0.0

    @staticmethod
    def _schedule(rng: random.Random, count: int, rate: float) -> List[float]:
        """Exponential inter-arrival gaps scaled to offer exactly ``rate``.

        The gaps keep their Poisson shape, but the segment offers
        ``rate`` requests per second on average, so the seed changes
        when requests cluster and not how much load a run sees.
        """
        draws = [rng.expovariate(rate) for _ in range(count)]
        scale = count / rate / sum(draws) if draws else 1.0
        return [gap * scale for gap in draws]

    def _segment(
        self, service, cohorts, seed, snps, segment, gaps, calibration,
        records, late, out,
    ) -> float:
        """Serve one segment between two calibration samples.

        ``gaps`` are the open-loop inter-arrival times; ``None`` submits
        the whole segment at once (a burst).  The segment drains before
        the closing sample.  Returns the factor that scales the
        segment's times to the reference speed.
        """
        before = calibration.sample()
        if gaps is None:
            self._burst(service, cohorts, seed, snps, segment, out)
        else:
            self._open_loop(service, cohorts, seed, snps, segment, gaps, late, out)
        self._collect(service, segment, records, out)
        factor = calibration.factor_since(before)
        for request in segment:
            if request.study_id in records:
                records[request.study_id]["factor"] = factor
        return factor

    @staticmethod
    def _drained(segment, records, factor) -> Tuple[int, float, float]:
        """(studies, seconds, factor) of one drained burst segment."""
        done = [r for r in segment if r.study_id in records]
        finish = max(r.submitted + records[r.study_id]["total_seconds"] for r in done)
        return len(done), finish - min(r.submitted for r in done), factor

    def _open_loop(self, service, cohorts, seed, snps, requests, gaps, late, out) -> None:
        """Submit on a Poisson schedule, whatever the service is doing."""
        due = time.perf_counter() + 0.05
        for request, gap in zip(requests, gaps):
            due += gap
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            request.due = due
            self._submit(service, cohorts, seed, snps, request, out)
            late.append(request.submitted - request.due)

    def _burst(self, service, cohorts, seed, snps, requests, out) -> None:
        for request in requests:
            request.due = time.perf_counter()
            self._submit(service, cohorts, seed, snps, request, out)

    def _submit(self, service, cohorts, seed, snps, request, out) -> None:
        out.attempted += 1
        request.submitted = time.perf_counter()
        try:
            service.submit(
                cohorts[request.cohort_index],
                self.config(seed, request.study_id, snps),
            )
        except Exception as exc:  # noqa: BLE001 - rejected counts as failed
            out.failed += 1
            out.problems.append(f"{request.study_id}: {type(exc).__name__}: {exc}")
            request.submitted = -1.0

    def _collect(self, service, requests, records, out) -> None:
        for request in requests:
            if request.submitted < 0:
                continue
            try:
                result = service.result(request.study_id, timeout=120.0)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                out.failed += 1
                out.problems.append(f"{request.study_id}: {type(exc).__name__}: {exc}")
                continue
            status = service.status(request.study_id)
            records[request.study_id] = {
                "result": result,
                "network_bytes": result.network_bytes,
                "network_messages": result.network_messages,
                "slot": status.get("slot", ""),
                "total_seconds": status["total_seconds"],
                "wait_seconds": status["wait_seconds"],
                "run_seconds": status["run_seconds"],
                "round_wait_seconds": status["round_wait_seconds"],
            }

    @staticmethod
    def _slot_delta(service, study_id, slot_bytes, records=None) -> None:
        """Per-study bytes and messages from a slot's running totals.

        A warm slot's scope keeps its link statistics across studies, so
        ``StudyResult.network_bytes`` of a served study is the slot's
        running total; studies on one slot run one at a time, so the
        difference to the slot's previous study is this study's share.
        """
        if records is None:
            result = service.result(study_id, timeout=120.0)
            status = service.status(study_id)
            slot_bytes[status["slot"]] = (result.network_bytes, result.network_messages)
            return
        record = records[study_id]
        prev_bytes, prev_messages = slot_bytes.get(record["slot"], (0, 0))
        record["wire_bytes"] = record["network_bytes"] - prev_bytes
        record["messages"] = record["network_messages"] - prev_messages
        slot_bytes[record["slot"]] = (record["network_bytes"], record["network_messages"])


SERVE_OPEN = ServeOpen()

WORKLOADS = {
    STUDY_LD.name: STUDY_LD,
    COLLUSION_SUPERVISED.name: COLLUSION_SUPERVISED,
    SERVE_OPEN.name: SERVE_OPEN,
}
