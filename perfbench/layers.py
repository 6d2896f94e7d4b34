"""Which entry points of the program the traced run wraps, and how.

Every layer on the study path is wrapped here: ``genomics``, ``core``
(federation, protocol phases, the leader's LD walk, host routing),
``tee`` (ECALLs, sealing, sealed storage, channels), ``crypto``,
``net``, ``stats`` and ``serve``.  ``obs``, ``attacks``, ``lint`` and
``fuzz`` are not on the study path and are not wrapped.

A wrapped name that no longer exists raises at install time, and
:data:`BINDING_SITES` lists the modules that must be found importing a
function by name, so a rename or a moved import fails the benchmark
instead of silently reporting zeros.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import repro.bench.workloads  # noqa: F401  (binds generate_cohort)
import repro.core.provision  # noqa: F401  (binds partition_cohort)
import repro.faults  # noqa: F401  (imported lazily by bind_study)
import repro.serve  # noqa: F401
from repro.core.federation import GdoHost
from repro.core.protocol import GenDPRProtocol
from repro.crypto.authenticated import StreamAead
from repro.crypto.signing import MacSigner
from repro.crypto.stream import StreamCipher
from repro.net.network import ScopedNetwork, SimulatedNetwork
from repro.tee.enclave import Enclave
from repro.tee.storage import ColumnReader

from .tracing import Instrumentation, SpanRecorder

#: Module-level functions: (defining module, attribute, span name).
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.genomics.synthetic", "generate_cohort", "genomics.generate_cohort"),
    ("repro.genomics.partition", "partition_cohort", "genomics.partition_cohort"),
    ("repro.core.federation", "build_federation", "core.federation.build_federation"),
    ("repro.core.federation", "bind_study", "core.federation.bind_study"),
    ("repro.tee.channel", "establish_channel", "tee.channel.establish_channel"),
    ("repro.core.pipeline", "ld_prune", "core.pipeline.ld_prune"),
    ("repro.tee.sealing", "unseal", "tee.sealing.unseal"),
    ("repro.tee.sealing", "seal", "tee.sealing.seal"),
    ("repro.net.serialization", "encode", "net.encode"),
    ("repro.net.serialization", "decode", "net.decode"),
    ("repro.stats.ld", "pair_moments_kernel", "stats.ld.pair_moments_kernel"),
    ("repro.stats.ld", "window_pairs", "stats.ld.window_pairs"),
    ("repro.stats.lr_test", "lr_matrix", "stats.lr_test.lr_matrix"),
    ("repro.stats.lr_test", "select_safe_subset", "stats.lr_test.select_safe_subset"),
    ("repro.stats.chisq", "rank_pvalues", "stats.chisq.rank_pvalues"),
)

#: Modules that import a wrapped function by name; each must be rebound.
BINDING_SITES: Dict[str, Tuple[str, ...]] = {
    "tee.sealing.unseal": ("repro.tee.storage", "repro.core.enclave_logic"),
    "tee.sealing.seal": ("repro.core.enclave_logic",),
    "tee.channel.establish_channel": ("repro.core.federation",),
    "genomics.partition_cohort": ("repro.core.provision",),
    "genomics.generate_cohort": ("repro.bench.workloads",),
}

#: Per-call quantities, summed into ``<name>.<suffix>``: span name ->
#: (suffix, per-study unit, quantity from (args, result)).
AMOUNTS = {
    "tee.sealing.unseal": ("bytes", "B/study", lambda args, result: len(result)),
    "tee.sealing.seal": ("bytes", "B/study", lambda args, result: len(args[1])),
    "tee.storage.columns": ("columns", "count/study", lambda args, result: len(args[1])),
    "crypto.keystream": ("bytes", "B/study", lambda args, result: int(args[2])),
    "net.encode": ("bytes", "B/study", lambda args, result: len(result)),
    "net.decode": ("bytes", "B/study", lambda args, result: len(args[0])),
    "net.send": ("bytes", "B/study", lambda args, result: args[1].size()),
    "stats.ld.pair_moments_kernel": (
        "pairs", "count/study", lambda args, result: len(args[1])
    ),
}

#: Methods: (class, attribute, span name).
METHODS = (
    (Enclave, "ecall", None),  # named per call: tee.ecall.<ECALL name>
    (GdoHost, "handle_envelope", "core.host.handle_envelope"),
    (ColumnReader, "columns", "tee.storage.columns"),
    (StreamCipher, "keystream", "crypto.keystream"),
    (StreamAead, "encrypt", "crypto.aead.encrypt"),
    (StreamAead, "decrypt", "crypto.aead.decrypt"),
    (MacSigner, "sign", "crypto.mac.sign"),
    (MacSigner, "verify", "crypto.mac.verify"),
    (SimulatedNetwork, "send", "net.send"),
    (SimulatedNetwork, "receive", "net.receive"),
    (ScopedNetwork, "send", "net.send"),
    (ScopedNetwork, "receive", "net.receive"),
)

#: Counters kept beside the spans (no span of their own).
PAIRS_CONSUMED = "core.ld.pairs_consumed"


def _ecall_name(args: tuple) -> str:
    return "tee.ecall." + str(args[1])


def _quantity(span):
    return AMOUNTS[span][2] if span in AMOUNTS else None


class Layers:
    """The installed wrappers of one traced run.

    ``federations`` collects every :class:`~repro.core.federation.Federation`
    that ``bind_study`` returns, so the workload can read the study's
    fault-injection counters afterwards.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.federations: List[object] = []
        self._inst = Instrumentation(recorder)

    def __enter__(self) -> "Layers":
        try:
            self._install()
        except BaseException:
            self._inst.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._inst.restore()

    def _install(self) -> None:
        inst = self._inst
        for module, attr, span in FUNCTIONS:
            adapt = {
                "core.pipeline.ld_prune": self._count_moment_source,
                "core.federation.bind_study": self._capture_federation,
            }.get(span)
            sites = inst.function(
                module, attr, span, amount=_quantity(span), adapt=adapt
            )
            missing = set(BINDING_SITES.get(span, ())) - set(sites)
            if missing:
                raise RuntimeError(
                    f"{span}: expected binding sites not found: "
                    f"{sorted(missing)}"
                )
        for cls, attr, span in METHODS:
            inst.method(cls, attr, span or _ecall_name, amount=_quantity(span))
        inst.replace(GenDPRProtocol, "phase_steps", self._wrap_phase_steps)

    def _count_moment_source(self, ld_prune):
        recorder = self.recorder

        def counted_ld_prune(retained, ranking, get_moments, cutoff):
            def source(left, right, position):
                recorder.add(PAIRS_CONSUMED, 1)
                return get_moments(left, right, position)

            return ld_prune(retained, ranking, source, cutoff)

        return counted_ld_prune

    def _capture_federation(self, bind_study):
        federations = self.federations
        recorder = self.recorder

        def capturing_bind_study(substrate, config, *args, **kwargs):
            recorder.set_request(config.study_id)
            federation = bind_study(substrate, config, *args, **kwargs)
            federations.append(federation)
            return federation

        return capturing_bind_study

    def _wrap_phase_steps(self, phase_steps):
        recorder = self.recorder

        def traced_phase_steps(protocol):
            steps = []
            for name, step in phase_steps(protocol):
                span = "core.phase." + name
                steps.append(
                    (name, lambda clock, _s=step, _n=span: recorder.call(
                        _n, _s, (clock,), {}
                    ))
                )
            return tuple(steps)

        return traced_phase_steps
