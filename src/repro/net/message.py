"""Message envelopes carried by the simulated network.

An :class:`Envelope` is the untrusted wire unit: routing metadata in the
clear (sender, receiver, protocol tag) and an opaque body.  For GenDPR
traffic the body is always a secure-channel frame — the network layer
never sees plaintext intermediate data, which the audit harness checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict

_COUNTER = itertools.count()


@dataclass(frozen=True)
class Envelope:
    """One point-to-point message on the simulated network."""

    sender: str
    receiver: str
    tag: str
    body: bytes
    message_id: int = field(default_factory=lambda: next(_COUNTER))

    def size(self) -> int:
        """Total bytes on the wire (headers + body)."""
        return (
            len(self.sender.encode("utf-8"))
            + len(self.receiver.encode("utf-8"))
            + len(self.tag.encode("utf-8"))
            + 8  # message id
            + len(self.body)
        )


@dataclass
class LinkStats:
    """Accumulated traffic between one ordered pair of nodes."""

    messages: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    #: ``wire_bytes`` split by envelope tag (the protocol message kind).
    bytes_by_tag: Dict[str, int] = field(default_factory=dict)

    def record(self, envelope: Envelope) -> None:
        size = envelope.size()
        self.messages += 1
        self.payload_bytes += len(envelope.body)
        self.wire_bytes += size
        self.bytes_by_tag[envelope.tag] = (
            self.bytes_by_tag.get(envelope.tag, 0) + size
        )

    def merge(self, other: "LinkStats") -> "LinkStats":
        """Fold another link's totals into this one; returns ``self``.

        The single aggregation path shared by
        :meth:`SimulatedNetwork.total_stats` and the observability
        metrics bridge, so the two can never disagree.
        """
        self.messages += other.messages
        self.payload_bytes += other.payload_bytes
        self.wire_bytes += other.wire_bytes
        for tag, size in other.bytes_by_tag.items():
            self.bytes_by_tag[tag] = self.bytes_by_tag.get(tag, 0) + size
        return self
