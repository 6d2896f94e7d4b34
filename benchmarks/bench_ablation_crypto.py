"""Ablation — AEAD scheme throughput on protocol payloads.

DESIGN.md substitutes a Philox-stream AEAD for hardware AES on bulk
payloads so that cryptography stays off the critical path, as it is in
the paper's AES-NI enclaves.  This ablation measures both schemes on
the three payload sizes the protocol actually moves — an allele-count
vector, an LD joint-count batch, and a member LR-matrix — demonstrating that
the pure-Python reference AES would dominate the running time (and
thereby justifying the substitution).
"""

from __future__ import annotations

import time

from repro.bench import render_table
from repro.crypto import AesCtrHmacAead, StreamAead

PAYLOADS = [
    ("counts vector (10k SNPs)", 4 * 10_000),
    ("LD joint-count batch", 4 * 2_048),
    ("LR matrix (2,123 x 187)", 8 * 2_123 * 187),
]


def test_ablation_aead_throughput(benchmark, save_result):
    key = bytes(range(32))
    schemes = [
        ("Stream AEAD (protocol default)", StreamAead(key)),
        ("AES-CTR-HMAC (reference)", AesCtrHmacAead(key)),
    ]

    # Cap how many bytes the pure-Python AES actually processes; its
    # cost is linear in the payload, so the full-size figure is an exact
    # extrapolation (marked in the table) rather than a multi-minute run.
    aes_measure_cap = 128 * 1024

    def run_all():
        rows = []
        for payload_name, size in PAYLOADS:
            for scheme_name, aead in schemes:
                measured = size
                if isinstance(aead, AesCtrHmacAead):
                    measured = min(size, aes_measure_cap)
                data = bytes(measured)
                begin = time.perf_counter()
                frame = aead.encrypt(data)
                aead.decrypt(frame)
                elapsed = (time.perf_counter() - begin) * (size / measured)
                rows.append(
                    [
                        payload_name,
                        scheme_name + ("*" if measured < size else ""),
                        f"{size:,}",
                        f"{elapsed * 1000:.2f}",
                        f"{size / max(elapsed, 1e-9) / 1e6:.2f}",
                    ]
                )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_result(
        "ablation_crypto",
        "Ablation: AEAD round-trip cost on real protocol payload sizes.\n"
        + render_table(["Payload", "Scheme", "Bytes", "ms", "MB/s"], rows)
        + "\n(*linear extrapolation from a capped measurement)",
    )
    # The stream AEAD must beat the pure-Python AES by a wide margin on
    # the large LR-matrix payload, or the substitution loses its basis.
    stream_ms = float(rows[-2][3])
    aes_ms = float(rows[-1][3])
    assert stream_ms < aes_ms / 10
