"""Sealed, chunked genotype storage at one bit per genotype.

SGX enclaves have scarce protected memory (the paper discusses the
128 MB EPC limit), so GenDPR keeps genome datasets *sealed outside* the
enclave and streams them through in bounded pieces; Table 3's ~2 MB
enclave footprints are only possible because the enclave never holds a
full genotype matrix.

:class:`SealedColumnStore` reproduces that design: a binary genotype
matrix is sealed into column-range chunks that live with the untrusted
host, and the enclave unseals only the chunks a computation touches,
registering the transient working set with its resource meter.  Each
chunk is independently sealed with the chunk index bound as associated
data, so the host can neither substitute, reorder, nor truncate chunks
without detection.

A chunk holds its columns *packed*: ``np.packbits`` turns each column's
``N`` genotypes into one row of ``ceil(N / 8)`` bytes (big-endian bit
order, zero padding), so a chunk of ``w`` columns is a ``(w, ceil(N / 8))``
uint8 array.  :meth:`ColumnReader.packed_columns` hands those rows to
the popcount LD kernel (:func:`repro.stats.ld.pair_moments_kernel`)
as they are; :meth:`ColumnReader.columns` unpacks them into the usual
``N x k`` matrix for the LR statistic and the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import SealingError
from .enclave import Enclave
from .sealing import SealedBlob, seal, unseal

#: Target plaintext bytes per sealed chunk.
DEFAULT_CHUNK_BYTES = 256 * 1024


def packed_row_bytes(num_rows: int) -> int:
    """Bytes of one packed column: ``num_rows`` genotypes at one bit each."""
    return (num_rows + 7) // 8


@dataclass(frozen=True)
class SealedColumnStore:
    """A matrix sealed as column chunks, held on untrusted storage."""

    num_rows: int
    num_cols: int
    chunk_width: int
    chunks: Tuple[SealedBlob, ...]
    label: str

    def __post_init__(self) -> None:
        expected = (self.num_cols + self.chunk_width - 1) // self.chunk_width
        if expected != len(self.chunks):
            raise SealingError(
                f"store has {len(self.chunks)} chunks, expected {expected}"
            )

    @property
    def row_bytes(self) -> int:
        """Bytes of one packed column in a chunk's plaintext."""
        return packed_row_bytes(self.num_rows)

    @property
    def sealed_bytes(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)

    def chunk_of_column(self, column: int) -> int:
        if not 0 <= column < self.num_cols:
            raise SealingError(f"column {column} out of range")
        return column // self.chunk_width


def chunk_width_for(num_rows: int, target_bytes: int = DEFAULT_CHUNK_BYTES) -> int:
    """Columns per chunk so one packed chunk is roughly ``target_bytes``."""
    if num_rows <= 0:
        raise SealingError("num_rows must be positive")
    return max(1, target_bytes // packed_row_bytes(num_rows))


def seal_matrix(
    enclave: Enclave,
    matrix: np.ndarray,
    label: str,
    *,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> SealedColumnStore:
    """Seal a binary ``N x L`` ``matrix`` into a packed column-chunked store.

    Runs inside the enclave that will later read the store; the sealing
    key binds the chunks to this enclave's measurement and platform.
    Values other than 0 and 1 are rejected: packing would silently turn
    a 2 into a 1.
    """
    data = np.asarray(matrix, dtype=np.uint8)
    if data.ndim != 2:
        raise SealingError("only 2-D matrices can be sealed")
    if data.max(initial=0) > 1:
        raise SealingError("only binary (0/1) genotype matrices can be sealed")
    num_rows, num_cols = data.shape
    width = chunk_width_for(num_rows, chunk_bytes)
    chunks: List[SealedBlob] = []
    for start in range(0, num_cols, width):
        packed = np.packbits(data[:, start : start + width].T, axis=1)
        chunk_label = f"{label}/chunk-{start // width}"
        chunks.append(seal(enclave, packed.tobytes(), chunk_label))
    return SealedColumnStore(
        num_rows=num_rows,
        num_cols=num_cols,
        chunk_width=width,
        chunks=tuple(chunks),
        label=label,
    )


class ColumnReader:
    """Enclave-side streaming reader over a sealed column store.

    Unseals chunks on demand, keeps at most ``max_cached_chunks`` of
    them resident, and registers the resident set with the enclave's
    resource meter so the benchmarks see the true trusted working set.
    """

    def __init__(
        self,
        enclave: Enclave,
        store: SealedColumnStore,
        *,
        max_cached_chunks: int = 4,
    ):
        if max_cached_chunks < 1:
            raise SealingError("must cache at least one chunk")
        self._enclave = enclave
        self._store = store
        self._max_cached = max_cached_chunks
        self._cache: Dict[int, np.ndarray] = {}

    def _buffer_name(self, chunk_index: int) -> str:
        return f"reader/{self._store.label}/chunk-{chunk_index}"

    def _load_chunk(self, chunk_index: int) -> np.ndarray:
        """The packed ``(width, row_bytes)`` rows of one chunk."""
        if chunk_index in self._cache:
            return self._cache[chunk_index]
        while len(self._cache) >= self._max_cached:
            evicted = next(iter(self._cache))
            del self._cache[evicted]
            self._enclave.meter.release_buffer(self._buffer_name(evicted))
        blob = self._store.chunks[chunk_index]
        # Re-derive the expected label from the *position*: a host that
        # reorders sealed chunks (each blob carries its own label) must
        # not be able to serve column data from the wrong range.
        expected = SealedBlob(
            data=blob.data, label=f"{self._store.label}/chunk-{chunk_index}"
        )
        raw = unseal(self._enclave, expected)
        start = chunk_index * self._store.chunk_width
        width = min(self._store.chunk_width, self._store.num_cols - start)
        chunk = np.frombuffer(raw, dtype=np.uint8).reshape(
            width, self._store.row_bytes
        )
        self._cache[chunk_index] = chunk
        self._enclave.meter.register_buffer(
            self._buffer_name(chunk_index), chunk.nbytes
        )
        return chunk

    def _unpack(self, packed: np.ndarray) -> np.ndarray:
        """The ``N x k`` uint8 genotype matrix of ``k`` packed rows.

        C-contiguous, like the matrix that was sealed: the LR kernels'
        floating-point reductions must see the same memory order.
        """
        unpacked = np.unpackbits(packed, axis=1, count=self._store.num_rows)
        return np.ascontiguousarray(unpacked.T)

    @property
    def num_rows(self) -> int:
        return self._store.num_rows

    @property
    def num_cols(self) -> int:
        return self._store.num_cols

    def column(self, index: int) -> np.ndarray:
        """One column as a uint8 vector."""
        chunk_index = self._store.chunk_of_column(index)
        chunk = self._load_chunk(chunk_index)
        offset = index - chunk_index * self._store.chunk_width
        return np.unpackbits(chunk[offset], count=self._store.num_rows)

    def packed_columns(self, indices: Sequence[int]) -> np.ndarray:
        """Gather several columns as ``len(indices) x ceil(N / 8)`` packed rows.

        Chunks are visited in sorted order so each is unsealed once per
        call even when indices interleave chunk boundaries; the copy out
        of each chunk is a single fancy-index operation.
        """
        index_array = np.asarray(list(indices), dtype=np.int64)
        out = np.empty((index_array.size, self._store.row_bytes), dtype=np.uint8)
        if index_array.size == 0:
            return out
        if index_array.min() < 0 or index_array.max() >= self._store.num_cols:
            raise SealingError("column index out of range")
        chunk_ids = index_array // self._store.chunk_width
        for chunk_index in np.unique(chunk_ids):
            chunk = self._load_chunk(int(chunk_index))
            mask = chunk_ids == chunk_index
            offsets = index_array[mask] - int(chunk_index) * self._store.chunk_width
            out[mask] = chunk[offsets]
        return out

    def columns(self, indices: Sequence[int]) -> np.ndarray:
        """Gather several columns into an ``N x len(indices)`` uint8 matrix."""
        return self._unpack(self.packed_columns(indices))

    def iter_chunks(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Stream (start_column, ``N x width`` chunk) pairs across the store."""
        for chunk_index in range(len(self._store.chunks)):
            start = chunk_index * self._store.chunk_width
            yield start, self._unpack(self._load_chunk(chunk_index))

    def column_sums(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Minor-allele counts per column over ``[start, stop)``.

        Streamed chunk by chunk, so the transient trusted working set is
        one chunk regardless of the range width — this is what keeps a
        shard enclave's leaf computation O(chunk) even for wide shards.
        Each count is the popcount of a packed row (the padding bits are
        zero).  The default range covers the whole store.
        """
        if stop is None:
            stop = self._store.num_cols
        if not 0 <= start <= stop <= self._store.num_cols:
            raise SealingError(
                f"column range [{start}, {stop}) outside "
                f"[0, {self._store.num_cols})"
            )
        sums = np.empty(stop - start, dtype=np.int64)
        if start == stop:
            return sums
        width = self._store.chunk_width
        for chunk_index in range(start // width, (stop - 1) // width + 1):
            chunk = self._load_chunk(chunk_index)
            chunk_start = chunk_index * width
            lo = max(start, chunk_start)
            hi = min(stop, chunk_start + chunk.shape[0])
            sums[lo - start : hi - start] = np.bitwise_count(
                chunk[lo - chunk_start : hi - chunk_start]
            ).sum(axis=1, dtype=np.int64)
        return sums

    def close(self) -> None:
        """Drop all cached chunks and their meter registrations."""
        for chunk_index in list(self._cache):
            self._enclave.meter.release_buffer(self._buffer_name(chunk_index))
        self._cache.clear()

    def __enter__(self) -> "ColumnReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
