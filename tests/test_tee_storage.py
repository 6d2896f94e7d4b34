"""Sealed column stores and streaming readers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SealingError
from repro.tee.enclave import Enclave, ecall
from repro.tee.sealing import SealedBlob
from repro.tee.storage import (
    ColumnReader,
    SealedColumnStore,
    chunk_width_for,
    packed_row_bytes,
    seal_matrix,
)

_KEY = bytes(range(32))


class DataEnclave(Enclave):
    @ecall
    def noop(self) -> None:
        return None


@pytest.fixture()
def enclave():
    return DataEnclave(_KEY, "storage-test")


def _matrix(rows=37, cols=53, seed=3):
    rng = np.random.Generator(np.random.PCG64(seed))
    return (rng.random((rows, cols)) < 0.3).astype(np.uint8)


#: Packed bytes per column of a default ``_matrix()`` (37 rows).
ROW_BYTES = packed_row_bytes(37)


class TestSealMatrix:
    def test_chunking_dimensions(self, enclave):
        data = _matrix()
        store = seal_matrix(enclave, data, "t", chunk_bytes=ROW_BYTES * 10)
        assert store.num_rows == 37
        assert store.num_cols == 53
        assert store.chunk_width == 10
        assert len(store.chunks) == 6

    def test_chunk_width_for(self):
        assert chunk_width_for(100, 1000) == 76  # 13 packed bytes per column
        assert chunk_width_for(10_000_000, 1000) == 1  # never zero
        with pytest.raises(SealingError):
            chunk_width_for(0)

    def test_only_2d_accepted(self, enclave):
        with pytest.raises(SealingError):
            seal_matrix(enclave, np.zeros(5, dtype=np.uint8), "t")

    def test_store_consistency_validated(self, enclave):
        store = seal_matrix(enclave, _matrix(), "t")
        with pytest.raises(SealingError):
            SealedColumnStore(
                num_rows=store.num_rows,
                num_cols=store.num_cols,
                chunk_width=store.chunk_width,
                chunks=store.chunks[:-1],
                label="t",
            )

    def test_sealed_bytes_exceed_plaintext(self, enclave):
        data = _matrix()
        store = seal_matrix(enclave, data, "t")
        assert store.row_bytes == ROW_BYTES == 5
        assert store.sealed_bytes > 53 * ROW_BYTES  # the packed plaintext

    def test_non_binary_values_rejected(self, enclave):
        data = _matrix()
        data[4, 9] = 2  # packing would silently turn it into a 1
        with pytest.raises(SealingError):
            seal_matrix(enclave, data, "t")


class TestColumnReader:
    def test_single_columns(self, enclave):
        data = _matrix()
        store = seal_matrix(enclave, data, "t", chunk_bytes=ROW_BYTES * 7)
        with ColumnReader(enclave, store) as reader:
            for col in (0, 7, 13, 52):
                assert np.array_equal(reader.column(col), data[:, col])

    def test_gather_columns_in_any_order(self, enclave):
        data = _matrix()
        store = seal_matrix(enclave, data, "t", chunk_bytes=ROW_BYTES * 5)
        indices = [50, 3, 27, 3, 0, 49]
        with ColumnReader(enclave, store) as reader:
            gathered = reader.columns(indices)
        assert np.array_equal(gathered, data[:, indices])

    def test_gather_empty(self, enclave):
        store = seal_matrix(enclave, _matrix(), "t")
        with ColumnReader(enclave, store) as reader:
            assert reader.columns([]).shape == (37, 0)

    def test_column_sums(self, enclave):
        data = _matrix()
        store = seal_matrix(enclave, data, "t", chunk_bytes=ROW_BYTES * 4)
        with ColumnReader(enclave, store) as reader:
            assert np.array_equal(
                reader.column_sums(), data.sum(axis=0, dtype=np.int64)
            )

    def test_out_of_range_column(self, enclave):
        store = seal_matrix(enclave, _matrix(), "t")
        with ColumnReader(enclave, store) as reader:
            with pytest.raises(SealingError):
                reader.column(53)
            with pytest.raises(SealingError):
                reader.columns([0, 99])

    def test_cache_eviction_registers_memory(self, enclave):
        data = _matrix(rows=64, cols=64)
        store = seal_matrix(enclave, data, "evict", chunk_bytes=8 * 4)
        reader = ColumnReader(enclave, store, max_cached_chunks=2)
        baseline = enclave.meter.current_memory_bytes
        for col in range(0, 64, 4):  # touch every chunk
            reader.column(col)
        cached = enclave.meter.current_memory_bytes - baseline
        assert cached <= 2 * 8 * 4  # at most two chunks resident
        reader.close()
        assert enclave.meter.current_memory_bytes == baseline

    def test_reader_rejects_zero_cache(self, enclave):
        store = seal_matrix(enclave, _matrix(), "t")
        with pytest.raises(SealingError):
            ColumnReader(enclave, store, max_cached_chunks=0)

    def test_tampered_chunk_rejected(self, enclave):
        store = seal_matrix(enclave, _matrix(), "t", chunk_bytes=ROW_BYTES * 10)
        raw = bytearray(store.chunks[2].data)
        raw[-1] ^= 1
        tampered = SealedColumnStore(
            num_rows=store.num_rows,
            num_cols=store.num_cols,
            chunk_width=store.chunk_width,
            chunks=store.chunks[:2]
            + (SealedBlob(data=bytes(raw), label=store.chunks[2].label),)
            + store.chunks[3:],
            label=store.label,
        )
        with ColumnReader(enclave, tampered) as reader:
            reader.column(0)  # chunk 0 untouched
            with pytest.raises(SealingError):
                reader.column(25)  # lands in tampered chunk 2

    def test_chunk_swap_rejected(self, enclave):
        """Reordering sealed chunks must fail (index bound as label)."""
        store = seal_matrix(enclave, _matrix(), "t", chunk_bytes=ROW_BYTES * 10)
        swapped = SealedColumnStore(
            num_rows=store.num_rows,
            num_cols=store.num_cols,
            chunk_width=store.chunk_width,
            chunks=(store.chunks[1], store.chunks[0]) + store.chunks[2:],
            label=store.label,
        )
        with ColumnReader(enclave, swapped) as reader:
            with pytest.raises(SealingError):
                reader.column(0)

    def test_wrong_enclave_cannot_read(self, enclave):
        store = seal_matrix(enclave, _matrix(), "t")
        other = DataEnclave(bytes(32), "other-platform")
        with ColumnReader(other, store) as reader:
            with pytest.raises(SealingError):
                reader.column(0)

    @given(
        rows=st.integers(min_value=1, max_value=40),
        cols=st.integers(min_value=1, max_value=60),
        chunk_bytes=st.integers(min_value=1, max_value=120),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, rows, cols, chunk_bytes, data):
        """Every read path reproduces the uint8 matrix, for any N (also
        N % 8 != 0, where the last packed byte carries padding)."""
        enclave = DataEnclave(_KEY, "prop")
        rng = np.random.Generator(np.random.PCG64(rows * 1000 + cols))
        matrix = (rng.random((rows, cols)) < 0.5).astype(np.uint8)
        subset = data.draw(
            st.lists(st.integers(min_value=0, max_value=cols - 1), max_size=12)
        )
        store = seal_matrix(enclave, matrix, "p", chunk_bytes=chunk_bytes)
        with ColumnReader(enclave, store, max_cached_chunks=2) as reader:
            for col in subset:
                assert np.array_equal(reader.column(col), matrix[:, col])
            gathered = reader.columns(subset)
            assert gathered.shape == (rows, len(subset))
            assert np.array_equal(gathered, matrix[:, subset])
            assert np.array_equal(
                reader.packed_columns(subset),
                np.packbits(matrix[:, subset].T, axis=1),
            )
            assert np.array_equal(reader.columns(list(range(cols))), matrix)
            assert np.array_equal(
                reader.column_sums(), matrix.sum(axis=0, dtype=np.int64)
            )
            lo = data.draw(st.integers(min_value=0, max_value=cols))
            hi = data.draw(st.integers(min_value=lo, max_value=cols))
            assert np.array_equal(
                reader.column_sums(lo, hi),
                matrix[:, lo:hi].sum(axis=0, dtype=np.int64),
            )
            chunks = list(reader.iter_chunks())
        assert [start for start, _ in chunks] == list(
            range(0, cols, store.chunk_width)
        )
        assert np.array_equal(np.hstack([chunk for _, chunk in chunks]), matrix)
