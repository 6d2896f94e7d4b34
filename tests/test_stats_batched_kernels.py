"""Batched numpy kernels vs their scalar loop references.

The shard pipeline leans on vectorised statistics (window pair lists,
pair-moment slabs, chi-squared rankings, LR matrices).  Each kernel
ships a ``*_scalar`` loop oracle that evaluates the same primitives in
the same operation order, so equality here is *exact* — element-wise
identical over randomised genotype matrices, not approximate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats import chisq, ld, lr_test

SEEDS = (0, 1, 7)


def _random_genotypes(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    frequencies = rng.uniform(0.02, 0.6, size=cols)
    return (rng.random((rows, cols)) < frequencies).astype(np.int8)


def _packed(genotypes: np.ndarray) -> np.ndarray:
    """Columns of an ``N x K`` 0/1 matrix as the kernel's packed rows."""
    return np.packbits(genotypes.T, axis=1)


class TestWindowPairs:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("window", [1, 3, 25])
    def test_matches_scalar_on_random_walks(self, seed, window):
        rng = np.random.default_rng(seed)
        snps = sorted(rng.choice(500, size=60, replace=False).tolist())
        fast = ld.window_pairs(snps, window)
        slow = ld.window_pairs_scalar(snps, window)
        assert fast.dtype == np.int64
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("snps", [[], [5], [5, 9]])
    def test_degenerate_walks(self, snps):
        fast = ld.window_pairs(snps, 25)
        slow = ld.window_pairs_scalar(snps, 25)
        assert np.array_equal(fast, slow)
        assert fast.shape == (max(0, len(snps) - 1), 2)

    def test_window_larger_than_walk(self):
        snps = [3, 1, 4, 1, 5][:4]
        fast = ld.window_pairs(snps, 100)
        slow = ld.window_pairs_scalar(snps, 100)
        assert np.array_equal(fast, slow)
        assert fast.shape[0] == 6  # all C(4, 2) pairs

    def test_rejects_bad_window(self):
        from repro.errors import GenomicsError

        with pytest.raises(GenomicsError):
            ld.window_pairs([1, 2, 3], 0)


class TestPairMomentsKernel:
    """The kernel returns the joint count ``mu_lr`` only: the oracle's
    third column.  The other sums are column allele counts."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_on_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        gathered = _random_genotypes(rng, rows=120, cols=18)
        inverse = rng.integers(0, 18, size=(200, 2))
        fast = ld.pair_moments_kernel(_packed(gathered), inverse)
        slow = ld.pair_moments_scalar(gathered, inverse)
        assert fast.dtype == np.int64
        assert fast.shape == (200,)
        assert np.array_equal(fast, slow[:, 2])

    @pytest.mark.parametrize("rows", [1, 7, 9, 13, 63, 65])
    @pytest.mark.parametrize("num_pairs", [0, 1, 40])
    def test_partial_last_byte(self, rows, num_pairs):
        """N % 8 != 0: the zero padding bits never count."""
        rng = np.random.default_rng(rows * 100 + num_pairs)
        gathered = _random_genotypes(rng, rows=rows, cols=9)
        gathered[:, 0] = 1  # every bit of the column set, padding excluded
        inverse = rng.integers(0, 9, size=(num_pairs, 2))
        inverse[: num_pairs // 2, 0] = 0  # half the pairs touch column 0
        fast = ld.pair_moments_kernel(_packed(gathered), inverse)
        slow = ld.pair_moments_scalar(gathered, inverse)
        assert fast.shape == (num_pairs,)
        assert np.array_equal(fast, slow[:, 2])

    def test_batching_does_not_change_results(self):
        rng = np.random.default_rng(13)
        gathered = _random_genotypes(rng, rows=80, cols=10)
        inverse = rng.integers(0, 10, size=(37, 2))
        whole = ld.pair_moments_kernel(_packed(gathered), inverse, batch=4096)
        tiny = ld.pair_moments_kernel(_packed(gathered), inverse, batch=3)
        assert np.array_equal(whole, tiny)

    def test_binary_square_sums_repeat_linear(self):
        """A column's joint count with itself is its allele count."""
        rng = np.random.default_rng(3)
        gathered = _random_genotypes(rng, rows=50, cols=6)
        diagonal = np.repeat(np.arange(6)[:, None], 2, axis=1)
        out = ld.pair_moments_kernel(_packed(gathered), diagonal)
        assert np.array_equal(out, gathered.sum(axis=0, dtype=np.int64))

    def test_empty_pair_list(self):
        gathered = _packed(np.zeros((10, 4), dtype=np.int8))
        out = ld.pair_moments_kernel(gathered, np.empty((0, 2), dtype=np.int64))
        assert out.shape == (0,)
        assert out.dtype == np.int64

    def test_moments_feed_identical_r_squared(self):
        """Joint counts plus column sums give the direct correlation."""
        rng = np.random.default_rng(11)
        gathered = _random_genotypes(rng, rows=150, cols=8)
        inverse = np.asarray([(0, 1), (2, 5), (3, 3)], dtype=np.int64)
        joint = ld.pair_moments_kernel(_packed(gathered), inverse)
        counts = gathered.sum(axis=0, dtype=np.int64).tolist()
        for (left, right), mu_lr in zip(inverse.tolist(), joint.tolist()):
            mu_l, mu_r = counts[left], counts[right]
            moments = ld.PairMoments(
                mu_l, mu_r, mu_lr, mu_l, mu_r, count=gathered.shape[0]
            )
            direct = ld.r_squared_direct(gathered[:, left], gathered[:, right])
            assert ld.r_squared(moments) == pytest.approx(direct, abs=1e-12)


class TestRankPvalues:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_on_random_counts(self, seed):
        rng = np.random.default_rng(seed)
        n_case, n_control = 180, 140
        case = rng.integers(0, n_case + 1, size=64)
        control = rng.integers(0, n_control + 1, size=64)
        fast = chisq.rank_pvalues(case, control, n_case, n_control)
        slow = chisq.rank_pvalues_scalar(case, control, n_case, n_control)
        assert np.array_equal(fast, slow)

    def test_degenerate_margins(self):
        """Fixed alleles (all zero / all carriers) rank as p = 1 exactly."""
        n_case, n_control = 30, 20
        case = np.array([0, n_case, 0, 17])
        control = np.array([0, n_control, n_control, 11])
        fast = chisq.rank_pvalues(case, control, n_case, n_control)
        slow = chisq.rank_pvalues_scalar(case, control, n_case, n_control)
        assert np.array_equal(fast, slow)
        assert fast[0] == 1.0 and fast[1] == 1.0


class TestLrMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_on_random_cohorts(self, seed):
        rng = np.random.default_rng(seed)
        genotypes = _random_genotypes(rng, rows=90, cols=40)
        case_freq = rng.uniform(0.0, 1.0, size=40)
        ref_freq = rng.uniform(0.0, 1.0, size=40)
        fast = lr_test.lr_matrix(genotypes, case_freq, ref_freq)
        slow = lr_test.lr_matrix_scalar(genotypes, case_freq, ref_freq)
        assert np.array_equal(fast, slow)

    def test_extreme_frequencies_clipped_identically(self):
        genotypes = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.int8)
        case_freq = np.array([0.0, 1.0])
        ref_freq = np.array([1.0, 0.0])
        fast = lr_test.lr_matrix(genotypes, case_freq, ref_freq)
        slow = lr_test.lr_matrix_scalar(genotypes, case_freq, ref_freq)
        assert np.array_equal(fast, slow)
        assert np.isfinite(fast).all()
