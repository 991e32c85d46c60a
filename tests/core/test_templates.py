"""Template-cached formation must be bit-identical to the reference."""

import numpy as np
import pytest

from repro.core.categories import Category
from repro.core.equations import (
    ALL_CATEGORIES,
    form_pair_block,
    iter_pair_blocks,
)
from repro.core.templates import (
    cache_stats,
    clear_template_cache,
    form_all_pairs,
    form_worker_share,
    get_template,
    iter_pair_blocks_cached,
    warm_template_cache,
)
from repro.core.partition import partition_betti
from repro.mea.wetlab import quick_device_data

SIZES = (2, 3, 5, 8)

CATEGORY_SUBSETS = (
    tuple(ALL_CATEGORIES),
    (Category.SOURCE,),
    (Category.DEST,),
    (Category.UA,),
    (Category.UB,),
    (Category.SOURCE, Category.UB),
)


def assert_blocks_identical(fast, ref):
    """Bit-for-bit equality: values, dtypes and scalar metadata."""
    assert fast.n == ref.n
    assert fast.row == ref.row and fast.col == ref.col
    assert fast.z == ref.z and fast.voltage == ref.voltage
    for name in ("eq_id", "sign", "r_row", "r_col", "v_plus", "v_minus",
                 "rhs", "category"):
        a, b = getattr(fast, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def sample_pairs(n, count=12, seed=0):
    rng = np.random.default_rng(seed + n)
    pairs = rng.integers(0, n, size=(count, 2))
    z = rng.uniform(200.0, 2000.0, size=count)
    return pairs[:, 0], pairs[:, 1], z


class TestStampBitIdentity:
    @pytest.mark.parametrize("n", SIZES)
    def test_full_block(self, n):
        rows, cols, zs = sample_pairs(n)
        for row, col, z in zip(rows, cols, zs):
            fast = get_template(n, ALL_CATEGORIES).stamp(
                int(row), int(col), float(z)
            )
            ref = form_pair_block(n, int(row), int(col), float(z))
            assert_blocks_identical(fast, ref)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("cats", CATEGORY_SUBSETS)
    def test_category_restricted(self, n, cats):
        rows, cols, zs = sample_pairs(n, count=6)
        for row, col, z in zip(rows, cols, zs):
            fast = get_template(n, cats).stamp(
                int(row), int(col), float(z), voltage=3.3
            )
            ref = form_pair_block(
                n, int(row), int(col), float(z), voltage=3.3, categories=cats
            )
            assert_blocks_identical(fast, ref)

    def test_checksum_matches_reference(self):
        fast = get_template(6, ALL_CATEGORIES).stamp(2, 4, 731.0)
        ref = form_pair_block(6, 2, 4, 731.0)
        assert fast.checksum() == ref.checksum()

    def test_rejects_out_of_range_pair(self):
        with pytest.raises(IndexError):
            get_template(4, ALL_CATEGORIES).stamp(4, 0, 500.0)

    def test_rejects_nonpositive_z(self):
        with pytest.raises(ValueError):
            get_template(4, ALL_CATEGORIES).stamp(1, 1, 0.0)


class TestBatchedFormation:
    @pytest.mark.parametrize("n", SIZES)
    def test_batch_blocks_bit_identical(self, n):
        rows, cols, zs = sample_pairs(n, count=10, seed=7)
        batch = form_all_pairs(n, rows, cols, zs, voltage=4.0)
        assert batch.num_pairs == len(rows)
        for p in range(batch.num_pairs):
            ref = form_pair_block(
                n, int(rows[p]), int(cols[p]), float(zs[p]), voltage=4.0
            )
            assert_blocks_identical(batch.block(p), ref)

    @pytest.mark.parametrize("cats", CATEGORY_SUBSETS)
    def test_category_restricted_batches(self, cats):
        n = 5
        rows, cols, zs = sample_pairs(n, count=8, seed=11)
        batch = form_all_pairs(n, rows, cols, zs, categories=cats)
        for p in range(batch.num_pairs):
            ref = form_pair_block(
                n, int(rows[p]), int(cols[p]), float(zs[p]), categories=cats
            )
            assert_blocks_identical(batch.block(p), ref)

    @pytest.mark.parametrize("n", SIZES)
    def test_checksums_exactly_equal_reference(self, n):
        rows, cols, zs = sample_pairs(n, count=10, seed=3)
        batch = form_all_pairs(n, rows, cols, zs)
        ref = np.array(
            [
                form_pair_block(n, int(r), int(c), float(z)).checksum()
                for r, c, z in zip(rows, cols, zs)
            ]
        )
        # Bit-exact, not approximately equal: every partial sum is an
        # integer below 2^53.
        assert np.array_equal(batch.checksums(), ref)

    def test_iteration_yields_blocks_in_order(self):
        n = 4
        rows, cols, zs = sample_pairs(n, count=5, seed=2)
        batch = form_all_pairs(n, rows, cols, zs)
        seen = [(b.row, b.col) for b in batch]
        assert seen == list(zip(rows.tolist(), cols.tolist()))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            form_all_pairs(4, np.array([0, 1]), np.array([0]), np.array([1.0]))


class TestCachedIterator:
    @pytest.mark.parametrize("n", (2, 5, 9))
    def test_matches_reference_stream(self, n):
        _, z = quick_device_data(n, seed=21)
        fast = list(iter_pair_blocks_cached(z, voltage=5.0))
        ref = list(iter_pair_blocks(z, voltage=5.0))
        assert len(fast) == len(ref) == n * n
        for f, r in zip(fast, ref):
            assert_blocks_identical(f, r)


class TestWorkerShare:
    @pytest.mark.parametrize("workers", (1, 3))
    def test_share_matches_per_item_loop(self, workers):
        n = 6
        _, z = quick_device_data(n, seed=9)
        part = partition_betti(n, workers)
        for w in range(workers):
            mine = np.flatnonzero(part.worker_of == w)
            share = form_worker_share(n, part.items, mine, z)
            assert len(share) == len(mine)
            terms = 0
            checksum = 0.0
            for idx, block in zip(mine, share, strict=True):
                item = part.items[idx]
                ref = form_pair_block(
                    n,
                    item.row,
                    item.col,
                    z[item.row, item.col],
                    categories=[item.category],
                )
                assert_blocks_identical(block, ref)
                terms += ref.num_terms
                checksum += ref.checksum()
            assert share.terms == terms
            assert share.checksum == checksum


class TestCacheBookkeeping:
    def test_hits_misses_and_residency(self):
        clear_template_cache()
        get_template(5)
        stats = cache_stats()
        assert (stats.entries, stats.misses, stats.hits) == (1, 1, 0)
        assert stats.bytes_resident > 0
        assert stats.build_seconds > 0
        get_template(5)
        stats = cache_stats()
        assert (stats.entries, stats.misses, stats.hits) == (1, 1, 1)
        get_template(5, (Category.UA,))
        assert cache_stats().entries == 2
        clear_template_cache()
        stats = cache_stats()
        assert (stats.entries, stats.bytes_resident) == (0, 0)

    def test_warm_prebuilds_without_double_counting(self):
        clear_template_cache()
        warm_template_cache(4, [(Category.SOURCE,), (Category.DEST,)])
        stats = cache_stats()
        assert stats.entries == 2
        assert stats.misses == 2

    def test_templates_are_read_only(self):
        tpl = get_template(3)
        with pytest.raises(ValueError):
            tpl.lookup[0, 0] = 99

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValueError):
            get_template(4, (Category.UA, Category.UA))
