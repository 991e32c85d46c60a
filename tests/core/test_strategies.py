"""Tests for the four formation strategies (real forked execution)."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.categories import total_terms
from repro.core.distributed import MPIFormation
from repro.core.strategies import (
    BalancedParallel,
    ParallelStrategy,
    PyMPStrategy,
    SingleThread,
    calibrate_sec_per_term,
    item_costs_seconds,
    make_strategy,
)
from repro.core.partition import partition_balanced
from repro.io.equations_io import load_blocks_binary
from repro.mea.wetlab import quick_device_data
from tests.oracles.formation_reference import (
    reference_formation,
    reference_rank_files,
)


@pytest.fixture(scope="module")
def device8():
    return quick_device_data(8, seed=5)


@pytest.fixture(scope="module")
def baseline8(device8):
    _, z = device8
    return SingleThread().run(z)


class TestSingleThread:
    def test_forms_all_terms(self, baseline8):
        assert baseline8.terms_formed == total_terms(8)
        assert baseline8.num_workers == 1
        assert baseline8.strategy == "single-thread"

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            SingleThread().run(np.ones((3, 4)))

    def test_rejects_tiny_device(self):
        with pytest.raises(ValueError):
            SingleThread().run(np.ones((1, 1)))

    def test_terms_per_second_positive(self, baseline8):
        assert baseline8.terms_per_second() > 0


class TestParallelStrategies:
    """Each strategy must form exactly the same work as the baseline."""

    @pytest.mark.parametrize(
        "strategy",
        [
            ParallelStrategy(),
            BalancedParallel(2),
            BalancedParallel(3),
            PyMPStrategy(2),
            PyMPStrategy(3, schedule="dynamic"),
        ],
        ids=["parallel4", "balanced2", "balanced3", "pymp2", "pymp3dyn"],
    )
    def test_same_terms_and_checksum(self, strategy, device8, baseline8):
        _, z = device8
        rep = strategy.run(z)
        assert rep.terms_formed == baseline8.terms_formed
        assert rep.checksum == pytest.approx(baseline8.checksum)
        assert rep.per_worker_terms.sum() == rep.terms_formed

    def test_parallel_shows_category_skew(self, device8):
        """Workers 2/3 (UA/UB) carry (n-1)x the terms of workers 0/1."""
        _, z = device8
        rep = ParallelStrategy().run(z)
        per = rep.per_worker_terms
        assert per[2] == per[3] == 7 * per[0]
        assert per[0] == per[1]

    def test_balanced_is_balanced(self, device8):
        _, z = device8
        rep = BalancedParallel(4).run(z)
        per = rep.per_worker_terms.astype(float)
        assert per.max() / per.mean() < 1.05

    def test_pymp_static_deterministic(self, device8):
        _, z = device8
        a = PyMPStrategy(3).run(z)
        b = PyMPStrategy(3).run(z)
        np.testing.assert_array_equal(a.per_worker_terms, b.per_worker_terms)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            BalancedParallel(0)

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            PyMPStrategy(2, schedule="guided")


class TestIO:
    def test_part_files_reassemble(self, device8, baseline8, tmp_path):
        _, z = device8
        rep = PyMPStrategy(3).run(z, output_dir=tmp_path)
        assert rep.bytes_written > 0
        assert len(rep.part_files) == 3
        blocks = []
        for f in rep.part_files:
            blocks.extend(load_blocks_binary(f))
        assert sum(b.num_terms for b in blocks) == baseline8.terms_formed
        assert sum(b.checksum() for b in blocks) == pytest.approx(
            baseline8.checksum
        )

    def test_text_format_output(self, device8, tmp_path):
        _, z = device8
        rep = SingleThread().run(z, output_dir=tmp_path, fmt="text")
        assert rep.bytes_written > 0
        content = open(rep.part_files[0]).read()
        assert "SOURCE:" in content and "/R[" in content

    def test_unknown_format(self, device8, tmp_path):
        _, z = device8
        with pytest.raises(ValueError):
            SingleThread().run(z, output_dir=tmp_path, fmt="yaml")


class TestFactoryAndCalibration:
    def test_make_strategy_names(self):
        assert isinstance(make_strategy("single"), SingleThread)
        assert isinstance(make_strategy("parallel"), ParallelStrategy)
        assert isinstance(make_strategy("balanced", 3), BalancedParallel)
        assert isinstance(make_strategy("pymp", 3), PyMPStrategy)
        assert make_strategy("pymp-dynamic", 3).schedule == "dynamic"

    def test_make_strategy_unknown(self):
        with pytest.raises(ValueError):
            make_strategy("gpu")

    def test_calibration_positive(self):
        spt = calibrate_sec_per_term(10)
        assert 0 < spt < 1e-3  # a term costs well under a millisecond

    def test_item_costs(self):
        part = partition_balanced(6, 2)
        costs = item_costs_seconds(part, 1e-7)
        assert costs.shape == (len(part.items),)
        assert costs.sum() == pytest.approx(total_terms(6) * 1e-7)


def _assert_same_output(rep, ref):
    """Equal totals and per-worker terms; byte-identical part files."""
    assert rep.terms_formed == ref.terms_formed
    assert rep.checksum == ref.checksum
    np.testing.assert_array_equal(rep.per_worker_terms, ref.per_worker_terms)
    assert [Path(p).name for p in rep.part_files] == [
        Path(p).name for p in ref.part_files
    ]
    for product, oracle in zip(rep.part_files, ref.part_files):
        assert Path(product).read_bytes() == Path(oracle).read_bytes()


class TestFormationModes:
    """The one formation path against the per-pair oracle, byte for byte."""

    @pytest.mark.parametrize(
        "make",
        [
            SingleThread,
            ParallelStrategy,
            lambda: BalancedParallel(3),
            lambda: PyMPStrategy(3),
        ],
        ids=["single", "parallel4", "balanced3", "pymp3"],
    )
    def test_part_files_byte_identical_to_oracle(self, make, device8, tmp_path):
        _, z = device8
        strategy = make()
        rep = strategy.run(z, output_dir=tmp_path / "product")
        ref = reference_formation(strategy, z, output_dir=tmp_path / "oracle")
        _assert_same_output(rep, ref)

    def test_dynamic_schedule_totals_match(self, device8):
        _, z = device8
        strategy = PyMPStrategy(2, schedule="dynamic")
        rep = strategy.run(z)
        ref = reference_formation(strategy, z)
        assert rep.terms_formed == ref.terms_formed
        assert rep.checksum == ref.checksum

    @pytest.mark.parametrize("size", [1, 3])
    def test_mpi_rank_files_byte_identical_to_oracle(self, size, device8, tmp_path):
        _, z = device8
        rep = MPIFormation(size).run(z, output_dir=tmp_path / "product")
        ref = reference_rank_files(size, z, output_dir=tmp_path / "oracle")
        _assert_same_output(rep, ref)
