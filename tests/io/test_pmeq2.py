"""The PMEQ2 equation-file format: layout, refusals, sizes on disk."""

import io
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.categories import Category
from repro.core.distributed import MPIFormation
from repro.core.equations import ALL_CATEGORIES, form_pair_block
from repro.core.streaming import BinaryFileSink, stream_formation, stream_to_file
from repro.core.strategies import PyMPStrategy, SingleThread
from repro.core.templates import form_all_pairs, get_template
from repro.io.equations_io import (
    RECORD,
    EquationHeader,
    EquationWriter,
    load_blocks_binary,
    read_blocks_binary,
    read_header,
    save_blocks_binary,
    write_block_binary,
)
from repro.mea.wetlab import quick_device_data
from repro.parallel.elastic import run_elastic_formation
from repro.parallel.pymp import fork_available
from repro.resilience.checkpoint import stream_to_file_checkpointed
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.supervise import Supervisor
from tests.oracles.formation_reference import (
    assert_blocks_equal,
    assert_parts_match,
    reference_formation,
)

#: Byte offsets of the header fields after the magic and its padding.
_N, _TEMPLATES, _VOLTAGE, _RECORDS = 8, 12, 16, 24


@pytest.fixture(scope="module")
def device6():
    return quick_device_data(6, seed=23)


def _file_bytes(blocks) -> bytes:
    buf = io.BytesIO()
    write_block_binary(blocks, buf)
    return buf.getvalue()


def _patched(data: bytes, offset: int, fmt: str, value) -> bytes:
    out = bytearray(data)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


def _with_crc(data: bytes, header: EquationHeader) -> bytes:
    """``data`` with its prefix CRC recomputed (so only sizes are wrong)."""
    end = len(header.encode()) - 4
    return data[:end] + struct.pack("<I", zlib.crc32(data[:end])) + data[end + 4:]


def _sizes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


class TestLayout:
    def test_one_template_then_24_bytes_per_pair(self, device6):
        _, z = device6
        blocks = [form_pair_block(6, r, c, z[r, c]) for r in range(6) for c in range(6)]
        data = _file_bytes(blocks)
        header = read_header(io.BytesIO(data))
        assert header.n == 6 and header.num_records == 36
        assert [t.categories for t in header.templates] == [ALL_CATEGORIES]
        assert RECORD.itemsize == 24
        assert len(data) == len(header.encode()) + 36 * 24

    def test_share_written_from_arrays_equals_per_block_write(self, device6):
        _, z = device6
        rows = np.array([0, 5, 2, 2])
        cols = np.array([1, 5, 0, 3])
        batch = form_all_pairs(6, rows, cols, z[rows, cols])
        header = EquationHeader(6, 5.0, (batch.template,), len(rows))
        buf = io.BytesIO()
        nbytes = EquationWriter(buf, header).write(batch)
        assert nbytes == len(buf.getvalue())
        assert buf.getvalue() == _file_bytes(list(batch))

    def test_records_past_the_header_count_refused(self, device6):
        _, z = device6
        header = EquationHeader(6, 5.0, (get_template(6),), 1)
        out = EquationWriter(io.BytesIO(), header)
        out.write(form_pair_block(6, 0, 0, z[0, 0]))
        with pytest.raises(ValueError, match="past the header"):
            out.write(form_pair_block(6, 0, 1, z[0, 1]))


class TestWriterRefusesLossyBlocks:
    def test_block_that_is_not_its_stamp(self, device6):
        _, z = device6
        block = form_pair_block(6, 1, 2, z[1, 2])
        mangled = FaultInjector(FaultPlan(corrupt_blocks=(0,))).mangle_block(block, 0)
        buf = io.BytesIO()
        with pytest.raises(ValueError, match="lossily"):
            write_block_binary(mangled, buf)
        assert buf.getvalue() == b""

    def test_edited_resistor_index(self, device6):
        _, z = device6
        block = form_pair_block(6, 3, 4, z[3, 4])
        block.r_col[7] = (block.r_col[7] + 1) % 6
        with pytest.raises(ValueError, match="r_col differs"):
            write_block_binary(block, io.BytesIO())

    def test_undeclared_template(self, device6):
        _, z = device6
        header = EquationHeader(6, 5.0, (get_template(6, (Category.UA,)),), 1)
        block = form_pair_block(6, 0, 0, z[0, 0], categories=[Category.UB])
        with pytest.raises(ValueError, match="not declared"):
            EquationWriter(io.BytesIO(), header).write(block)

    def test_voltage_differs_from_header(self, device6):
        _, z = device6
        header = EquationHeader(6, 5.0, (get_template(6),), 1)
        with pytest.raises(ValueError, match="voltage"):
            EquationWriter(io.BytesIO(), header).write(
                form_pair_block(6, 0, 0, z[0, 0], voltage=3.0)
            )

    def test_stream_sink_refuses_corrupted_block(self, device6, tmp_path):
        _, z = device6
        with open(tmp_path / "s.bin", "wb") as fh, pytest.raises(
            ValueError, match="lossily"
        ):
            stream_formation(
                z, BinaryFileSink(fh=fh), faults=FaultPlan(corrupt_blocks=(4,))
            )


class TestLengthFieldsChecked:
    """Corrupt counts raise ValueError instead of being allocated."""

    @pytest.mark.parametrize(
        "offset,fmt,value",
        [
            (_N, "<i", 2**30),
            (_TEMPLATES, "<i", 2**31 - 1),
            (_RECORDS, "<q", 2**40),
        ],
        ids=["n", "templates", "records"],
    )
    def test_huge_count_in_header(self, device6, tmp_path, offset, fmt, value):
        _, z = device6
        path = tmp_path / "eq.bin"
        save_blocks_binary([form_pair_block(6, 0, 0, z[0, 0])], path)
        data = _patched(path.read_bytes(), offset, fmt, value)
        path.write_bytes(data)
        with pytest.raises(ValueError, match="corrupt"):
            load_blocks_binary(path)

    def test_record_count_checked_even_with_a_good_crc(self, device6):
        _, z = device6
        data = _file_bytes([form_pair_block(6, 0, 0, z[0, 0])])
        header = read_header(io.BytesIO(data))
        data = _with_crc(_patched(data, _RECORDS, "<q", 2**40), header)
        with pytest.raises(ValueError, match="records"):
            list(read_blocks_binary(io.BytesIO(data)))

    def test_stored_z_corruption_fails_the_record_check(self, device6):
        _, z = device6
        data = bytearray(_file_bytes([form_pair_block(6, 2, 3, z[2, 3])]))
        (stored,) = struct.unpack_from("<d", data, len(data) - 8)
        struct.pack_into("<d", data, len(data) - 8, stored * 1000)
        with pytest.raises(ValueError, match="checksum mismatch"):
            list(read_blocks_binary(io.BytesIO(bytes(data))))


_ORDERED = st.sets(st.sampled_from(list(Category)), min_size=1).map(
    lambda cats: [c for c in ALL_CATEGORIES if c in cats]
)


@st.composite
def _files(draw):
    n = draw(st.integers(2, 12))
    cats = draw(_ORDERED)
    voltage = draw(st.floats(0.1, 20.0, allow_nan=False))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(1.0, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    blocks = [
        form_pair_block(n, r, c, z, voltage=voltage, categories=cats)
        for r, c, z in pairs
    ]
    return blocks, _file_bytes(blocks)


class TestRoundTripProperties:
    @given(_files())
    @settings(max_examples=60, deadline=None)
    def test_blocks_read_back_equal_the_reference_former(self, drawn):
        blocks, data = drawn
        back = list(read_blocks_binary(io.BytesIO(data)))
        assert len(back) == len(blocks)
        for got, want in zip(back, blocks):
            assert_blocks_equal(got, want)

    @given(_files(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_truncation_raises_value_error(self, drawn, data):
        _, raw = drawn
        cut = data.draw(st.integers(1, len(raw) - 1))
        with pytest.raises(ValueError):
            list(read_blocks_binary(io.BytesIO(raw[:cut])))

    @given(_files(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_bit_flip_raises_value_error(self, drawn, data):
        _, raw = drawn
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(ValueError):
            list(read_blocks_binary(io.BytesIO(bytes(flipped))))


class TestBytesWrittenEqualBytesOnDisk:
    def test_single_thread(self, device6, tmp_path):
        _, z = device6
        rep = SingleThread().run(z, output_dir=tmp_path)
        assert rep.bytes_written == _sizes(rep.part_files) > 0

    @pytest.mark.skipif(not fork_available(), reason="requires os.fork")
    def test_pymp(self, device6, tmp_path):
        _, z = device6
        rep = PyMPStrategy(3).run(z, output_dir=tmp_path)
        assert rep.bytes_written == _sizes(rep.part_files) > 0

    @pytest.mark.skipif(not fork_available(), reason="requires os.fork")
    def test_pymp_salvage_after_a_killed_worker(self, device6, tmp_path):
        _, z = device6
        strategy = PyMPStrategy(3)
        rep = strategy.run(
            z,
            output_dir=tmp_path / "product",
            faults=FaultPlan(kill_workers=(1,)),
            supervise=Supervisor(),
        )
        assert rep.blocks_reformed > 0
        assert rep.bytes_written == _sizes(rep.part_files)
        ref = reference_formation(strategy, z, output_dir=tmp_path / "oracle")
        assert_parts_match(rep.part_files, ref)

    @pytest.mark.skipif(not fork_available(), reason="requires os.fork")
    def test_mpi_rank_files(self, device6, tmp_path):
        _, z = device6
        rep = MPIFormation(2).run(z, output_dir=tmp_path)
        assert rep.bytes_written == _sizes(rep.part_files) > 0

    @pytest.mark.skipif(not fork_available(), reason="requires os.fork")
    def test_elastic_chunks(self, device6, tmp_path):
        _, z = device6
        rep = run_elastic_formation(
            z, workers=2, chunk_items=24, output_dir=tmp_path
        )
        assert rep.bytes_written == _sizes(
            tmp_path / name for name in rep.part_files
        ) > 0

    def test_binary_file_sink(self, device6, tmp_path):
        _, z = device6
        _, nbytes = stream_to_file(z, tmp_path / "s.bin")
        assert nbytes == (tmp_path / "s.bin").stat().st_size > 0

    def test_stream_checkpoint(self, device6, tmp_path):
        _, z = device6
        cp, _, _ = stream_to_file_checkpointed(z, tmp_path)
        with open(cp.data_path, "rb") as fh:
            read_header(fh)
            first = fh.tell()
        blocks = cp.blocks
        assert blocks[0]["offset"] == first
        assert all(b["nbytes"] == RECORD.itemsize for b in blocks)
        assert blocks[-1]["offset"] + RECORD.itemsize == cp.data_path.stat().st_size

    @pytest.mark.skipif(not fork_available(), reason="requires os.fork")
    def test_a_paper_timepoint_writes_under_100_kb(self, tmp_path):
        _, z = quick_device_data(20, seed=3)
        rep = PyMPStrategy(2).run(z, output_dir=tmp_path)
        assert rep.bytes_written == _sizes(rep.part_files)
        assert rep.bytes_written <= 100_000
