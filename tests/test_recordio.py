"""Binary record dumps."""

import numpy as np
import pytest

from parosc.recordio import (
    _HEADER,
    _WRITE_BLOCK,
    MAGIC,
    VERSION,
    read_record_bin,
    rotate_record_bin,
    write_record_bin,
)


class TestBinaryRoundTrip:
    def test_real_single_channel(self, tmp_path):
        x = np.random.default_rng(1).standard_normal(1000)
        path = tmp_path / "rec.bin"
        write_record_bin(path, x, 250e3)
        loaded, rate = read_record_bin(path)
        assert rate == 250e3
        np.testing.assert_array_equal(loaded, x)

    def test_multi_channel(self, tmp_path):
        rng = np.random.default_rng(3)
        chans = tuple(rng.standard_normal((3, 200)))
        path = tmp_path / "rec.bin"
        write_record_bin(path, chans, 1e3)
        loaded, _ = read_record_bin(path)
        np.testing.assert_array_equal(loaded, np.vstack(chans))

    def test_real_and_imaginary_views(self, tmp_path):
        # the lock-in channels are the strided real and imaginary views of
        # one complex array, written over more than one block
        z = np.random.default_rng(6).standard_normal(2 * (_WRITE_BLOCK + 123)).view(complex)
        path = tmp_path / "rec.bin"
        write_record_bin(path, (z.real, z.imag), 1e3)
        loaded, _ = read_record_bin(path)
        assert loaded.tobytes() == np.vstack((z.real, z.imag)).astype("<f8").tobytes()

    @pytest.mark.parametrize("shape", [(1000,), (2, 1000)])
    def test_pieces_give_the_whole_file(self, tmp_path, shape):
        # one channel, or a tuple of two
        rows = np.random.default_rng(4).standard_normal(shape)

        def piece(i0, i1):
            return rows[i0:i1] if rows.ndim == 1 else tuple(rows[:, i0:i1])

        whole = tmp_path / "whole.bin"
        pieces = tmp_path / "pieces.bin"
        write_record_bin(whole, piece(0, 1000), 25e3)
        for i0, i1 in ((0, 300), (300, 301), (301, 1000)):
            write_record_bin(pieces, piece(i0, i1), 25e3, offset=i0, length=1000)
        assert pieces.read_bytes() == whole.read_bytes()

    def test_unequal_channels_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        ch_x, ch_y = rng.standard_normal(700), rng.standard_normal(700)
        with pytest.raises(ValueError, match="equal lengths"):
            write_record_bin(tmp_path / "rec.bin", (ch_x, ch_y[:-1]), 25e3)

    @pytest.mark.parametrize(
        "samples",
        [np.zeros(10) + 1j, np.zeros((2, 10)), (np.zeros(10), np.zeros(10) + 1j)],
        ids=["complex", "2-D", "complex channel"],
    )
    def test_complex_or_2d_input_rejected(self, tmp_path, samples):
        with pytest.raises(ValueError, match="real 1-D"):
            write_record_bin(tmp_path / "rec.bin", samples, 1e3)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "rec.bin"
        write_record_bin(path, np.ones(100), 1e3)
        # short of its last sample, and short of its header
        for data in (path.read_bytes()[:-8], b"PORC\x01"):
            path.write_bytes(data)
            with pytest.raises(ValueError, match="truncated"):
                read_record_bin(path)

    def test_truncated_file_rejected_before_allocating(self, tmp_path, monkeypatch):
        # a header announcing far more samples than the file holds is
        # refused from the file size, before the record array is made
        path = tmp_path / "rec.bin"
        path.write_bytes(_HEADER.pack(MAGIC, VERSION, 1e3, 1 << 40, 2, 0) + bytes(80))

        def no_empty(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(np, "empty", no_empty)
        with pytest.raises(ValueError, match="record file is truncated"):
            read_record_bin(path)

    def test_piece_past_the_end_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="overruns"):
            write_record_bin(tmp_path / "rec.bin", np.zeros(10), 1e3, offset=995, length=1000)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValueError, match="magic"):
            read_record_bin(path)

    def test_other_kind_rejected(self, tmp_path):
        # kind 1 was the complex layout: two channels, real then imaginary
        path = tmp_path / "complex.bin"
        path.write_bytes(_HEADER.pack(MAGIC, VERSION, 1e3, 4, 2, 1) + bytes(8 * 8))
        with pytest.raises(ValueError, match="unsupported record kind 1"):
            read_record_bin(path)


class TestRotate:
    def test_rotation_in_place_equals_one_whole_rotation(self, tmp_path):
        # a complex record written as (Re, Im) in pieces, then rotated in the
        # file block by block: the bytes of rotating the whole array at once
        rng = np.random.default_rng(5)
        n = 2 * _WRITE_BLOCK + 12_345
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        path = tmp_path / "channels.bin"
        for i0 in range(0, n, 40_000):
            piece = z[i0 : i0 + 40_000]
            write_record_bin(path, (piece.real, piece.imag), 1e3, offset=i0, length=n)
        rotate_record_bin(path, 0.9)
        z *= np.exp(1j * 0.9)
        expected = tmp_path / "expected.bin"
        write_record_bin(expected, (z.real, z.imag), 1e3)
        assert path.read_bytes() == expected.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        # a two-channel, 10-sample record cut to 15 samples
        path = tmp_path / "channels.bin"
        write_record_bin(path, (np.ones(10), np.zeros(10)), 1e3)
        path.write_bytes(path.read_bytes()[: _HEADER.size + 8 * 15])
        with pytest.raises(ValueError, match="record file is truncated"):
            rotate_record_bin(path, 0.3)

    def test_one_channel_rejected(self, tmp_path):
        path = tmp_path / "rec.bin"
        write_record_bin(path, np.zeros(10), 1e3)
        with pytest.raises(ValueError, match="two-channel"):
            rotate_record_bin(path, 0.3)
