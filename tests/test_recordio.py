"""Binary record dumps and CSV slices."""

import numpy as np
import pytest

from parosc.recordio import read_record_bin, write_record_bin, write_slice_csv


class TestBinaryRoundTrip:
    def test_real_single_channel(self, tmp_path):
        x = np.random.default_rng(1).standard_normal(1000)
        path = tmp_path / "rec.bin"
        write_record_bin(path, x, 250e3)
        loaded, rate = read_record_bin(path)
        assert rate == 250e3
        np.testing.assert_array_equal(loaded, x)

    def test_complex_channel(self, tmp_path):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        path = tmp_path / "rec.bin"
        write_record_bin(path, z, 25e3)
        loaded, rate = read_record_bin(path)
        assert np.iscomplexobj(loaded)
        np.testing.assert_array_equal(loaded, z)

    def test_multi_channel(self, tmp_path):
        rng = np.random.default_rng(3)
        chans = rng.standard_normal((3, 200))
        path = tmp_path / "rec.bin"
        write_record_bin(path, chans, 1e3)
        loaded, _ = read_record_bin(path)
        np.testing.assert_array_equal(loaded, chans)

    @pytest.mark.parametrize("shape", [(1000,), (2, 1000)])
    def test_pieces_give_the_whole_file(self, tmp_path, shape):
        samples = np.random.default_rng(4).standard_normal(shape)
        whole = tmp_path / "whole.bin"
        pieces = tmp_path / "pieces.bin"
        write_record_bin(whole, samples, 25e3)
        for i0, i1 in ((0, 300), (300, 301), (301, 1000)):
            write_record_bin(pieces, samples[..., i0:i1], 25e3, offset=i0, length=1000)
        assert pieces.read_bytes() == whole.read_bytes()

    def test_channel_sequence_gives_the_stacked_file(self, tmp_path):
        rng = np.random.default_rng(5)
        ch_x, ch_y = rng.standard_normal(700), rng.standard_normal(700)
        stacked = tmp_path / "stacked.bin"
        sequence = tmp_path / "sequence.bin"
        write_record_bin(stacked, np.vstack([ch_x, ch_y]), 25e3)
        write_record_bin(sequence, (ch_x, ch_y), 25e3)
        assert sequence.read_bytes() == stacked.read_bytes()
        with pytest.raises(ValueError, match="equal lengths"):
            write_record_bin(tmp_path / "rec.bin", (ch_x, ch_y[:-1]), 25e3)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "rec.bin"
        write_record_bin(path, np.zeros(100) + 1j, 1e3)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_record_bin(path)

    def test_piece_past_the_end_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="overruns"):
            write_record_bin(tmp_path / "rec.bin", np.zeros(10), 1e3, offset=995, length=1000)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValueError, match="magic"):
            read_record_bin(path)


class TestCsvSlice:
    def test_header_and_values(self, tmp_path):
        x = np.arange(10, dtype=float)
        path = tmp_path / "slice.csv"
        write_slice_csv(path, x, 10.0, start=2, stop=5)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,value"
        assert lines[1].startswith("0.2,")
        assert len(lines) == 4

    def test_complex_slice_columns(self, tmp_path):
        z = np.array([1 + 2j, 3 + 4j])
        path = tmp_path / "slice.csv"
        write_slice_csv(path, z, 1.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,re,im"
        assert lines[1] == "0,1,2"
