"""Raw record persistence: little-endian binary dumps and CSV slices.

Neither direction holds more than the record itself: a channel already in
native little-endian float64 is written straight from its memory, any other
channel is converted one channel at a time, and a record is read straight
into the one array it is returned in (a complex record through a buffer of
_IO_BLOCK samples).
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"PORC"
VERSION = 1
KIND_REAL = 0
KIND_COMPLEX = 1

_HEADER = struct.Struct("<4sIdQII")
_IO_BLOCK = 1 << 16


def _as_channels(samples) -> tuple[list[np.ndarray], int]:
    """The channels of a record, as views: a 1-D array is one channel (two,
    real and imaginary, when complex), a 2-D array or a sequence of 1-D
    arrays one channel per row."""
    if isinstance(samples, (list, tuple)) and samples and np.ndim(samples[0]) == 1:
        channels = [np.asarray(ch) for ch in samples]
        if len({len(ch) for ch in channels}) != 1:
            raise ValueError("channels must have equal lengths")
        return channels, KIND_REAL
    samples = np.asarray(samples)
    if samples.ndim == 1:
        if np.iscomplexobj(samples):
            return [samples.real, samples.imag], KIND_COMPLEX
        return [samples], KIND_REAL
    if samples.ndim == 2:
        return list(samples), KIND_REAL
    raise ValueError("samples must be 1-D or 2-D, or a sequence of 1-D channels")


def write_record_bin(
    path, samples, sample_rate: float, offset: int = 0, length: int | None = None
) -> None:
    """Self-describing binary dump: magic, version, sample rate, length,
    channel count, kind flag, then channels as little-endian float64.

    `samples` is a 1-D (real or complex) or 2-D array, or a sequence of
    equal-length 1-D channels.  A record too long to hold at once is
    written in consecutive pieces of `length` samples in all: the piece at
    offset 0 creates the file and its header, each later piece (same
    channel layout) fills its place in every channel."""
    channels, kind = _as_channels(samples)
    length = len(channels[0]) if length is None else length
    if offset + len(channels[0]) > length:
        raise ValueError(f"piece at {offset} overruns the {length}-sample record")
    with open(path, "wb" if offset == 0 else "r+b") as fh:
        if offset == 0:
            fh.write(_HEADER.pack(MAGIC, VERSION, float(sample_rate), length, len(channels), kind))
        for k, ch in enumerate(channels):
            fh.seek(_HEADER.size + 8 * (k * length + offset))
            # no copy for a contiguous native little-endian float64 channel
            fh.write(memoryview(np.ascontiguousarray(ch, dtype="<f8")))


def _read_exact(fh, target: np.ndarray) -> None:
    if fh.readinto(memoryview(target)) != target.nbytes:
        raise ValueError("record file is truncated")


def _read_into(fh, dest: np.ndarray) -> None:
    """Fill a channel from the file: straight into its memory when it is a
    contiguous "<f8" row, else (a part of a complex array) through a buffer
    of _IO_BLOCK samples."""
    if dest.flags.c_contiguous:
        _read_exact(fh, dest)
        return
    buf = np.empty(_IO_BLOCK, dtype="<f8")
    for i0 in range(0, len(dest), _IO_BLOCK):
        part = dest[i0 : i0 + _IO_BLOCK]
        _read_exact(fh, buf[: len(part)])
        part[:] = buf[: len(part)]


def read_record_bin(path) -> tuple[np.ndarray, float]:
    with open(path, "rb") as fh:
        magic, version, rate, length, n_ch, kind = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"unsupported version {version}")
        if kind == KIND_COMPLEX:
            if n_ch != 2:
                raise ValueError("complex record must carry exactly 2 channels")
            record = np.empty(length, dtype=complex)
            channels = (record.real, record.imag)
        else:
            record = np.empty((n_ch, length), dtype="<f8")
            channels = record
        for ch in channels:
            _read_into(fh, ch)
    if kind != KIND_COMPLEX and n_ch == 1:
        return record[0], rate
    return record, rate


def write_slice_csv(path, samples: np.ndarray, sample_rate: float, start: int = 0, stop: int | None = None) -> None:
    """CSV export for a small record slice: time_s plus one column per channel."""
    channels, kind = _as_channels(samples)
    stop = len(channels[0]) if stop is None else stop
    if kind == KIND_COMPLEX:
        labels = ["re", "im"]
    else:
        labels = [f"ch{i}" for i in range(len(channels))] if len(channels) > 1 else ["value"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time_s," + ",".join(labels) + "\n")
        for i in range(start, stop):
            row = ",".join(f"{ch[i]:.12g}" for ch in channels)
            fh.write(f"{i / sample_rate:.12g},{row}\n")
