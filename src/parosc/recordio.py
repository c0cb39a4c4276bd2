"""Raw record persistence: little-endian binary dumps of real channels.

A record is one real 1-D channel or a tuple of equal-length ones.  Neither
direction holds more than the record itself: a channel is written in blocks
of _WRITE_BLOCK samples, each straight from its memory when the channel is
contiguous native little-endian float64 and converted otherwise (a strided
view such as the real part of a complex array, another dtype), and a record
is read straight into the one array it is returned in.  A two-channel
record of the real and imaginary parts of a complex signal can be rotated
in place, one block at a time (rotate_record_bin).
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"PORC"
VERSION = 1
KIND_REAL = 0

_HEADER = struct.Struct("<4sIdQII")
_WRITE_BLOCK = 1 << 16


def _as_channels(samples) -> list[np.ndarray]:
    """The channels of a record: a real 1-D array is one channel, a
    sequence of real 1-D arrays one channel each."""
    if not isinstance(samples, (list, tuple)):
        samples = (samples,)
    channels = [np.asarray(ch) for ch in samples]
    if not channels or any(ch.ndim != 1 or np.iscomplexobj(ch) for ch in channels):
        raise ValueError("samples must be a real 1-D array or a sequence of them")
    if len({len(ch) for ch in channels}) != 1:
        raise ValueError("channels must have equal lengths")
    return channels


def write_record_bin(
    path, samples, sample_rate: float, offset: int = 0, length: int | None = None
) -> None:
    """Self-describing binary dump: magic, version, sample rate, length,
    channel count, kind flag (always KIND_REAL), then the channels as
    little-endian float64.

    `samples` is a real 1-D array or a sequence of equal-length ones.  A
    record too long to hold at once is written in consecutive pieces of
    `length` samples in all: the piece at offset 0 creates the file and its
    header, each later piece (same channel count) fills its place in every
    channel."""
    channels = _as_channels(samples)
    length = len(channels[0]) if length is None else length
    if offset + len(channels[0]) > length:
        raise ValueError(f"piece at {offset} overruns the {length}-sample record")
    with open(path, "wb" if offset == 0 else "r+b") as fh:
        if offset == 0:
            fh.write(_HEADER.pack(MAGIC, VERSION, float(sample_rate), length, len(channels), KIND_REAL))
        for k, ch in enumerate(channels):
            fh.seek(_HEADER.size + 8 * (k * length + offset))
            for i0 in range(0, len(ch), _WRITE_BLOCK):
                # no copy for a contiguous native little-endian float64 block
                fh.write(memoryview(np.ascontiguousarray(ch[i0 : i0 + _WRITE_BLOCK], dtype="<f8")))


def _read_header(fh) -> tuple[float, int, int]:
    """(sample rate, length, channel count) from the header of an open
    record file, once the header is checked and the file is known to hold
    every sample it announces."""
    header = fh.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ValueError("record file is truncated")
    magic, version, rate, length, n_ch, kind = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"unsupported version {version}")
    if kind != KIND_REAL:
        raise ValueError(f"unsupported record kind {kind}")
    if os.fstat(fh.fileno()).st_size < _HEADER.size + 8 * n_ch * length:
        raise ValueError("record file is truncated")
    return rate, length, n_ch


def rotate_record_bin(path, phase: float) -> None:
    """Multiply the complex record z = channel 0 + i*channel 1 of a
    two-channel file by exp(i*phase) in place, _WRITE_BLOCK samples at a
    time; each sample gets the arithmetic of one z *= exp(1j*phase) over
    the whole record."""
    factor = np.exp(1j * phase)
    with open(path, "r+b") as fh:
        _, length, n_ch = _read_header(fh)
        if n_ch != 2:
            raise ValueError(f"need a two-channel real record, got {n_ch} channels")
        z = np.empty(min(length, _WRITE_BLOCK), dtype=complex)
        for i0 in range(0, length, _WRITE_BLOCK):
            block = z[: min(_WRITE_BLOCK, length - i0)]
            for k, part in enumerate((block.real, block.imag)):
                fh.seek(_HEADER.size + 8 * (k * length + i0))
                part[:] = np.frombuffer(fh.read(8 * len(block)), dtype="<f8")
            block *= factor
            for k, part in enumerate((block.real, block.imag)):
                fh.seek(_HEADER.size + 8 * (k * length + i0))
                fh.write(memoryview(np.ascontiguousarray(part, dtype="<f8")))


def read_record_bin(path) -> tuple[np.ndarray, float]:
    """The record and its sample rate: a 1-D array for one channel, else an
    array with one row per channel."""
    with open(path, "rb") as fh:
        rate, length, n_ch = _read_header(fh)
        record = np.empty((n_ch, length), dtype="<f8")
        fh.readinto(memoryview(record))
    return (record[0] if n_ch == 1 else record), rate
