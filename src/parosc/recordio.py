"""Raw record persistence: little-endian binary dumps and CSV slices."""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"PORC"
VERSION = 1
KIND_REAL = 0
KIND_COMPLEX = 1

_HEADER = struct.Struct("<4sIdQII")


def _as_channels(samples: np.ndarray) -> tuple[list[np.ndarray], int]:
    samples = np.asarray(samples)
    if samples.ndim == 1:
        if np.iscomplexobj(samples):
            return [samples.real.astype("<f8"), samples.imag.astype("<f8")], KIND_COMPLEX
        return [samples.astype("<f8")], KIND_REAL
    if samples.ndim == 2:
        return [row.astype("<f8") for row in samples], KIND_REAL
    raise ValueError("samples must be 1-D or 2-D")


def write_record_bin(
    path, samples: np.ndarray, sample_rate: float, offset: int = 0, length: int | None = None
) -> None:
    """Self-describing binary dump: magic, version, sample rate, length,
    channel count, kind flag, then channels as little-endian float64.

    A record too long to hold at once is written in consecutive pieces of
    `length` samples in all: the piece at offset 0 creates the file and its
    header, each later piece (same channel layout) fills its place in every
    channel."""
    channels, kind = _as_channels(samples)
    length = len(channels[0]) if length is None else length
    if offset + len(channels[0]) > length:
        raise ValueError(f"piece at {offset} overruns the {length}-sample record")
    with open(path, "wb" if offset == 0 else "r+b") as fh:
        if offset == 0:
            fh.write(_HEADER.pack(MAGIC, VERSION, float(sample_rate), length, len(channels), kind))
        for k, ch in enumerate(channels):
            fh.seek(_HEADER.size + 8 * (k * length + offset))
            fh.write(ch.tobytes())


def read_record_bin(path) -> tuple[np.ndarray, float]:
    with open(path, "rb") as fh:
        magic, version, rate, length, n_ch, kind = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"unsupported version {version}")
        channels = [
            np.frombuffer(fh.read(8 * length), dtype="<f8").copy() for _ in range(n_ch)
        ]
    if kind == KIND_COMPLEX:
        if n_ch != 2:
            raise ValueError("complex record must carry exactly 2 channels")
        return channels[0] + 1j * channels[1], rate
    if n_ch == 1:
        return channels[0], rate
    return np.vstack(channels), rate


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
