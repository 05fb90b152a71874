"""ZHF1 binary event-list files.

Layout (all little-endian):

    offset  size  field
    0       4     magic "ZHF1"
    4       2     format version (u16) = 1
    6       18    plus-grid descriptor: start [m] f64, step [m] f64, n_bins u16
    24      18    minus-grid descriptor, same layout
    42      8     n_frames (u64)
    50      8     n_events (u64)
    58      7*n   event records: frame u32, region u8 (0 plus / 1 minus), bin u16

Events are stored in the batch's canonical order (frame, region, bin), so a
batch round-trips byte-identically.
"""

import struct
from pathlib import Path

import numpy as np

from .detector import FrameBatch
from .errors import DataFormatError
from .spectra import WavelengthGrid

MAGIC = b"ZHF1"
VERSION = 1

_HEADER = struct.Struct("<4sH" + "ddH" * 2 + "QQ")
_RECORD_DTYPE = np.dtype([("frame", "<u4"), ("region", "u1"), ("bin", "<u2")])


def write_frames(batch: FrameBatch, path) -> None:
    """Write a frame batch as a ZHF1 file."""
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        batch.grid_plus.start,
        batch.grid_plus.step,
        batch.grid_plus.n_bins,
        batch.grid_minus.start,
        batch.grid_minus.step,
        batch.grid_minus.n_bins,
        batch.n_frames,
        batch.n_events,
    )
    records = np.empty(batch.n_events, dtype=_RECORD_DTYPE)
    records["frame"] = batch.frames
    records["region"] = batch.regions
    records["bin"] = batch.bins
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records.data)


def read_frames(path) -> FrameBatch:
    """Read a ZHF1 file, validating magic, version and field bounds."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise DataFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    (
        magic,
        version,
        p_start,
        p_step,
        p_bins,
        m_start,
        m_step,
        m_bins,
        n_frames,
        n_events,
    ) = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    body = len(raw) - _HEADER.size
    expected = n_events * _RECORD_DTYPE.itemsize
    if body != expected:
        raise DataFormatError(f"{path}: event section is {body} bytes, expected {expected}")
    records = np.frombuffer(raw, dtype=_RECORD_DTYPE, offset=_HEADER.size)
    try:
        return FrameBatch(
            n_frames=int(n_frames),
            grid_plus=WavelengthGrid(p_start, p_step, p_bins),
            grid_minus=WavelengthGrid(m_start, m_step, m_bins),
            frames=records["frame"].copy(),
            regions=records["region"].copy(),
            bins=records["bin"].copy(),
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc

