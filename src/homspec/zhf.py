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
batch round-trips byte-identically.  The writer also takes a simulation
run's chunks (detector.FrameChunks) and writes each as it arrives, with an
n_events placeholder that read_frames rejects until the end patches it; a
write that fails part-way removes the file.  Records are written and read a
block of events at a time, so neither side holds more than its chunks or
the batch's own fields and one block of records.
"""

import os
import struct

import numpy as np

from . import detector
from .detector import FrameBatch, FrameChunks
from .errors import DataFormatError
from .spectra import WavelengthGrid

MAGIC = b"ZHF1"
VERSION = 1

_HEADER = struct.Struct("<4sH" + "ddH" * 2 + "QQ")
_UNPATCHED = 2**64 - 1  # n_events while records are written: no file size matches it
_RECORD_DTYPE = np.dtype([("frame", "<u4"), ("region", "u1"), ("bin", "<u2")])


def write_frames(batch: FrameBatch | FrameChunks, path) -> int:
    """Write a frame batch, or a run's chunks as they are drawn, as a ZHF1 file.

    Each chunk must follow the previous one in canonical order.  Returns the
    number of events written.
    """
    grids = [v for g in (batch.grid_plus, batch.grid_minus) for v in (g.start, g.step, g.n_bins)]
    n_events, last = 0, -1
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, *grids, batch.n_frames, _UNPATCHED))
            for chunk in [batch] if isinstance(batch, FrameBatch) else batch:
                fields = (chunk.frames, chunk.regions, chunk.bins)
                if chunk.n_events:
                    first, end = detector._event_codes(*(f[[0, -1]] for f in fields)).tolist()
                    if first <= last:
                        raise ValueError("a chunk does not follow the previous one in order")
                    last = end
                for lo in range(0, chunk.n_events, detector._BLOCK):
                    records = np.empty(min(chunk.n_events - lo, detector._BLOCK), _RECORD_DTYPE)
                    for name, field in zip(_RECORD_DTYPE.names, fields):
                        records[name] = field[lo : lo + detector._BLOCK]
                    fh.write(records.data)
                n_events += chunk.n_events
            fh.seek(0)
            fh.write(_HEADER.pack(MAGIC, VERSION, *grids, batch.n_frames, n_events))
    except BaseException:
        os.remove(path)
        raise
    return n_events


def read_frames(path) -> FrameBatch:
    """Read a ZHF1 file, validating magic, version, size and field bounds.

    The body size is checked against the header before any record is read,
    and the records are read into the batch's fields a block at a time.
    """
    size = os.stat(path).st_size
    if size < _HEADER.size:
        raise DataFormatError(f"{path}: truncated header ({size} bytes)")
    with open(path, "rb") as fh:
        magic, version, *grids, n_frames, n_events = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise DataFormatError(f"{path}: unsupported version {version}")
        body = size - _HEADER.size
        expected = n_events * _RECORD_DTYPE.itemsize
        if body != expected:
            raise DataFormatError(f"{path}: event section is {body} bytes, expected {expected}")
        fields = [np.empty(n_events, dtype=_RECORD_DTYPE[name]) for name in _RECORD_DTYPE.names]
        try:
            for lo in range(0, n_events, detector._BLOCK):
                block = slice(lo, lo + detector._BLOCK)
                # A file cut short since the size check fails the assignment.
                records = np.fromfile(fh, dtype=_RECORD_DTYPE, count=fields[0][block].size)
                for field, name in zip(fields, _RECORD_DTYPE.names):
                    field[block] = records[name]
            return FrameBatch(
                int(n_frames), WavelengthGrid(*grids[:3]), WavelengthGrid(*grids[3:]), *fields
            )
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
