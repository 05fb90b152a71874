"""ZHF1 binary event-list files.

Layout (all little-endian):

    offset  size  field
    0       4     magic "ZHF1"
    4       2     format version (u16) = 1
    6       18    plus-grid descriptor: start [m] f64, step [m] f64, n_bins u16
    24      18    minus-grid descriptor, same layout and the same grid
    42      8     n_frames (u64)
    50      8     n_events (u64)
    58      7*n   event records: frame u32, region u8 (0 plus / 1 minus), bin u16

Both ports bin on one grid: the writer puts it into both descriptors, and
the reader refuses a file whose two descriptors differ.  Events are stored
in canonical order (frame, region, bin), so a batch round-trips
byte-identically.  Both sides pass an event stream, which detector.stream
checks.  The writer writes each block whole as it arrives, with an n_events
placeholder that the reader rejects until the end patches it; a write that
fails part-way removes the file.  read_blocks reads in fixed pieces and
hands on checked blocks; read_frames joins them.
"""

import os
import struct

import numpy as np

from . import detector
from .detector import FrameBatch
from .errors import DataFormatError
from .spectra import WavelengthGrid

MAGIC = b"ZHF1"
VERSION = 1

_HEADER = struct.Struct("<4sH" + "ddH" * 2 + "QQ")
_UNPATCHED = 2**64 - 1  # n_events while records are written: no file size matches it
_RECORD_DTYPE = np.dtype([("frame", "<u4"), ("region", "u1"), ("bin", "<u2")])
_BLOCK = 1 << 16  # the reader's buffer holds at least this many records, and more than a frame


def write_frames(batches, path) -> int:
    """Write an event stream as a ZHF1 file, a block at a time; returns the events written.

    detector.stream draws the first block, which gives the header, before the file is opened.
    """
    (n_frames, grid), blocks = detector.stream(batches)
    descriptors = (grid.start, grid.step, grid.n_bins) * 2  # the plus grid's, then the minus grid's
    n_events = 0
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, *descriptors, n_frames, _UNPATCHED))
            for block in blocks:
                fields = (block.frames, block.regions, block.bins)
                fh.write(np.rec.fromarrays(fields, dtype=_RECORD_DTYPE).data)
                n_events += block.n_events
            fh.seek(0)
            fh.write(_HEADER.pack(MAGIC, VERSION, *descriptors, n_frames, n_events))
    except BaseException:
        os.remove(path)
        raise
    return n_events


def read_blocks(path):
    """Read a ZHF1 file as FrameBatch blocks of whole frames, in order.

    Magic, version and size are checked before any record is read.  Records
    are read into one buffer of max(_BLOCK, 2*n_bins + 1) records;
    the last frame read is read again with the next block.  A legal frame
    holds at most one event a pixel, so it never fills the buffer: a buffer
    of one frame is handed on whole, and FrameBatch rejects it.  Each block
    is checked as a FrameBatch; the cut puts any disorder inside a block.  A
    file of no events is one empty block.
    """
    size = os.stat(path).st_size
    if size < _HEADER.size:
        raise DataFormatError(f"{path}: truncated header ({size} bytes)")
    with open(path, "rb") as fh:
        magic, version, *descriptors, n_frames, n_events = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise DataFormatError(f"{path}: unsupported version {version}")
        body = size - _HEADER.size
        expected = n_events * _RECORD_DTYPE.itemsize
        if body != expected:
            raise DataFormatError(f"{path}: event section is {body} bytes, expected {expected}")
        try:
            grid = WavelengthGrid(*descriptors[:3])
            if WavelengthGrid(*descriptors[3:]) != grid:
                raise ValueError("the plus and minus grid descriptors differ")
            records = np.empty(max(_BLOCK, 2 * grid.n_bins + 1), _RECORD_DTYPE)
            left = n_events
            while True:
                n = min(left, records.size)
                if fh.readinto(records[:n]) != n * records.itemsize:
                    raise ValueError("file cut short while reading")
                # Read the last frame again with the next block, unless it fills the buffer.
                frames = records["frame"][:n]
                cut = n if n == left else int(np.searchsorted(frames, frames[-1])) or n
                fh.seek((cut - n) * records.itemsize, os.SEEK_CUR)
                left -= cut
                # Copies: the next readinto overwrites the buffer.
                fields = (records[name][:cut].copy() for name in _RECORD_DTYPE.names)
                yield FrameBatch(n_frames, grid, *fields)
                if not left:
                    return
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc


def read_frames(path) -> FrameBatch:
    """Read a whole ZHF1 file as one batch: its blocks, joined."""
    return detector.join(read_blocks(path))
