import struct

import numpy as np
import pytest

from helpers import chunk_length, last_block_bad_bin_events, repeated_event_events
from homspec import detector, zhf
from homspec.cli import main
from homspec.detector import DetectionParams, FrameBatch, simulate_frames
from homspec.errors import DataFormatError
from homspec.interference import coincidence_probability_cosine, port_spectra
from homspec.mapio import read_map_csv
from homspec.spectra import WavelengthGrid, gaussian_jsa
from homspec.vapor import DispersionModel, doppler_lifetime
from homspec.zhf import read_frames, write_frames

GRID = WavelengthGrid.from_edges(790e-9, 803e-9, 64)
# With _BLOCK = 4 the reader's buffer holds max(4, 2*n_bins + 1) records.
GRID4 = WavelengthGrid.from_edges(790e-9, 803e-9, 4)  # 9 records
GRID2 = WavelengthGrid.from_edges(790e-9, 803e-9, 2)  # 5 records
JSA = gaussian_jsa(796.7e-9, 10e-9, -0.9, GRID)


def write_by_hand(path, n_frames, grid, frames, regions, bins):
    """Write a ZHF1 file without homspec.zhf, so it may hold invalid events."""
    header = struct.pack(
        "<4sH" + "ddH" * 2 + "QQ", b"ZHF1", 1,
        *(grid.start, grid.step, grid.n_bins) * 2,  # both grid descriptors
        n_frames, len(frames),
    )
    records = np.empty(len(frames), dtype=[("frame", "<u4"), ("region", "u1"), ("bin", "<u2")])
    records["frame"], records["region"], records["bin"] = frames, regions, bins
    path.write_bytes(header + records.tobytes())


def sample_batch(n_frames=20_000, seed=3):
    pc = coincidence_probability_cosine(JSA, DispersionModel(od=2.6e3, tau=doppler_lifetime(447.15)))
    params = DetectionParams(chi=4.5455e-4, eta=0.25, f_rep=80e6, t_exp=11e-6, seed=seed)
    return simulate_frames(pc, port_spectra(JSA), params, n_frames)


def test_round_trip(tmp_path):
    batch = sample_batch()
    path = tmp_path / "frames.zhf"
    write_frames([batch], path)
    loaded = read_frames(path)
    assert loaded.n_frames == batch.n_frames
    assert loaded.grid == batch.grid
    assert np.array_equal(loaded.frames, batch.frames)
    assert np.array_equal(loaded.regions, batch.regions)
    assert np.array_equal(loaded.bins, batch.bins)


def test_chunks_write_the_batch_bytes(tmp_path, monkeypatch):
    # A run's chunks, streamed, give the file of the joined batch.  The file
    # is opened once the first chunk is drawn and stays unreadable until the
    # last chunk is in.
    pc = coincidence_probability_cosine(JSA, DispersionModel(od=2.6e3, tau=doppler_lifetime(447.15)))
    params = DetectionParams(chi=4.5455e-4, eta=0.25, f_rep=80e6, t_exp=11e-6, dark_rate=0.3,
                             seed=4)

    def run(n_frames):
        return detector.simulate_chunks(pc, port_spectra(JSA), params, n_frames)

    n_frames = 2 * chunk_length(monkeypatch, lambda: run(0)) + 9
    streamed, joined = tmp_path / "streamed.zhf", tmp_path / "joined.zhf"
    seen = []

    def chunks():
        for chunk in run(n_frames):
            if seen:
                with pytest.raises(DataFormatError):
                    read_frames(streamed)
            else:
                assert not streamed.exists()
            seen.append(chunk.n_events)
            yield chunk

    assert write_frames(chunks(), streamed) == sum(seen)
    assert write_frames([detector.join(run(n_frames))], joined) == sum(seen)
    assert len(seen) == 3 and min(seen) > 0
    assert streamed.read_bytes() == joined.read_bytes()


def test_chunks_out_of_order_rejected(tmp_path):
    batch = sample_batch(n_frames=200)
    path = tmp_path / "frames.zhf"
    with pytest.raises(ValueError, match="does not follow"):
        write_frames([batch, batch], path)
    assert not path.exists()


FIRST = FrameBatch(4, GRID4, [0], [0], [1])
NOT_IN_ORDER = "a block does not follow the previous one in order"
OTHER_HEADER = "a block's frame count or grids differ from the first block's"


@pytest.mark.parametrize("consumer", ["write_frames", "EventCounts", "join"])
@pytest.mark.parametrize("blocks, message", [
    # Joined, the split frame is one valid batch, with one pair.
    ([FIRST, FrameBatch(4, GRID4, [0], [1], [2])], NOT_IN_ORDER),
    ([FIRST, FrameBatch(5, GRID4, [1], [0], [0])], OTHER_HEADER),
    # Both ports read a block's one grid: a later block on a finer grid, as
    # seen from the plus port, and on a coarser one, from the minus port.
    ([FIRST, FrameBatch(4, GRID, [1], [0], [0])], OTHER_HEADER),
    ([FIRST, FrameBatch(4, GRID2, [1], [1], [0])], OTHER_HEADER),
    ([], "an event stream needs at least one block"),
], ids=["split-frame", "n-frames", "plus-grid", "minus-grid", "empty"])
def test_bad_stream_rejected(tmp_path, consumer, blocks, message):
    # Every consumer of an event stream reads it through detector.stream, so
    # each refuses a stream that splits a frame, changes the header or is
    # empty with the same one-line error, and the writer leaves no file.
    path = tmp_path / "frames.zhf"
    read = {"write_frames": lambda run: write_frames(run, path),
            "EventCounts": detector.EventCounts, "join": detector.join}[consumer]
    with pytest.raises(ValueError) as info:
        read(iter(blocks))
    assert str(info.value) == message
    assert not path.exists()


def test_write_is_deterministic(tmp_path):
    batch = sample_batch()
    p1, p2 = tmp_path / "a.zhf", tmp_path / "b.zhf"
    write_frames([batch], p1)
    write_frames([batch], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    batch = sample_batch(n_frames=10)
    path = tmp_path / "frames.zhf"
    write_frames([batch], path)
    raw = path.read_bytes()
    assert raw[:4] == b"ZHF1"
    assert int.from_bytes(raw[4:6], "little") == 1
    n_events = int.from_bytes(raw[50:58], "little")
    assert len(raw) == 58 + 7 * n_events


def test_empty_batch_file(tmp_path):
    batch = FrameBatch(
        n_frames=0,
        grid=GRID,
        frames=np.zeros(0, np.uint32),
        regions=np.zeros(0, np.uint8),
        bins=np.zeros(0, np.uint16),
    )
    path = tmp_path / "empty.zhf"
    write_frames([batch], path)
    loaded = read_frames(path)
    assert loaded.n_frames == 0
    assert loaded.n_events == 0


def test_bad_magic(tmp_path):
    batch = sample_batch(n_frames=10)
    path = tmp_path / "frames.zhf"
    write_frames([batch], path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError, match="magic"):
        read_frames(path)


def test_bad_version(tmp_path):
    batch = sample_batch(n_frames=10)
    path = tmp_path / "frames.zhf"
    write_frames([batch], path)
    data = bytearray(path.read_bytes())
    data[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError, match="version"):
        read_frames(path)


def test_truncated_file(tmp_path):
    batch = sample_batch(n_frames=200)
    path = tmp_path / "frames.zhf"
    write_frames([batch], path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 3])
    with pytest.raises(DataFormatError, match="bytes"):
        read_frames(path)
    path.write_bytes(data[:20])
    with pytest.raises(DataFormatError):
        read_frames(path)


def test_out_of_range_event_rejected(tmp_path):
    batch = FrameBatch(
        n_frames=5,
        grid=GRID,
        frames=np.array([1], np.uint32),
        regions=np.array([0], np.uint8),
        bins=np.array([2], np.uint16),
    )
    path = tmp_path / "frames.zhf"
    write_frames([batch], path)
    data = bytearray(path.read_bytes())
    # bin index lives in the last two record bytes
    data[-2:] = (9999).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError, match="out of range"):
        read_frames(path)



def test_out_of_order_events_rejected(tmp_path):
    batch = FrameBatch(
        n_frames=5,
        grid=GRID,
        frames=np.array([1, 3], np.uint32),
        regions=np.array([0, 0], np.uint8),
        bins=np.array([2, 2], np.uint16),
    )
    path = tmp_path / "frames.zhf"
    write_frames([batch], path)
    data = bytearray(path.read_bytes())
    # frame index of the second record, set below the first record's
    data[58 + 7 : 58 + 11] = (0).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError, match="order"):
        read_frames(path)


@pytest.mark.parametrize("n_events", [0, 1, 4, 5, 9, 10])
def test_round_trip_in_blocks(tmp_path, monkeypatch, n_events):
    # The writer writes blocks of 4 records and the reader, on a 4-bin grid,
    # fills a buffer of 9: no block, a partial one, exactly one and
    # one more event for each.  Bytes match a file written by hand, and read
    # back and written again they do not change.
    monkeypatch.setattr(zhf, "_BLOCK", 4)
    index = np.arange(n_events)
    fields = (
        (index // 2).astype(np.uint32), (index % 2).astype(np.uint8), (index % 4).astype(np.uint16)
    )
    expected = tmp_path / "by_hand.zhf"
    write_by_hand(expected, n_events // 2 + 1, GRID4, *fields)
    path = tmp_path / "frames.zhf"
    write_frames([FrameBatch(n_events // 2 + 1, GRID4, *fields)], path)
    assert path.read_bytes() == expected.read_bytes()
    loaded = read_frames(path)
    for got, want in zip((loaded.frames, loaded.regions, loaded.bins), fields):
        assert np.array_equal(got, want)
    again = tmp_path / "again.zhf"
    write_frames([loaded], again)
    assert again.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("events, match, n_good", [
    (repeated_event_events(), "order", 1),
    (last_block_bad_bin_events(), "out of range", 2),
], ids=["repeat-in-a-block", "bin-in-the-last-block"])
def test_invalid_events_in_blocks_exit_3(tmp_path, monkeypatch, capsys, events, match, n_good):
    # On a 2-bin grid the blocks are cut from a buffer of 5 records.  A
    # repeated event inside the second block and a bin past the grid in the
    # file's third and last block surface part-way through the stream,
    # after the good blocks before them.  They are one-line data errors that
    # name the file, and `homspec estimate` exits 3 on them.
    monkeypatch.setattr(zhf, "_BLOCK", 4)
    path = tmp_path / "bad.zhf"
    write_by_hand(path, 9, GRID2, *events)
    blocks = []
    with pytest.raises(DataFormatError, match=match) as info:
        for block in zhf.read_blocks(path):
            blocks.append(block)
    assert len(blocks) == n_good
    assert str(path) in str(info.value) and "\n" not in str(info.value)
    assert main(["estimate", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and match in err and err.count("\n") == 1
    # The error stops the run before any map is written.
    assert not any((tmp_path / f"{name}.csv").exists()
                   for name in ("raw", "accidental", "covariance"))


def events_with_a_large_frame():
    """Frame 0 of one plus event, frame 1 filling all 4 bins of both ports, frames 2 and 3 a pair each.

    Frame 1's 8 events are twice _BLOCK = 4, but fit the buffer of 9 records.
    """
    frames = np.repeat(np.uint32([0, 1, 2, 3]), [1, 8, 2, 2])
    regions = np.uint8([0] + [0] * 4 + [1] * 4 + [0, 1] * 2)
    bins = np.uint16([3, 0, 1, 2, 3, 0, 1, 2, 3, 2, 0, 1, 3])
    return frames, regions, bins


def test_blocks_cut_at_frame_ends(tmp_path, monkeypatch):
    # Cut from a buffer of 9 records, the blocks split no frame, not even
    # the frame of 8 events, and they join to the file's events: the block
    # of one record is a copy, not a view the next read overwrites.
    monkeypatch.setattr(zhf, "_BLOCK", 4)
    fields = events_with_a_large_frame()
    path = tmp_path / "frames.zhf"
    write_by_hand(path, 5, GRID4, *fields)
    blocks = list(zhf.read_blocks(path))
    assert [block.n_events for block in blocks] == [1, 8, 4]
    assert all(a.frames[-1] < b.frames[0] for a, b in zip(blocks, blocks[1:]))
    joined = detector.join(blocks)
    for got, want in zip((joined.frames, joined.regions, joined.bins), fields):
        assert np.array_equal(got, want)


def test_frame_filling_the_buffer_rejected(tmp_path, monkeypatch):
    # A 2-bin grid leaves room for 4 events a frame, 2 a port; a frame of 6
    # fills the buffer of 5 records, which is handed on whole and rejected.
    monkeypatch.setattr(zhf, "_BLOCK", 4)
    path = tmp_path / "bad.zhf"
    write_by_hand(path, 2, GRID2, np.uint32([0] * 6 + [1]), np.uint8([0, 0, 1, 1, 1, 1, 0]),
                  np.uint16([0, 1, 0, 1, 0, 1, 0]))
    with pytest.raises(DataFormatError, match="order"):
        read_frames(path)


def test_reader_rejects_what_the_whole_file_check_rejects(tmp_path, monkeypatch):
    # Read a block at a time with no check across blocks, 400 random files
    # of up to 12 events, most of them invalid, fail exactly when the whole
    # file fails FrameBatch's check, and the others read back unchanged.
    monkeypatch.setattr(zhf, "_BLOCK", 4)
    rng = np.random.default_rng(11)
    path = tmp_path / "random.zhf"
    failed = 0
    for _ in range(400):
        n = int(rng.integers(0, 13))
        fields = (rng.integers(0, 4, n).astype(np.uint32), rng.integers(0, 2, n).astype(np.uint8),
                  rng.integers(0, 2, n).astype(np.uint16))
        if rng.random() < 0.5:  # a sorted file, so that valid ones are common
            order = np.lexsort(fields[::-1])
            fields = tuple(f[order] for f in fields)
        write_by_hand(path, 4, GRID2, *fields)
        try:
            FrameBatch(4, GRID2, *fields)
        except ValueError:
            failed += 1
            with pytest.raises(DataFormatError):
                read_frames(path)
            continue
        loaded = read_frames(path)
        for got, want in zip((loaded.frames, loaded.regions, loaded.bins), fields):
            assert np.array_equal(got, want)
    assert 100 < failed < 300


@pytest.mark.parametrize("n_events", [0, 1, 4, 5, 9, 10, "large frame"])
def test_estimate_exact_at_block_cuts(tmp_path, monkeypatch, capsys, n_events):
    # `homspec estimate` counts the file a block at a time, the blocks cut
    # from a buffer of 9 records (a 4-bin grid): with no block, partial
    # ones, exactly one buffer, one event more and a frame of twice _BLOCK
    # = 4 events, the maps equal the dense references P^T M / n_frames and
    # outer(means), with P and M the frames x bins occupancies of the ports,
    # and it prints the exact event and pair counts.
    monkeypatch.setattr(zhf, "_BLOCK", 4)
    if n_events == "large frame":
        fields = events_with_a_large_frame()
    else:
        index = np.arange(n_events)
        fields = ((index // 2).astype(np.uint32), (index % 2).astype(np.uint8),
                  (index * 7 % 4).astype(np.uint16))
    n_frames = int(fields[0].max(initial=0)) + 2
    path = tmp_path / "frames.zhf"
    write_by_hand(path, n_frames, GRID4, *fields)
    assert main(["estimate", str(path), "--out", str(tmp_path)]) == 0

    occ = np.zeros((2, n_frames, GRID4.n_bins))
    occ[fields[1], fields[0], fields[2]] = 1.0
    raw = occ[0].T @ occ[1] / n_frames
    accidental = np.outer(*occ.sum(axis=1) / n_frames)
    for name, want in (("raw", raw), ("accidental", accidental),
                       ("covariance", raw - accidental)):
        assert np.array_equal(read_map_csv(tmp_path / f"{name}.csv")[0], want)
    pairs = int((occ[0].T @ occ[1]).sum())
    assert f"{n_frames} frames, {fields[0].size} events, {pairs} coincidence pairs\n" in (
        capsys.readouterr().out)
