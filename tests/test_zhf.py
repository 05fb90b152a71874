import struct

import numpy as np
import pytest

from helpers import last_block_bad_bin_events, seam_repeat_events
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
GRID_HALF = WavelengthGrid.from_edges(790e-9, 803e-9, 32)
JSA = gaussian_jsa(796.7e-9, 10e-9, -0.9, GRID)


def write_by_hand(path, n_frames, grid_plus, grid_minus, frames, regions, bins):
    """Write a ZHF1 file without homspec.zhf, so it may hold invalid events."""
    header = struct.pack(
        "<4sH" + "ddH" * 2 + "QQ", b"ZHF1", 1,
        grid_plus.start, grid_plus.step, grid_plus.n_bins,
        grid_minus.start, grid_minus.step, grid_minus.n_bins,
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
    write_frames(batch, path)
    loaded = read_frames(path)
    assert loaded.n_frames == batch.n_frames
    assert loaded.grid_plus == batch.grid_plus
    assert loaded.grid_minus == batch.grid_minus
    assert np.array_equal(loaded.frames, batch.frames)
    assert np.array_equal(loaded.regions, batch.regions)
    assert np.array_equal(loaded.bins, batch.bins)


class Chunks:
    """Stands in for detector.FrameChunks: a header and the given chunks."""

    grid_plus = grid_minus = GRID

    def __init__(self, n_frames, chunks):
        self.n_frames, self.chunks = n_frames, chunks

    def __iter__(self):
        return iter(self.chunks)


def test_chunks_write_the_batch_bytes(tmp_path):
    # A run's chunks, streamed, give the file of the joined batch, and the
    # file stays unreadable until the last chunk is in.
    pc = coincidence_probability_cosine(JSA, DispersionModel(od=2.6e3, tau=doppler_lifetime(447.15)))
    params = DetectionParams(chi=4.5455e-4, eta=0.25, f_rep=80e6, t_exp=11e-6, dark_rate=0.3,
                             seed=4)
    chunk = detector.simulate_chunks(pc, port_spectra(JSA), params, 0).chunk_frames
    run = detector.simulate_chunks(pc, port_spectra(JSA), params, 2 * chunk + 9)
    streamed, joined = tmp_path / "streamed.zhf", tmp_path / "joined.zhf"
    seen = []

    def chunks():
        for chunk in run:
            with pytest.raises(DataFormatError):
                read_frames(streamed)
            seen.append(chunk.n_events)
            yield chunk

    assert write_frames(Chunks(run.n_frames, chunks()), streamed) == sum(seen)
    assert write_frames(detector.join(run), joined) == sum(seen)
    assert len(seen) == 3 and min(seen) > 0
    assert streamed.read_bytes() == joined.read_bytes()


def test_chunks_out_of_order_rejected(tmp_path):
    batch = sample_batch(n_frames=200)
    path = tmp_path / "frames.zhf"
    with pytest.raises(ValueError, match="does not follow"):
        write_frames(Chunks(batch.n_frames, [batch, batch]), path)
    assert not path.exists()


def test_write_is_deterministic(tmp_path):
    batch = sample_batch()
    p1, p2 = tmp_path / "a.zhf", tmp_path / "b.zhf"
    write_frames(batch, p1)
    write_frames(batch, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    batch = sample_batch(n_frames=10)
    path = tmp_path / "frames.zhf"
    write_frames(batch, path)
    raw = path.read_bytes()
    assert raw[:4] == b"ZHF1"
    assert int.from_bytes(raw[4:6], "little") == 1
    n_events = int.from_bytes(raw[50:58], "little")
    assert len(raw) == 58 + 7 * n_events


def test_empty_batch_file(tmp_path):
    batch = FrameBatch(
        n_frames=0,
        grid_plus=GRID,
        grid_minus=GRID,
        frames=np.zeros(0, np.uint32),
        regions=np.zeros(0, np.uint8),
        bins=np.zeros(0, np.uint16),
    )
    path = tmp_path / "empty.zhf"
    write_frames(batch, path)
    loaded = read_frames(path)
    assert loaded.n_frames == 0
    assert loaded.n_events == 0


def test_bad_magic(tmp_path):
    batch = sample_batch(n_frames=10)
    path = tmp_path / "frames.zhf"
    write_frames(batch, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError, match="magic"):
        read_frames(path)


def test_bad_version(tmp_path):
    batch = sample_batch(n_frames=10)
    path = tmp_path / "frames.zhf"
    write_frames(batch, path)
    data = bytearray(path.read_bytes())
    data[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError, match="version"):
        read_frames(path)


def test_truncated_file(tmp_path):
    batch = sample_batch(n_frames=200)
    path = tmp_path / "frames.zhf"
    write_frames(batch, path)
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
        grid_plus=GRID,
        grid_minus=GRID,
        frames=np.array([1], np.uint32),
        regions=np.array([0], np.uint8),
        bins=np.array([2], np.uint16),
    )
    path = tmp_path / "frames.zhf"
    write_frames(batch, path)
    data = bytearray(path.read_bytes())
    # bin index lives in the last two record bytes
    data[-2:] = (9999).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError, match="out of range"):
        read_frames(path)



def test_out_of_order_events_rejected(tmp_path):
    batch = FrameBatch(
        n_frames=5,
        grid_plus=GRID,
        grid_minus=GRID,
        frames=np.array([1, 3], np.uint32),
        regions=np.array([0, 0], np.uint8),
        bins=np.array([2, 2], np.uint16),
    )
    path = tmp_path / "frames.zhf"
    write_frames(batch, path)
    data = bytearray(path.read_bytes())
    # frame index of the second record, set below the first record's
    data[58 + 7 : 58 + 11] = (0).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError, match="order"):
        read_frames(path)


@pytest.mark.parametrize("n_events", [0, 1, 4, 5])
def test_round_trip_in_blocks(tmp_path, monkeypatch, n_events):
    # With blocks of 4 events: no block, a partial one, exactly one and one
    # more event.  Bytes match a file written by hand, and read back and
    # written again they do not change.
    monkeypatch.setattr(zhf, "_BLOCK", 4)
    index = np.arange(n_events)
    fields = (
        (index // 2).astype(np.uint32), (index % 2).astype(np.uint8), (index % 64).astype(np.uint16)
    )
    expected = tmp_path / "by_hand.zhf"
    write_by_hand(expected, n_events // 2 + 1, GRID, GRID, *fields)
    path = tmp_path / "frames.zhf"
    write_frames(FrameBatch(n_events // 2 + 1, GRID, GRID, *fields), path)
    assert path.read_bytes() == expected.read_bytes()
    loaded = read_frames(path)
    for got, want in zip((loaded.frames, loaded.regions, loaded.bins), fields):
        assert np.array_equal(got, want)
    again = tmp_path / "again.zhf"
    write_frames(loaded, again)
    assert again.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("grid_minus, events, match", [
    (GRID, seam_repeat_events(), "order"),
    (GRID_HALF, last_block_bad_bin_events(), "out of range"),
], ids=["order-on-a-seam", "bin-in-the-last-block"])
def test_invalid_events_in_blocks_exit_3(tmp_path, monkeypatch, capsys, grid_minus, events, match):
    # Read in blocks of 4 events, a repeat on a block seam and a minus bin
    # past the smaller grid in the last block are one-line data errors that
    # name the file, and `homspec estimate` exits 3 on them.
    monkeypatch.setattr(zhf, "_BLOCK", 4)
    path = tmp_path / "bad.zhf"
    write_by_hand(path, 9, GRID, grid_minus, *events)
    with pytest.raises(DataFormatError, match=match) as info:
        read_frames(path)
    assert str(path) in str(info.value) and "\n" not in str(info.value)
    assert main(["estimate", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and match in err and err.count("\n") == 1
    # The error surfaces part-way through the stream, before any map is written.
    assert not any((tmp_path / f"{name}.csv").exists()
                   for name in ("raw", "accidental", "covariance"))


def events_with_a_large_frame():
    """Frames 0, 2 and 3 of one (plus, minus) pair each; frame 1 of 6 plus and 5 minus events."""
    frames = np.repeat(np.uint32([0, 1, 2, 3]), [2, 11, 2, 2])
    regions = np.uint8([0, 1] + [0] * 6 + [1] * 5 + [0, 1] * 2)
    bins = np.uint16([3, 7, 1, 2, 5, 8, 9, 60, 0, 2, 7, 8, 63, 4, 4, 63, 0])
    return frames, regions, bins


def test_blocks_cut_at_frame_ends(tmp_path, monkeypatch):
    # Read in blocks of 4 events, no frame is split between blocks, not even
    # the frame of 11 events, and the blocks join to the file's events.
    monkeypatch.setattr(zhf, "_BLOCK", 4)
    fields = events_with_a_large_frame()
    path = tmp_path / "frames.zhf"
    write_by_hand(path, 5, GRID, GRID, *fields)
    blocks = list(zhf.read_blocks(path))
    assert len(blocks) > 1
    assert all(a.frames[-1] < b.frames[0] for a, b in zip(blocks, blocks[1:]))
    joined = detector.join(blocks)
    for got, want in zip((joined.frames, joined.regions, joined.bins), fields):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n_events", [0, 1, 4, 5, "large frame"])
def test_estimate_exact_at_block_cuts(tmp_path, monkeypatch, capsys, n_events):
    # `homspec estimate` counts the file a block of 4 events at a time: with
    # no block, a partial one, exactly one, one event more and a frame larger
    # than a block, the maps equal the dense references P^T M / n_frames and
    # outer(means), with P and M the frames x bins occupancies of the ports,
    # and it prints the exact event and pair counts.
    monkeypatch.setattr(zhf, "_BLOCK", 4)
    if n_events == "large frame":
        fields = events_with_a_large_frame()
    else:
        index = np.arange(n_events)
        fields = ((index // 2).astype(np.uint32), (index % 2).astype(np.uint8),
                  (index * 7 % 64).astype(np.uint16))
    n_frames = int(fields[0].max(initial=0)) + 2
    path = tmp_path / "frames.zhf"
    write_by_hand(path, n_frames, GRID, GRID, *fields)
    assert main(["estimate", str(path), "--out", str(tmp_path)]) == 0

    occ = np.zeros((2, n_frames, GRID.n_bins))
    occ[fields[1], fields[0], fields[2]] = 1.0
    raw = occ[0].T @ occ[1] / n_frames
    accidental = np.outer(*occ.sum(axis=1) / n_frames)
    for name, want in (("raw", raw), ("accidental", accidental),
                       ("covariance", raw - accidental)):
        assert np.array_equal(read_map_csv(tmp_path / f"{name}.csv")[0], want)
    pairs = int((occ[0].T @ occ[1]).sum())
    assert f"{n_frames} frames, {fields[0].size} events, {pairs} coincidence pairs\n" in (
        capsys.readouterr().out)
