import numpy as np
import pytest

from homspec.detector import DetectionParams, FrameBatch, simulate_frames
from homspec.errors import DataFormatError
from homspec.interference import coincidence_probability_cosine, port_spectra
from homspec.spectra import WavelengthGrid, gaussian_jsa
from homspec.vapor import DispersionModel, doppler_lifetime
from homspec.zhf import read_frames, write_frames

GRID = WavelengthGrid.from_edges(790e-9, 803e-9, 64)
JSA = gaussian_jsa(796.7e-9, 10e-9, -0.9, GRID)


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
