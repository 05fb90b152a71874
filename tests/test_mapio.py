import numpy as np
import pytest

from homspec.errors import DataFormatError
from homspec.mapio import read_map_binary, read_map_csv, write_map_binary, write_map_csv
from homspec.spectra import WavelengthGrid

GRID_P = WavelengthGrid.from_edges(790e-9, 803e-9, 24)
GRID_M = WavelengthGrid.from_edges(790e-9, 803e-9, 16)


def sample_values():
    rng = np.random.default_rng(8)
    return rng.standard_normal((GRID_P.n_bins, GRID_M.n_bins)) * 1e-4


def test_csv_round_trip(tmp_path):
    values = sample_values()
    path = tmp_path / "map.csv"
    write_map_csv(values, GRID_P, GRID_M, path)
    loaded, grid_p, grid_m = read_map_csv(path)
    assert np.array_equal(loaded, values)
    assert grid_p.n_bins == GRID_P.n_bins
    assert grid_m.n_bins == GRID_M.n_bins
    assert grid_p.step == pytest.approx(GRID_P.step, rel=1e-9)
    assert grid_p.start == pytest.approx(GRID_P.start, rel=1e-12)


def test_binary_round_trip(tmp_path):
    values = sample_values()
    path = tmp_path / "map.bin"
    write_map_binary(values, GRID_P, GRID_M, path)
    loaded, grid_p, grid_m = read_map_binary(path)
    assert np.array_equal(loaded, values)
    assert grid_p == GRID_P
    assert grid_m == GRID_M


def test_csv_header_required(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    with pytest.raises(DataFormatError, match="header"):
        read_map_csv(path)


def test_csv_row_count_checked(tmp_path):
    values = sample_values()
    path = tmp_path / "map.csv"
    write_map_csv(values, GRID_P, GRID_M, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(DataFormatError, match="rows"):
        read_map_csv(path)


def test_csv_bad_number(tmp_path):
    values = sample_values()
    path = tmp_path / "map.csv"
    write_map_csv(values, GRID_P, GRID_M, path)
    text = path.read_text().replace("e-05", "e-0X", 1)
    path.write_text(text)
    with pytest.raises(DataFormatError):
        read_map_csv(path)


def test_binary_bad_magic(tmp_path):
    values = sample_values()
    path = tmp_path / "map.bin"
    write_map_binary(values, GRID_P, GRID_M, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError, match="magic"):
        read_map_binary(path)


def test_binary_truncated(tmp_path):
    values = sample_values()
    path = tmp_path / "map.bin"
    write_map_binary(values, GRID_P, GRID_M, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(DataFormatError, match="bytes"):
        read_map_binary(path)


def test_shape_mismatch_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_map_csv(np.zeros((3, 3)), GRID_P, GRID_M, tmp_path / "bad.csv")

