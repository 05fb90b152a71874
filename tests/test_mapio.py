import warnings

import numpy as np
import pytest

from homspec.errors import DataFormatError
from homspec.mapio import read_map_csv, write_map_csv
from homspec.spectra import WavelengthGrid

GRID = WavelengthGrid.from_edges(790e-9, 803e-9, 24)


def sample_values():
    rng = np.random.default_rng(8)
    return rng.standard_normal((GRID.n_bins, GRID.n_bins)) * 1e-4


def test_csv_round_trip(tmp_path):
    values = sample_values()
    path = tmp_path / "map.csv"
    write_map_csv(values, GRID, path)
    loaded, grid = read_map_csv(path)
    assert np.array_equal(loaded, values)
    assert grid.n_bins == GRID.n_bins
    assert grid.step == pytest.approx(GRID.step, rel=1e-9)
    assert grid.start == pytest.approx(GRID.start, rel=1e-12)
    # Both axis lines carry the one grid.
    plus, minus = path.read_text().splitlines()[:2]
    assert plus.startswith("# axis_plus_nm: ") and minus.startswith("# axis_minus_nm: ")
    assert plus.split(": ")[1] == minus.split(": ")[1]


def test_csv_header_required(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    with pytest.raises(DataFormatError, match="header"):
        read_map_csv(path)


def test_csv_row_count_checked(tmp_path):
    values = sample_values()
    path = tmp_path / "map.csv"
    write_map_csv(values, GRID, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(DataFormatError, match="rows"):
        read_map_csv(path)


def test_csv_bad_number(tmp_path):
    values = sample_values()
    path = tmp_path / "map.csv"
    write_map_csv(values, GRID, path)
    text = path.read_text().replace("e-05", "e-0X", 1)
    path.write_text(text)
    with pytest.raises(DataFormatError):
        read_map_csv(path)


def test_shape_mismatch_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_map_csv(np.zeros((3, 3)), GRID, tmp_path / "bad.csv")


@pytest.mark.parametrize("cell", ["abc", "", "1.0 2.0", None])  # None: drop the row's last cell
def test_csv_bad_middle_row(tmp_path, cell):
    values = sample_values()
    path = tmp_path / "map.csv"
    write_map_csv(values, GRID, path)
    lines = path.read_text().splitlines()
    row = lines[2 + GRID.n_bins // 2].split(",")
    if cell is None:
        row.pop()
    else:
        row[GRID.n_bins // 2] = cell
    lines[2 + GRID.n_bins // 2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the parser's own complaint must not leak as a warning
        with pytest.raises(DataFormatError, match="unparseable matrix row"):
            read_map_csv(path)
