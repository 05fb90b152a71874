"""Matrix file I/O for coincidence maps and phase matrices.

CSV format: two header lines carrying the axis grids (bin centers in nm),
plus axis first, then one row of the matrix per line, row index following
the plus axis.  Both axes are one grid, so the writer writes the same line
twice and the reader refuses a file whose two axis lines differ.  Every
value is written with repr, so a map reads back bit-identical.
"""

from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .spectra import WavelengthGrid


def _grid_header_line(label: str, grid: WavelengthGrid) -> str:
    centers = ",".join(["%r"] * grid.n_bins) % tuple(grid.centers_nm.tolist())
    return f"# {label}_nm: {centers}\n"


def _grid_from_centers(centers_nm: np.ndarray, path) -> WavelengthGrid:
    centers = np.asarray(centers_nm, dtype=float) * 1e-9
    if centers.size < 2:
        raise DataFormatError(f"{path}: axis needs at least two bins")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite step fails the test
        steps = np.diff(centers)
        step = float(np.mean(steps))
        uniform = np.max(np.abs(steps - step)) <= 1e-6 * step
    if not uniform:
        raise DataFormatError(f"{path}: axis bin centers are not uniformly spaced")
    try:
        return WavelengthGrid(start=float(centers[0]), step=step, n_bins=centers.size)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def write_map_csv(values: np.ndarray, grid: WavelengthGrid, path) -> None:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_bins, grid.n_bins):
        raise ValueError("matrix shape does not match the grid")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_grid_header_line("axis_plus", grid))
        fh.write(_grid_header_line("axis_minus", grid))
        line = ",".join(["%r"] * grid.n_bins) + "\n"
        for row in values.tolist():
            fh.write(line % tuple(row))


def read_map_csv(path) -> tuple[np.ndarray, WavelengthGrid]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    if len(lines) < 3:
        raise DataFormatError(f"{path}: expected two header lines and matrix rows")
    grids = []
    for label, line in zip(("axis_plus", "axis_minus"), lines[:2]):
        prefix = f"# {label}_nm:"
        if not line.startswith(prefix):
            raise DataFormatError(f"{path}: missing header line {prefix!r}")
        try:
            centers = np.array([float(v) for v in line[len(prefix):].split(",")])
        except ValueError as exc:
            raise DataFormatError(f"{path}: unparseable axis header") from exc
        grids.append(_grid_from_centers(centers, path))
    grid, minus = grids
    if minus != grid:
        raise DataFormatError(f"{path}: the axis_plus and axis_minus grids differ")
    rows = [line for line in lines[2:] if line.strip()]
    if len(rows) != grid.n_bins:
        raise DataFormatError(f"{path}: {len(rows)} matrix rows, expected {grid.n_bins}")
    try:
        # numpy's C parser; a short row or a non-numeric cell raises ValueError.
        values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise DataFormatError(f"{path}: unparseable matrix row") from exc
    if values.shape != (grid.n_bins, grid.n_bins):
        raise DataFormatError(f"{path}: matrix shape {values.shape} does not match axes")
    return values, grid
