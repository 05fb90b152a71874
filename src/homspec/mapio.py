"""Matrix file I/O for coincidence maps and phase matrices.

CSV format: two header lines carrying the axis grids (bin centers in nm),
then one row of the matrix per line, row index following the first (plus)
axis.  A binary format (magic "ZHM1") with the same header content is
provided for large maps.
"""

import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .spectra import WavelengthGrid

BINARY_MAGIC = b"ZHM1"
BINARY_VERSION = 1

_BIN_HEADER = struct.Struct("<4sH" + "ddH" * 2)


def _grid_header_line(label: str, grid: WavelengthGrid) -> str:
    centers = ",".join(repr(float(c)) for c in grid.centers_nm)
    return f"# {label}_nm: {centers}\n"


def _grid_from_centers(centers_nm: np.ndarray) -> WavelengthGrid:
    centers = np.asarray(centers_nm, dtype=float) * 1e-9
    if centers.size < 2:
        raise DataFormatError("axis needs at least two bins")
    steps = np.diff(centers)
    step = float(np.mean(steps))
    if step <= 0.0 or np.max(np.abs(steps - step)) > 1e-6 * step:
        raise DataFormatError("axis bin centers are not uniformly spaced")
    return WavelengthGrid(start=float(centers[0]), step=step, n_bins=centers.size)


def write_map_csv(values: np.ndarray, grid_p: WavelengthGrid, grid_m: WavelengthGrid, path) -> None:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid_p.n_bins, grid_m.n_bins):
        raise ValueError("matrix shape does not match the grids")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_grid_header_line("axis_plus", grid_p))
        fh.write(_grid_header_line("axis_minus", grid_m))
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_map_csv(path) -> tuple[np.ndarray, WavelengthGrid, WavelengthGrid]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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
        grids.append(_grid_from_centers(centers))
    grid_p, grid_m = grids
    rows = [line for line in lines[2:] if line.strip()]
    if len(rows) != grid_p.n_bins:
        raise DataFormatError(
            f"{path}: {len(rows)} matrix rows, expected {grid_p.n_bins}"
        )
    try:
        values = np.array([[float(v) for v in row.split(",")] for row in rows])
    except ValueError as exc:
        raise DataFormatError(f"{path}: unparseable matrix row") from exc
    if values.shape != (grid_p.n_bins, grid_m.n_bins):
        raise DataFormatError(f"{path}: matrix shape {values.shape} does not match axes")
    return values, grid_p, grid_m


def write_map_binary(values: np.ndarray, grid_p: WavelengthGrid, grid_m: WavelengthGrid, path) -> None:
    values = np.ascontiguousarray(values, dtype="<f8")
    if values.shape != (grid_p.n_bins, grid_m.n_bins):
        raise ValueError("matrix shape does not match the grids")
    header = _BIN_HEADER.pack(
        BINARY_MAGIC,
        BINARY_VERSION,
        grid_p.start,
        grid_p.step,
        grid_p.n_bins,
        grid_m.start,
        grid_m.step,
        grid_m.n_bins,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values.tobytes())


def read_map_binary(path) -> tuple[np.ndarray, WavelengthGrid, WavelengthGrid]:
    raw = Path(path).read_bytes()
    if len(raw) < _BIN_HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    magic, version, p_start, p_step, p_bins, m_start, m_step, m_bins = _BIN_HEADER.unpack_from(raw)
    if magic != BINARY_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}, expected {BINARY_MAGIC!r}")
    if version != BINARY_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    body = raw[_BIN_HEADER.size :]
    expected = p_bins * m_bins * 8
    if len(body) != expected:
        raise DataFormatError(f"{path}: matrix section is {len(body)} bytes, expected {expected}")
    values = np.frombuffer(body, dtype="<f8").reshape(p_bins, m_bins).copy()
    return (
        values,
        WavelengthGrid(p_start, p_step, p_bins),
        WavelengthGrid(m_start, m_step, m_bins),
    )
